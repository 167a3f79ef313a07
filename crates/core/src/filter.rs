//! Threshold-based acceptance filtering — the mechanism behind the paper's
//! headline result: "the appliance can discard 33% of the classifications,
//! which equals all wrong contextual classifications, when using the
//! measure" (§3.2).

use serde::{Deserialize, Serialize};

use cqm_stats::confusion::FilterOutcome;

use crate::normalize::Quality;
use crate::{CqmError, Result};

/// Accept/discard decision for one classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Decision {
    /// Quality above the threshold: the classification may be acted on.
    Accept,
    /// Quality at/below the threshold or ε: the classification should be
    /// ignored by the consuming application.
    Discard,
}

impl Decision {
    /// Whether this is [`Decision::Accept`].
    pub fn is_accept(&self) -> bool {
        matches!(self, Decision::Accept)
    }
}

/// A quality filter with a fixed threshold `s`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QualityFilter {
    threshold: f64,
}

impl QualityFilter {
    /// Create a filter with threshold `s ∈ [0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`CqmError::InvalidInput`] for a threshold outside `[0, 1]`.
    pub fn new(threshold: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&threshold) {
            return Err(CqmError::InvalidInput(format!(
                "threshold {threshold} outside [0, 1]"
            )));
        }
        Ok(QualityFilter { threshold })
    }

    /// The threshold `s`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Decide on one quality value: accept iff `q > s`. The ε state is
    /// always discarded — it signals that no semantically valid measure
    /// exists (§2.1.3).
    pub fn decide(&self, quality: Quality) -> Decision {
        match quality {
            Quality::Value(q) if q > self.threshold => Decision::Accept,
            _ => Decision::Discard,
        }
    }

    /// Evaluate the filter over labeled quality samples, producing the
    /// accounting needed for the improvement experiments.
    pub fn evaluate<'a, I>(&self, samples: I) -> FilterOutcome
    where
        I: IntoIterator<Item = &'a (Quality, bool)>,
    {
        let mut outcome = FilterOutcome::default();
        for &(quality, was_right) in samples {
            match (self.decide(quality), quality, was_right) {
                (_, Quality::Epsilon, _) => outcome.epsilon += 1,
                (Decision::Accept, _, true) => outcome.accepted_right += 1,
                (Decision::Accept, _, false) => outcome.accepted_wrong += 1,
                (Decision::Discard, _, true) => outcome.discarded_right += 1,
                (Decision::Discard, _, false) => outcome.discarded_wrong += 1,
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(QualityFilter::new(0.81).is_ok());
        assert!(QualityFilter::new(0.0).is_ok());
        assert!(QualityFilter::new(1.0).is_ok());
        assert!(QualityFilter::new(-0.1).is_err());
        assert!(QualityFilter::new(1.1).is_err());
        assert!(QualityFilter::new(f64::NAN).is_err());
    }

    #[test]
    fn decisions_strictly_above_threshold() {
        let f = QualityFilter::new(0.81).unwrap();
        assert_eq!(f.decide(Quality::Value(0.9)), Decision::Accept);
        assert_eq!(f.decide(Quality::Value(0.81)), Decision::Discard); // not strictly above
        assert_eq!(f.decide(Quality::Value(0.5)), Decision::Discard);
        assert_eq!(f.decide(Quality::Epsilon), Decision::Discard);
        assert!(f.decide(Quality::Value(0.99)).is_accept());
    }

    #[test]
    fn evaluate_paper_scenario() {
        // 16 right with high q, 8 wrong with low q; s = 0.81 separates.
        let f = QualityFilter::new(0.81).unwrap();
        let mut samples = Vec::new();
        for i in 0..16 {
            samples.push((Quality::Value(0.9 + 0.005 * i as f64), true));
        }
        for i in 0..8 {
            samples.push((Quality::Value(0.1 + 0.05 * i as f64), false));
        }
        let outcome = f.evaluate(&samples);
        assert_eq!(outcome.accepted_right, 16);
        assert_eq!(outcome.discarded_wrong, 8);
        assert_eq!(outcome.accepted_wrong, 0);
        assert_eq!(outcome.discarded_right, 0);
        assert!((outcome.discard_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!((outcome.accuracy_after() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn epsilon_counted_separately() {
        let f = QualityFilter::new(0.5).unwrap();
        let samples = vec![
            (Quality::Epsilon, true),
            (Quality::Epsilon, false),
            (Quality::Value(0.9), true),
        ];
        let outcome = f.evaluate(&samples);
        assert_eq!(outcome.epsilon, 2);
        assert_eq!(outcome.accepted_right, 1);
        assert_eq!(outcome.total(), 3);
    }

    #[test]
    fn serde_round_trip() {
        let f = QualityFilter::new(0.81).unwrap();
        let json = serde_json::to_string(&f).unwrap();
        let back: QualityFilter = serde_json::from_str(&json).unwrap();
        assert_eq!(back.threshold().to_bits(), 0.81f64.to_bits());
    }
}
