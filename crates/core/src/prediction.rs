//! Quality-trend context prediction (§5 outlook).
//!
//! "The measure can i.e. indicate that a context classification changes in
//! direction to another context": while the emitted class is still stable,
//! a consistently *falling* quality means the sensor situation is drifting
//! out of the class's competence region — a transition is likely imminent.
//! [`TrendPredictor`] watches the `(class, quality)` stream and raises a
//! [`PredictionHint`] when that pattern appears.

use std::collections::VecDeque;

use crate::classifier::ClassId;
use crate::normalize::Quality;
use crate::{CqmError, Result};

/// A prediction emitted by the trend watcher.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredictionHint {
    /// Quality stable/high: current context expected to continue.
    Stable,
    /// Quality falling over the window while the class is unchanged: a
    /// context change is likely. The payload is the per-step quality slope
    /// (negative).
    TransitionLikely {
        /// Average quality change per observation (negative).
        slope: f64,
    },
    /// Not enough observations yet.
    Warmup,
}

/// Sliding-window watcher over `(class, quality)` observations.
#[derive(Debug, Clone)]
pub struct TrendPredictor {
    window: usize,
    slope_threshold: f64,
    history: VecDeque<(ClassId, f64)>,
}

impl TrendPredictor {
    /// Create a watcher with the given window length and slope threshold
    /// (a transition is signalled when the fitted quality slope is below
    /// `−slope_threshold` per step and the class did not change within the
    /// window).
    ///
    /// # Errors
    ///
    /// Returns [`CqmError::InvalidInput`] if `window < 3` or the threshold
    /// is not positive.
    pub fn new(window: usize, slope_threshold: f64) -> Result<Self> {
        if window < 3 {
            return Err(CqmError::InvalidInput(format!(
                "trend window must be >= 3, got {window}"
            )));
        }
        if !(slope_threshold > 0.0 && slope_threshold.is_finite()) {
            return Err(CqmError::InvalidInput(format!(
                "slope threshold {slope_threshold} must be positive"
            )));
        }
        Ok(TrendPredictor {
            window,
            slope_threshold,
            history: VecDeque::new(),
        })
    }

    /// Feed one observation and get the current hint. Observations with ε
    /// quality reset the window — after an ε the measure has no valid
    /// trajectory to extrapolate.
    pub fn observe(&mut self, class: ClassId, quality: Quality) -> PredictionHint {
        let q = match quality {
            Quality::Value(v) => v,
            Quality::Epsilon => {
                self.history.clear();
                return PredictionHint::Warmup;
            }
        };
        // A class change also resets the trend: the transition happened.
        if let Some(&(last_class, _)) = self.history.back() {
            if last_class != class {
                self.history.clear();
            }
        }
        self.history.push_back((class, q));
        while self.history.len() > self.window {
            self.history.pop_front();
        }
        if self.history.len() < self.window {
            return PredictionHint::Warmup;
        }
        // Least-squares slope of quality over the window.
        let n = self.history.len() as f64;
        let mean_x = (n - 1.0) / 2.0;
        let mean_y: f64 = self.history.iter().map(|(_, q)| q).sum::<f64>() / n;
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, (_, q)) in self.history.iter().enumerate() {
            let dx = i as f64 - mean_x;
            num += dx * (q - mean_y);
            den += dx * dx;
        }
        let slope = if den > 0.0 { num / den } else { 0.0 };
        if slope < -self.slope_threshold {
            PredictionHint::TransitionLikely { slope }
        } else {
            PredictionHint::Stable
        }
    }

    /// Drop all history.
    pub fn reset(&mut self) {
        self.history.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(q: f64) -> Quality {
        Quality::Value(q)
    }

    #[test]
    fn construction_validated() {
        assert!(TrendPredictor::new(2, 0.01).is_err());
        assert!(TrendPredictor::new(5, 0.0).is_err());
        assert!(TrendPredictor::new(5, f64::NAN).is_err());
        assert!(TrendPredictor::new(3, 0.01).is_ok());
    }

    #[test]
    fn warmup_then_stable() {
        let mut p = TrendPredictor::new(4, 0.02).unwrap();
        assert_eq!(p.observe(ClassId(0), v(0.9)), PredictionHint::Warmup);
        assert_eq!(p.observe(ClassId(0), v(0.91)), PredictionHint::Warmup);
        assert_eq!(p.observe(ClassId(0), v(0.9)), PredictionHint::Warmup);
        assert_eq!(p.observe(ClassId(0), v(0.92)), PredictionHint::Stable);
    }

    #[test]
    fn falling_quality_predicts_transition() {
        let mut p = TrendPredictor::new(5, 0.02).unwrap();
        let mut last = PredictionHint::Warmup;
        for (i, q) in [0.95, 0.85, 0.72, 0.6, 0.45, 0.3].iter().enumerate() {
            last = p.observe(ClassId(1), v(*q));
            if i < 4 {
                assert_eq!(last, PredictionHint::Warmup);
            }
        }
        match last {
            PredictionHint::TransitionLikely { slope } => assert!(slope < -0.05),
            other => panic!("expected transition, got {other:?}"),
        }
    }

    #[test]
    fn class_change_resets_trend() {
        let mut p = TrendPredictor::new(3, 0.02).unwrap();
        p.observe(ClassId(0), v(0.9));
        p.observe(ClassId(0), v(0.7));
        // Class flips: history restarts, so we are in warmup again.
        assert_eq!(p.observe(ClassId(1), v(0.5)), PredictionHint::Warmup);
    }

    #[test]
    fn epsilon_resets_window() {
        let mut p = TrendPredictor::new(3, 0.02).unwrap();
        p.observe(ClassId(0), v(0.9));
        p.observe(ClassId(0), v(0.8));
        assert_eq!(
            p.observe(ClassId(0), Quality::Epsilon),
            PredictionHint::Warmup
        );
        assert_eq!(p.observe(ClassId(0), v(0.7)), PredictionHint::Warmup);
    }

    #[test]
    fn slow_decline_below_threshold_is_stable() {
        let mut p = TrendPredictor::new(4, 0.05).unwrap();
        let mut last = PredictionHint::Warmup;
        for q in [0.9, 0.895, 0.89, 0.885, 0.88] {
            last = p.observe(ClassId(0), v(q));
        }
        assert_eq!(last, PredictionHint::Stable);
    }

    #[test]
    fn reset_clears_history() {
        let mut p = TrendPredictor::new(3, 0.02).unwrap();
        p.observe(ClassId(0), v(0.9));
        p.observe(ClassId(0), v(0.9));
        p.reset();
        assert_eq!(p.observe(ClassId(0), v(0.9)), PredictionHint::Warmup);
    }
}
