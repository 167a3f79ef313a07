//! Runtime composition: classifier ⊕ quality measure ⊕ filter (Fig. 2/4).
//!
//! "Each time the contextual classification gets a new input v_C, the
//! classification result is combined with this vector in a new vector v_Q"
//! (§2.1.1) — [`CqmSystem::classify_with_quality`] performs exactly that
//! interconnection on every sample.

use serde::{Deserialize, Serialize};

use crate::classifier::{ClassId, Classifier};
use crate::filter::{Decision, QualityFilter};
use crate::normalize::Quality;
use crate::quality::QualityMeasure;
use crate::training::TrainedCqm;
use crate::{CqmError, Result};

/// A context classification annotated with its quality and filter decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QualifiedClassification {
    /// The class the black box emitted.
    pub class: ClassId,
    /// The CQM value for this classification.
    pub quality: Quality,
    /// The filter's verdict at the configured threshold.
    pub decision: Decision,
}

/// The complete runtime system: black-box classifier, quality FIS and
/// threshold filter.
#[derive(Debug, Clone)]
pub struct CqmSystem<C> {
    classifier: C,
    measure: QualityMeasure,
    filter: QualityFilter,
}

impl<C: Classifier> CqmSystem<C> {
    /// Compose a system from its parts.
    ///
    /// # Errors
    ///
    /// Returns [`CqmError::InvalidInput`] if the measure's cue dimension
    /// does not match the classifier's.
    pub fn new(classifier: C, measure: QualityMeasure, filter: QualityFilter) -> Result<Self> {
        if measure.cue_dim() != classifier.cue_dim() {
            return Err(CqmError::InvalidInput(format!(
                "quality measure expects {} cues, classifier produces {}",
                measure.cue_dim(),
                classifier.cue_dim()
            )));
        }
        Ok(CqmSystem {
            classifier,
            measure,
            filter,
        })
    }

    /// Compose a system from a classifier and a training result, using the
    /// trained optimal threshold.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CqmSystem::new`], plus an invalid trained
    /// threshold.
    pub fn from_trained(classifier: C, trained: &TrainedCqm) -> Result<Self> {
        let filter = QualityFilter::new(trained.threshold.value.clamp(0.0, 1.0))?;
        CqmSystem::new(classifier, trained.measure.clone(), filter)
    }

    /// The black-box classifier.
    pub fn classifier(&self) -> &C {
        &self.classifier
    }

    /// The quality measure.
    pub fn measure(&self) -> &QualityMeasure {
        &self.measure
    }

    /// The filter.
    pub fn filter(&self) -> &QualityFilter {
        &self.filter
    }

    /// Classify one cue vector and annotate the result with its CQM and the
    /// accept/discard decision.
    ///
    /// # Errors
    ///
    /// * [`CqmError::InvalidInput`] on malformed cues.
    /// * Errors from the black-box classifier itself.
    // lint: allow(ASSERT_DENSITY) -- cue validation lives in check_cue_vector (via the classifier and QualityMeasure::measure), which rejects bad input via Result
    pub fn classify_with_quality(&self, cues: &[f64]) -> Result<QualifiedClassification> {
        let class = self.classifier.classify(cues)?;
        let quality = self.measure.measure(cues, class)?;
        Ok(QualifiedClassification {
            class,
            quality,
            decision: self.filter.decide(quality),
        })
    }

    /// Classify a batch; propagates the first error.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CqmSystem::classify_with_quality`].
    // lint: allow(ASSERT_DENSITY) -- delegates row-wise to classify_with_quality, which validates via Result
    pub fn classify_batch(&self, batch: &[Vec<f64>]) -> Result<Vec<QualifiedClassification>> {
        batch
            .iter()
            .map(|c| self.classify_with_quality(c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::test_support::BoundaryClassifier;
    use crate::training::{train_cqm, CqmTrainingConfig};

    fn trained_system() -> CqmSystem<BoundaryClassifier> {
        let cues: Vec<Vec<f64>> = (0..300).map(|i| vec![i as f64 / 299.0]).collect();
        let truth: Vec<ClassId> = cues
            .iter()
            .map(|c| ClassId(usize::from(c[0] > 0.45)))
            .collect();
        let clf = BoundaryClassifier { boundary: 0.5 };
        let trained = train_cqm(&clf, &cues, &truth, &CqmTrainingConfig::fast()).unwrap();
        CqmSystem::from_trained(BoundaryClassifier { boundary: 0.5 }, &trained).unwrap()
    }

    #[test]
    fn qualified_classification_fields_coherent() {
        let sys = trained_system();
        let q = sys.classify_with_quality(&[0.9]).unwrap();
        assert_eq!(q.class, ClassId(1));
        match q.quality {
            Quality::Value(v) => assert!((0.0..=1.0).contains(&v)),
            Quality::Epsilon => {}
        }
        assert_eq!(q.decision, sys.filter().decide(q.quality));
    }

    #[test]
    fn confident_region_accepted_ambiguous_discarded_more() {
        let sys = trained_system();
        // Far from the boundary: almost always accepted.
        let far: Vec<Vec<f64>> = (0..20).map(|i| vec![0.9 + 0.005 * i as f64]).collect();
        let far_accepts = sys
            .classify_batch(&far)
            .unwrap()
            .iter()
            .filter(|q| q.decision.is_accept())
            .count();
        // Inside the ambiguity band 0.45..0.5: mostly discarded.
        let band: Vec<Vec<f64>> = (0..20).map(|i| vec![0.452 + 0.002 * i as f64]).collect();
        let band_accepts = sys
            .classify_batch(&band)
            .unwrap()
            .iter()
            .filter(|q| q.decision.is_accept())
            .count();
        assert!(
            far_accepts > band_accepts,
            "far {far_accepts}/20 vs band {band_accepts}/20"
        );
    }

    #[test]
    fn dimension_mismatch_rejected_at_composition() {
        let sys = trained_system();
        let measure = sys.measure().clone();
        // A classifier with a different cue dimension cannot be composed.
        struct TwoCue;
        impl Classifier for TwoCue {
            fn classify(&self, _c: &[f64]) -> Result<ClassId> {
                Ok(ClassId(0))
            }
            fn cue_dim(&self) -> usize {
                2
            }
            fn num_classes(&self) -> usize {
                2
            }
        }
        assert!(CqmSystem::new(TwoCue, measure, QualityFilter::new(0.5).unwrap()).is_err());
    }

    #[test]
    fn malformed_cues_propagate() {
        let sys = trained_system();
        assert!(sys.classify_with_quality(&[0.1, 0.2]).is_err());
        assert!(sys.classify_with_quality(&[f64::NAN]).is_err());
    }

    #[test]
    fn accessors() {
        let sys = trained_system();
        assert_eq!(sys.classifier().cue_dim(), 1);
        assert_eq!(sys.measure().cue_dim(), 1);
        assert!(sys.filter().threshold() >= 0.0);
    }
}
