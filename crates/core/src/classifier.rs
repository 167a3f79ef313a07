//! The black-box classifier abstraction (§2: "The context system considers
//! the recognition algorithm as a black box. This way the design is
//! applicable to all recognition algorithms.").

use serde::{Deserialize, Serialize};

use crate::{CqmError, Result};

/// Identifier of a context class (`c` in the paper). The CQM appends this —
/// as a plain numeric value — to the cue vector when forming `v_Q`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ClassId(pub usize);

impl ClassId {
    /// Numeric value used as the `(n+1)`-th FIS input.
    pub fn as_f64(&self) -> f64 {
        self.0 as f64
    }
}

impl From<usize> for ClassId {
    fn from(v: usize) -> Self {
        ClassId(v)
    }
}

impl std::fmt::Display for ClassId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "class#{}", self.0)
    }
}

/// A black-box context classifier: cue vector in, context class out.
///
/// Implementations live in `cqm-classify` (TSK-FIS classifier, k-NN,
/// nearest centroid) and in user code; the CQM layer never inspects the
/// internals — it only combines the classifier's inputs and output into
/// `v_Q = (v_1, …, v_n, c)` (§2.1.1).
pub trait Classifier: Send + Sync {
    /// Classify one cue vector.
    ///
    /// # Errors
    ///
    /// Implementations should return [`CqmError::InvalidInput`] for
    /// mis-dimensioned or non-finite cues, and may fail on inputs outside
    /// their competence region.
    fn classify(&self, cues: &[f64]) -> Result<ClassId>;

    /// Expected cue dimensionality `n`.
    fn cue_dim(&self) -> usize;

    /// Number of context classes the classifier can emit.
    fn num_classes(&self) -> usize;

    /// Validate a cue vector against this classifier's expectations.
    ///
    /// # Errors
    ///
    /// Returns [`CqmError::InvalidInput`] on dimension mismatch or
    /// non-finite values.
    fn check_cues(&self, cues: &[f64]) -> Result<()> {
        check_cue_vector(cues, self.cue_dim(), "classifier")
    }
}

/// The one cue-vector check behind every classifier and quality measure,
/// reference and kernel paths alike: exactly `expected` entries, all
/// finite. `consumer` names the checking component in the error text.
///
/// # Errors
///
/// Returns [`CqmError::InvalidInput`] on dimension mismatch or non-finite
/// values.
#[inline]
pub fn check_cue_vector(cues: &[f64], expected: usize, consumer: &str) -> Result<()> {
    if cues.len() != expected {
        return Err(CqmError::InvalidInput(format!(
            "cue vector has {} entries, {consumer} expects {expected}",
            cues.len()
        )));
    }
    if cues.iter().any(|x| !x.is_finite()) {
        return Err(CqmError::InvalidInput(
            "cue vector contains non-finite values".into(),
        ));
    }
    Ok(())
}

/// Blanket implementation so `Box<dyn Classifier>` is itself a classifier.
impl<T: Classifier + ?Sized> Classifier for Box<T> {
    fn classify(&self, cues: &[f64]) -> Result<ClassId> {
        (**self).classify(cues)
    }

    fn cue_dim(&self) -> usize {
        (**self).cue_dim()
    }

    fn num_classes(&self) -> usize {
        (**self).num_classes()
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// Deterministic 1-D test classifier: class 1 iff `cue[0] > boundary`.
    pub struct BoundaryClassifier {
        pub boundary: f64,
    }

    impl Classifier for BoundaryClassifier {
        fn classify(&self, cues: &[f64]) -> Result<ClassId> {
            self.check_cues(cues)?;
            Ok(ClassId(usize::from(cues[0] > self.boundary)))
        }

        fn cue_dim(&self) -> usize {
            1
        }

        fn num_classes(&self) -> usize {
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::BoundaryClassifier;
    use super::*;

    #[test]
    fn class_id_conversions() {
        let c: ClassId = 3.into();
        assert_eq!(c.as_f64().to_bits(), 3.0f64.to_bits());
        assert_eq!(c.to_string(), "class#3");
        assert_eq!(ClassId::default(), ClassId(0));
    }

    #[test]
    fn check_cues_validates() {
        let c = BoundaryClassifier { boundary: 0.5 };
        assert!(c.check_cues(&[0.3]).is_ok());
        assert!(c.check_cues(&[0.3, 0.4]).is_err());
        assert!(c.check_cues(&[f64::NAN]).is_err());
    }

    #[test]
    fn cue_vector_errors_name_their_consumer() {
        let message = |r: Result<()>| match r {
            Err(CqmError::InvalidInput(m)) => m,
            other => panic!("expected InvalidInput, got {other:?}"),
        };
        assert_eq!(
            message(check_cue_vector(&[0.3, 0.4], 1, "classifier")),
            "cue vector has 2 entries, classifier expects 1"
        );
        assert_eq!(
            message(check_cue_vector(&[0.3], 3, "quality measure")),
            "cue vector has 1 entries, quality measure expects 3"
        );
        assert_eq!(
            message(check_cue_vector(&[f64::INFINITY], 1, "classifier")),
            "cue vector contains non-finite values"
        );
        assert!(check_cue_vector(&[0.3], 1, "classifier").is_ok());
    }

    #[test]
    fn boxed_classifier_delegates() {
        let boxed: Box<dyn Classifier> = Box::new(BoundaryClassifier { boundary: 0.5 });
        assert_eq!(boxed.cue_dim(), 1);
        assert_eq!(boxed.num_classes(), 2);
        assert_eq!(boxed.classify(&[0.9]).unwrap(), ClassId(1));
        assert_eq!(boxed.classify(&[0.1]).unwrap(), ClassId(0));
    }

    #[test]
    fn class_id_serde() {
        let json = serde_json::to_string(&ClassId(2)).unwrap();
        let back: ClassId = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ClassId(2));
    }
}
