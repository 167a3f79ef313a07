//! Labeled classification dataset `(cue vector, class)`.

use cqm_core::classifier::ClassId;
use cqm_sensors::node::LabeledCues;

use crate::{ClassifyError, Result};

/// Labeled cue vectors for classifier training.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifiedDataset {
    dim: usize,
    num_classes: usize,
    cues: Vec<Vec<f64>>,
    labels: Vec<ClassId>,
}

impl ClassifiedDataset {
    /// Empty dataset for `dim`-dimensional cues over `num_classes` classes.
    pub fn new(dim: usize, num_classes: usize) -> Self {
        ClassifiedDataset {
            dim,
            num_classes,
            cues: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Build from the sensor node's labeled windows (the AwarePen corpus).
    ///
    /// # Errors
    ///
    /// Returns [`ClassifyError::InvalidData`] on an empty corpus.
    pub fn from_labeled_cues(corpus: &[LabeledCues]) -> Result<Self> {
        let first = corpus
            .first()
            .ok_or_else(|| ClassifyError::InvalidData("empty corpus".into()))?;
        let mut ds = ClassifiedDataset::new(first.cues.len(), cqm_sensors::Context::ALL.len());
        for s in corpus {
            ds.push(s.cues.clone(), ClassId(s.truth.index()))?;
        }
        Ok(ds)
    }

    /// Append one sample.
    ///
    /// # Errors
    ///
    /// Returns [`ClassifyError::InvalidData`] on dimension mismatch,
    /// non-finite cues or an out-of-range class.
    pub fn push(&mut self, cues: Vec<f64>, label: ClassId) -> Result<()> {
        if cues.len() != self.dim {
            return Err(ClassifyError::InvalidData(format!(
                "cue vector has {} entries, dataset expects {}",
                cues.len(),
                self.dim
            )));
        }
        if cues.iter().any(|x| !x.is_finite()) {
            return Err(ClassifyError::InvalidData("non-finite cue value".into()));
        }
        if label.0 >= self.num_classes {
            return Err(ClassifyError::InvalidData(format!(
                "class {} out of range (k = {})",
                label.0, self.num_classes
            )));
        }
        self.cues.push(cues);
        self.labels.push(label);
        Ok(())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.cues.len()
    }

    /// Whether the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.cues.is_empty()
    }

    /// Cue dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Cue vectors.
    pub fn cues(&self) -> &[Vec<f64>] {
        &self.cues
    }

    /// Labels.
    pub fn labels(&self) -> &[ClassId] {
        &self.labels
    }

    /// Iterate `(cues, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], ClassId)> + '_ {
        self.cues
            .iter()
            .map(Vec::as_slice)
            .zip(self.labels.iter().copied())
    }

    /// Per-class sample counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for l in &self.labels {
            counts[l.0] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_validates() {
        let mut d = ClassifiedDataset::new(2, 3);
        assert!(d.push(vec![1.0], ClassId(0)).is_err());
        assert!(d.push(vec![1.0, f64::NAN], ClassId(0)).is_err());
        assert!(d.push(vec![1.0, 2.0], ClassId(3)).is_err());
        assert!(d.push(vec![1.0, 2.0], ClassId(2)).is_ok());
        assert_eq!(d.len(), 1);
        assert!(!d.is_empty());
    }

    #[test]
    fn class_counts() {
        let mut d = ClassifiedDataset::new(1, 2);
        d.push(vec![0.0], ClassId(0)).unwrap();
        d.push(vec![1.0], ClassId(1)).unwrap();
        d.push(vec![2.0], ClassId(1)).unwrap();
        assert_eq!(d.class_counts(), vec![1, 2]);
    }

    #[test]
    fn from_labeled_cues_maps_contexts() {
        use cqm_sensors::node::LabeledCues;
        use cqm_sensors::Context;
        let corpus = vec![
            LabeledCues {
                cues: vec![0.1, 0.2, 0.3],
                truth: Context::Writing,
                t: 0.0,
                is_transition: false,
            },
            LabeledCues {
                cues: vec![0.4, 0.5, 0.6],
                truth: Context::Playing,
                t: 1.0,
                is_transition: true,
            },
        ];
        let d = ClassifiedDataset::from_labeled_cues(&corpus).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.dim(), 3);
        assert_eq!(d.num_classes(), 3);
        assert_eq!(d.labels()[0], ClassId(Context::Writing.index()));
        assert!(ClassifiedDataset::from_labeled_cues(&[]).is_err());
    }

    #[test]
    fn iter_pairs() {
        let mut d = ClassifiedDataset::new(1, 2);
        d.push(vec![0.5], ClassId(1)).unwrap();
        let pairs: Vec<_> = d.iter().collect();
        assert_eq!(pairs, vec![(&[0.5][..], ClassId(1))]);
    }
}
