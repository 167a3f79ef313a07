//! Nearest-centroid baseline classifier.
//!
//! Exists to demonstrate the CQM's black-box independence: the quality
//! add-on must work unchanged over a classifier with a completely different
//! decision geometry than the TSK FIS.

use cqm_core::classifier::{ClassId, Classifier};
use cqm_core::CqmError;
use serde::{Deserialize, Serialize};

use crate::dataset::ClassifiedDataset;
use crate::{ClassifyError, Result};

/// Classifier assigning each cue vector to the class with the nearest mean.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NearestCentroid {
    centroids: Vec<Vec<f64>>, // indexed by class
    present: Vec<bool>,
    dim: usize,
}

impl NearestCentroid {
    /// Fit per-class centroids.
    ///
    /// # Errors
    ///
    /// Returns [`ClassifyError::InvalidData`] for an empty dataset or fewer
    /// than two non-empty classes.
    pub fn train(data: &ClassifiedDataset) -> Result<Self> {
        if data.is_empty() {
            return Err(ClassifyError::InvalidData("empty dataset".into()));
        }
        let k = data.num_classes();
        let dim = data.dim();
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (cues, label) in data.iter() {
            counts[label.0] += 1;
            for (s, &x) in sums[label.0].iter_mut().zip(cues) {
                *s += x;
            }
        }
        let present: Vec<bool> = counts.iter().map(|&c| c > 0).collect();
        if present.iter().filter(|&&p| p).count() < 2 {
            return Err(ClassifyError::InvalidData(
                "need at least 2 non-empty classes".into(),
            ));
        }
        let centroids = sums
            .into_iter()
            .zip(&counts)
            .map(|(s, &c)| {
                if c > 0 {
                    s.into_iter().map(|v| v / c as f64).collect()
                } else {
                    vec![f64::INFINITY; dim]
                }
            })
            .collect();
        Ok(NearestCentroid {
            centroids,
            present,
            dim,
        })
    }

    /// The fitted centroid of a class (`None` for absent classes).
    pub fn centroid(&self, class: ClassId) -> Option<&[f64]> {
        if *self.present.get(class.0)? {
            Some(&self.centroids[class.0])
        } else {
            None
        }
    }
}

impl Classifier for NearestCentroid {
    fn classify(&self, cues: &[f64]) -> cqm_core::Result<ClassId> {
        self.check_cues(cues)?;
        let best = self
            .centroids
            .iter()
            .enumerate()
            .filter(|(i, _)| self.present[*i])
            .min_by(|(_, a), (_, b)| {
                let da: f64 = a.iter().zip(cues).map(|(c, x)| (c - x) * (c - x)).sum();
                let db: f64 = b.iter().zip(cues).map(|(c, x)| (c - x) * (c - x)).sum();
                da.total_cmp(&db)
            })
            .map(|(i, _)| ClassId(i))
            .ok_or_else(|| CqmError::InvalidInput("no trained centroids".into()))?;
        Ok(best)
    }

    fn cue_dim(&self) -> usize {
        self.dim
    }

    fn num_classes(&self) -> usize {
        self.centroids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corner_data() -> ClassifiedDataset {
        let mut d = ClassifiedDataset::new(2, 2);
        for i in 0..10 {
            let e = i as f64 * 0.01;
            d.push(vec![0.0 + e, 0.0], ClassId(0)).unwrap();
            d.push(vec![1.0 - e, 1.0], ClassId(1)).unwrap();
        }
        d
    }

    #[test]
    fn classifies_by_nearest_mean() {
        let clf = NearestCentroid::train(&corner_data()).unwrap();
        assert_eq!(clf.classify(&[0.1, 0.1]).unwrap(), ClassId(0));
        assert_eq!(clf.classify(&[0.9, 0.9]).unwrap(), ClassId(1));
        assert_eq!(clf.cue_dim(), 2);
        assert_eq!(clf.num_classes(), 2);
    }

    #[test]
    fn centroids_are_class_means() {
        let clf = NearestCentroid::train(&corner_data()).unwrap();
        let c0 = clf.centroid(ClassId(0)).unwrap();
        assert!((c0[0] - 0.045).abs() < 1e-12);
        // The mean of exact zeros is exactly +0.0.
        assert_eq!(c0[1].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn absent_class_never_predicted() {
        let mut d = ClassifiedDataset::new(1, 3);
        for i in 0..10 {
            d.push(vec![i as f64], ClassId(0)).unwrap();
            d.push(vec![i as f64 + 100.0], ClassId(2)).unwrap();
        }
        let clf = NearestCentroid::train(&d).unwrap();
        assert!(clf.centroid(ClassId(1)).is_none());
        for x in [0.0, 50.0, 150.0] {
            assert_ne!(clf.classify(&[x]).unwrap(), ClassId(1));
        }
    }

    #[test]
    fn validation() {
        assert!(NearestCentroid::train(&ClassifiedDataset::new(1, 2)).is_err());
        let mut single = ClassifiedDataset::new(1, 2);
        single.push(vec![0.0], ClassId(0)).unwrap();
        assert!(NearestCentroid::train(&single).is_err());
        let clf = NearestCentroid::train(&corner_data()).unwrap();
        assert!(clf.classify(&[0.1]).is_err());
        assert!(clf.classify(&[f64::NAN, 0.0]).is_err());
    }
}
