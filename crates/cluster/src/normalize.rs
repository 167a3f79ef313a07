//! Affine normalization of data into the unit hypercube.
//!
//! Subtractive and mountain clustering measure density with a single radius
//! across all dimensions, so the data must first be scaled into `[0, 1]^d`
//! (Chiu 1994). The transform is remembered so cluster centers can be mapped
//! back to the original coordinates.

// lint: allow(PANIC_IN_LIB, file) -- column indices range over dims validated by check_data

use crate::{check_data, ClusterError, Result};

/// Affine per-dimension normalizer `x' = (x − lo) / (hi − lo)`.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitScaler {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl UnitScaler {
    /// Fit the per-dimension ranges of `data`.
    ///
    /// Dimensions with zero spread are given an artificial unit range so the
    /// transform stays invertible (they map to the constant 0).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidData`] for empty/ragged/non-finite
    /// input.
    pub fn fit(data: &[Vec<f64>]) -> Result<Self> {
        let dim = check_data(data)?;
        let mut lo = vec![f64::INFINITY; dim];
        let mut hi = vec![f64::NEG_INFINITY; dim];
        for p in data {
            for d in 0..dim {
                lo[d] = lo[d].min(p[d]);
                hi[d] = hi[d].max(p[d]);
            }
        }
        for d in 0..dim {
            if hi[d] - lo[d] <= 0.0 {
                hi[d] = lo[d] + 1.0;
            }
        }
        Ok(UnitScaler { lo, hi })
    }

    /// Dimensionality this scaler was fitted on.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Per-dimension range width `hi − lo`.
    pub fn ranges(&self) -> Vec<f64> {
        self.lo.iter().zip(&self.hi).map(|(l, h)| h - l).collect()
    }

    /// Map one point into the unit cube.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidData`] on dimension mismatch.
    pub fn transform(&self, p: &[f64]) -> Result<Vec<f64>> {
        if p.len() != self.dim() {
            return Err(ClusterError::InvalidData(format!(
                "point has dimension {}, scaler expects {}",
                p.len(),
                self.dim()
            )));
        }
        Ok(p.iter()
            .zip(self.lo.iter().zip(&self.hi))
            .map(|(&x, (&l, &h))| (x - l) / (h - l))
            .collect())
    }

    /// Map a whole data set into the unit cube.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidData`] on dimension mismatch.
    pub fn transform_all(&self, data: &[Vec<f64>]) -> Result<Vec<Vec<f64>>> {
        data.iter().map(|p| self.transform(p)).collect()
    }

    /// Map a unit-cube point back to original coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidData`] on dimension mismatch.
    pub fn inverse(&self, p: &[f64]) -> Result<Vec<f64>> {
        if p.len() != self.dim() {
            return Err(ClusterError::InvalidData(format!(
                "point has dimension {}, scaler expects {}",
                p.len(),
                self.dim()
            )));
        }
        Ok(p.iter()
            .zip(self.lo.iter().zip(&self.hi))
            .map(|(&x, (&l, &h))| l + x * (h - l))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_transform_round_trip() {
        let data = vec![vec![0.0, 10.0], vec![2.0, 30.0], vec![1.0, 20.0]];
        let s = UnitScaler::fit(&data).unwrap();
        let t = s.transform_all(&data).unwrap();
        assert_eq!(t[0], vec![0.0, 0.0]);
        assert_eq!(t[1], vec![1.0, 1.0]);
        assert_eq!(t[2], vec![0.5, 0.5]);
        for (orig, tr) in data.iter().zip(&t) {
            let back = s.inverse(tr).unwrap();
            for (a, b) in orig.iter().zip(&back) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn transformed_data_in_unit_cube() {
        let data = vec![vec![-5.0, 100.0], vec![3.0, -2.0], vec![0.1, 7.0]];
        let s = UnitScaler::fit(&data).unwrap();
        for p in s.transform_all(&data).unwrap() {
            for x in p {
                assert!((0.0..=1.0).contains(&x));
            }
        }
    }

    #[test]
    fn constant_dimension_handled() {
        let data = vec![vec![5.0, 1.0], vec![5.0, 2.0]];
        let s = UnitScaler::fit(&data).unwrap();
        let t = s.transform_all(&data).unwrap();
        assert_eq!(t[0][0].to_bits(), 0.0f64.to_bits());
        assert_eq!(t[1][0].to_bits(), 0.0f64.to_bits());
        let ranges: Vec<u64> = s.ranges().iter().map(|r| r.to_bits()).collect();
        assert_eq!(ranges, [1.0f64.to_bits(); 2]);
        // Inverse still restores the constant.
        assert_eq!(s.inverse(&t[0]).unwrap()[0].to_bits(), 5.0f64.to_bits());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let s = UnitScaler::fit(&[vec![0.0], vec![1.0]]).unwrap();
        assert!(s.transform(&[1.0, 2.0]).is_err());
        assert!(s.inverse(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn empty_rejected() {
        assert!(UnitScaler::fit(&[]).is_err());
    }
}
