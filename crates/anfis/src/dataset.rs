//! Labeled regression dataset `(input vector, scalar target)`.
//!
//! The paper's training data is "a set of input vectors that were
//! contextually classified. The designated output is assigned to each of the
//! samples" (§2.2) — 1 for a right classification, 0 for a wrong one. The
//! same container carries the classifier's own training data (cues → class
//! index).

use crate::{AnfisError, Result};

/// A dataset of `n`-dimensional inputs with scalar targets.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    dim: usize,
    inputs: Vec<Vec<f64>>,
    targets: Vec<f64>,
}

impl Dataset {
    /// Empty dataset for inputs of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Dataset {
            dim,
            inputs: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Build from parallel input/target vectors.
    ///
    /// # Errors
    ///
    /// Returns [`AnfisError::InvalidData`] if lengths differ, inputs are
    /// ragged, or any value is non-finite.
    pub fn from_vecs(inputs: Vec<Vec<f64>>, targets: Vec<f64>) -> Result<Self> {
        if inputs.len() != targets.len() {
            return Err(AnfisError::InvalidData(format!(
                "{} inputs but {} targets",
                inputs.len(),
                targets.len()
            )));
        }
        if inputs.is_empty() {
            return Err(AnfisError::InvalidData("empty dataset".into()));
        }
        let dim = inputs[0].len();
        let mut ds = Dataset::new(dim);
        for (x, y) in inputs.into_iter().zip(targets) {
            ds.push(x, y)?;
        }
        Ok(ds)
    }

    /// Append one sample.
    ///
    /// # Errors
    ///
    /// Returns [`AnfisError::InvalidData`] on dimension mismatch or
    /// non-finite values.
    pub fn push(&mut self, input: Vec<f64>, target: f64) -> Result<()> {
        if input.len() != self.dim {
            return Err(AnfisError::InvalidData(format!(
                "input has dimension {}, dataset expects {}",
                input.len(),
                self.dim
            )));
        }
        if input.iter().any(|x| !x.is_finite()) || !target.is_finite() {
            return Err(AnfisError::InvalidData("non-finite value in sample".into()));
        }
        self.inputs.push(input);
        self.targets.push(target);
        Ok(())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Whether the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Input rows.
    pub fn inputs(&self) -> &[Vec<f64>] {
        &self.inputs
    }

    /// Targets.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// Iterate over `(input, target)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], f64)> + '_ {
        self.inputs
            .iter()
            .map(Vec::as_slice)
            .zip(self.targets.iter().copied())
    }

    /// Deterministically shuffle the samples with an xorshift generator
    /// seeded by `seed` (Fisher–Yates).
    pub fn shuffle(&mut self, seed: u64) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in (1..self.inputs.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            self.inputs.swap(i, j);
            self.targets.swap(i, j);
        }
    }

    /// Split into `(front, back)` with `frac` of the samples (rounded down,
    /// at least 1) in the front part. Order is preserved — shuffle first if
    /// the data is sorted.
    ///
    /// # Errors
    ///
    /// Returns [`AnfisError::InvalidData`] if fewer than 2 samples or `frac`
    /// is not strictly inside (0, 1).
    pub fn split(&self, frac: f64) -> Result<(Dataset, Dataset)> {
        if self.len() < 2 {
            return Err(AnfisError::InvalidData(
                "need at least 2 samples to split".into(),
            ));
        }
        if !(frac > 0.0 && frac < 1.0) {
            return Err(AnfisError::InvalidData(format!(
                "split fraction {frac} not in (0, 1)"
            )));
        }
        let k = ((self.len() as f64 * frac) as usize).clamp(1, self.len() - 1);
        let front = Dataset {
            dim: self.dim,
            inputs: self.inputs[..k].to_vec(),
            targets: self.targets[..k].to_vec(),
        };
        let back = Dataset {
            dim: self.dim,
            inputs: self.inputs[k..].to_vec(),
            targets: self.targets[k..].to_vec(),
        };
        Ok((front, back))
    }

    /// The joint `[input…, target]` rows used by clustering-based structure
    /// identification (genfis clusters the product space `X × Y`).
    pub fn joint_rows(&self) -> Vec<Vec<f64>> {
        self.iter()
            .map(|(x, y)| {
                let mut row = x.to_vec();
                row.push(y);
                row
            })
            .collect()
    }
}

impl Extend<(Vec<f64>, f64)> for Dataset {
    fn extend<T: IntoIterator<Item = (Vec<f64>, f64)>>(&mut self, iter: T) {
        for (x, y) in iter {
            // lint: allow(PANIC_IN_LIB) -- Extend cannot return Result; the panic message names the contract callers accept
            self.push(x, y).expect("extend with valid samples");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..10 {
            d.push(vec![i as f64, -(i as f64)], i as f64 * 2.0).unwrap();
        }
        d
    }

    #[test]
    fn push_and_validation() {
        let mut d = Dataset::new(2);
        assert!(d.push(vec![1.0], 0.0).is_err());
        assert!(d.push(vec![1.0, f64::NAN], 0.0).is_err());
        assert!(d.push(vec![1.0, 2.0], f64::INFINITY).is_err());
        assert!(d.push(vec![1.0, 2.0], 3.0).is_ok());
        assert_eq!(d.len(), 1);
        assert!(!d.is_empty());
        assert_eq!(d.dim(), 2);
    }

    #[test]
    fn from_vecs_checks_lengths() {
        assert!(Dataset::from_vecs(vec![vec![1.0]], vec![]).is_err());
        assert!(Dataset::from_vecs(vec![], vec![]).is_err());
        let d = Dataset::from_vecs(vec![vec![1.0], vec![2.0]], vec![0.0, 1.0]).unwrap();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn split_preserves_samples() {
        let d = sample();
        let (a, b) = d.split(0.7).unwrap();
        assert_eq!(a.len(), 7);
        assert_eq!(b.len(), 3);
        assert_eq!(a.inputs()[0], d.inputs()[0]);
        assert_eq!(b.targets()[0].to_bits(), d.targets()[7].to_bits());
    }

    #[test]
    fn split_validation() {
        let d = sample();
        assert!(d.split(0.0).is_err());
        assert!(d.split(1.0).is_err());
        let mut tiny = Dataset::new(1);
        tiny.push(vec![0.0], 0.0).unwrap();
        assert!(tiny.split(0.5).is_err());
        // Extreme but valid fraction still leaves both halves non-empty.
        let (a, b) = d.split(0.01).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 9);
    }

    #[test]
    fn shuffle_is_permutation_and_deterministic() {
        let mut a = sample();
        let mut b = sample();
        a.shuffle(42);
        b.shuffle(42);
        assert_eq!(a, b);
        let mut c = sample();
        c.shuffle(43);
        assert_ne!(a, c);
        // Same multiset of targets.
        let mut ta = a.targets().to_vec();
        let mut t0 = sample().targets().to_vec();
        ta.sort_by(|x, y| x.total_cmp(y));
        t0.sort_by(|x, y| x.total_cmp(y));
        assert_eq!(ta, t0);
    }

    #[test]
    fn joint_rows_append_target() {
        let d = sample();
        let rows = d.joint_rows();
        assert_eq!(rows[3], vec![3.0, -3.0, 6.0]);
        assert_eq!(rows.len(), d.len());
    }

    #[test]
    fn iter_pairs() {
        let d = sample();
        let pairs: Vec<_> = d.iter().collect();
        assert_eq!(pairs[2].0, &[2.0, -2.0]);
        assert_eq!(pairs[2].1.to_bits(), 4.0f64.to_bits());
    }

    #[test]
    fn extend_appends() {
        let mut d = Dataset::new(1);
        d.extend([(vec![1.0], 2.0), (vec![3.0], 4.0)]);
        assert_eq!(d.len(), 2);
    }
}
