//! Fixed-bin histogram over a closed interval.
//!
//! Used by the experiment harness to print the empirical distribution of
//! quality values next to the fitted Gaussian densities (Fig. 6), and by
//! the sensing crate's diagnostics.

use crate::{MathError, Result};

/// Histogram with `bins` equal-width bins covering `[lo, hi]`.
///
/// Values outside the range are counted in saturating edge bins so that no
/// observation is silently dropped.
///
/// ```
/// use cqm_math::histogram::Histogram;
/// let mut h = Histogram::new(0.0, 1.0, 4).unwrap();
/// for x in [0.1, 0.3, 0.35, 0.9] { h.add(x); }
/// assert_eq!(h.counts(), &[1, 2, 0, 1]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Create an empty histogram.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidParameter`] if `lo >= hi` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self> {
        if !(lo < hi) {
            return Err(MathError::InvalidParameter {
                name: "histogram range",
                value: hi - lo,
            });
        }
        if bins == 0 {
            return Err(MathError::InvalidParameter {
                name: "bins",
                value: 0.0,
            });
        }
        Ok(Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        })
    }

    /// Record one observation. NaN observations are ignored.
    // lint: allow(ASSERT_DENSITY) -- NaN observations are explicitly dropped on the first line; every other f64 lands in a clamped bin
    pub fn add(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        let n = self.counts.len();
        let t = (x - self.lo) / (self.hi - self.lo);
        let idx = ((t * n as f64).floor() as i64).clamp(0, n as i64 - 1) as usize;
        // lint: allow(PANIC_IN_LIB) -- idx is clamped into 0..n on the previous line
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Record many observations.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, it: I) {
        for x in it {
            self.add(x);
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total recorded observations (excluding NaN).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Center abscissa of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin index out of range");
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + w * (i as f64 + 0.5)
    }

    /// Empirical density value of bin `i` (count / (total * width)), so that
    /// the histogram integrates to 1 and is comparable to a pdf.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn density(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin index out of range");
        if self.total == 0 {
            return 0.0;
        }
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        // lint: allow(PANIC_IN_LIB) -- i is bound-checked by the assert at function entry
        self.counts[i] as f64 / (self.total as f64 * w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validated() {
        assert!(Histogram::new(0.0, 1.0, 10).is_ok());
        assert!(Histogram::new(1.0, 0.0, 10).is_err());
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
    }

    #[test]
    fn binning_boundaries() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.add(0.0); // first bin
        h.add(0.49);
        h.add(0.5); // second bin
        h.add(1.0); // hi edge clamps into last bin
        assert_eq!(h.counts(), &[2, 2]);
    }

    #[test]
    fn out_of_range_clamps() {
        let mut h = Histogram::new(0.0, 1.0, 3);
        let h = h.as_mut().unwrap();
        h.add(-5.0);
        h.add(5.0);
        assert_eq!(h.counts(), &[1, 0, 1]);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn nan_ignored() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.add(f64::NAN);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn centers_and_density_integrate_to_one() {
        let mut h = Histogram::new(0.0, 2.0, 4).unwrap();
        h.extend([0.1, 0.6, 1.1, 1.6, 1.7]);
        assert!((h.bin_center(0) - 0.25).abs() < 1e-15);
        assert!((h.bin_center(3) - 1.75).abs() < 1e-15);
        let w = 0.5;
        let integral: f64 = (0..4).map(|i| h.density(i) * w).sum();
        assert!((integral - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_density_is_zero() {
        let h = Histogram::new(0.0, 1.0, 2).unwrap();
        assert_eq!(h.density(0).to_bits(), 0.0f64.to_bits());
    }
}
