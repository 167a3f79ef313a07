//! Descriptive statistics.
//!
//! The AwarePen cue extraction is literally "standard deviation of each
//! acceleration axis over a window" (§3.1), so these primitives sit on the
//! hot path of the sensing pipeline. [`Welford`] provides the numerically
//! stable streaming variant used by the windowed cue extractor.

use crate::{MathError, Result};

/// Arithmetic mean.
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for an empty slice.
pub fn mean(data: &[f64]) -> Result<f64> {
    if data.is_empty() {
        return Err(MathError::EmptyInput("mean"));
    }
    Ok(data.iter().sum::<f64>() / data.len() as f64)
}

/// Population (1/n) variance — the MLE variance the paper's statistics use.
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for an empty slice.
pub fn population_variance(data: &[f64]) -> Result<f64> {
    debug_assert!(
        data.iter().all(|x| x.is_finite()),
        "population_variance: non-finite observation"
    );
    let m = mean(data)?;
    Ok(data.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / data.len() as f64)
}

/// Sample (1/(n-1)) variance.
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for fewer than two points.
pub fn sample_variance(data: &[f64]) -> Result<f64> {
    if data.len() < 2 {
        return Err(MathError::EmptyInput("sample variance needs >= 2 points"));
    }
    let m = mean(data)?;
    Ok(data.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (data.len() - 1) as f64)
}

/// Population standard deviation (the AwarePen cue).
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for an empty slice.
// lint: allow(ASSERT_DENSITY) -- delegates to population_variance, which guards the domain
pub fn std_dev(data: &[f64]) -> Result<f64> {
    population_variance(data).map(f64::sqrt)
}

/// Minimum and maximum, ignoring NaNs.
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] if the slice is empty or all-NaN.
// lint: allow(ASSERT_DENSITY) -- NaN-tolerant by contract: NaNs are filtered, empty/all-NaN is an Err
pub fn min_max(data: &[f64]) -> Result<(f64, f64)> {
    let mut it = data.iter().copied().filter(|x| !x.is_nan());
    let first = it.next().ok_or(MathError::EmptyInput("min_max"))?;
    Ok(it.fold((first, first), |(lo, hi), x| (lo.min(x), hi.max(x))))
}

/// Median (average of middle two for even length). Sorts a copy.
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for an empty slice.
pub fn median(data: &[f64]) -> Result<f64> {
    if data.is_empty() {
        return Err(MathError::EmptyInput("median"));
    }
    let mut v = data.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    Ok(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Root mean square.
///
/// # Errors
///
/// Returns [`MathError::EmptyInput`] for an empty slice.
pub fn rms(data: &[f64]) -> Result<f64> {
    if data.is_empty() {
        return Err(MathError::EmptyInput("rms"));
    }
    Ok((data.iter().map(|x| x * x).sum::<f64>() / data.len() as f64).sqrt())
}

/// Pearson correlation coefficient.
///
/// # Errors
///
/// * [`MathError::DimensionMismatch`] if lengths differ.
/// * [`MathError::EmptyInput`] for fewer than two points.
/// * [`MathError::Singular`] if either series is constant.
pub fn pearson(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(MathError::DimensionMismatch {
            context: "pearson",
            expected: a.len(),
            actual: b.len(),
        });
    }
    if a.len() < 2 {
        return Err(MathError::EmptyInput("pearson needs >= 2 points"));
    }
    let ma = mean(a)?;
    let mb = mean(b)?;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    // lint: allow(NAN_UNSAFE_CMP) -- exactly-zero variance detects a constant series; anything else falls through to the division
    if va == 0.0 || vb == 0.0 {
        return Err(MathError::Singular("constant series in pearson"));
    }
    Ok(cov / (va.sqrt() * vb.sqrt()))
}

/// Numerically stable streaming moments (Welford's algorithm).
///
/// ```
/// use cqm_math::stats::Welford;
/// let mut w = Welford::new();
/// for x in [1.0, 2.0, 3.0, 4.0] { w.push(x); }
/// assert_eq!(w.mean(), 2.5);
/// assert!((w.population_variance() - 1.25).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "Welford::push: non-finite observation {x}");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 before any observation).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population (1/n) variance; 0 before two observations.
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample (1/(n-1)) variance; 0 before two observations.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]).unwrap().to_bits(), 2.0f64.to_bits());
        assert!(mean(&[]).is_err());
    }

    #[test]
    fn variances_differ_by_bessel() {
        let d = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!(close(population_variance(&d).unwrap(), 4.0, 1e-14));
        assert!(close(sample_variance(&d).unwrap(), 32.0 / 7.0, 1e-14));
        assert!(close(std_dev(&d).unwrap(), 2.0, 1e-14));
        assert!(sample_variance(&[1.0]).is_err());
    }

    #[test]
    fn min_max_skips_nan() {
        assert_eq!(min_max(&[3.0, f64::NAN, -1.0, 2.0]).unwrap(), (-1.0, 3.0));
        assert!(min_max(&[f64::NAN]).is_err());
        assert!(min_max(&[]).is_err());
    }

    #[test]
    fn median_even_odd() {
        assert_eq!(
            median(&[3.0, 1.0, 2.0]).unwrap().to_bits(),
            2.0f64.to_bits()
        );
        assert_eq!(
            median(&[4.0, 1.0, 2.0, 3.0]).unwrap().to_bits(),
            2.5f64.to_bits()
        );
        assert!(median(&[]).is_err());
    }

    #[test]
    fn rms_known() {
        assert!(close(rms(&[3.0, 4.0]).unwrap(), (12.5f64).sqrt(), 1e-14));
        assert!(rms(&[]).is_err());
    }

    #[test]
    fn pearson_perfect_correlations() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!(close(pearson(&a, &b).unwrap(), 1.0, 1e-14));
        let c = [8.0, 6.0, 4.0, 2.0];
        assert!(close(pearson(&a, &c).unwrap(), -1.0, 1e-14));
    }

    #[test]
    fn pearson_errors() {
        assert!(pearson(&[1.0], &[1.0, 2.0]).is_err());
        assert!(pearson(&[1.0], &[1.0]).is_err());
        assert!(matches!(
            pearson(&[1.0, 1.0], &[1.0, 2.0]),
            Err(MathError::Singular(_))
        ));
    }

    #[test]
    fn welford_matches_batch() {
        let d = [0.3, -1.2, 4.5, 2.2, 0.0, -0.7, 3.3];
        let mut w = Welford::new();
        for &x in &d {
            w.push(x);
        }
        assert_eq!(w.count(), d.len() as u64);
        assert!(close(w.mean(), mean(&d).unwrap(), 1e-12));
        assert!(close(
            w.population_variance(),
            population_variance(&d).unwrap(),
            1e-12
        ));
        assert!(close(
            w.sample_variance(),
            sample_variance(&d).unwrap(),
            1e-12
        ));
    }

    #[test]
    fn welford_empty_and_single() {
        let w = Welford::new();
        assert_eq!(w.mean().to_bits(), 0.0f64.to_bits());
        assert_eq!(w.population_variance().to_bits(), 0.0f64.to_bits());
        let mut w = Welford::new();
        w.push(5.0);
        assert_eq!(w.mean().to_bits(), 5.0f64.to_bits());
        assert_eq!(w.sample_variance().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let d1 = [1.0, 2.0, 3.0];
        let d2 = [10.0, 20.0, 30.0, 40.0];
        let mut wa = Welford::new();
        for &x in &d1 {
            wa.push(x);
        }
        let mut wb = Welford::new();
        for &x in &d2 {
            wb.push(x);
        }
        wa.merge(&wb);
        let all: Vec<f64> = d1.iter().chain(&d2).copied().collect();
        assert!(close(wa.mean(), mean(&all).unwrap(), 1e-12));
        assert!(close(
            wa.population_variance(),
            population_variance(&all).unwrap(),
            1e-12
        ));
        // Merging an empty accumulator is a no-op in both directions.
        let snapshot = wa;
        wa.merge(&Welford::new());
        assert_eq!(wa, snapshot);
        let mut we = Welford::new();
        we.merge(&snapshot);
        assert_eq!(we, snapshot);
    }

    #[test]
    fn welford_numerical_stability_large_offset() {
        // Classic catastrophic-cancellation scenario for naive two-pass sums.
        let offset = 1e9;
        let mut w = Welford::new();
        for x in [offset + 4.0, offset + 7.0, offset + 13.0, offset + 16.0] {
            w.push(x);
        }
        assert!(close(w.mean(), offset + 10.0, 1e-3));
        assert!(close(w.population_variance(), 22.5, 1e-3));
    }
}
