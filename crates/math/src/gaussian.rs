//! Univariate Gaussian distribution with the exact operations §2.3 needs:
//! density φ, lower/upper "median cuts" Φ(s)/Φ̄(s), MLE fitting and the
//! intersection of two densities (the paper's optimal threshold).

use crate::special::erf;
use crate::{MathError, Result};

/// A univariate Gaussian `N(mu, sigma²)`.
///
/// ```
/// use cqm_math::gaussian::Gaussian;
/// let g = Gaussian::new(0.0, 1.0).unwrap();
/// assert!((g.cdf(0.0) - 0.5).abs() < 1e-14);
/// assert!((g.pdf(0.0) - 0.3989422804014327).abs() < 1e-14);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    mu: f64,
    sigma: f64,
}

impl Gaussian {
    /// Create `N(mu, sigma²)`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidParameter`] if `sigma` is not strictly
    /// positive and finite, or `mu` is not finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self> {
        if !mu.is_finite() {
            return Err(MathError::InvalidParameter {
                name: "mu",
                value: mu,
            });
        }
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(MathError::InvalidParameter {
                name: "sigma",
                value: sigma,
            });
        }
        Ok(Gaussian { mu, sigma })
    }

    /// Mean.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Density `φ(x) = 1/(σ√2π) e^(−(x−µ)²/2σ²)`.
    pub fn pdf(&self, x: f64) -> f64 {
        debug_assert!(
            self.sigma > 0.0,
            "Gaussian sigma must stay positive, got {}",
            self.sigma
        );
        let z = (x - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / (self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    /// Lower median cut `Φ(s) = ∫_{−∞}^{s} φ(x) dx` (§2.33).
    pub fn cdf(&self, s: f64) -> f64 {
        debug_assert!(
            self.sigma > 0.0,
            "Gaussian sigma must stay positive, got {}",
            self.sigma
        );
        0.5 * (1.0 + erf((s - self.mu) / (self.sigma * std::f64::consts::SQRT_2)))
    }

    /// Upper median cut `Φ̄(s) = ∫_{s}^{∞} φ(x) dx` (§2.33).
    pub fn tail(&self, s: f64) -> f64 {
        debug_assert!(
            self.sigma > 0.0,
            "Gaussian sigma must stay positive, got {}",
            self.sigma
        );
        0.5 * crate::special::erfc((s - self.mu) / (self.sigma * std::f64::consts::SQRT_2))
    }

    /// Quantile function (inverse CDF).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in the open interval (0, 1).
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile needs p in (0,1), got {p}");
        self.mu + self.sigma * std::f64::consts::SQRT_2 * crate::special::erfinv(2.0 * p - 1.0)
    }

    /// Maximum-likelihood fit of a Gaussian to the data (§2.31): `µ̂` is the
    /// sample mean, `σ̂²` the *biased* (1/n) variance — that is the MLE the
    /// paper relies on, as opposed to the 1/(n−1) sample variance.
    ///
    /// # Errors
    ///
    /// * [`MathError::EmptyInput`] for fewer than 2 points.
    /// * [`MathError::InvalidParameter`] if the data is degenerate (all
    ///   values identical), since `σ = 0` does not define a density.
    pub fn mle(data: &[f64]) -> Result<Self> {
        if data.len() < 2 {
            return Err(MathError::EmptyInput("gaussian mle needs >= 2 points"));
        }
        let n = data.len() as f64;
        let mu = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mu) * (x - mu)).sum::<f64>() / n;
        Gaussian::new(mu, var.sqrt())
    }

    /// Like [`Gaussian::mle`] but degenerate data is given the floor standard
    /// deviation `sigma_floor` instead of failing. The CQM statistical layer
    /// uses this: a perfectly separating quality measure produces degenerate
    /// groups, which must still yield a usable threshold.
    ///
    /// # Errors
    ///
    /// * [`MathError::EmptyInput`] for fewer than 1 point.
    /// * [`MathError::InvalidParameter`] if `sigma_floor` is not positive.
    pub fn mle_with_floor(data: &[f64], sigma_floor: f64) -> Result<Self> {
        if data.is_empty() {
            return Err(MathError::EmptyInput("gaussian mle needs >= 1 point"));
        }
        if !(sigma_floor.is_finite() && sigma_floor > 0.0) {
            return Err(MathError::InvalidParameter {
                name: "sigma_floor",
                value: sigma_floor,
            });
        }
        let n = data.len() as f64;
        let mu = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mu) * (x - mu)).sum::<f64>() / n;
        Gaussian::new(mu, var.sqrt().max(sigma_floor))
    }

    /// Intersection point(s) of two Gaussian densities: solutions of
    /// `φ₁(x) = φ₂(x)`, a quadratic in `x`. Returns 1 or 2 real roots
    /// (equal-σ densities with different means intersect exactly once).
    ///
    /// This is the paper's "optimal threshold" construction (§2.32): the
    /// threshold `s` is the intersection lying between the two means.
    pub fn intersections(&self, other: &Gaussian) -> Vec<f64> {
        let (m1, s1) = (self.mu, self.sigma);
        let (m2, s2) = (other.mu, other.sigma);
        if (s1 - s2).abs() < 1e-15 * s1.max(s2) {
            // Equal variances: single midpoint intersection (unless the
            // densities are identical, in which case there is no isolated
            // crossing point).
            if (m1 - m2).abs() < 1e-15 {
                return Vec::new();
            }
            return vec![(m1 + m2) / 2.0];
        }
        // log φ1 = log φ2  =>  a x² + b x + c = 0
        let a = 1.0 / (2.0 * s2 * s2) - 1.0 / (2.0 * s1 * s1);
        let b = m1 / (s1 * s1) - m2 / (s2 * s2);
        let c = m2 * m2 / (2.0 * s2 * s2) - m1 * m1 / (2.0 * s1 * s1) + (s2 / s1).ln();
        let disc = b * b - 4.0 * a * c;
        if disc < 0.0 {
            return Vec::new();
        }
        let sq = disc.sqrt();
        let mut roots = vec![(-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)];
        roots.sort_by(|x, y| x.total_cmp(y));
        roots.dedup_by(|x, y| (*x - *y).abs() < 1e-12);
        roots
    }
}

impl std::fmt::Display for Gaussian {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "N(mu={:.4}, sigma={:.4})", self.mu, self.sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn construction_validates() {
        assert!(Gaussian::new(0.0, 1.0).is_ok());
        assert!(Gaussian::new(0.0, 0.0).is_err());
        assert!(Gaussian::new(0.0, -1.0).is_err());
        assert!(Gaussian::new(f64::NAN, 1.0).is_err());
        assert!(Gaussian::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn standard_normal_reference_points() {
        let g = Gaussian::new(0.0, 1.0).unwrap();
        assert!(close(g.pdf(0.0), 0.3989422804014327, 1e-15));
        assert!(close(g.pdf(1.0), 0.24197072451914337, 1e-15));
        assert!(close(g.cdf(1.96), 0.9750021048517795, 1e-10));
        assert!(close(g.tail(1.96), 0.0249978951482205, 1e-10));
    }

    #[test]
    fn cdf_tail_sum_to_one() {
        let g = Gaussian::new(0.7, 0.2).unwrap();
        for &x in &[0.0, 0.3, 0.7, 0.81, 1.2, 5.0] {
            assert!(close(g.cdf(x) + g.tail(x), 1.0, 1e-13), "x={x}");
        }
    }

    #[test]
    fn scaling_and_shifting() {
        let g = Gaussian::new(3.0, 2.0).unwrap();
        let std = Gaussian::new(0.0, 1.0).unwrap();
        assert!(close(g.cdf(5.0), std.cdf(1.0), 1e-14));
        assert!(close(g.pdf(3.0), std.pdf(0.0) / 2.0, 1e-14));
    }

    #[test]
    fn quantile_inverts_cdf() {
        let g = Gaussian::new(-1.0, 0.5).unwrap();
        for &p in &[0.01, 0.2, 0.5, 0.8112, 0.99] {
            assert!(close(g.cdf(g.quantile(p)), p, 1e-9), "p={p}");
        }
    }

    #[test]
    #[should_panic(expected = "quantile needs p in (0,1)")]
    fn quantile_domain() {
        let _ = Gaussian::new(0.0, 1.0).unwrap().quantile(1.0);
    }

    #[test]
    fn mle_recovers_parameters() {
        // Symmetric data around 2 with known 1/n variance.
        let data = [1.0, 2.0, 3.0];
        let g = Gaussian::mle(&data).unwrap();
        assert!(close(g.mu(), 2.0, 1e-15));
        assert!(close(g.sigma(), (2.0f64 / 3.0).sqrt(), 1e-15));
    }

    #[test]
    fn mle_uses_biased_variance() {
        let data = [0.0, 1.0];
        let g = Gaussian::mle(&data).unwrap();
        // MLE sigma = 0.5, sample sigma would be 1/sqrt(2).
        assert!(close(g.sigma(), 0.5, 1e-15));
    }

    #[test]
    fn mle_rejects_degenerate() {
        assert!(Gaussian::mle(&[1.0]).is_err());
        assert!(Gaussian::mle(&[2.0, 2.0, 2.0]).is_err());
    }

    #[test]
    fn mle_with_floor_handles_degenerate() {
        let g = Gaussian::mle_with_floor(&[1.0, 1.0], 0.05).unwrap();
        assert!(close(g.mu(), 1.0, 1e-15));
        assert!(close(g.sigma(), 0.05, 1e-15));
        // Floor does not override real spread.
        let g = Gaussian::mle_with_floor(&[0.0, 2.0], 0.05).unwrap();
        assert!(close(g.sigma(), 1.0, 1e-15));
        assert!(Gaussian::mle_with_floor(&[], 0.05).is_err());
        assert!(Gaussian::mle_with_floor(&[1.0], 0.0).is_err());
    }

    #[test]
    fn equal_sigma_intersection_is_midpoint() {
        let a = Gaussian::new(0.0, 1.0).unwrap();
        let b = Gaussian::new(4.0, 1.0).unwrap();
        let roots = a.intersections(&b);
        assert_eq!(roots.len(), 1);
        assert!(close(roots[0], 2.0, 1e-12));
    }

    #[test]
    fn unequal_sigma_intersections_are_density_crossings() {
        let a = Gaussian::new(0.3, 0.15).unwrap();
        let b = Gaussian::new(0.9, 0.07).unwrap();
        let roots = a.intersections(&b);
        assert!(!roots.is_empty());
        for r in &roots {
            assert!(close(a.pdf(*r), b.pdf(*r), 1e-9), "r={r}");
        }
        // At least one crossing lies between the means.
        assert!(roots.iter().any(|r| (0.3..=0.9).contains(r)));
    }

    #[test]
    fn identical_densities_have_no_isolated_intersection() {
        let a = Gaussian::new(0.5, 0.1).unwrap();
        assert!(a.intersections(&a).is_empty());
    }

    #[test]
    fn intersection_symmetric_in_arguments() {
        let a = Gaussian::new(0.2, 0.2).unwrap();
        let b = Gaussian::new(0.85, 0.05).unwrap();
        let r1 = a.intersections(&b);
        let r2 = b.intersections(&a);
        assert_eq!(r1.len(), r2.len());
        for (x, y) in r1.iter().zip(&r2) {
            assert!(close(*x, *y, 1e-9));
        }
    }

    #[test]
    fn display_format() {
        let g = Gaussian::new(0.81, 0.05).unwrap();
        assert_eq!(g.to_string(), "N(mu=0.8100, sigma=0.0500)");
    }
}
