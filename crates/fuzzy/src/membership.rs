//! The Gaussian membership function with analytic derivatives.
//!
//! The paper's FISs use Gaussian memberships exclusively (§2.1.2); ANFIS
//! hybrid learning (§2.2.4) additionally needs the partial derivatives of the
//! membership value with respect to its parameters, which are provided here
//! in closed form.

use serde::{Deserialize, Serialize};

use crate::{FuzzyError, Result};

/// A Gaussian membership function `F: ℝ → [0, 1]`.
///
/// The paper's only shape. It stays an enum so the serialized form is
/// `{"Gaussian":{"mu":…,"sigma":…}}`, the form every checkpoint and served
/// model embeds.
///
/// ```
/// use cqm_fuzzy::membership::MembershipFunction;
/// let g = MembershipFunction::gaussian(0.5, 0.1).unwrap();
/// assert!((g.eval(0.5) - 1.0).abs() < 1e-15);
/// assert!(g.eval(0.8) < 0.02);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MembershipFunction {
    /// `exp(−(x−µ)² / (2σ²))` — the paper's shape.
    Gaussian {
        /// Center.
        mu: f64,
        /// Width (strictly positive).
        sigma: f64,
    },
}

impl MembershipFunction {
    /// Gaussian membership `exp(−(x−µ)²/(2σ²))`.
    ///
    /// # Errors
    ///
    /// Returns [`FuzzyError::InvalidParameter`] unless `sigma > 0` and both
    /// parameters are finite.
    pub fn gaussian(mu: f64, sigma: f64) -> Result<Self> {
        if !mu.is_finite() {
            return Err(FuzzyError::InvalidParameter {
                name: "mu",
                value: mu,
            });
        }
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(FuzzyError::InvalidParameter {
                name: "sigma",
                value: sigma,
            });
        }
        Ok(MembershipFunction::Gaussian { mu, sigma })
    }

    /// Membership degree at `x`, always in `[0, 1]`.
    pub fn eval(&self, x: f64) -> f64 {
        debug_assert!(!x.is_nan(), "membership eval: NaN input");
        let MembershipFunction::Gaussian { mu, sigma } = *self;
        let z = (x - mu) / sigma;
        (-0.5 * z * z).exp()
    }

    /// Partial derivatives `(∂F/∂µ, ∂F/∂σ)` at `x`, used by the ANFIS
    /// backward pass.
    // lint: allow(ASSERT_DENSITY) -- gradients are defined for all real x; eval guards NaN in debug builds
    pub fn gaussian_grad(&self, x: f64) -> (f64, f64) {
        self.gaussian_grad_given(x, self.eval(x))
    }

    /// [`gaussian_grad`](Self::gaussian_grad) for a caller that already
    /// holds the degree `f = self.eval(x)`: the same arithmetic without
    /// evaluating the exponential again.
    pub fn gaussian_grad_given(&self, x: f64, f: f64) -> (f64, f64) {
        debug_assert!(
            (0.0..=1.0).contains(&f),
            "gaussian_grad_given: degree {f} outside [0, 1]"
        );
        let MembershipFunction::Gaussian { mu, sigma } = *self;
        let d = x - mu;
        let dmu = f * d / (sigma * sigma);
        let dsigma = f * d * d / (sigma * sigma * sigma);
        (dmu, dsigma)
    }

    /// The center `µ`, used for rule ordering and verbalization.
    pub fn center(&self) -> f64 {
        let MembershipFunction::Gaussian { mu, .. } = *self;
        mu
    }
}

impl std::fmt::Display for MembershipFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let MembershipFunction::Gaussian { mu, sigma } = *self;
        write!(f, "gauss(mu={mu:.4}, sigma={sigma:.4})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn gaussian_shape() {
        let g = MembershipFunction::gaussian(2.0, 0.5).unwrap();
        assert_eq!(g.eval(2.0).to_bits(), 1.0f64.to_bits());
        // One sigma out: exp(-1/2).
        assert!(close(g.eval(2.5), (-0.5f64).exp(), 1e-15));
        assert!(close(g.eval(1.5), g.eval(2.5), 1e-15));
        assert_eq!(g.center().to_bits(), 2.0f64.to_bits());
    }

    #[test]
    fn gaussian_validation() {
        assert!(MembershipFunction::gaussian(0.0, 0.0).is_err());
        assert!(MembershipFunction::gaussian(0.0, -1.0).is_err());
        assert!(MembershipFunction::gaussian(f64::NAN, 1.0).is_err());
        assert!(MembershipFunction::gaussian(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn gaussian_gradient_matches_finite_difference() {
        let mu = 0.4;
        let sigma = 0.25;
        let g = MembershipFunction::gaussian(mu, sigma).unwrap();
        for &x in &[0.0, 0.3, 0.4, 0.9, -1.0] {
            let (dmu, dsigma) = g.gaussian_grad(x);
            let h = 1e-7;
            let gp = MembershipFunction::gaussian(mu + h, sigma).unwrap();
            let gm = MembershipFunction::gaussian(mu - h, sigma).unwrap();
            let fd_mu = (gp.eval(x) - gm.eval(x)) / (2.0 * h);
            let gp = MembershipFunction::gaussian(mu, sigma + h).unwrap();
            let gm = MembershipFunction::gaussian(mu, sigma - h).unwrap();
            let fd_sigma = (gp.eval(x) - gm.eval(x)) / (2.0 * h);
            assert!(close(dmu, fd_mu, 1e-6), "dmu at x={x}");
            assert!(close(dsigma, fd_sigma, 1e-6), "dsigma at x={x}");
        }
    }

    #[test]
    fn display_round_trips_key_info() {
        let g = MembershipFunction::gaussian(0.5, 0.1).unwrap();
        assert!(g.to_string().contains("0.5000"));
        assert!(g.to_string().contains("0.1000"));
    }

    #[test]
    fn serde_round_trip() {
        let g = MembershipFunction::gaussian(0.5, 0.1).unwrap();
        let json = serde_json::to_string(&g).unwrap();
        let back: MembershipFunction = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }
}
