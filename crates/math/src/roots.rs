//! Scalar root finding and 1-D minimisation.
//!
//! Used by the threshold layer as a fallback when the closed-form Gaussian
//! intersection is ill-conditioned, and by ablation code that locates error
//! crossovers along parameter sweeps.

use crate::{MathError, Result};

/// Find a root of `f` in `[lo, hi]` by bisection. The endpoints must bracket
/// a sign change.
///
/// # Errors
///
/// * [`MathError::InvalidParameter`] if `lo >= hi` or the interval does not
///   bracket a sign change.
/// * [`MathError::NoConvergence`] if the tolerance is not reached within the
///   iteration budget (practically impossible for `tol >= 1e-15` on a unit
///   interval).
pub fn bisect<F: Fn(f64) -> f64>(f: F, lo: f64, hi: f64, tol: f64) -> Result<f64> {
    if !(lo < hi) {
        return Err(MathError::InvalidParameter {
            name: "interval",
            value: hi - lo,
        });
    }
    let mut a = lo;
    let mut b = hi;
    let mut fa = f(a);
    let fb = f(b);
    // lint: allow(NAN_UNSAFE_CMP) -- exact root at the bracket edge short-circuits; NaN falls through to the sign test
    if fa == 0.0 {
        return Ok(a);
    }
    // lint: allow(NAN_UNSAFE_CMP) -- exact root at the bracket edge short-circuits; NaN falls through to the sign test
    if fb == 0.0 {
        return Ok(b);
    }
    if fa.signum() == fb.signum() {
        return Err(MathError::InvalidParameter {
            name: "bracket (no sign change)",
            value: fa * fb,
        });
    }
    for _ in 0..200 {
        let mid = 0.5 * (a + b);
        let fm = f(mid);
        // lint: allow(NAN_UNSAFE_CMP) -- exact root hit ends bisection early; the tolerance test is the real stop
        if fm == 0.0 || (b - a) / 2.0 < tol {
            return Ok(mid);
        }
        if fm.signum() == fa.signum() {
            a = mid;
            fa = fm;
        } else {
            b = mid;
        }
    }
    Err(MathError::NoConvergence {
        method: "bisection",
        iterations: 200,
    })
}

/// Minimise a unimodal `f` on `[lo, hi]` by golden-section search; returns
/// the abscissa of the minimum.
///
/// # Errors
///
/// Returns [`MathError::InvalidParameter`] if `lo >= hi`.
pub fn golden_section_min<F: Fn(f64) -> f64>(f: F, lo: f64, hi: f64, tol: f64) -> Result<f64> {
    if !(lo < hi) {
        return Err(MathError::InvalidParameter {
            name: "interval",
            value: hi - lo,
        });
    }
    let invphi = (5.0f64.sqrt() - 1.0) / 2.0;
    let mut a = lo;
    let mut b = hi;
    let mut c = b - invphi * (b - a);
    let mut d = a + invphi * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    while (b - a).abs() > tol {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - invphi * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + invphi * (b - a);
            fd = f(d);
        }
    }
    Ok(0.5 * (a + b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_finds_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12).unwrap();
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-11);
    }

    #[test]
    fn bisect_exact_endpoint() {
        assert_eq!(
            bisect(|x| x, 0.0, 1.0, 1e-12).unwrap().to_bits(),
            0.0f64.to_bits()
        );
        assert_eq!(
            bisect(|x| x - 1.0, 0.0, 1.0, 1e-12).unwrap().to_bits(),
            1.0f64.to_bits()
        );
    }

    #[test]
    fn bisect_rejects_bad_bracket() {
        assert!(bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-12).is_err());
        assert!(bisect(|x| x, 1.0, 0.0, 1e-12).is_err());
    }

    #[test]
    fn golden_section_finds_parabola_min() {
        let m = golden_section_min(|x| (x - 0.81) * (x - 0.81), 0.0, 1.0, 1e-10).unwrap();
        assert!((m - 0.81).abs() < 1e-8);
    }

    #[test]
    fn golden_section_boundary_minimum() {
        let m = golden_section_min(|x| x, 0.0, 1.0, 1e-10).unwrap();
        assert!(m < 1e-8);
    }

    #[test]
    fn golden_section_rejects_empty_interval() {
        assert!(golden_section_min(|x| x, 1.0, 1.0, 1e-10).is_err());
    }
}
