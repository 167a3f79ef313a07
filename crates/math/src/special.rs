//! Special functions: error function family.
//!
//! The statistical analysis of §2.3 integrates Gaussian densities (the
//! "median cuts" Φ and Φ̄); those integrals reduce to the error function,
//! which the standard library does not provide.

/// Error function `erf(x) = 2/√π ∫₀ˣ e^(−t²) dt`.
///
/// Uses the Abramowitz & Stegun 7.1.26-style rational approximation refined
/// with one series/continued-fraction split, giving ~1e-15 relative accuracy,
/// far below anything the statistics layer can resolve.
///
/// ```
/// # use cqm_math::special::erf;
/// assert!((erf(0.0)).abs() < 1e-15);
/// assert!((erf(1.0) - 0.8427007929497149).abs() < 1e-12);
/// assert!((erf(-1.0) + 0.8427007929497149).abs() < 1e-12);
/// ```
// lint: allow(ASSERT_DENSITY) -- erf is total on R; NaN is handled explicitly on the first line
pub fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let ax = x.abs();
    let val = if ax < 1.5 {
        erf_series(ax)
    } else {
        1.0 - erfc_cf(ax)
    };
    if x < 0.0 {
        -val
    } else {
        val
    }
}

/// Complementary error function `erfc(x) = 1 − erf(x)`, accurate in the far
/// tail where `1 − erf(x)` would cancel catastrophically.
// lint: allow(ASSERT_DENSITY) -- erfc is total on R; NaN is handled explicitly on the first line
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    if x < 1.5 {
        1.0 - erf_series(x)
    } else {
        erfc_cf(x)
    }
}

/// Maclaurin series for erf, fast-converging for |x| < 0.5.
fn erf_series(x: f64) -> f64 {
    // erf(x) = 2/sqrt(pi) * sum_{n>=0} (-1)^n x^(2n+1) / (n! (2n+1))
    let two_over_sqrt_pi = 2.0 / std::f64::consts::PI.sqrt();
    let x2 = x * x;
    let mut term = x;
    let mut sum = x;
    for n in 1..64 {
        term *= -x2 / n as f64;
        let contrib = term / (2 * n + 1) as f64;
        sum += contrib;
        if contrib.abs() < 1e-17 * sum.abs().max(1e-300) {
            break;
        }
    }
    two_over_sqrt_pi * sum
}

/// Continued-fraction evaluation of erfc for x >= 1.5 (Lentz's method on the
/// Laplace continued fraction), stable deep into the tail.
fn erfc_cf(x: f64) -> f64 {
    if x > 27.0 {
        // exp(-x^2) underflows to 0 well before this; avoid needless work.
        return 0.0;
    }
    // erfc(x) = exp(-x^2)/(x*sqrt(pi)) * 1/(1 + 1/(2x^2)/(1 + 2/(2x^2)/(1 + ...)))
    let x2 = x * x;
    let tiny = 1e-300;
    let mut f = x;
    let mut c = x;
    let mut d = 0.0;
    // CF: x + 0.5/(x + 1.0/(x + 1.5/(x + ...)))  for  integral form
    for k in 1..200 {
        let a = k as f64 / 2.0;
        // b = x for all levels
        d = x + a * d;
        if d.abs() < tiny {
            d = tiny;
        }
        c = x + a / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let delta = c * d;
        f *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (-x2).exp() / (f * std::f64::consts::PI.sqrt())
}

/// Inverse error function on (−1, 1): `erfinv(erf(x)) = x`.
///
/// Winitzki initial guess polished with two Newton steps; relative accuracy
/// ~1e-12 over the usable domain.
///
/// # Panics
///
/// Panics if `|y| >= 1`.
pub fn erfinv(y: f64) -> f64 {
    assert!(y > -1.0 && y < 1.0, "erfinv domain is (-1, 1), got {y}");
    // lint: allow(NAN_UNSAFE_CMP) -- exact-zero shortcut: erfinv(0) = 0 identically; NaN is excluded by the assert above
    if y == 0.0 {
        return 0.0;
    }
    // Winitzki approximation.
    let a = 0.147;
    let ln1my2 = (1.0 - y * y).ln();
    let term1 = 2.0 / (std::f64::consts::PI * a) + ln1my2 / 2.0;
    let mut x = (y.signum()) * ((term1 * term1 - ln1my2 / a).sqrt() - term1).sqrt();
    // Newton polish: f(x) = erf(x) - y, f'(x) = 2/sqrt(pi) exp(-x^2)
    let c = 2.0 / std::f64::consts::PI.sqrt();
    for _ in 0..3 {
        let err = erf(x) - y;
        let deriv = c * (-x * x).exp();
        // lint: allow(NAN_UNSAFE_CMP) -- a fully underflowed Newton derivative ends polishing; division would blow up
        if deriv == 0.0 {
            break;
        }
        x -= err / deriv;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        // Reference values from standard tables.
        let cases = [
            (0.0, 0.0),
            (0.1, 0.1124629160182849),
            (0.5, 0.5204998778130465),
            (1.0, 0.8427007929497149),
            (1.5, 0.9661051464753107),
            (2.0, 0.9953222650189527),
            (3.0, 0.9999779095030014),
        ];
        for (x, want) in cases {
            assert!((erf(x) - want).abs() < 1e-12, "erf({x})");
            assert!((erf(-x) + want).abs() < 1e-12, "erf(-{x})");
        }
    }

    #[test]
    fn erfc_complementarity() {
        for &x in &[-3.0, -1.0, -0.2, 0.0, 0.3, 0.7, 1.0, 2.5, 5.0] {
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-13, "x={x}");
        }
    }

    #[test]
    fn erfc_tail_accuracy() {
        // erfc(5) = 1.5374597944280349e-12 — naive 1-erf would lose it all.
        assert!((erfc(5.0) - 1.537_459_794_428_035e-12).abs() / 1.54e-12 < 1e-9);
        // erfc(10) = 2.0884875837625447e-45
        assert!((erfc(10.0) - 2.0884875837625447e-45).abs() / 2.09e-45 < 1e-8);
    }

    #[test]
    fn erf_is_odd_monotone_bounded() {
        let mut prev = -1.0;
        let mut x = -4.0;
        while x <= 4.0 {
            let v = erf(x);
            assert!((-1.0..=1.0).contains(&v));
            assert!(v >= prev);
            assert!((erf(-x) + v).abs() < 1e-13);
            prev = v;
            x += 0.05;
        }
    }

    #[test]
    fn erf_saturates() {
        assert!((erf(30.0) - 1.0).abs() < 1e-15);
        assert_eq!(erfc(30.0).to_bits(), 0.0f64.to_bits());
        assert!((erfc(-30.0) - 2.0).abs() < 1e-15);
    }

    #[test]
    fn nan_propagates() {
        assert!(erf(f64::NAN).is_nan());
        assert!(erfc(f64::NAN).is_nan());
    }

    #[test]
    fn erfinv_round_trip() {
        for &x in &[-2.0, -1.0, -0.3, 0.0, 0.1, 0.8, 1.7, 2.4] {
            let y = erf(x);
            assert!((erfinv(y) - x).abs() < 1e-9, "x={x}");
        }
    }

    #[test]
    #[should_panic(expected = "erfinv domain")]
    fn erfinv_domain_checked() {
        let _ = erfinv(1.0);
    }
}
