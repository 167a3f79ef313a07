//! Vetted exponential entry point for hot-path code (DESIGN.md section 9).
//!
//! Hot-path files (tagged `// analyze: hot-path`) are forbidden by the
//! `APPROX_MATH` analyze pass from calling `.exp()` / `.powf()` directly;
//! they route through [`exp_exact`] instead, so every transcendental in a
//! hot loop is spelled the same greppable way and stays exactly `f64::exp`
//! — the property the kernels' bit-identity with the scalar reference
//! implementation rests on.

/// Exactly `f64::exp`. Exists so hot-path files have a vetted, greppable
/// entry point: the `APPROX_MATH` analyze pass flags raw `.exp()` calls in
/// `// analyze: hot-path` files, and this is the sanctioned exact spelling.
#[inline(always)]
// lint: allow(ASSERT_DENSITY) -- total on R like f64::exp itself; this is the greppable exact spelling, not a new domain
pub fn exp_exact(x: f64) -> f64 {
    x.exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_exact_is_std_exp() {
        for x in [-5.0, -0.5, 0.0, 1.0, 3.25] {
            assert_eq!(exp_exact(x).to_bits(), x.exp().to_bits());
        }
    }
}
