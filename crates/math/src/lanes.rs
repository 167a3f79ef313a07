//! Hand-unrolled four-wide `f64` lanes (DESIGN.md section 9).
//!
//! Stable, std-only stand-in for `std::simd`: a [`F64x4`] is a plain
//! `[f64; 4]` whose arithmetic is written as fixed-length per-lane loops.
//! The loops have no early exits, no lane-dependent branches, and no
//! bounds checks the optimizer can't eliminate, so release builds keep a
//! whole `F64x4` expression chain in vector registers. Callers that cannot
//! fill a full block fall back to the scalar path — lane code never pads.
//!
//! Per-lane operations are exactly the scalar IEEE-754 operations in the
//! same order, which is what lets the blocked kernel in `cqm-fuzzy` prove
//! bit-identity against its scalar reference row by row.

/// Lane width. Four f64s fill one 32-byte vector register (AVX2) or two
/// 16-byte ones (SSE2/NEON) — wide enough to amortize, narrow enough that
/// remainder handling stays cheap.
pub const LANES: usize = 4;

/// Four `f64` lanes with element-wise arithmetic.
#[derive(Debug, Clone, Copy, Default)]
pub struct F64x4(pub [f64; LANES]);

impl F64x4 {
    /// All lanes zero — the additive identity.
    pub const ZERO: F64x4 = F64x4([0.0; LANES]);

    /// Broadcast one value to every lane.
    #[inline(always)]
    // lint: allow(ASSERT_DENSITY) -- total broadcast: every f64 (NaN included) is a valid lane value
    pub fn splat(v: f64) -> F64x4 {
        F64x4([v; LANES])
    }

    /// Load the first [`LANES`] values of `s`; missing tail lanes are zero.
    /// Callers in the blocked kernel always pass full-width slices.
    #[inline(always)]
    // lint: allow(ASSERT_DENSITY) -- total by contract: short slices zero-fill the tail lanes, any f64 is a valid lane
    pub fn from_slice(s: &[f64]) -> F64x4 {
        let mut out = [0.0_f64; LANES];
        for (o, v) in out.iter_mut().zip(s) {
            *o = *v;
        }
        F64x4(out)
    }

    /// The lanes as a plain array.
    #[inline(always)]
    pub fn to_array(self) -> [f64; LANES] {
        self.0
    }
}

macro_rules! lane_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl std::ops::$trait for F64x4 {
            type Output = F64x4;
            #[inline(always)]
            fn $method(self, rhs: F64x4) -> F64x4 {
                let mut out = self.0;
                for (o, r) in out.iter_mut().zip(&rhs.0) {
                    *o = *o $op *r;
                }
                F64x4(out)
            }
        }
    };
}

lane_binop!(Add, add, +);
lane_binop!(Sub, sub, -);
lane_binop!(Mul, mul, *);
lane_binop!(Div, div, /);

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: F64x4) -> [u64; LANES] {
        let a = v.to_array();
        [a[0].to_bits(), a[1].to_bits(), a[2].to_bits(), a[3].to_bits()]
    }

    #[test]
    fn ops_match_scalar_bitwise() {
        let a = F64x4([1.5, -2.25, 0.1, 1.0e18]);
        let b = F64x4([3.0, 0.7, -0.1, 3.125]);
        let sum = a + b;
        let dif = a - b;
        let mul = a * b;
        let div = a / b;
        for i in 0..LANES {
            let (x, y) = (a.to_array()[i], b.to_array()[i]);
            assert_eq!(sum.to_array()[i].to_bits(), (x + y).to_bits());
            assert_eq!(dif.to_array()[i].to_bits(), (x - y).to_bits());
            assert_eq!(mul.to_array()[i].to_bits(), (x * y).to_bits());
            assert_eq!(div.to_array()[i].to_bits(), (x / y).to_bits());
        }
    }

    #[test]
    fn splat_and_slice_round_trip() {
        assert_eq!(bits(F64x4::splat(2.5)), [2.5_f64.to_bits(); LANES]);
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(F64x4::from_slice(&s).to_array(), [1.0, 2.0, 3.0, 4.0]);
        // Short slices zero-fill the tail.
        assert_eq!(F64x4::from_slice(&s[..2]).to_array(), [1.0, 2.0, 0.0, 0.0]);
    }
}
