//! The normalization function `L` (§2.1.3).
//!
//! The automatically constructed TSK-FIS `S~_Q` targets 0 (wrong) and 1
//! (right) but is not range-restricted; its output scatters around those
//! designated values. `L` folds the overshoot back into `[0, 1]`:
//!
//! ```text
//!        ⎧  x      if 0 ≤ x ≤ 1
//! L(x) = ⎨ −x      if −0.5 ≤ x < 0      (mirror at 0)
//!        ⎪ 2 − x   if 1 < x ≤ 1.5       (mirror at 1)
//!        ⎩  ε      otherwise
//! ```
//!
//! The mirrored reading reconstructs the two clauses whose minus signs were
//! lost in the published text; it is the only reading that satisfies the
//! paper's stated semantics ("it belongs to zero/one with an error of
//! mapping") while keeping `L`'s range inside `[0, 1]`. Values further than
//! 0.5 from both designated outputs have no semantically correct image and
//! map to the error state ε.

use serde::{Deserialize, Serialize};

/// A normalized quality measure: a value in `[0, 1]` or the error state ε.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Quality {
    /// A valid quality value `q ∈ [0, 1]`: 0 ≈ certainly wrong,
    /// 1 ≈ certainly right.
    Value(f64),
    /// The error state ε: the raw FIS output was outside `[−0.5, 1.5]`, so
    /// no semantically correct quality exists. Consumers must treat this as
    /// "discard the classification".
    Epsilon,
}

impl Quality {
    /// The contained value, if any.
    pub fn value(&self) -> Option<f64> {
        match self {
            Quality::Value(v) => Some(*v),
            Quality::Epsilon => None,
        }
    }

    /// Whether this is the error state.
    pub fn is_epsilon(&self) -> bool {
        matches!(self, Quality::Epsilon)
    }

    /// The value, or `default` for ε. Useful for conservative consumers
    /// that treat ε as zero quality.
    // lint: allow(ASSERT_DENSITY) -- the default is the caller's substitute for eps; any f64 is acceptable by design
    pub fn value_or(&self, default: f64) -> f64 {
        self.value().unwrap_or(default)
    }
}

impl std::fmt::Display for Quality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Quality::Value(v) => write!(f, "q={v:.4}"),
            Quality::Epsilon => write!(f, "q=eps"),
        }
    }
}

/// The normalization function `L: ℝ → [0, 1] ∪ {ε}` exactly per §2.1.3
/// (with the reconstructed mirror clauses — see module docs).
pub fn normalize(x: f64) -> Quality {
    let q = if x.is_nan() {
        Quality::Epsilon
    } else if (0.0..=1.0).contains(&x) {
        Quality::Value(x)
    } else if (-0.5..0.0).contains(&x) {
        Quality::Value(-x)
    } else if x > 1.0 && x <= 1.5 {
        Quality::Value(2.0 - x)
    } else {
        Quality::Epsilon
    };
    debug_assert!(
        q.value().is_none_or(|v| (0.0..=1.0).contains(&v)),
        "L-normalization left [0, 1]: L({x}) = {q}"
    );
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_on_unit_interval() {
        for &x in &[0.0, 0.25, 0.5, 0.81, 1.0] {
            assert_eq!(normalize(x), Quality::Value(x));
        }
    }

    #[test]
    fn mirror_below_zero() {
        assert_eq!(normalize(-0.2), Quality::Value(0.2));
        assert_eq!(normalize(-0.5), Quality::Value(0.5));
        // Just below -0.5: error state.
        assert_eq!(normalize(-0.5000001), Quality::Epsilon);
    }

    #[test]
    fn mirror_above_one() {
        assert_eq!(normalize(1.2), Quality::Value(0.8));
        assert_eq!(normalize(1.5), Quality::Value(0.5));
        assert_eq!(normalize(1.5000001), Quality::Epsilon);
    }

    #[test]
    fn epsilon_far_out() {
        assert_eq!(normalize(7.0), Quality::Epsilon);
        assert_eq!(normalize(-3.0), Quality::Epsilon);
        assert_eq!(normalize(f64::INFINITY), Quality::Epsilon);
        assert_eq!(normalize(f64::NEG_INFINITY), Quality::Epsilon);
        assert_eq!(normalize(f64::NAN), Quality::Epsilon);
    }

    #[test]
    fn range_is_unit_interval() {
        // Sweep the whole valid domain: every non-epsilon output is in
        // [0, 1].
        let mut x = -0.5;
        while x <= 1.5 {
            match normalize(x) {
                Quality::Value(v) => assert!((0.0..=1.0).contains(&v), "x={x} v={v}"),
                Quality::Epsilon => panic!("unexpected epsilon at {x}"),
            }
            x += 0.001;
        }
    }

    #[test]
    fn continuity_at_seams() {
        // L is continuous at 0 and 1 (mirror folds meet the identity).
        let eps = 1e-9;
        let at = |x: f64| normalize(x).value().unwrap();
        assert!((at(-eps) - at(eps)).abs() < 1e-8);
        assert!((at(1.0 - eps) - at(1.0 + eps)).abs() < 1e-8);
    }

    #[test]
    fn semantics_of_mirrors() {
        // "belongs to zero with an error of mapping": small overshoot below
        // zero stays a low quality value.
        assert!(normalize(-0.1).value().unwrap() < 0.2);
        // "belongs to one with an error": small overshoot above one stays a
        // high quality value.
        assert!(normalize(1.1).value().unwrap() > 0.8);
    }

    #[test]
    fn quality_accessors() {
        assert_eq!(Quality::Value(0.4).value(), Some(0.4));
        assert_eq!(Quality::Epsilon.value(), None);
        assert!(Quality::Epsilon.is_epsilon());
        assert!(!Quality::Value(0.0).is_epsilon());
        assert_eq!(Quality::Epsilon.value_or(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(
            Quality::Value(0.7).value_or(0.0).to_bits(),
            0.7f64.to_bits()
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(Quality::Value(0.5).to_string(), "q=0.5000");
        assert_eq!(Quality::Epsilon.to_string(), "q=eps");
    }

    #[test]
    fn quality_serde_round_trip() {
        for q in [Quality::Value(0.81), Quality::Epsilon] {
            let json = serde_json::to_string(&q).unwrap();
            let back: Quality = serde_json::from_str(&json).unwrap();
            assert_eq!(q, back);
        }
    }
}
