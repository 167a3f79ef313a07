//! Free functions over `&[f64]` vectors.
//!
//! The workspace keeps vectors as plain slices/`Vec<f64>` rather than a
//! newtype: the data flows through many crates (cues, FIS inputs, cluster
//! centers) and a bare slice keeps those APIs interoperable. The functions
//! here centralise the small amount of vector algebra everyone needs.

use crate::{MathError, Result};

/// Dot product of two equal-length vectors.
///
/// # Errors
///
/// Returns [`MathError::DimensionMismatch`] if the lengths differ.
///
/// ```
/// # use cqm_math::vector::dot;
/// assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]).unwrap(), 11.0);
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(MathError::DimensionMismatch {
            context: "dot product",
            expected: a.len(),
            actual: b.len(),
        });
    }
    Ok(a.iter().zip(b).map(|(x, y)| x * y).sum())
}

/// Euclidean (L2) norm.
pub fn norm(a: &[f64]) -> f64 {
    debug_assert!(
        a.iter().all(|x| x.is_finite()),
        "norm: non-finite input component"
    );
    a.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Squared Euclidean distance between two points.
///
/// # Errors
///
/// Returns [`MathError::DimensionMismatch`] if the lengths differ.
pub fn dist_sq(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(MathError::DimensionMismatch {
            context: "distance",
            expected: a.len(),
            actual: b.len(),
        });
    }
    Ok(a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum())
}

/// Euclidean distance between two points.
///
/// # Errors
///
/// Returns [`MathError::DimensionMismatch`] if the lengths differ.
// lint: allow(ASSERT_DENSITY) -- thin wrapper; dist_sq validates the shapes via Result
pub fn dist(a: &[f64], b: &[f64]) -> Result<f64> {
    dist_sq(a, b).map(f64::sqrt)
}

/// Element-wise sum `a + b`.
///
/// # Errors
///
/// Returns [`MathError::DimensionMismatch`] if the lengths differ.
pub fn add(a: &[f64], b: &[f64]) -> Result<Vec<f64>> {
    if a.len() != b.len() {
        return Err(MathError::DimensionMismatch {
            context: "vector add",
            expected: a.len(),
            actual: b.len(),
        });
    }
    Ok(a.iter().zip(b).map(|(x, y)| x + y).collect())
}

/// Element-wise difference `a - b`.
///
/// # Errors
///
/// Returns [`MathError::DimensionMismatch`] if the lengths differ.
pub fn sub(a: &[f64], b: &[f64]) -> Result<Vec<f64>> {
    if a.len() != b.len() {
        return Err(MathError::DimensionMismatch {
            context: "vector sub",
            expected: a.len(),
            actual: b.len(),
        });
    }
    Ok(a.iter().zip(b).map(|(x, y)| x - y).collect())
}

/// Scalar multiple `k * a`.
pub fn scale(a: &[f64], k: f64) -> Vec<f64> {
    debug_assert!(k.is_finite(), "scale: non-finite factor {k}");
    a.iter().map(|x| k * x).collect()
}

/// In-place `a += k * b` (axpy).
///
/// # Panics
///
/// Panics if the lengths differ; this is a hot inner-loop primitive and the
/// callers guarantee matching shapes.
pub fn axpy(a: &mut [f64], k: f64, b: &[f64]) {
    assert_eq!(a.len(), b.len(), "axpy length mismatch");
    for (x, y) in a.iter_mut().zip(b) {
        *x += k * y;
    }
}

/// Index and value of the maximum element. Returns `None` for an empty slice
/// or a slice whose every element is NaN.
// lint: allow(ASSERT_DENSITY) -- NaN-tolerant by contract: NaN elements are skipped, all-NaN yields None
pub fn argmax(a: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in a.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if bv >= v => {}
            _ => best = Some((i, v)),
        }
    }
    best
}

/// Index and value of the minimum element. Returns `None` for an empty slice
/// or a slice whose every element is NaN.
// lint: allow(ASSERT_DENSITY) -- NaN-tolerant by contract: NaN elements are skipped, all-NaN yields None
pub fn argmin(a: &[f64]) -> Option<(usize, f64)> {
    argmax(&scale(a, -1.0)).map(|(i, v)| (i, -v))
}

/// Linearly spaced grid of `n` points covering `[lo, hi]` inclusive.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n > 0, "linspace needs at least one point");
    if n == 1 {
        return vec![lo];
    }
    let step = (hi - lo) / (n - 1) as f64;
    (0..n).map(|i| lo + step * i as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(
            dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]).unwrap().to_bits(),
            32.0f64.to_bits()
        );
        // The empty sum is the value zero (std's float `Sum` yields -0.0).
        assert!(dot(&[], &[]).unwrap() == 0.0);
    }

    #[test]
    fn dot_mismatch_errors() {
        assert!(matches!(
            dot(&[1.0], &[1.0, 2.0]),
            Err(MathError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn norm_and_distance() {
        assert_eq!(norm(&[3.0, 4.0]).to_bits(), 5.0f64.to_bits());
        assert_eq!(
            dist(&[0.0, 0.0], &[3.0, 4.0]).unwrap().to_bits(),
            5.0f64.to_bits()
        );
        assert_eq!(dist_sq(&[1.0], &[4.0]).unwrap().to_bits(), 9.0f64.to_bits());
    }

    #[test]
    fn add_sub_scale() {
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]).unwrap(), vec![4.0, 6.0]);
        assert_eq!(sub(&[1.0, 2.0], &[3.0, 4.0]).unwrap(), vec![-2.0, -2.0]);
        assert_eq!(scale(&[1.0, -2.0], -2.0), vec![-2.0, 4.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = vec![1.0, 1.0];
        axpy(&mut a, 2.0, &[1.0, 3.0]);
        assert_eq!(a, vec![3.0, 7.0]);
    }

    #[test]
    fn argmax_skips_nan() {
        assert_eq!(argmax(&[1.0, f64::NAN, 3.0, 2.0]), Some((2, 3.0)));
        assert_eq!(argmax(&[f64::NAN]), None);
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn argmax_first_wins_on_tie() {
        assert_eq!(argmax(&[5.0, 5.0, 1.0]), Some((0, 5.0)));
    }

    #[test]
    fn argmin_basic() {
        assert_eq!(argmin(&[2.0, -1.0, 4.0]), Some((1, -1.0)));
    }

    #[test]
    fn linspace_endpoints() {
        let g = linspace(0.0, 1.0, 5);
        assert_eq!(g, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(linspace(2.0, 9.0, 1), vec![2.0]);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn linspace_zero_panics() {
        let _ = linspace(0.0, 1.0, 0);
    }
}
