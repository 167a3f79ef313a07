//! Householder QR decomposition.
//!
//! Alternative least-squares backend to [`crate::svd`]; used by the ABL-LSQ
//! ablation to quantify what the paper's SVD choice buys over QR and normal
//! equations on the ANFIS design matrices.

// lint: allow(PANIC_IN_LIB, file) -- dense linear-algebra kernel: dimensions are checked once at entry

use crate::matrix::Matrix;
use crate::{MathError, Result};

/// QR factorisation `A = Q R` of a tall matrix (`rows >= cols`), stored in
/// compact Householder form.
///
/// ```
/// use cqm_math::matrix::Matrix;
/// use cqm_math::qr::Qr;
///
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]]);
/// let x = Qr::new(&a).unwrap().solve(&[1.0, 2.0, 3.0]).unwrap();
/// assert!((x[0] - 1.0).abs() < 1e-12); // intercept
/// assert!((x[1] - 1.0).abs() < 1e-12); // slope
/// ```
#[derive(Debug, Clone)]
pub struct Qr {
    /// Packed factors: R in the upper triangle, Householder vectors below.
    factors: Matrix,
    /// Householder scalar coefficients.
    tau: Vec<f64>,
}

impl Qr {
    /// Factorise `a`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if `a` has fewer rows than
    /// columns.
    pub fn new(a: &Matrix) -> Result<Self> {
        let m = a.rows();
        let n = a.cols();
        if m < n {
            return Err(MathError::DimensionMismatch {
                context: "qr requires rows >= cols",
                expected: n,
                actual: m,
            });
        }
        let mut f = a.clone();
        let mut tau = vec![0.0; n];
        for k in 0..n {
            // Householder vector for column k below the diagonal.
            let mut norm_sq = 0.0;
            for i in k..m {
                norm_sq += f[(i, k)] * f[(i, k)];
            }
            let norm = norm_sq.sqrt();
            // lint: allow(NAN_UNSAFE_CMP) -- an exactly-zero column norm is a degenerate column; tau = 0 marks the reflection skipped
            if norm == 0.0 {
                tau[k] = 0.0;
                continue;
            }
            let alpha = if f[(k, k)] >= 0.0 { -norm } else { norm };
            let fkk = f[(k, k)] - alpha;
            // v = (x - alpha e1) normalised so v[0] = 1.
            for i in (k + 1)..m {
                f[(i, k)] /= fkk;
            }
            tau[k] = -fkk / alpha;
            f[(k, k)] = alpha;
            // Apply H = I - tau v v^T to the trailing columns.
            for j in (k + 1)..n {
                let mut dot = f[(k, j)];
                for i in (k + 1)..m {
                    dot += f[(i, k)] * f[(i, j)];
                }
                let t = tau[k] * dot;
                f[(k, j)] -= t;
                for i in (k + 1)..m {
                    let vik = f[(i, k)];
                    f[(i, j)] -= t * vik;
                }
            }
        }
        Ok(Qr { factors: f, tau })
    }

    /// Least-squares solve of `A x ≈ b` (`x = R⁻¹ Qᵀ b`).
    ///
    /// # Errors
    ///
    /// * [`MathError::DimensionMismatch`] if `b.len() != rows`.
    /// * [`MathError::Singular`] if `R` has a (near-)zero diagonal entry,
    ///   i.e. `A` is numerically rank-deficient. Use the SVD backend for
    ///   rank-deficient systems.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let m = self.factors.rows();
        let n = self.factors.cols();
        if b.len() != m {
            return Err(MathError::DimensionMismatch {
                context: "qr solve rhs",
                expected: m,
                actual: b.len(),
            });
        }
        // y = Qᵀ b by applying the Householder reflections in order.
        let mut y = b.to_vec();
        for k in 0..n {
            // lint: allow(NAN_UNSAFE_CMP) -- tau == 0.0 is the exact skip marker written by the factorization for degenerate columns
            if self.tau[k] == 0.0 {
                continue;
            }
            let mut dot = y[k];
            for i in (k + 1)..m {
                dot += self.factors[(i, k)] * y[i];
            }
            let t = self.tau[k] * dot;
            y[k] -= t;
            for i in (k + 1)..m {
                y[i] -= t * self.factors[(i, k)];
            }
        }
        // Back substitution with R.
        let mut x = vec![0.0; n];
        let scale = self.factors.max_abs().max(1.0);
        for k in (0..n).rev() {
            let mut acc = y[k];
            for j in (k + 1)..n {
                acc -= self.factors[(k, j)] * x[j];
            }
            let rkk = self.factors[(k, k)];
            if rkk.abs() < 1e-13 * scale {
                return Err(MathError::Singular("zero diagonal in R"));
            }
            x[k] = acc / rkk;
        }
        Ok(x)
    }

    /// The upper-triangular factor `R` (`n x n`).
    pub fn r(&self) -> Matrix {
        let n = self.factors.cols();
        let mut r = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                r[(i, j)] = self.factors[(i, j)];
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn square_solve() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[2.0, 3.0]]);
        let x = Qr::new(&a).unwrap().solve(&[9.0, 13.0]).unwrap();
        assert_close(x[0], 1.4, 1e-12);
        assert_close(x[1], 3.4, 1e-12);
    }

    #[test]
    fn overdetermined_regression_matches_svd() {
        let a = Matrix::from_rows(&[
            &[0.0, 1.0],
            &[1.0, 1.0],
            &[2.0, 1.0],
            &[3.0, 1.0],
            &[4.0, 1.0],
        ]);
        // Noisy y around 3x - 2.
        let y = [-2.1, 1.2, 3.9, 7.1, 9.9];
        let qx = Qr::new(&a).unwrap().solve(&y).unwrap();
        let sx = crate::svd::Svd::new(&a).unwrap().solve(&y).unwrap();
        assert_close(qx[0], sx[0], 1e-10);
        assert_close(qx[1], sx[1], 1e-10);
    }

    #[test]
    fn r_is_upper_triangular_with_correct_gram() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let r = Qr::new(&a).unwrap().r();
        assert_eq!(r[(1, 0)].to_bits(), 0.0f64.to_bits());
        // RᵀR must equal AᵀA.
        let rtr = r.transpose().matmul(&r).unwrap();
        let ata = a.transpose().matmul(&a).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert_close(rtr[(i, j)], ata[(i, j)], 1e-10);
            }
        }
    }

    #[test]
    fn singular_matrix_reports_error() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let qr = Qr::new(&a).unwrap();
        assert!(matches!(
            qr.solve(&[1.0, 2.0, 3.0]),
            Err(MathError::Singular(_))
        ));
    }

    #[test]
    fn shape_validation() {
        assert!(Qr::new(&Matrix::zeros(2, 3)).is_err());
        let qr = Qr::new(&Matrix::identity(2)).unwrap();
        assert!(qr.solve(&[1.0]).is_err());
    }

    #[test]
    fn zero_column_handled() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 2.0], &[0.0, 3.0]]);
        let qr = Qr::new(&a).unwrap();
        // R(0,0) is zero -> singular on solve, not a panic.
        assert!(qr.solve(&[1.0, 2.0, 3.0]).is_err());
    }
}
