//! Singular value decomposition via one-sided Jacobi rotations.
//!
//! The paper solves the over-determined consequent least-squares system with
//! SVD (§2.2.2). One-sided Jacobi (Hestenes) is compact, numerically robust
//! and more than fast enough for the design matrices arising here (thousands
//! of rows, tens of columns): it iteratively orthogonalises the columns of
//! `A`, yielding `A = U Σ Vᵀ` with `U` column-orthonormal (thin SVD).
//!
//! Every step of a sweep reads or rotates two whole columns, so the sweeps
//! run on column-major copies of `A` and `V` (that is, on `Aᵀ` and `Vᵀ`
//! stored row-major), where each column is one contiguous slice. The
//! layout changes no arithmetic: pairs are visited p ascending, then
//! q > p ascending, every sum runs over `i = 0..m` in order, and no
//! operation is fused or re-associated, so the factors have the bits a
//! row-major sweep gives (DESIGN.md §9, "Training path"). A pair whose two
//! columns have not turned since it last tested converged is not tested
//! again: the test would read the same bits and reach the same verdict.

// lint: allow(PANIC_IN_LIB, file) -- dense linear-algebra kernel: dimensions are checked once at entry

use crate::matrix::Matrix;
use crate::{MathError, Result};

/// Thin singular value decomposition `A = U Σ Vᵀ`.
///
/// `U` is `m x n` with orthonormal columns, `V` is `n x n` orthogonal and
/// `sigma` holds the `n` singular values in non-increasing order.
///
/// ```
/// use cqm_math::matrix::Matrix;
/// use cqm_math::svd::Svd;
///
/// let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 2.0], &[0.0, 0.0]]);
/// let svd = Svd::new(&a).unwrap();
/// assert!((svd.sigma[0] - 3.0).abs() < 1e-12);
/// assert!((svd.sigma[1] - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `m x n`, orthonormal columns.
    pub u: Matrix,
    /// Singular values, length `n`, non-increasing.
    pub sigma: Vec<f64>,
    /// Right singular vectors, `n x n`, orthogonal.
    pub v: Matrix,
}

/// Sweep budget: each sweep visits all column pairs once.
const MAX_SWEEPS: usize = 60;

impl Svd {
    /// Compute the thin SVD of `a` (requires `rows >= cols`; transpose the
    /// input yourself for wide matrices — callers in this workspace always
    /// have tall design matrices).
    ///
    /// # Errors
    ///
    /// * [`MathError::DimensionMismatch`] if `a` is wider than tall.
    /// * [`MathError::NoConvergence`] if Jacobi sweeps fail to orthogonalise
    ///   the columns within the sweep budget (does not occur for finite
    ///   inputs in practice).
    pub fn new(a: &Matrix) -> Result<Self> {
        let m = a.rows();
        let n = a.cols();
        if m < n {
            return Err(MathError::DimensionMismatch {
                context: "svd requires rows >= cols",
                expected: n,
                actual: m,
            });
        }
        // Column-major working copies: column j of U is `u[j * m..][..m]`
        // and column j of V is `v[j * n..][..n]`. V starts as the identity,
        // which is its own transpose.
        let mut u = vec![0.0; m * n];
        for (i, row) in a.as_slice().chunks_exact(n).enumerate() {
            for (j, &x) in row.iter().enumerate() {
                u[j * m + i] = x;
            }
        }
        let mut v = Matrix::identity(n).as_slice().to_vec();

        let tol = 1e-13;
        // Columns whose squared norm has collapsed to rounding noise relative
        // to the whole matrix are numerically zero; rotating them against
        // each other cycles forever on rank-deficient inputs.
        let scale2: f64 = a.as_slice().iter().map(|x| x * x).sum();
        let dead = 1e-26 * scale2;
        // A pair's test reads only its two columns of U, so a pair that
        // tested converged stays converged until one of them is rotated.
        // `rotated_at[j]` is the rotation count after column j last turned;
        // `clean_after[p * n + q]` is one past the count at which pair
        // (p, q) last tested converged (0: never). Skipping a clean pair
        // skips only a test whose outcome is already known, so the factors
        // keep every bit.
        let mut rotations_done = 0usize;
        let mut rotated_at = vec![0usize; n];
        let mut clean_after = vec![0usize; n * n];
        let mut converged = false;
        for _ in 0..MAX_SWEEPS {
            let sweep_start = rotations_done;
            for p in 0..n {
                for q in (p + 1)..n {
                    let clean = clean_after[p * n + q];
                    if rotated_at[p] < clean && rotated_at[q] < clean {
                        continue;
                    }
                    // Gram entries over columns p and q.
                    let mut app = 0.0;
                    let mut aqq = 0.0;
                    let mut apq = 0.0;
                    for (&up, &uq) in u[p * m..(p + 1) * m].iter().zip(&u[q * m..(q + 1) * m]) {
                        app += up * up;
                        aqq += uq * uq;
                        apq += up * uq;
                    }
                    if app <= dead
                        || aqq <= dead
                        || apq.abs() <= tol * (app * aqq).sqrt().max(f64::MIN_POSITIVE)
                    {
                        clean_after[p * n + q] = rotations_done + 1;
                        continue;
                    }
                    rotations_done += 1;
                    rotated_at[p] = rotations_done;
                    rotated_at[q] = rotations_done;
                    // Jacobi rotation that annihilates the (p,q) Gram entry.
                    let tau = (aqq - app) / (2.0 * apq);
                    let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;
                    rotate(&mut u, m, p, q, c, s);
                    rotate(&mut v, n, p, q, c, s);
                }
            }
            if rotations_done == sweep_start {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(MathError::NoConvergence {
                method: "jacobi-svd",
                iterations: MAX_SWEEPS,
            });
        }

        // Column norms are the singular values; normalise U's columns while
        // writing both factors back in row-major order, sorted by σ.
        let mut order: Vec<usize> = (0..n).collect();
        let sigma: Vec<f64> = u
            .chunks_exact(m)
            .map(|col| col.iter().map(|x| x * x).sum::<f64>().sqrt())
            .collect();
        order.sort_by(|&i, &j| sigma[j].total_cmp(&sigma[i]));

        let mut u_sorted = Matrix::zeros(m, n);
        let mut v_sorted = Matrix::zeros(n, n);
        let mut sigma_sorted = vec![0.0; n];
        for (new_j, &old_j) in order.iter().enumerate() {
            let s = sigma[old_j];
            sigma_sorted[new_j] = s;
            // Zero columns (rank deficiency) keep a zero U column; V is still
            // orthogonal because rotations preserved it.
            let inv = if s > 0.0 { 1.0 / s } else { 0.0 };
            for (i, &x) in u[old_j * m..(old_j + 1) * m].iter().enumerate() {
                u_sorted[(i, new_j)] = x * inv;
            }
            for (i, &x) in v[old_j * n..(old_j + 1) * n].iter().enumerate() {
                v_sorted[(i, new_j)] = x;
            }
        }

        Ok(Svd {
            u: u_sorted,
            sigma: sigma_sorted,
            v: v_sorted,
        })
    }

    /// Effective numerical rank: singular values above the Jacobi noise
    /// floor `max(m, n) * sigma_max * 1e-13`.
    pub fn rank(&self) -> usize {
        let smax = self.sigma.first().copied().unwrap_or(0.0);
        let tol = self.u.rows().max(self.v.rows()) as f64 * smax * 1e-13;
        self.sigma.iter().filter(|&&s| s > tol).count()
    }

    /// Condition number `sigma_max / sigma_min` (infinite if rank-deficient).
    pub fn condition_number(&self) -> f64 {
        let smax = self.sigma.first().copied().unwrap_or(0.0);
        let smin = self.sigma.last().copied().unwrap_or(0.0);
        // lint: allow(NAN_UNSAFE_CMP) -- an exactly-zero singular value is rank deficiency; the condition number is infinite by definition
        if smin == 0.0 {
            f64::INFINITY
        } else {
            smax / smin
        }
    }

    /// Minimum-norm least-squares solution of `A x ≈ b` via the
    /// pseudo-inverse: `x = V Σ⁺ Uᵀ b`. Small singular values (below the
    /// rank tolerance) are truncated, which is what makes the SVD route
    /// robust for the nearly collinear rule-activation columns ANFIS
    /// produces.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if `b.len() != rows`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let m = self.u.rows();
        let n = self.v.rows();
        if b.len() != m {
            return Err(MathError::DimensionMismatch {
                context: "svd solve rhs",
                expected: m,
                actual: b.len(),
            });
        }
        let smax = self.sigma.first().copied().unwrap_or(0.0);
        let tol = m.max(n) as f64 * smax * 1e-13;
        // y = Σ⁺ Uᵀ b
        let mut y = vec![0.0; n];
        for j in 0..n {
            if self.sigma[j] <= tol {
                continue;
            }
            let utb: f64 = (0..m).map(|i| self.u[(i, j)] * b[i]).sum();
            y[j] = utb / self.sigma[j];
        }
        // x = V y
        Ok((0..n)
            .map(|i| (0..n).map(|j| self.v[(i, j)] * y[j]).sum())
            .collect())
    }

    /// Reconstruct `U Σ Vᵀ` (for testing / diagnostics).
    pub fn reconstruct(&self) -> Matrix {
        let m = self.u.rows();
        let n = self.v.rows();
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += self.u[(i, k)] * self.sigma[k] * self.v[(j, k)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    }
}

/// Apply the Jacobi rotation `(c, s)` to columns `p < q` of a column-major
/// buffer whose columns are `len` long.
fn rotate(cols: &mut [f64], len: usize, p: usize, q: usize, c: f64, s: f64) {
    let (head, tail) = cols.split_at_mut(q * len);
    let col_q = &mut tail[..len];
    for (xp, xq) in head[p * len..(p + 1) * len].iter_mut().zip(col_q) {
        let (up, uq) = (*xp, *xq);
        *xp = c * up - s * uq;
        *xq = s * up + c * uq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn diagonal_matrix_svd() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -2.0], &[0.0, 0.0]]);
        let svd = Svd::new(&a).unwrap();
        assert_close(svd.sigma[0], 3.0, 1e-12);
        assert_close(svd.sigma[1], 2.0, 1e-12);
        let r = svd.reconstruct();
        for i in 0..3 {
            for j in 0..2 {
                assert_close(r[(i, j)], a[(i, j)], 1e-10);
            }
        }
    }

    #[test]
    fn singular_values_ordered_descending() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 10.0]]);
        let svd = Svd::new(&a).unwrap();
        assert!(svd.sigma[0] >= svd.sigma[1]);
        assert!(svd.sigma[1] >= svd.sigma[2]);
    }

    #[test]
    fn u_columns_orthonormal() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0], &[7.0, 9.0]]);
        let svd = Svd::new(&a).unwrap();
        for p in 0..2 {
            for q in 0..2 {
                let g: f64 = (0..4).map(|i| svd.u[(i, p)] * svd.u[(i, q)]).sum();
                assert_close(g, if p == q { 1.0 } else { 0.0 }, 1e-10);
            }
        }
    }

    #[test]
    fn v_orthogonal() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0], &[0.0, 1.0]]);
        let svd = Svd::new(&a).unwrap();
        let vtv = svd.v.transpose().matmul(&svd.v).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert_close(vtv[(i, j)], if i == j { 1.0 } else { 0.0 }, 1e-10);
            }
        }
    }

    #[test]
    fn rank_detects_deficiency() {
        // Second column is twice the first: rank 1.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let svd = Svd::new(&a).unwrap();
        assert_eq!(svd.rank(), 1);
        assert!(svd.condition_number().is_infinite() || svd.condition_number() > 1e12);
    }

    #[test]
    fn full_rank_condition() {
        let a = Matrix::identity(3);
        let svd = Svd::new(&a).unwrap();
        assert_eq!(svd.rank(), 3);
        assert_close(svd.condition_number(), 1.0, 1e-12);
    }

    #[test]
    fn solve_exact_system() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let svd = Svd::new(&a).unwrap();
        let x = svd.solve(&[2.0, 8.0]).unwrap();
        assert_close(x[0], 1.0, 1e-12);
        assert_close(x[1], 2.0, 1e-12);
    }

    #[test]
    fn solve_overdetermined_regression() {
        // y = 2x + 1 with exact data.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 1.0], &[2.0, 1.0], &[3.0, 1.0]]);
        let y = [1.0, 3.0, 5.0, 7.0];
        let svd = Svd::new(&a).unwrap();
        let x = svd.solve(&y).unwrap();
        assert_close(x[0], 2.0, 1e-10);
        assert_close(x[1], 1.0, 1e-10);
    }

    #[test]
    fn solve_rank_deficient_gives_min_norm() {
        // Columns identical: any (x0, x1) with x0 + x1 = 1 fits A x = b where
        // b = column. Minimum-norm solution is (0.5, 0.5).
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let svd = Svd::new(&a).unwrap();
        let x = svd.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_close(x[0], 0.5, 1e-10);
        assert_close(x[1], 0.5, 1e-10);
    }

    #[test]
    fn solve_rhs_length_checked() {
        let a = Matrix::identity(2);
        let svd = Svd::new(&a).unwrap();
        assert!(svd.solve(&[1.0]).is_err());
    }

    #[test]
    fn wide_matrix_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Svd::new(&a),
            Err(MathError::DimensionMismatch { .. })
        ));
    }

    /// A `rows`×`cols` matrix filled row by row from a fixed LCG stream in
    /// `[-1, 1)`.
    fn lcg_matrix(rows: usize, cols: usize) -> Matrix {
        // Deterministic pseudo-random fill (LCG) — avoids dev-dependency use
        // inside the unit test while still covering a "generic" matrix.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut a = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                a[(i, j)] = next();
            }
        }
        a
    }

    /// 64-bit FNV-1a over the bits of U, Σ and V, in that order.
    fn fingerprint(svd: &Svd) -> u64 {
        let words = svd
            .u
            .as_slice()
            .iter()
            .chain(&svd.sigma)
            .chain(svd.v.as_slice());
        words.fold(0xcbf2_9ce4_8422_2325, |h, x| {
            x.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        })
    }

    #[test]
    fn factor_bits_are_pinned() {
        // Recorded with a row-major sweep: the sweep's memory layout must
        // not move a single bit.
        let generic = Svd::new(&lcg_matrix(12, 5)).unwrap();
        assert_eq!(
            fingerprint(&generic),
            0x51fd_a96f_e5b7_927e,
            "12x5 LCG matrix"
        );
        let deficient =
            Svd::new(&Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]])).unwrap();
        assert_eq!(
            fingerprint(&deficient),
            0xeef9_67a6_dcd6_fc07,
            "rank-deficient 3x2 matrix"
        );
        // Recorded before converged pairs were skipped: column 7 repeats
        // column 2, so later sweeps meet pairs whose columns have not
        // turned since they last tested converged (31 of 196 pair tests).
        let mut tall = lcg_matrix(40, 8);
        for i in 0..40 {
            tall[(i, 7)] = tall[(i, 2)];
        }
        let revisiting = Svd::new(&tall).unwrap();
        assert_eq!(
            fingerprint(&revisiting),
            0xb292_55b7_5fe7_849f,
            "40x8 LCG matrix with a repeated column"
        );
    }

    #[test]
    fn random_reconstruction_accuracy() {
        let a = lcg_matrix(12, 5);
        let (m, n) = (a.rows(), a.cols());
        let svd = Svd::new(&a).unwrap();
        let r = svd.reconstruct();
        for i in 0..m {
            for j in 0..n {
                assert_close(r[(i, j)], a[(i, j)], 1e-9);
            }
        }
    }
}
