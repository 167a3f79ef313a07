//! Least-squares estimation of TSK consequent parameters (§2.2.2).
//!
//! With the premise parameters fixed, the TSK output is **linear** in the
//! consequent coefficients:
//!
//! ```text
//! ŷ(v) = Σ_j w̄_j(v) · (a_1j v_1 + … + a_nj v_n + a_(n+1)j)
//! ```
//!
//! so stacking one row per training sample yields one over-determined linear
//! system in all `m·(n+1)` coefficients at once. The paper solves it with
//! SVD; the recursive formulation (RLS) from Jang's original ANFIS paper is
//! also provided for the streaming case.

// analyze: hot-path

// lint: allow(PANIC_IN_LIB, file) -- design-matrix indices come from the validated dataset/FIS dimensions

use cqm_fuzzy::TskFis;
use cqm_math::linsolve::{lstsq, LstsqMethod};
use cqm_math::matrix::Matrix;
use cqm_parallel::WorkerPool;

use crate::dataset::Dataset;
use crate::{check_shape, AnfisError, Result};

/// Samples per parallel work item when assembling the design matrix. Rows
/// are per-sample independent, so any chunking yields bit-identical output;
/// this only balances scheduling granularity against dispatch overhead.
const DESIGN_CHUNK: usize = 64;

/// Build the LSE design matrix and target vector for `fis` over `data`.
///
/// Row `r` holds, for each rule `j`, the block
/// `[w̄_j x_1, …, w̄_j x_n, w̄_j]`. Samples on which no rule fires are
/// skipped; their indices are returned so callers can report coverage.
///
/// # Errors
///
/// * [`AnfisError::InvalidData`] if the dataset is empty, disagrees with the
///   FIS input dimension, or *no* sample activates any rule.
pub fn design_matrix(fis: &TskFis, data: &Dataset) -> Result<(Matrix, Vec<f64>, Vec<usize>)> {
    design_matrix_with(fis, data, &WorkerPool::serial())
}

/// [`design_matrix`] on a worker pool. Each sample's row block is
/// independent, so chunks of [`DESIGN_CHUNK`] samples are assembled
/// concurrently and concatenated in order — the matrix, targets and skipped
/// indices are bit-identical to the serial build at any thread count.
///
/// # Errors
///
/// Same conditions as [`design_matrix`].
pub fn design_matrix_with(
    fis: &TskFis,
    data: &Dataset,
    pool: &WorkerPool,
) -> Result<(Matrix, Vec<f64>, Vec<usize>)> {
    check_shape(fis, data)?;
    let n = fis.input_dim();
    let m = fis.rule_count();
    let cols = m * (n + 1);
    let inputs = data.inputs();
    let all_targets = data.targets();
    let parts = pool.run_chunks(data.len(), DESIGN_CHUNK, |chunk| {
        let mut rows: Vec<f64> = Vec::with_capacity(chunk.len() * cols);
        let mut targets = Vec::with_capacity(chunk.len());
        let mut skipped = Vec::new();
        for idx in chunk.start..chunk.end {
            let x = &inputs[idx];
            match fis.eval_detailed(x) {
                Ok(eval) => {
                    for j in 0..m {
                        let wbar = eval.normalized_firing[j];
                        for &xi in x.iter() {
                            rows.push(wbar * xi);
                        }
                        rows.push(wbar);
                    }
                    targets.push(all_targets[idx]);
                }
                Err(_) => skipped.push(idx),
            }
        }
        (rows, targets, skipped)
    });
    let mut rows: Vec<f64> = Vec::new();
    let mut targets = Vec::new();
    let mut skipped = Vec::new();
    for (r, t, s) in parts {
        rows.extend_from_slice(&r);
        targets.extend_from_slice(&t);
        skipped.extend_from_slice(&s);
    }
    if targets.is_empty() {
        return Err(AnfisError::InvalidData(
            "no sample activates any rule; check membership coverage".into(),
        ));
    }
    let a = Matrix::from_vec(targets.len(), cols, rows).map_err(AnfisError::Math)?;
    Ok((a, targets, skipped))
}

/// Fit all consequent coefficients of `fis` in place by global least squares
/// and return the post-fit RMSE over the rows that were used.
///
/// # Errors
///
/// * Propagates [`design_matrix`] failures.
/// * [`AnfisError::Math`] if the chosen backend cannot solve the system
///   (e.g. QR on rank-deficient activations — use SVD).
pub fn fit_consequents(fis: &mut TskFis, data: &Dataset, method: LstsqMethod) -> Result<f64> {
    fit_consequents_with(fis, data, method, &WorkerPool::serial())
}

/// [`fit_consequents`] on a worker pool: the design matrix is assembled in
/// parallel (see [`design_matrix_with`]); the least-squares solve itself
/// stays serial, so the fitted coefficients are bit-identical at any thread
/// count.
///
/// # Errors
///
/// Same conditions as [`fit_consequents`].
pub fn fit_consequents_with(
    fis: &mut TskFis,
    data: &Dataset,
    method: LstsqMethod,
    pool: &WorkerPool,
) -> Result<f64> {
    let (a, y, _skipped) = design_matrix_with(fis, data, pool)?;
    let theta = lstsq(&a, &y, method).map_err(AnfisError::Math)?;
    apply_theta(fis, &theta);
    let resid = cqm_math::linsolve::residual_norm(&a, &theta, &y).map_err(AnfisError::Math)?;
    Ok(resid / (y.len() as f64).sqrt())
}

/// Write a flat coefficient vector (rule-major, `[a_1j…a_nj, a_(n+1)j]`
/// blocks) into the FIS consequents.
pub fn apply_theta(fis: &mut TskFis, theta: &[f64]) {
    let n = fis.input_dim();
    let block = n + 1;
    for (j, rule) in fis.rules_mut().iter_mut().enumerate() {
        rule.consequent_mut()
            .copy_from_slice(&theta[j * block..(j + 1) * block]);
    }
}

/// Read the FIS consequents into a flat rule-major coefficient vector.
pub fn extract_theta(fis: &TskFis) -> Vec<f64> {
    fis.rules()
        .iter()
        .flat_map(|r| r.consequent().iter().copied())
        .collect()
}

/// Recursive least squares (RLS) over the same parameterization, processing
/// one sample at a time — Jang's original in-epoch formulation. Numerically
/// the batch SVD solve is preferred; RLS exists for the streaming/ablation
/// path.
#[derive(Debug, Clone)]
pub struct RecursiveLse {
    /// Current coefficient estimate.
    theta: Vec<f64>,
    /// Inverse-covariance matrix `P`.
    p: Matrix,
    /// Forgetting factor λ (1.0 = none).
    lambda: f64,
}

impl RecursiveLse {
    /// Initialise with `cols` coefficients, `P = gamma · I`.
    ///
    /// # Errors
    ///
    /// Returns [`AnfisError::InvalidConfig`] if `cols == 0`, `gamma <= 0` or
    /// `lambda` outside `(0, 1]`.
    pub fn new(cols: usize, gamma: f64, lambda: f64) -> Result<Self> {
        RecursiveLse::from_theta(vec![0.0; cols], gamma, lambda)
    }

    /// Warm-start from an existing coefficient vector (e.g. the live
    /// model's consequents via [`extract_theta`]), `P = gamma · I`. The
    /// streaming adaptation path continues from the deployed solution
    /// instead of relearning it from zero.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RecursiveLse::new`], plus
    /// [`AnfisError::InvalidData`] on non-finite seed coefficients.
    pub fn from_theta(theta: Vec<f64>, gamma: f64, lambda: f64) -> Result<Self> {
        if theta.is_empty() {
            return Err(AnfisError::InvalidConfig {
                name: "cols",
                value: 0.0,
            });
        }
        if theta.iter().any(|t| !t.is_finite()) {
            return Err(AnfisError::InvalidData(
                "warm-start theta contains non-finite coefficients".into(),
            ));
        }
        if !(gamma > 0.0 && gamma.is_finite()) {
            return Err(AnfisError::InvalidConfig {
                name: "gamma",
                value: gamma,
            });
        }
        if !(lambda > 0.0 && lambda <= 1.0) {
            return Err(AnfisError::InvalidConfig {
                name: "lambda",
                value: lambda,
            });
        }
        let cols = theta.len();
        Ok(RecursiveLse {
            theta,
            p: Matrix::identity(cols).scale(gamma),
            lambda,
        })
    }

    /// Current estimate.
    pub fn theta(&self) -> &[f64] {
        &self.theta
    }

    /// The forgetting factor λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Reset the inverse covariance to `gamma · I`, keeping the current
    /// coefficient estimate. Used after a structural change (rule
    /// insertion/merge) or a confirmed drift: the estimate is kept but the
    /// estimator's confidence in it is discarded, so new evidence moves the
    /// coefficients quickly again.
    ///
    /// # Errors
    ///
    /// Returns [`AnfisError::InvalidConfig`] if `gamma <= 0` or non-finite.
    pub fn reset_covariance(&mut self, gamma: f64) -> Result<()> {
        if !(gamma > 0.0 && gamma.is_finite()) {
            return Err(AnfisError::InvalidConfig {
                name: "gamma",
                value: gamma,
            });
        }
        self.p = Matrix::identity(self.theta.len()).scale(gamma);
        Ok(())
    }

    /// Process one sample row `a` with target `y`.
    ///
    /// # Errors
    ///
    /// Returns [`AnfisError::InvalidData`] on dimension mismatch.
    // The rank-1 update writes P[r][c] from two parallel buffers; indexed
    // loops are the clearest rendering of the textbook formula.
    #[allow(clippy::needless_range_loop)]
    pub fn update(&mut self, a: &[f64], y: f64) -> Result<()> {
        let n = self.theta.len();
        if a.len() != n {
            return Err(AnfisError::InvalidData(format!(
                "row has {} entries, estimator expects {n}",
                a.len()
            )));
        }
        // k = P a / (λ + aᵀ P a)
        let pa = self.p.matvec(a).map_err(AnfisError::Math)?;
        let denom = self.lambda + a.iter().zip(&pa).map(|(ai, pai)| ai * pai).sum::<f64>();
        let k: Vec<f64> = pa.iter().map(|v| v / denom).collect();
        // theta += k (y − aᵀ theta)
        let err = y - a
            .iter()
            .zip(&self.theta)
            .map(|(ai, ti)| ai * ti)
            .sum::<f64>();
        for (t, ki) in self.theta.iter_mut().zip(&k) {
            *t += ki * err;
        }
        // P = (P − k aᵀ P) / λ
        for r in 0..n {
            for c in 0..n {
                self.p[(r, c)] = (self.p[(r, c)] - k[r] * pa[c]) / self.lambda;
            }
        }
        Ok(())
    }
}

/// Fit the consequents of `fis` by a **recursive** least-squares sweep over
/// `data`: the design matrix is assembled in parallel (see
/// [`design_matrix_with`], bit-identical at any thread count), then the RLS
/// recursion consumes its rows one by one in dataset order, warm-started
/// from the FIS's current consequents. Returns the post-sweep RMSE over the
/// rows that were used.
///
/// This is the batch replay of the streaming path: feeding the same samples
/// one at a time through a [`RecursiveLse`] warm-started the same way
/// produces bit-identical coefficients, because both run the identical
/// floating-point update sequence (the property `cqm-adapt` tests). With
/// `lambda = 1` and a large `gamma` the result converges to the batch SVD
/// solution of [`fit_consequents_with`] but is *not* bit-identical to it —
/// the two solvers take different arithmetic routes (documented bound in
/// DESIGN.md §14).
///
/// # Errors
///
/// * Propagates [`design_matrix_with`] failures.
/// * [`AnfisError::InvalidConfig`] for out-of-domain `gamma`/`lambda`.
pub fn fit_consequents_rls_with(
    fis: &mut TskFis,
    data: &Dataset,
    gamma: f64,
    lambda: f64,
    pool: &WorkerPool,
) -> Result<f64> {
    let (a, y, _skipped) = design_matrix_with(fis, data, pool)?;
    let mut rls = RecursiveLse::from_theta(extract_theta(fis), gamma, lambda)?;
    let cols = a.cols();
    let mut row = vec![0.0; cols];
    for r in 0..a.rows() {
        for c in 0..cols {
            row[c] = a[(r, c)];
        }
        rls.update(&row, y[r])?;
    }
    apply_theta(fis, rls.theta());
    let resid = cqm_math::linsolve::residual_norm(&a, rls.theta(), &y).map_err(AnfisError::Math)?;
    Ok(resid / (y.len() as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqm_fuzzy::{MembershipFunction, TskRule};

    fn wide_rule_fis() -> TskFis {
        // Single always-on rule: LSE reduces to plain linear regression.
        TskFis::new(vec![TskRule::new(
            vec![MembershipFunction::gaussian(0.5, 100.0).unwrap()],
            vec![0.0, 0.0],
        )
        .unwrap()])
        .unwrap()
    }

    fn line_data() -> Dataset {
        let mut d = Dataset::new(1);
        for i in 0..20 {
            let x = i as f64 / 19.0;
            d.push(vec![x], 3.0 * x - 1.0).unwrap();
        }
        d
    }

    #[test]
    fn single_rule_recovers_linear_function() {
        let mut fis = wide_rule_fis();
        let rmse = fit_consequents(&mut fis, &line_data(), LstsqMethod::Svd).unwrap();
        assert!(rmse < 1e-10, "rmse = {rmse}");
        let c = fis.rules()[0].consequent();
        assert!((c[0] - 3.0).abs() < 1e-8);
        assert!((c[1] + 1.0).abs() < 1e-8);
    }

    #[test]
    fn two_rule_piecewise_fit() {
        // Rules centered at 0 and 1 let LSE fit a nonlinear curve closely.
        let mut fis = TskFis::new(vec![
            TskRule::new(
                vec![MembershipFunction::gaussian(0.0, 0.35).unwrap()],
                vec![0.0, 0.0],
            )
            .unwrap(),
            TskRule::new(
                vec![MembershipFunction::gaussian(1.0, 0.35).unwrap()],
                vec![0.0, 0.0],
            )
            .unwrap(),
        ])
        .unwrap();
        let mut d = Dataset::new(1);
        for i in 0..60 {
            let x = i as f64 / 59.0;
            d.push(vec![x], (x * std::f64::consts::PI).sin()).unwrap();
        }
        let rmse = fit_consequents(&mut fis, &d, LstsqMethod::Svd).unwrap();
        assert!(rmse < 0.05, "rmse = {rmse}");
    }

    #[test]
    fn design_matrix_shape_and_blocks() {
        let fis = wide_rule_fis();
        let d = line_data();
        let (a, y, skipped) = design_matrix(&fis, &d).unwrap();
        assert_eq!(a.rows(), 20);
        assert_eq!(a.cols(), 2); // 1 rule * (1 input + 1)
        assert!(skipped.is_empty());
        assert_eq!(y.len(), 20);
        // Single rule -> wbar = 1 -> row = [x, 1].
        assert!((a[(3, 0)] - d.inputs()[3][0]).abs() < 1e-12);
        assert!((a[(3, 1)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn design_matrix_skips_uncovered_samples() {
        // Narrow rule at 0; a sample at 1e6 underflows all memberships.
        let fis = TskFis::new(vec![TskRule::new(
            vec![MembershipFunction::gaussian(0.0, 0.1).unwrap()],
            vec![0.0, 0.0],
        )
        .unwrap()])
        .unwrap();
        let mut d = Dataset::new(1);
        d.push(vec![0.0], 0.0).unwrap();
        d.push(vec![1.0e6], 1.0).unwrap();
        let (a, y, skipped) = design_matrix(&fis, &d).unwrap();
        assert_eq!(a.rows(), 1);
        assert_eq!(y.len(), 1);
        assert_eq!(skipped, vec![1]);
    }

    #[test]
    fn design_matrix_errors() {
        let fis = wide_rule_fis();
        assert!(design_matrix(&fis, &Dataset::new(1)).is_err());
        let mut wrong_dim = Dataset::new(2);
        wrong_dim.push(vec![0.0, 0.0], 0.0).unwrap();
        assert!(design_matrix(&fis, &wrong_dim).is_err());
        // All samples uncovered.
        let mut far = Dataset::new(1);
        far.push(vec![1.0e6], 0.0).unwrap();
        let narrow = TskFis::new(vec![TskRule::new(
            vec![MembershipFunction::gaussian(0.0, 0.1).unwrap()],
            vec![0.0, 0.0],
        )
        .unwrap()])
        .unwrap();
        assert!(design_matrix(&narrow, &far).is_err());
    }

    #[test]
    fn theta_round_trip() {
        let mut fis = TskFis::new(vec![
            TskRule::new(
                vec![MembershipFunction::gaussian(0.0, 1.0).unwrap()],
                vec![1.0, 2.0],
            )
            .unwrap(),
            TskRule::new(
                vec![MembershipFunction::gaussian(1.0, 1.0).unwrap()],
                vec![3.0, 4.0],
            )
            .unwrap(),
        ])
        .unwrap();
        let theta = extract_theta(&fis);
        assert_eq!(theta, vec![1.0, 2.0, 3.0, 4.0]);
        apply_theta(&mut fis, &[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(extract_theta(&fis), vec![5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn rls_converges_to_batch_solution() {
        let d = line_data();
        let mut rls = RecursiveLse::new(2, 1e6, 1.0).unwrap();
        for (x, y) in d.iter() {
            rls.update(&[x[0], 1.0], y).unwrap();
        }
        assert!((rls.theta()[0] - 3.0).abs() < 1e-4, "{:?}", rls.theta());
        assert!((rls.theta()[1] + 1.0).abs() < 1e-4);
    }

    #[test]
    fn rls_validation() {
        assert!(RecursiveLse::new(0, 1.0, 1.0).is_err());
        assert!(RecursiveLse::new(2, 0.0, 1.0).is_err());
        assert!(RecursiveLse::new(2, 1.0, 0.0).is_err());
        assert!(RecursiveLse::new(2, 1.0, 1.1).is_err());
        assert!(RecursiveLse::from_theta(vec![], 1.0, 1.0).is_err());
        assert!(RecursiveLse::from_theta(vec![f64::NAN], 1.0, 1.0).is_err());
        let mut rls = RecursiveLse::new(2, 1.0, 1.0).unwrap();
        assert!(rls.update(&[1.0], 0.0).is_err());
        assert!(rls.reset_covariance(0.0).is_err());
        assert!(rls.reset_covariance(-1.0).is_err());
    }

    #[test]
    fn warm_start_keeps_theta_and_reset_keeps_estimate() {
        let mut rls = RecursiveLse::from_theta(vec![2.0, -1.0], 1e3, 0.99).unwrap();
        assert_eq!(rls.theta(), &[2.0, -1.0]);
        assert_eq!(rls.lambda().to_bits(), 0.99f64.to_bits());
        rls.update(&[1.0, 1.0], 1.5).unwrap();
        let after_update = rls.theta().to_vec();
        rls.reset_covariance(1e6).unwrap();
        // The estimate survives the reset bit-for-bit.
        for (a, b) in rls.theta().iter().zip(&after_update) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn batch_rls_sweep_matches_manual_row_replay() {
        // fit_consequents_rls_with must be the exact batch replay of a
        // manual per-row RecursiveLse drive: same rows, same order, same
        // warm start -> bit-identical coefficients.
        let d = line_data();
        let mut fis = wide_rule_fis();
        let (a, y, _) = design_matrix(&fis, &d).unwrap();
        let mut manual = RecursiveLse::from_theta(extract_theta(&fis), 1e8, 1.0).unwrap();
        for r in 0..a.rows() {
            let row: Vec<f64> = (0..a.cols()).map(|c| a[(r, c)]).collect();
            manual.update(&row, y[r]).unwrap();
        }
        fit_consequents_rls_with(&mut fis, &d, 1e8, 1.0, &WorkerPool::serial()).unwrap();
        for (a, b) in extract_theta(&fis).iter().zip(manual.theta()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn batch_rls_sweep_bit_identical_at_any_worker_count() {
        let d = line_data();
        let mut reference = wide_rule_fis();
        fit_consequents_rls_with(&mut reference, &d, 1e8, 1.0, &WorkerPool::serial()).unwrap();
        for threads in [1usize, 2, 3, 8] {
            let mut fis = wide_rule_fis();
            fit_consequents_rls_with(&mut fis, &d, 1e8, 1.0, &WorkerPool::new(threads)).unwrap();
            for (a, b) in extract_theta(&fis).iter().zip(extract_theta(&reference)) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn batch_rls_approaches_svd_solution_within_documented_bound() {
        // The DESIGN.md §14 contract: RLS with lambda = 1 and gamma = 1e8
        // lands within 1e-4 of the SVD batch solution coefficient-wise on a
        // stationary replay (the solvers differ in arithmetic route, so
        // bit-identity is deliberately NOT claimed here).
        let d = line_data();
        let mut svd = wide_rule_fis();
        fit_consequents(&mut svd, &d, LstsqMethod::Svd).unwrap();
        let mut rls = wide_rule_fis();
        fit_consequents_rls_with(&mut rls, &d, 1e8, 1.0, &WorkerPool::serial()).unwrap();
        for (a, b) in extract_theta(&rls).iter().zip(extract_theta(&svd)) {
            assert!((a - b).abs() < 1e-4, "rls {a} vs svd {b}");
        }
    }

    #[test]
    fn qr_and_svd_agree_on_full_rank_problem() {
        let mut f1 = wide_rule_fis();
        let mut f2 = wide_rule_fis();
        fit_consequents(&mut f1, &line_data(), LstsqMethod::Svd).unwrap();
        fit_consequents(&mut f2, &line_data(), LstsqMethod::Qr).unwrap();
        for (a, b) in extract_theta(&f1).iter().zip(extract_theta(&f2)) {
            assert!((a - b).abs() < 1e-8);
        }
    }
}

/// Refit the FIS with **constant** (zero-order) consequents: each rule's
/// linear coefficients are zeroed and only the constants are estimated, via
/// a design matrix with one `w̄_j` column per rule. This is the ABL-CONSEQ
/// ablation target — the paper chose linear consequents "since the results
/// for the reliability determination are better" (§2.1.2).
///
/// # Errors
///
/// Same conditions as [`fit_consequents`].
pub fn fit_constant_consequents(
    fis: &mut TskFis,
    data: &Dataset,
    method: LstsqMethod,
) -> Result<f64> {
    check_shape(fis, data)?;
    let m = fis.rule_count();
    let mut rows: Vec<f64> = Vec::new();
    let mut targets = Vec::new();
    for (x, y) in data.iter() {
        if let Ok(eval) = fis.eval_detailed(x) {
            rows.extend_from_slice(&eval.normalized_firing);
            targets.push(y);
        }
    }
    if targets.is_empty() {
        return Err(AnfisError::InvalidData(
            "no sample activates any rule".into(),
        ));
    }
    let a = Matrix::from_vec(targets.len(), m, rows).map_err(AnfisError::Math)?;
    let c = lstsq(&a, &targets, method).map_err(AnfisError::Math)?;
    let n = fis.input_dim();
    for (rule, &cj) in fis.rules_mut().iter_mut().zip(&c) {
        let cons = rule.consequent_mut();
        for v in cons.iter_mut() {
            *v = 0.0;
        }
        cons[n] = cj;
    }
    let resid = cqm_math::linsolve::residual_norm(&a, &c, &targets).map_err(AnfisError::Math)?;
    Ok(resid / (targets.len() as f64).sqrt())
}

#[cfg(test)]
mod constant_tests {
    use super::*;
    use cqm_fuzzy::{MembershipFunction, TskRule};

    #[test]
    fn constant_fit_zeroes_linear_terms() {
        let mut fis = TskFis::new(vec![
            TskRule::new(
                vec![MembershipFunction::gaussian(0.0, 0.3).unwrap()],
                vec![5.0, 5.0],
            )
            .unwrap(),
            TskRule::new(
                vec![MembershipFunction::gaussian(1.0, 0.3).unwrap()],
                vec![5.0, 5.0],
            )
            .unwrap(),
        ])
        .unwrap();
        let mut d = Dataset::new(1);
        for i in 0..40 {
            let x = i as f64 / 39.0;
            d.push(vec![x], if x < 0.5 { 0.0 } else { 1.0 }).unwrap();
        }
        let rmse = fit_constant_consequents(&mut fis, &d, LstsqMethod::Svd).unwrap();
        assert!(rmse < 0.25, "rmse {rmse}");
        for rule in fis.rules() {
            assert_eq!(rule.consequent()[0].to_bits(), 0.0f64.to_bits());
        }
        // Step function: rule constants near 0 and 1.
        let mut cs: Vec<f64> = fis.rules().iter().map(|r| r.consequent()[1]).collect();
        cs.sort_by(|a, b| a.total_cmp(b));
        assert!(cs[0] < 0.3 && cs[1] > 0.7, "{cs:?}");
    }

    #[test]
    fn constant_fit_validates() {
        let mut fis = TskFis::new(vec![TskRule::new(
            vec![MembershipFunction::gaussian(0.0, 0.3).unwrap()],
            vec![0.0, 0.0],
        )
        .unwrap()])
        .unwrap();
        assert!(fit_constant_consequents(&mut fis, &Dataset::new(1), LstsqMethod::Svd).is_err());
        let mut wrong = Dataset::new(2);
        wrong.push(vec![0.0, 0.0], 0.0).unwrap();
        assert!(fit_constant_consequents(&mut fis, &wrong, LstsqMethod::Svd).is_err());
    }

    #[test]
    fn linear_beats_constant_on_sloped_target() {
        // On a smooth slope the linear consequents fit strictly better —
        // the paper's reason for first-order TSK.
        let mk = || {
            TskFis::new(vec![
                TskRule::new(
                    vec![MembershipFunction::gaussian(0.0, 0.4).unwrap()],
                    vec![0.0, 0.0],
                )
                .unwrap(),
                TskRule::new(
                    vec![MembershipFunction::gaussian(1.0, 0.4).unwrap()],
                    vec![0.0, 0.0],
                )
                .unwrap(),
            ])
            .unwrap()
        };
        let mut d = Dataset::new(1);
        for i in 0..60 {
            let x = i as f64 / 59.0;
            d.push(vec![x], 2.0 * x * x).unwrap();
        }
        let mut linear = mk();
        let rl = fit_consequents(&mut linear, &d, LstsqMethod::Svd).unwrap();
        let mut constant = mk();
        let rc = fit_constant_consequents(&mut constant, &d, LstsqMethod::Svd).unwrap();
        assert!(rl < rc, "linear {rl} should beat constant {rc}");
    }
}
