//! The per-epoch membership table of hybrid learning (§2.2.3–2.2.4).
//!
//! Inside one epoch the premises do not move, yet the forward pass, the
//! training error and the backward pass each need every training row's
//! memberships `F_ij`, firing strengths `w_j = Π_i F_ij` and normalised
//! strengths `w̄_j = w_j / Σw`. [`EpochTable::forward`] evaluates them once
//! per row into a table allocated once per training run, then builds the
//! least-squares design matrix and the training RMSE from it;
//! [`EpochTable::premise_gradients`] reads the same table.
//!
//! [`design_matrix_with`](crate::lse::design_matrix_with),
//! [`rmse_with`](crate::rmse_with) and
//! [`premise_gradients_with`](crate::backprop::premise_gradients_with)
//! stay as the reference: each evaluates the FIS itself, and the table
//! repeats their arithmetic operation for operation, so every quantity has
//! their bits (the tests hold the two paths to each other):
//!
//! * `F_ij` is [`MembershipFunction::eval`](cqm_fuzzy::MembershipFunction::eval), `w_j` the product fold from
//!   `1.0`, `Σw` the `Sum` of the `w_j` and `w̄_j = w_j / Σw`, as in
//!   `TskFis::eval_detailed`. A row is covered iff `Σw` is positive and
//!   finite, the condition under which `eval_detailed` answers.
//! * The RMSE defuzzifies as `TskKernel` does, `Σ_j w̄_j f_j` folded from
//!   `+0.0`; the gradients take `eval_detailed`'s output, the `Sum` of
//!   `w̄_j f_j`, skip rules with `w_j ≤ 0` and memberships below `1e-150`,
//!   and get `∂F/∂p` from the stored `F_ij` by
//!   [`gaussian_grad_given`](cqm_fuzzy::MembershipFunction::gaussian_grad_given).
//! * Both reductions run in [`REDUCE_CHUNK`] chunks of data rows and fold
//!   the partials in chunk order, so they are bit-identical at any thread
//!   count. The table itself is filled by one serial pass over the rows.

// analyze: hot-path

// lint: allow(PANIC_IN_LIB, file) -- table records and gradient buffers are sized to the validated FIS/dataset shape at construction

use cqm_fuzzy::TskFis;
use cqm_math::linsolve::{lstsq, LstsqMethod};
use cqm_math::matrix::Matrix;
use cqm_parallel::{WorkerPool, REDUCE_CHUNK};

use crate::backprop::PremiseGradients;
use crate::dataset::Dataset;
use crate::lse::apply_theta;
use crate::{check_shape, rmse_from_parts, AnfisError, Result};

/// One epoch's premise-side quantities for every training row.
#[derive(Debug)]
pub(crate) struct EpochTable {
    /// Input dimension `n`.
    inputs: usize,
    /// Rule count `m`.
    rules: usize,
    /// One record of [`EpochTable::stride`] values per training row:
    /// `F` (rule-major, `m·n`), then `w` (`m`), then `w̄` (`m`), then `Σw`.
    cells: Vec<f64>,
}

/// One row's record, split into its parts.
struct Record<'a> {
    memberships: &'a [f64],
    firing: &'a [f64],
    normalized: &'a [f64],
    total: f64,
}

impl Record<'_> {
    /// Whether at least one rule fires (`eval_detailed` would answer).
    fn covered(&self) -> bool {
        self.total > 0.0 && self.total.is_finite()
    }
}

impl EpochTable {
    /// Allocate the table for `fis` over `data`.
    ///
    /// # Errors
    ///
    /// [`AnfisError::InvalidData`] if the dataset is empty or disagrees
    /// with the FIS input dimension, worded as the reference reports it.
    pub(crate) fn new(fis: &TskFis, data: &Dataset) -> Result<Self> {
        check_shape(fis, data)?;
        let (inputs, rules) = (fis.input_dim(), fis.rule_count());
        let stride = rules * inputs + 2 * rules + 1;
        Ok(EpochTable {
            inputs,
            rules,
            cells: vec![0.0; data.len() * stride],
        })
    }

    fn stride(&self) -> usize {
        self.rules * self.inputs + 2 * self.rules + 1
    }

    /// The record of data row `idx`.
    fn record(&self, idx: usize) -> Record<'_> {
        let stride = self.stride();
        let cells = &self.cells[idx * stride..(idx + 1) * stride];
        let (memberships, rest) = cells.split_at(self.rules * self.inputs);
        let (firing, rest) = rest.split_at(self.rules);
        let (normalized, total) = rest.split_at(self.rules);
        Record {
            memberships,
            firing,
            normalized,
            total: total[0],
        }
    }

    /// Evaluate every row's memberships and firing strengths under the
    /// current premises of `fis`.
    fn fill(&mut self, fis: &TskFis, data: &Dataset) {
        let stride = self.stride();
        for (record, x) in self.cells.chunks_exact_mut(stride).zip(data.inputs()) {
            fill_record(fis, x, record);
        }
    }

    /// The forward pass: fill the table under the current premises, fit
    /// every consequent of `fis` by global least squares, and return the
    /// training RMSE of the fitted FIS — the bits of
    /// [`fit_consequents_with`](crate::lse::fit_consequents_with) followed
    /// by [`rmse_with`](crate::rmse_with).
    ///
    /// # Errors
    ///
    /// * [`AnfisError::InvalidData`] if no row activates any rule.
    /// * [`AnfisError::Math`] if the least-squares backend fails.
    pub(crate) fn forward(
        &mut self,
        fis: &mut TskFis,
        data: &Dataset,
        method: LstsqMethod,
        pool: &WorkerPool,
    ) -> Result<f64> {
        self.fill(fis, data);
        let (a, y) = self.design_matrix(data)?;
        let theta = lstsq(&a, &y, method).map_err(AnfisError::Math)?;
        apply_theta(fis, &theta);
        Ok(self.rmse(fis, data, pool))
    }

    /// The LSE design matrix and targets over the covered rows: row blocks
    /// `[w̄_j x_1, …, w̄_j x_n, w̄_j]` per rule, as `design_matrix_with`
    /// lays them out.
    fn design_matrix(&self, data: &Dataset) -> Result<(Matrix, Vec<f64>)> {
        let cols = self.rules * (self.inputs + 1);
        let mut rows = Vec::with_capacity(data.len() * cols);
        let mut targets = Vec::with_capacity(data.len());
        for (idx, (x, &y)) in data.inputs().iter().zip(data.targets()).enumerate() {
            let record = self.record(idx);
            if !record.covered() {
                continue;
            }
            for &wbar in record.normalized {
                rows.extend(x.iter().map(|&xi| wbar * xi));
                rows.push(wbar);
            }
            targets.push(y);
        }
        if targets.is_empty() {
            return Err(AnfisError::InvalidData(
                "no sample activates any rule; check membership coverage".into(),
            ));
        }
        let a = Matrix::from_vec(targets.len(), cols, rows).map_err(AnfisError::Math)?;
        Ok((a, targets))
    }

    /// Training RMSE of `fis` (premises as filled, consequents current).
    fn rmse(&self, fis: &TskFis, data: &Dataset, pool: &WorkerPool) -> f64 {
        let inputs = data.inputs();
        let targets = data.targets();
        let parts = pool.run_chunks(data.len(), REDUCE_CHUNK, |chunk| {
            let mut sum = 0.0;
            let mut n = 0usize;
            for idx in chunk.start..chunk.end {
                let record = self.record(idx);
                if !record.covered() {
                    continue;
                }
                let x = &inputs[idx];
                // TskKernel::defuzz's output: folded from +0.0.
                let mut pred = 0.0;
                for (rule, &wbar) in fis.rules().iter().zip(record.normalized) {
                    pred += wbar * rule.consequent_value(x);
                }
                sum += (pred - targets[idx]) * (pred - targets[idx]);
                n += 1;
            }
            (sum, n)
        });
        rmse_from_parts(parts)
    }

    /// The backward pass's premise gradients of `fis` over the rows, from
    /// the table: the bits of
    /// [`premise_gradients_with`](crate::backprop::premise_gradients_with).
    ///
    /// # Errors
    ///
    /// [`AnfisError::InvalidData`] if no row activates any rule.
    pub(crate) fn premise_gradients(
        &self,
        fis: &TskFis,
        data: &Dataset,
        pool: &WorkerPool,
    ) -> Result<PremiseGradients> {
        let (m, n) = (self.rules, self.inputs);
        let inputs = data.inputs();
        let targets = data.targets();
        let partials = pool.run_chunks(data.len(), REDUCE_CHUNK, |chunk| {
            let mut part = PremiseGradients::zeros(m, n);
            let mut f = vec![0.0; m];
            for idx in chunk.start..chunk.end {
                let record = self.record(idx);
                if !record.covered() {
                    continue;
                }
                let x = &inputs[idx];
                for (fj, rule) in f.iter_mut().zip(fis.rules()) {
                    *fj = rule.consequent_value(x);
                }
                // eval_detailed's output: the `Sum` of w̄_j f_j.
                let output: f64 = record.normalized.iter().zip(&f).map(|(w, fj)| w * fj).sum();
                let err = output - targets[idx];
                part.sse += err * err;
                part.samples += 1;
                for (j, rule) in fis.rules().iter().enumerate() {
                    let wj = record.firing[j];
                    if wj <= 0.0 {
                        continue;
                    }
                    // dE/dw_j = err * (f_j - ŷ) / Σw
                    let de_dwj = err * (f[j] - output) / record.total;
                    let degrees = &record.memberships[j * n..(j + 1) * n];
                    for (i, (mf, &fij)) in rule.antecedents().iter().zip(degrees).enumerate() {
                        if fij < 1e-150 {
                            continue; // underflow guard: w_j / F_ij would explode
                        }
                        let others = wj / fij;
                        let (dmu, dsigma) = mf.gaussian_grad_given(x[i], fij);
                        part.grads[j][i].0 += de_dwj * others * dmu;
                        part.grads[j][i].1 += de_dwj * others * dsigma;
                    }
                }
            }
            part
        });
        PremiseGradients::fold(partials, m, n)
    }
}

/// Fill one row's record: `F_ij`, `w_j`, `Σw` and, for a covered row,
/// `w̄_j`.
fn fill_record(fis: &TskFis, x: &[f64], record: &mut [f64]) {
    let n = x.len();
    let m = fis.rule_count();
    let (memberships, rest) = record.split_at_mut(m * n);
    let (firing, rest) = rest.split_at_mut(m);
    let (normalized, total) = rest.split_at_mut(m);
    for ((rule, degrees), w) in fis
        .rules()
        .iter()
        .zip(memberships.chunks_exact_mut(n))
        .zip(firing.iter_mut())
    {
        // TskRule::firing_strength: the product fold from 1.0, with the
        // product T-norm's domain guard.
        *w = 1.0;
        for ((mf, &xi), f) in rule.antecedents().iter().zip(x).zip(degrees) {
            *f = mf.eval(xi);
            debug_assert!(
                (0.0..=1.0).contains(f),
                "membership degree {f} outside [0, 1]"
            );
            *w *= *f;
        }
    }
    let sum: f64 = firing.iter().sum();
    total[0] = sum;
    if sum > 0.0 && sum.is_finite() {
        for (wbar, &w) in normalized.iter_mut().zip(firing.iter()) {
            *wbar = w / sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backprop::premise_gradients_with;
    use crate::lse::fit_consequents_with;
    use crate::rmse_with;
    use cqm_fuzzy::{MembershipFunction, TskRule};

    fn gaussian(mu: f64, sigma: f64) -> MembershipFunction {
        MembershipFunction::gaussian(mu, sigma).unwrap()
    }

    /// Two broad rules at the corners and one narrow rule (σ = 0.01) at the
    /// centre of the unit square.
    fn fixture_fis() -> TskFis {
        TskFis::new(vec![
            TskRule::new(vec![gaussian(0.0, 0.3), gaussian(0.0, 0.3)], vec![0.0; 3]).unwrap(),
            TskRule::new(vec![gaussian(1.0, 0.3), gaussian(1.0, 0.3)], vec![0.0; 3]).unwrap(),
            TskRule::new(vec![gaussian(0.5, 0.01), gaussian(0.5, 0.01)], vec![0.0; 3]).unwrap(),
        ])
        .unwrap()
    }

    /// A 21×21 grid of step 0.05 (two reduction chunks) plus one row far
    /// outside every rule. On the grid the narrow rule's degree is exactly
    /// 0 at 0.4 or more from its centre (`w_j = 0` while the broad rules
    /// fire) and lies in (0, 1e-150) at 0.3 and 0.35.
    fn fixture_data() -> Dataset {
        let mut d = Dataset::new(2);
        for a in 0..=20 {
            for b in 0..=20 {
                let (x1, x2) = (a as f64 * 0.05, b as f64 * 0.05);
                d.push(vec![x1, x2], (3.0 * x1).sin() + x2 * x2).unwrap();
            }
        }
        d.push(vec![50.0, 50.0], 1.0).unwrap();
        d
    }

    fn bits(xs: impl IntoIterator<Item = f64>) -> Vec<u64> {
        xs.into_iter().map(f64::to_bits).collect()
    }

    fn gradient_bits(g: &PremiseGradients) -> Vec<u64> {
        bits(g.grads.iter().flatten().flat_map(|&(a, b)| [a, b]))
    }

    #[test]
    fn fixture_has_the_edge_cases() {
        let (fis, data) = (fixture_fis(), fixture_data());
        let narrow = &fis.rules()[2];
        let covered: Vec<bool> = data.inputs().iter().map(|x| fis.eval(x).is_ok()).collect();
        assert!(!covered[data.len() - 1], "the far row is uncovered");
        assert!(data
            .inputs()
            .iter()
            .zip(&covered)
            .any(|(x, &c)| c && narrow.firing_strength(x).to_bits() == 0));
        assert!(data.inputs().iter().any(|x| {
            let f = narrow.antecedents()[0].eval(x[0]);
            f > 0.0 && f < 1e-150 && narrow.firing_strength(x) > 0.0
        }));
        assert!(data.len() > REDUCE_CHUNK);
    }

    #[test]
    fn one_epoch_through_the_table_has_the_reference_bits() {
        let data = fixture_data();
        for threads in [1usize, 2, 3] {
            let pool = WorkerPool::new(threads);

            let mut tabled = fixture_fis();
            let mut table = EpochTable::new(&tabled, &data).unwrap();
            let table_rmse = table
                .forward(&mut tabled, &data, LstsqMethod::Svd, &pool)
                .unwrap();
            let table_grads = table.premise_gradients(&tabled, &data, &pool).unwrap();

            let mut reference = fixture_fis();
            fit_consequents_with(&mut reference, &data, LstsqMethod::Svd, &pool).unwrap();
            let reference_rmse = rmse_with(&reference, &data, &pool);
            let reference_grads = premise_gradients_with(&reference, &data, &pool).unwrap();

            assert_eq!(
                bits(crate::lse::extract_theta(&tabled)),
                bits(crate::lse::extract_theta(&reference)),
                "consequents, threads={threads}"
            );
            assert_eq!(
                table_rmse.to_bits(),
                reference_rmse.to_bits(),
                "rmse, threads={threads}"
            );
            assert_eq!(
                gradient_bits(&table_grads),
                gradient_bits(&reference_grads),
                "gradients, threads={threads}"
            );
            assert_eq!(table_grads.sse.to_bits(), reference_grads.sse.to_bits());
            assert_eq!(table_grads.samples, reference_grads.samples);
            assert_eq!(table_grads.samples, data.len() - 1);
        }
    }

    /// One forward pass through a fresh table, on a copy of `fis`.
    fn table_epoch(fis: &TskFis, data: &Dataset) -> Result<f64> {
        let mut fis = fis.clone();
        let mut table = EpochTable::new(&fis, data)?;
        table.forward(&mut fis, data, LstsqMethod::Svd, &WorkerPool::serial())
    }

    #[test]
    fn errors_match_the_reference() {
        let fis = fixture_fis();
        let serial = WorkerPool::serial();
        let mut wrong_dim = Dataset::new(3);
        wrong_dim.push(vec![0.0, 0.0, 0.0], 0.0).unwrap();
        let mut far = Dataset::new(2);
        far.push(vec![50.0, 50.0], 0.0).unwrap();
        far.push(vec![-40.0, 60.0], 1.0).unwrap();
        for data in [Dataset::new(2), wrong_dim, far.clone()] {
            let reference =
                fit_consequents_with(&mut fis.clone(), &data, LstsqMethod::Svd, &serial);
            let tabled = table_epoch(&fis, &data);
            assert!(reference.is_err());
            assert_eq!(tabled.unwrap_err(), reference.unwrap_err());
        }
        // No row fires: the backward pass fails as the reference does.
        let mut table = EpochTable::new(&fis, &far).unwrap();
        table.fill(&fis, &far);
        assert_eq!(
            table.premise_gradients(&fis, &far, &serial).unwrap_err(),
            premise_gradients_with(&fis, &far, &serial).unwrap_err()
        );
    }
}
