//! Backward pass of hybrid learning (§2.2.4): analytic gradients of the
//! squared error with respect to the Gaussian premise parameters.
//!
//! For output `ŷ = Σ_j w_j f_j / Σ_j w_j` with product-T-norm firing
//! `w_j = Π_i F_ij(v_i)` and instantaneous error `E = ½ (ŷ − y)²`:
//!
//! ```text
//! ∂E/∂p_ij = (ŷ − y) · (f_j − ŷ)/Σw · (w_j / F_ij) · ∂F_ij/∂p
//! ```
//!
//! where `p ∈ {µ, σ}` and `w_j / F_ij` is the product of the *other*
//! memberships of rule `j` (computed by division with an underflow guard).

// analyze: hot-path

// lint: allow(PANIC_IN_LIB, file) -- gradient buffers are allocated to the FIS shape before the update loops

use cqm_fuzzy::TskFis;
use cqm_parallel::{WorkerPool, REDUCE_CHUNK};

use crate::dataset::Dataset;
use crate::{AnfisError, Result};

/// Accumulated premise gradients: `grads[j][i] = (∂E/∂µ_ij, ∂E/∂σ_ij)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PremiseGradients {
    /// Per-rule, per-input parameter gradients.
    pub grads: Vec<Vec<(f64, f64)>>,
    /// Sum of squared instantaneous errors over the contributing samples.
    pub sse: f64,
    /// Number of samples that contributed (fired at least one rule).
    pub samples: usize,
}

impl PremiseGradients {
    fn zeros(rules: usize, inputs: usize) -> Self {
        PremiseGradients {
            grads: vec![vec![(0.0, 0.0); inputs]; rules],
            sse: 0.0,
            samples: 0,
        }
    }

    /// Euclidean norm of the full gradient vector (used for step-size
    /// normalization in the Jang update).
    pub fn norm(&self) -> f64 {
        self.grads
            .iter()
            .flatten()
            .map(|(a, b)| a * a + b * b)
            .sum::<f64>()
            .sqrt()
    }
}

/// Accumulate premise gradients of `fis` over the whole dataset (batch
/// gradient). Samples where no rule fires are skipped.
///
/// # Errors
///
/// * [`AnfisError::InvalidData`] if the dataset is empty, disagrees on
///   dimension, or no sample fires any rule.
pub fn premise_gradients(fis: &TskFis, data: &Dataset) -> Result<PremiseGradients> {
    premise_gradients_with(fis, data, &WorkerPool::serial())
}

/// Accumulate one sample into `acc` — the inner body shared verbatim by
/// every chunk, so chunked and sequential accumulation perform the same
/// operations in the same order within a chunk.
fn accumulate_sample(fis: &TskFis, x: &[f64], y: f64, acc: &mut PremiseGradients) {
    let eval = match fis.eval_detailed(x) {
        Ok(e) => e,
        Err(_) => return,
    };
    let total_w: f64 = eval.firing.iter().sum();
    let err = eval.output - y;
    acc.sse += err * err;
    acc.samples += 1;
    for (j, rule) in fis.rules().iter().enumerate() {
        let wj = eval.firing[j];
        if wj <= 0.0 {
            continue;
        }
        // dE/dw_j = err * (f_j - ŷ) / Σw
        let de_dwj = err * (eval.consequent_values[j] - eval.output) / total_w;
        for (i, mf) in rule.antecedents().iter().enumerate() {
            let fij = mf.eval(x[i]);
            if fij < 1e-150 {
                continue; // underflow guard: w_j / F_ij would explode
            }
            let others = wj / fij;
            let (dmu, dsigma) = mf.gaussian_grad(x[i]);
            acc.grads[j][i].0 += de_dwj * others * dmu;
            acc.grads[j][i].1 += de_dwj * others * dsigma;
        }
    }
}

/// [`premise_gradients`] on a worker pool. Samples are split into fixed
/// [`REDUCE_CHUNK`]-sized chunks (a pure function of the dataset length,
/// never of the thread count); each chunk accumulates sequentially and the
/// partials are folded strictly in chunk order, so the result is
/// bit-identical at any thread count. Datasets of at most `REDUCE_CHUNK`
/// samples reduce in a single chunk — exactly the plain sequential loop.
///
/// # Errors
///
/// Same conditions as [`premise_gradients`].
pub fn premise_gradients_with(
    fis: &TskFis,
    data: &Dataset,
    pool: &WorkerPool,
) -> Result<PremiseGradients> {
    if data.is_empty() {
        return Err(AnfisError::InvalidData("empty dataset".into()));
    }
    if data.dim() != fis.input_dim() {
        return Err(AnfisError::InvalidData(format!(
            "dataset dimension {} does not match FIS input dimension {}",
            data.dim(),
            fis.input_dim()
        )));
    }
    let m = fis.rule_count();
    let n = fis.input_dim();
    let inputs = data.inputs();
    let targets = data.targets();
    let partials = pool.run_chunks(data.len(), REDUCE_CHUNK, |chunk| {
        let mut part = PremiseGradients::zeros(m, n);
        for idx in chunk.start..chunk.end {
            accumulate_sample(fis, &inputs[idx], targets[idx], &mut part);
        }
        part
    });
    let mut it = partials.into_iter();
    // A non-empty dataset always yields at least one chunk.
    let mut acc = it.next().unwrap_or_else(|| PremiseGradients::zeros(m, n));
    for part in it {
        acc.sse += part.sse;
        acc.samples += part.samples;
        for (row, prow) in acc.grads.iter_mut().zip(&part.grads) {
            for (g, pg) in row.iter_mut().zip(prow) {
                g.0 += pg.0;
                g.1 += pg.1;
            }
        }
    }
    if acc.samples == 0 {
        return Err(AnfisError::InvalidData(
            "no sample activates any rule".into(),
        ));
    }
    Ok(acc)
}

/// Apply one normalized gradient-descent step to the Gaussian premises:
/// `p ← p − step · g / ‖g‖` (Jang's update). `sigma` is clamped from below
/// at `min_sigma` to keep memberships well defined.
pub fn apply_premise_step(fis: &mut TskFis, grads: &PremiseGradients, step: f64, min_sigma: f64) {
    let norm = grads.norm();
    // lint: allow(NAN_UNSAFE_CMP) -- an exactly-zero (or non-finite) gradient norm means no usable step; skipping is the correct update
    if norm == 0.0 || !norm.is_finite() {
        return;
    }
    let scale = step / norm;
    for (rule, rule_grads) in fis.rules_mut().iter_mut().zip(&grads.grads) {
        for (mf, &(gmu, gsigma)) in rule.antecedents_mut().iter_mut().zip(rule_grads) {
            let cqm_fuzzy::MembershipFunction::Gaussian { mu, sigma } = mf;
            *mu -= scale * gmu;
            *sigma = (*sigma - scale * gsigma).max(min_sigma);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqm_fuzzy::{MembershipFunction, TskRule};

    fn fis_2rule() -> TskFis {
        TskFis::new(vec![
            TskRule::new(
                vec![MembershipFunction::gaussian(0.2, 0.3).unwrap()],
                vec![1.0, 0.0],
            )
            .unwrap(),
            TskRule::new(
                vec![MembershipFunction::gaussian(0.8, 0.3).unwrap()],
                vec![-1.0, 1.0],
            )
            .unwrap(),
        ])
        .unwrap()
    }

    fn dataset_from(fis_target: &TskFis, n: usize) -> Dataset {
        let mut d = Dataset::new(1);
        for i in 0..n {
            let x = i as f64 / (n - 1) as f64;
            d.push(vec![x], fis_target.eval(&[x]).unwrap()).unwrap();
        }
        d
    }

    #[test]
    fn gradients_match_finite_differences() {
        let fis = fis_2rule();
        let mut d = Dataset::new(1);
        for i in 0..15 {
            let x = i as f64 / 14.0;
            d.push(vec![x], (x * 3.0).sin()).unwrap();
        }
        let g = premise_gradients(&fis, &d).unwrap();
        // Finite-difference check on every (rule, param).
        let h = 1e-6;
        let sse = |f: &TskFis| {
            d.iter()
                .map(|(x, y)| {
                    let e = f.eval(x).unwrap() - y;
                    e * e
                })
                .sum::<f64>()
        };
        for j in 0..2 {
            // mu
            let mut fp = fis.clone();
            let mut fm = fis.clone();
            let cqm_fuzzy::MembershipFunction::Gaussian { mu, .. } =
                &mut fp.rules_mut()[j].antecedents_mut()[0];
            *mu += h;
            let cqm_fuzzy::MembershipFunction::Gaussian { mu, .. } =
                &mut fm.rules_mut()[j].antecedents_mut()[0];
            *mu -= h;
            // E = ½ Σ e² so dE/dp = ½ d(sse)/dp
            let fd_mu = 0.5 * (sse(&fp) - sse(&fm)) / (2.0 * h);
            assert!(
                (g.grads[j][0].0 - fd_mu).abs() < 1e-5,
                "rule {j} mu: analytic {} vs fd {}",
                g.grads[j][0].0,
                fd_mu
            );
            // sigma
            let mut fp = fis.clone();
            let mut fm = fis.clone();
            let cqm_fuzzy::MembershipFunction::Gaussian { sigma, .. } =
                &mut fp.rules_mut()[j].antecedents_mut()[0];
            *sigma += h;
            let cqm_fuzzy::MembershipFunction::Gaussian { sigma, .. } =
                &mut fm.rules_mut()[j].antecedents_mut()[0];
            *sigma -= h;
            let fd_sigma = 0.5 * (sse(&fp) - sse(&fm)) / (2.0 * h);
            assert!(
                (g.grads[j][0].1 - fd_sigma).abs() < 1e-5,
                "rule {j} sigma: analytic {} vs fd {}",
                g.grads[j][0].1,
                fd_sigma
            );
        }
    }

    #[test]
    fn zero_error_zero_gradient() {
        let fis = fis_2rule();
        let d = dataset_from(&fis, 20);
        let g = premise_gradients(&fis, &d).unwrap();
        assert!(g.sse < 1e-20);
        assert!(g.norm() < 1e-10);
    }

    #[test]
    fn gradient_step_reduces_error() {
        let fis0 = fis_2rule();
        // Perturb the premises, then check one descent step helps.
        let mut fis = fis0.clone();
        let cqm_fuzzy::MembershipFunction::Gaussian { mu, .. } =
            &mut fis.rules_mut()[0].antecedents_mut()[0];
        *mu += 0.15;
        let d = dataset_from(&fis0, 30);
        let g = premise_gradients(&fis, &d).unwrap();
        let before = g.sse;
        apply_premise_step(&mut fis, &g, 0.02, 1e-6);
        let after = premise_gradients(&fis, &d).unwrap().sse;
        assert!(after < before, "sse {before} -> {after}");
    }

    #[test]
    fn sigma_clamped_at_minimum() {
        let mut fis = fis_2rule();
        let mut g = PremiseGradients::zeros(2, 1);
        g.grads[0][0] = (0.0, 1.0); // push sigma down hard
        g.samples = 1;
        apply_premise_step(&mut fis, &g, 10.0, 1e-3);
        let cqm_fuzzy::MembershipFunction::Gaussian { sigma, .. } =
            &fis.rules()[0].antecedents()[0];
        assert!(*sigma >= 1e-3);
    }

    #[test]
    fn validation_errors() {
        let fis = fis_2rule();
        assert!(premise_gradients(&fis, &Dataset::new(1)).is_err());
        let mut wrong = Dataset::new(2);
        wrong.push(vec![0.0, 0.0], 0.0).unwrap();
        assert!(premise_gradients(&fis, &wrong).is_err());
        let mut far = Dataset::new(1);
        far.push(vec![1.0e6], 0.0).unwrap();
        assert!(premise_gradients(&fis, &far).is_err());
    }

    #[test]
    fn zero_gradient_step_is_noop() {
        let mut fis = fis_2rule();
        let snapshot = fis.clone();
        let g = PremiseGradients::zeros(2, 1);
        apply_premise_step(&mut fis, &g, 0.1, 1e-6);
        assert_eq!(fis, snapshot);
    }
}
