//! Struct-of-arrays TSK evaluation kernel (DESIGN.md §9).
//!
//! [`crate::TskFis`] stores rules as an array of structs — natural for
//! construction and training, but every [`TskFis::eval`] walks `m` small
//! heap objects and allocates three trace `Vec`s. The runtime path of a
//! smart appliance evaluates the same FIS millions of times, so this module
//! flattens the rule base once into contiguous slabs:
//!
//! * `mu` / `sigma` — rule-major Gaussian parameters, `m·n` each;
//! * `consequents` — rule-major `m·(n+1)` linear coefficients.
//!
//! [`TskKernel::eval_into`] then runs the full inference with **zero heap
//! allocations** in the steady state: the only mutable storage is a
//! caller-provided [`TskScratch`] whose buffers are reused across calls.
//! Results are bit-identical to [`TskFis::eval`] — same operations, same
//! order — which the tests assert via `f64::to_bits`. `eval_into` is the
//! kernel's one entry point: a batch is a caller's loop over it (the one
//! such loop is `ClassifierKernel::classify_batch_into` in `cqm-classify`),
//! so every row keeps both properties at any batch size.
//!
//! [`TskFis::eval`]: crate::TskFis::eval

// analyze: hot-path

use cqm_math::fastexp;

use crate::membership::MembershipFunction;
use crate::tsk::{product, TskFis};
use crate::{FuzzyError, Result};

/// Reusable per-caller evaluation scratch. One instance per thread of
/// control; buffers grow on first use and are only reused afterwards. Use
/// [`TskKernel::scratch`] to pre-size every buffer for a kernel so even
/// the first evaluation allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct TskScratch {
    firing: Vec<f64>,
}

impl TskScratch {
    /// An empty scratch (sizes itself on first evaluation).
    pub fn new() -> Self {
        TskScratch::default()
    }

    /// A scratch pre-sized for `rules` rules, so even the first evaluation
    /// through it allocates nothing.
    pub fn with_rules(rules: usize) -> Self {
        TskScratch {
            firing: Vec::with_capacity(rules),
        }
    }

    /// The firing strengths of the most recently evaluated row (empty
    /// before the first call).
    pub fn firing(&self) -> &[f64] {
        &self.firing
    }
}

/// Flat struct-of-arrays snapshot of a [`TskFis`], built once per trained
/// model and evaluated many times. Construction allocates; evaluation does
/// not.
#[derive(Debug, Clone, PartialEq)]
pub struct TskKernel {
    n_inputs: usize,
    n_rules: usize,
    /// Rule-major Gaussian centers, `m·n`.
    mu: Vec<f64>,
    /// Rule-major Gaussian widths, `m·n`.
    sigma: Vec<f64>,
    /// Rule-major consequent slab, `m·(n+1)`.
    consequents: Vec<f64>,
}

impl TskKernel {
    /// Flatten `fis` into slabs. The kernel snapshots the FIS: later premise
    /// or consequent updates require rebuilding it.
    pub fn from_fis(fis: &TskFis) -> Self {
        let n = fis.input_dim();
        let m = fis.rule_count();
        let mut mu = Vec::with_capacity(m * n);
        let mut sigma = Vec::with_capacity(m * n);
        let mut consequents = Vec::with_capacity(m * (n + 1));
        for rule in fis.rules() {
            for mf in rule.antecedents() {
                let MembershipFunction::Gaussian { mu: m_, sigma: s_ } = *mf;
                mu.push(m_);
                sigma.push(s_);
            }
            consequents.extend_from_slice(rule.consequent());
        }
        TskKernel {
            n_inputs: n,
            n_rules: m,
            mu,
            sigma,
            consequents,
        }
    }

    /// Number of inputs `n`.
    pub fn input_dim(&self) -> usize {
        self.n_inputs
    }

    /// Number of rules `m`.
    pub fn rule_count(&self) -> usize {
        self.n_rules
    }

    /// A [`TskScratch`] with every buffer pre-sized for this kernel, so
    /// even the first row evaluated through it allocates nothing.
    pub fn scratch(&self) -> TskScratch {
        TskScratch::with_rules(self.n_rules)
    }

    /// Evaluate one input using caller-provided scratch. Steady state (a
    /// scratch that has seen this kernel before) performs **zero heap
    /// allocations**; the result is bit-identical to [`TskFis::eval`].
    ///
    /// # Errors
    ///
    /// * [`FuzzyError::DimensionMismatch`] if `v.len() != input_dim()`.
    /// * [`FuzzyError::NoRuleFired`] if every firing strength underflows to
    ///   zero.
    pub fn eval_into(&self, v: &[f64], scratch: &mut TskScratch) -> Result<f64> {
        if v.len() != self.n_inputs {
            return Err(FuzzyError::DimensionMismatch {
                expected: self.n_inputs,
                actual: v.len(),
            });
        }
        let n = self.n_inputs;
        scratch.firing.clear();
        scratch.firing.reserve_exact(self.n_rules);
        for j in 0..self.n_rules {
            let base = j * n;
            let (mus, sigmas) = (&self.mu[base..base + n], &self.sigma[base..base + n]);
            let mut w = 1.0;
            for ((&x, &mu), &sig) in v.iter().zip(mus).zip(sigmas) {
                // Exactly MembershipFunction::eval.
                let z = (x - mu) / sig;
                let f = fastexp::exp_exact(-0.5 * z * z);
                w = product(w, f);
            }
            scratch.firing.push(w);
        }
        self.defuzz(v, &scratch.firing)
    }

    /// Normalize firing strengths and combine the rule consequents,
    /// preserving [`TskFis::eval`]'s exact operation order.
    ///
    /// [`TskFis::eval`]: crate::TskFis::eval
    fn defuzz(&self, v: &[f64], firing: &[f64]) -> Result<f64> {
        let n = self.n_inputs;
        let total: f64 = firing.iter().sum();
        if !(total > 0.0) || !total.is_finite() {
            return Err(FuzzyError::NoRuleFired);
        }
        let mut output = 0.0;
        for (j, w) in firing.iter().enumerate() {
            let base = j * (n + 1);
            let cons = &self.consequents[base..base + n + 1];
            let (coeffs, bias) = cons.split_at(n);
            let fj = coeffs.iter().zip(v).map(|(a, x)| a * x).sum::<f64>() + bias[0];
            output += (w / total) * fj;
        }
        Ok(output)
    }
}

impl TskFis {
    /// Build the flat evaluation kernel for this FIS (see [`TskKernel`]).
    pub fn kernel(&self) -> TskKernel {
        TskKernel::from_fis(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsk::TskRule;

    fn gaussian(mu: f64, sigma: f64) -> MembershipFunction {
        MembershipFunction::gaussian(mu, sigma).unwrap()
    }

    fn gaussian_fis() -> TskFis {
        TskFis::new(vec![
            TskRule::new(
                vec![gaussian(0.0, 0.3), gaussian(1.0, 0.5)],
                vec![1.0, -0.5, 0.2],
            )
            .unwrap(),
            TskRule::new(
                vec![gaussian(1.0, 0.4), gaussian(0.0, 0.25)],
                vec![-2.0, 0.75, 1.1],
            )
            .unwrap(),
            TskRule::new(
                vec![gaussian(0.5, 0.2), gaussian(0.5, 0.6)],
                vec![0.0, 0.0, 3.0],
            )
            .unwrap(),
        ])
        .unwrap()
    }

    fn grid() -> Vec<Vec<f64>> {
        let mut g = Vec::new();
        for i in 0..17 {
            for j in 0..17 {
                g.push(vec![i as f64 / 8.0 - 1.0, j as f64 / 8.0 - 1.0]);
            }
        }
        g
    }

    #[test]
    fn kernel_matches_fis_bitwise_gaussian() {
        let fis = gaussian_fis();
        let kernel = fis.kernel();
        let mut scratch = TskScratch::new();
        for v in grid() {
            let a = fis.eval(&v).unwrap();
            let b = kernel.eval_into(&v, &mut scratch).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "at {v:?}");
        }
    }

    #[test]
    fn kernel_error_parity() {
        let fis = gaussian_fis();
        let kernel = fis.kernel();
        let mut scratch = TskScratch::new();
        assert!(matches!(
            kernel.eval_into(&[0.1], &mut scratch),
            Err(FuzzyError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            kernel.eval_into(&[4.0e4, -4.0e4], &mut scratch),
            Err(FuzzyError::NoRuleFired)
        ));
        // The FIS agrees on both.
        assert!(fis.eval(&[0.1]).is_err());
        assert!(fis.eval(&[4.0e4, -4.0e4]).is_err());
    }

    #[test]
    fn scratch_is_reusable_across_kernels() {
        let g = gaussian_fis();
        let m = TskFis::new(g.rules()[..2].to_vec()).unwrap();
        let (kg, km) = (g.kernel(), m.kernel());
        let mut scratch = TskScratch::with_rules(3);
        let v = vec![0.25, 0.5];
        let a1 = kg.eval_into(&v, &mut scratch).unwrap();
        let b1 = km.eval_into(&v, &mut scratch).unwrap();
        let a2 = kg.eval_into(&v, &mut scratch).unwrap();
        assert_eq!(a1.to_bits(), a2.to_bits());
        assert_eq!(
            b1.to_bits(),
            km.eval_into(&v, &mut scratch).unwrap().to_bits()
        );
        assert_eq!(scratch.firing().len(), 2, "last eval was the 2-rule kernel");
    }
}
