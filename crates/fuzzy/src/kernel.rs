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
//! order — which the tests assert via `f64::to_bits`. Batches are a loop
//! of the same row evaluation, so they inherit both properties at any
//! batch size or worker count.
//!
//! [`TskFis::eval`]: crate::TskFis::eval

// analyze: hot-path

use cqm_math::fastexp;
use cqm_parallel::WorkerPool;

use crate::membership::MembershipFunction;
use crate::tsk::{product, TskFis};
use crate::{FuzzyError, Result};

/// Input rows per parallel work item in [`TskKernel::eval_batch_with`].
const BATCH_CHUNK: usize = 64;

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
    /// through it, row or batch, allocates nothing.
    pub fn with_rules(rules: usize) -> Self {
        TskScratch {
            firing: Vec::with_capacity(rules),
        }
    }

    /// The firing strengths of the most recently evaluated row (empty
    /// before the first call; after a batch, its last evaluated row).
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
    /// even the first row or batch evaluated through it allocates nothing.
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

    /// Evaluate a small batch serially into `out`, one
    /// [`TskKernel::eval_into`] per row — the entry point sized for request
    /// batches, where pool dispatch would cost more than the sweep itself.
    /// `out` is cleared, `reserve_exact`-sized and refilled with one output
    /// per row; beyond that the sweep allocates nothing (nothing at all
    /// with a [`TskKernel::scratch`]-sized scratch). It stops at the first
    /// failing row (matching [`TskKernel::eval_batch_with`]'s first-error
    /// order).
    ///
    /// # Errors
    ///
    /// Same conditions as [`TskKernel::eval_into`] for any row; `out` holds
    /// the outputs of the rows preceding the failure.
    // lint: allow(ASSERT_DENSITY) -- row validity is checked via Result by eval paths
    pub fn eval_batch_into(
        &self,
        inputs: &[Vec<f64>],
        scratch: &mut TskScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        out.clear();
        out.reserve_exact(inputs.len());
        for row in inputs {
            out.push(self.eval_into(row, scratch)?);
        }
        Ok(())
    }

    /// Evaluate a batch on `pool`, propagating the lowest-index error.
    /// Rows are independent and each chunk runs [`TskKernel::eval_batch_into`]
    /// with its own scratch, so the outputs are bit-identical to serial
    /// row-wise evaluation at any thread count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TskKernel::eval_into`] for any row.
    // lint: allow(ASSERT_DENSITY) -- row validity is checked via Result by eval paths
    pub fn eval_batch_with(&self, inputs: &[Vec<f64>], pool: &WorkerPool) -> Result<Vec<f64>> {
        let chunks = pool.run_chunks(inputs.len(), BATCH_CHUNK, |c| {
            let mut scratch = self.scratch();
            let mut out = Vec::with_capacity(c.len());
            self.eval_batch_into(&inputs[c.start..c.end], &mut scratch, &mut out)
                .map(|()| out)
        });
        // In-order flatten: chunks are in row order and each chunk stops at
        // its first failing row, so the first Err seen is always the first
        // by row index, independent of scheduling.
        let mut all = Vec::with_capacity(inputs.len());
        for chunk in chunks {
            all.extend(chunk?);
        }
        Ok(all)
    }
}

impl TskFis {
    /// Build the flat evaluation kernel for this FIS (see [`TskKernel`]).
    pub fn kernel(&self) -> TskKernel {
        TskKernel::from_fis(self)
    }

    /// Evaluate a batch of inputs on a worker pool via a freshly built
    /// kernel. For repeated batches, build the kernel once with
    /// [`TskFis::kernel`] and call [`TskKernel::eval_batch_with`] instead.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TskFis::eval`] for any row.
    // lint: allow(ASSERT_DENSITY) -- thin delegation; the kernel validates via Result
    pub fn eval_batch_with(&self, inputs: &[Vec<f64>], pool: &WorkerPool) -> Result<Vec<f64>> {
        self.kernel().eval_batch_with(inputs, pool)
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
    fn micro_batch_eval_matches_row_wise_bitwise() {
        let fis = gaussian_fis();
        let kernel = fis.kernel();
        let inputs = grid();
        let mut scratch = TskScratch::with_rules(kernel.rule_count());
        let mut out = Vec::new();
        kernel
            .eval_batch_into(&inputs, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out.len(), inputs.len());
        let mut reference_scratch = TskScratch::new();
        for (v, got) in inputs.iter().zip(&out) {
            let want = kernel.eval_into(v, &mut reference_scratch).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "at {v:?}");
        }
        // Reuse across sweeps: the buffers survive and results stay put.
        let mut second = Vec::new();
        kernel
            .eval_batch_into(&inputs, &mut scratch, &mut second)
            .unwrap();
        for (a, b) in out.iter().zip(&second) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn micro_batch_eval_stops_at_first_bad_row() {
        let fis = gaussian_fis();
        let kernel = fis.kernel();
        let mut inputs = grid();
        inputs[3] = vec![9.0e4, 9.0e4]; // NoRuleFired
        let mut scratch = TskScratch::new();
        let mut out = Vec::new();
        let err = kernel
            .eval_batch_into(&inputs, &mut scratch, &mut out)
            .unwrap_err();
        assert!(matches!(err, FuzzyError::NoRuleFired));
        assert_eq!(out.len(), 3, "outputs of the rows before the failure");
    }

    #[test]
    fn batch_eval_bit_identical_across_thread_counts() {
        let fis = gaussian_fis();
        let inputs = grid();
        let reference = fis.eval_batch_with(&inputs, &WorkerPool::serial()).unwrap();
        let plain = fis.eval_batch(&inputs).unwrap();
        for (a, b) in reference.iter().zip(&plain) {
            assert_eq!(a.to_bits(), b.to_bits(), "kernel batch vs eval_batch");
        }
        for threads in [2usize, 3, 8] {
            let got = fis
                .eval_batch_with(&inputs, &WorkerPool::new(threads))
                .unwrap();
            for (a, b) in got.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn batch_eval_error_is_first_by_row_order() {
        let fis = gaussian_fis();
        let mut inputs = grid();
        inputs[5] = vec![9.0e4, 9.0e4]; // NoRuleFired
        inputs[200] = vec![0.0]; // DimensionMismatch (later row)
        for threads in [1usize, 4] {
            let err = fis
                .eval_batch_with(&inputs, &WorkerPool::new(threads))
                .unwrap_err();
            assert!(
                matches!(err, FuzzyError::NoRuleFired),
                "threads={threads}: expected the row-5 error, got {err:?}"
            );
        }
    }

    #[test]
    fn blocked_result_does_not_depend_on_batch_position() {
        let fis = gaussian_fis();
        let kernel = fis.kernel();
        let inputs = grid();
        let mut scratch = kernel.scratch();
        let mut full = Vec::new();
        kernel
            .eval_batch_into(&inputs, &mut scratch, &mut full)
            .unwrap();
        // Shift the batch start by dropping rows off the front: every
        // surviving row must keep its bits even though it now sits at a
        // different lane/block offset.
        for drop in 1..=5 {
            let mut shifted = Vec::new();
            kernel
                .eval_batch_into(&inputs[drop..], &mut scratch, &mut shifted)
                .unwrap();
            for (a, b) in full.iter().skip(drop).zip(&shifted) {
                assert_eq!(a.to_bits(), b.to_bits(), "drop={drop}");
            }
        }
    }

    #[test]
    fn batch_stops_at_first_bad_row_mid_block() {
        let fis = gaussian_fis();
        let kernel = fis.kernel();
        let mut inputs = grid();
        inputs[6] = vec![9.0e4, 9.0e4]; // NoRuleFired in the middle of a block
        inputs[9] = vec![0.25]; // DimensionMismatch later (degrades its window)
        let mut scratch = kernel.scratch();
        let mut out = Vec::new();
        let err = kernel
            .eval_batch_into(&inputs, &mut scratch, &mut out)
            .unwrap_err();
        assert!(matches!(err, FuzzyError::NoRuleFired));
        assert_eq!(out.len(), 6, "outputs of the rows before the failure");
    }

    #[test]
    fn mixed_arity_rows_keep_first_error_order_in_blocked_path() {
        let fis = gaussian_fis();
        let kernel = fis.kernel();
        let mut inputs = grid();
        inputs[2] = vec![0.5]; // DimensionMismatch inside the first block
        let mut scratch = kernel.scratch();
        let mut out = Vec::new();
        let err = kernel
            .eval_batch_into(&inputs, &mut scratch, &mut out)
            .unwrap_err();
        assert!(matches!(
            err,
            FuzzyError::DimensionMismatch { actual: 1, .. }
        ));
        assert_eq!(out.len(), 2);
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
