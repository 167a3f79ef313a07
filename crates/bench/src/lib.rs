//! # cqm-bench — experiment harness
//!
//! Shared infrastructure for the binaries that regenerate every figure and
//! claim of the paper's evaluation (see DESIGN.md §4 for the experiment
//! index and EXPERIMENTS.md for paper-vs-measured numbers):
//!
//! | binary | artifact |
//! |---|---|
//! | `fig5` | Fig. 5 — quality values of the 24-point test set |
//! | `fig6` | Fig. 6 — right/wrong densities, threshold, §2.33 probabilities |
//! | `improvement` | headline 33 % discard / decision improvement |
//! | `threshold_balance` | §3.2 remark: balanced training ⇒ `s ≈ 0.5` |
//! | `large_set` | §3.2 remark: separation odds worsen with set size |
//! | `ablation_lsq` | SVD vs QR vs normal equations in the LSE |
//! | `ablation_consequent` | linear vs constant consequents |
//! | `ablation_cluster` | subtractive vs mountain structure identification |
//! | `ablation_hybrid` | hybrid learning vs pure LSE initialisation |
//!
//! The baseline binaries write a baseline JSON, re-read it, validate its
//! schema and apply their gate, all through one [`harness`] (command line,
//! banner, write → re-read → validate → gate):
//!
//! | binary | schema module | gate |
//! |---|---|---|
//! | `perfbase` | [`perf`] | none: the timings are a record |
//! | `chaosbench` | [`chaosbench`] | exactly-once under network chaos |
//! | `fleetbench` | [`fleetbench`] | tenant isolation and zero-drop hot swap |
//! | `adaptbench` | [`adaptbench`] | drift recovery through a validated live swap |
//!
//! The three soaks also share [`soak`]: the model they serve, their
//! chaos-proxy client and what counts as a typed failure.
//!
//! `perfbase` backs the paper's "real-time" claim with FIS-evaluation and
//! training timings; the served path is timed end to end and per layer by
//! the repository benchmark under `perfbench/`.

// lint: allow(PANIC_IN_LIB, file) -- experiment driver: abort loudly on setup failure instead of degrading

#![forbid(unsafe_code)]

pub mod adaptbench;
pub mod chaosbench;
pub mod experiments;
pub mod fleetbench;
pub mod harness;
pub mod perf;
pub mod soak;

use cqm_appliance::pen::{train_pen, PenBuild};
use cqm_core::classifier::Classifier;
use cqm_core::normalize::Quality;
use cqm_core::quality::QualityScratch;
use cqm_sensors::node::{NodeConfig, SensorNode};
use cqm_sensors::synth::Scenario;
use cqm_sensors::user::UserStyle;
use cqm_sensors::Context;

/// One evaluated sample: the cue vector, what happened, and its quality.
#[derive(Debug, Clone)]
pub struct EvalSample {
    /// Cue vector.
    pub cues: Vec<f64>,
    /// Ground-truth context.
    pub truth: Context,
    /// The black box's classification.
    pub predicted: Context,
    /// Whether the classification was right.
    pub right: bool,
    /// The CQM value.
    pub quality: Quality,
    /// Whether the source window straddled a context change.
    pub is_transition: bool,
}

/// The trained testbed shared by all experiments.
pub struct Testbed {
    /// The trained AwarePen stack.
    pub build: PenBuild,
}

/// Train the standard testbed (fixed seed for reproducible experiment
/// output).
///
/// # Panics
///
/// Panics if training fails — experiments cannot proceed without a testbed,
/// and the fixed-seed pipeline is covered by tests.
pub fn paper_testbed(seed: u64) -> Testbed {
    let build = train_pen(seed, 2).expect("testbed training");
    Testbed { build }
}

/// Generate a fresh evaluation pool on *unseen* seeds, mixing the training
/// user population with a novel style (the paper's "other users having a
/// different style"), including transition windows. Each (session, style)
/// simulation seeds its node from the indices alone, and the samples are
/// appended session by session, style by style. Quality values are
/// evaluated through the allocation-free [`cqm_core::QualityKernel`],
/// which is bit-identical to `QualityMeasure::measure`.
///
/// # Panics
///
/// Panics on simulation failure (fixed configurations, covered by tests).
pub fn evaluation_pool(testbed: &Testbed, seed: u64, sessions: usize) -> Vec<EvalSample> {
    let mut styles = UserStyle::population();
    // A style outside the training population: very vigorous and quick.
    styles.push(UserStyle::new(2.6, 1.9, 0.3).expect("valid style"));
    let scenario = Scenario::write_think_write()
        .expect("built-in scenario")
        .then(&Scenario::balanced_session().expect("built-in scenario"));
    let kernel = testbed.build.trained_cqm.measure.kernel();
    let mut scratch = QualityScratch::new();
    let mut out = Vec::new();
    for session in 0..sessions {
        for (si, style) in styles.iter().enumerate() {
            let node_seed = seed
                .wrapping_mul(0x100000001B3)
                .wrapping_add((session * 97 + si) as u64);
            let mut node = SensorNode::new(NodeConfig::default(), *style, node_seed)
                .expect("valid node config");
            let windows = node.run_scenario(&scenario).expect("scenario run");
            for w in windows {
                let class = testbed
                    .build
                    .classifier
                    .classify(&w.cues)
                    .expect("classification");
                let predicted = Context::from_index(class.0).expect("valid class");
                let quality = kernel
                    .measure_into(&w.cues, class, &mut scratch)
                    .expect("quality");
                out.push(EvalSample {
                    cues: w.cues,
                    truth: w.truth,
                    predicted,
                    right: predicted == w.truth,
                    quality,
                    is_transition: w.is_transition,
                });
            }
        }
    }
    out
}

/// Deterministically select a small hard test set with the paper's
/// composition: `n_right` right and `n_wrong` wrong classifications (the
/// paper's Fig. 5 set has 16 + 8 = 24). Mirrors the paper's choice of a
/// deliberately difficult evaluation set.
///
/// Returns fewer wrong samples only if the pool does not contain enough —
/// callers should check.
pub fn select_test_set(pool: &[EvalSample], n_right: usize, n_wrong: usize) -> Vec<EvalSample> {
    let mut rights: Vec<&EvalSample> = pool.iter().filter(|s| s.right).collect();
    let mut wrongs: Vec<&EvalSample> = pool.iter().filter(|s| !s.right).collect();
    // Deterministic spread: take evenly spaced elements so the selection
    // covers the whole pool rather than one session.
    let spread = |v: &mut Vec<&EvalSample>, n: usize| -> Vec<EvalSample> {
        if v.is_empty() {
            return Vec::new();
        }
        let step = (v.len() as f64 / n as f64).max(1.0);
        (0..n)
            .filter_map(|i| v.get((i as f64 * step) as usize).map(|s| (*s).clone()))
            .collect()
    };
    let mut out = spread(&mut rights, n_right);
    out.extend(spread(&mut wrongs, n_wrong));
    out
}

/// Labeled `(quality, right)` pairs of the non-ε samples.
pub fn labeled_qualities(samples: &[EvalSample]) -> Vec<(f64, bool)> {
    samples
        .iter()
        .filter_map(|s| s.quality.value().map(|q| (q, s.right)))
        .collect()
}

/// Render a crude horizontal text scatter of quality values (o = right,
/// + = wrong), the Fig. 5 visual.
pub fn render_quality_scatter(samples: &[EvalSample]) -> String {
    let mut lines = Vec::new();
    for (i, s) in samples.iter().enumerate() {
        let marker = if s.right { 'o' } else { '+' };
        match s.quality {
            Quality::Value(q) => {
                let pos = (q.clamp(0.0, 1.0) * 60.0).round() as usize;
                let mut bar: Vec<char> = vec![' '; 62];
                bar[pos] = marker;
                lines.push(format!(
                    "{:3} |{}| q={:.4} {}",
                    i + 1,
                    bar.iter().collect::<String>(),
                    q,
                    if s.right { "right" } else { "WRONG" }
                ));
            }
            Quality::Epsilon => {
                lines.push(format!("{:3} | epsilon {:51}  {}", i + 1, "", "WRONG"));
            }
        }
    }
    lines.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_pool_and_selection() {
        let testbed = paper_testbed(3);
        let pool = evaluation_pool(&testbed, 77, 1);
        assert!(pool.len() > 200, "pool size {}", pool.len());
        let wrongs = pool.iter().filter(|s| !s.right).count();
        assert!(wrongs > 8, "need enough wrong samples, got {wrongs}");
        let set = select_test_set(&pool, 16, 8);
        assert_eq!(set.len(), 24);
        assert_eq!(set.iter().filter(|s| s.right).count(), 16);
        let labeled = labeled_qualities(&set);
        assert!(labeled.len() <= 24);
        let scatter = render_quality_scatter(&set);
        assert_eq!(scatter.lines().count(), 24);
        assert!(scatter.contains('o'));
        assert!(scatter.contains('+') || scatter.contains("epsilon"));
    }
}
