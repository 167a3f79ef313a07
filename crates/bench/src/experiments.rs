//! Shared experiment sections over one trained testbed.
//!
//! Historically every experiment binary (`summary`, `fig5`, `fig6`,
//! `improvement`) retrained the AwarePen testbed and regenerated the
//! evaluation pool from scratch — four identical multi-second training runs
//! to print four views of the same model. The sections now take a
//! [`Testbed`] and a prebuilt [`PaperEval`] so a process trains **once** and
//! reuses it: `summary` runs every section off a single testbed, and the
//! per-experiment binaries stay as thin wrappers for focused output.

// lint: allow(PANIC_IN_LIB, file) -- experiment driver: abort loudly on setup failure instead of degrading

use cqm_appliance::office::{run_office, OfficeConfig};
use cqm_core::filter::QualityFilter;
use cqm_math::histogram::Histogram;
use cqm_stats::bootstrap::auc_ci;
use cqm_stats::mle::QualityGroups;
use cqm_stats::probabilities::TailProbabilities;
use cqm_stats::separation::auc;
use cqm_stats::threshold::optimal_threshold;

use crate::{
    evaluation_pool, labeled_qualities, render_quality_scatter, select_test_set, EvalSample,
    Testbed,
};

/// The standard evaluation data shared by the paper experiments: the full
/// unseen-seed pool and the hard 24-point test set (16 right / 8 wrong).
pub struct PaperEval {
    /// Full evaluation pool (unseen seeds, novel user style, transitions).
    pub pool: Vec<EvalSample>,
    /// The paper's 24-point hard test set drawn from the pool.
    pub set: Vec<EvalSample>,
}

/// Build the standard evaluation data once (pool seed 550, two sessions,
/// 16 + 8 selection — the fixed configuration every experiment binary used).
///
/// # Panics
///
/// Panics if the pool cannot supply the 24-point composition.
pub fn paper_eval(testbed: &Testbed) -> PaperEval {
    let pool = evaluation_pool(testbed, 550, 2);
    let set = select_test_set(&pool, 16, 8);
    assert_eq!(set.len(), 24, "pool must supply 16 right + 8 wrong samples");
    PaperEval { pool, set }
}

/// The `summary` section: the paper-vs-measured table.
pub fn run_summary(eval: &PaperEval) {
    let labeled = labeled_qualities(&eval.set);
    let groups = QualityGroups::fit_labeled(&labeled).expect("both outcomes");
    let threshold = optimal_threshold(&groups).expect("informative measure");
    let probs = TailProbabilities::at(&groups, &threshold);
    let filter = QualityFilter::new(threshold.value.clamp(0.0, 1.0)).expect("filter");
    let outcome = filter.evaluate(
        &eval
            .set
            .iter()
            .map(|s| (s.quality, s.right))
            .collect::<Vec<_>>(),
    );
    let set_auc = auc(&labeled).expect("auc");
    let ci = auc_ci(&labeled, 400, 0.95, 42).expect("bootstrap");

    println!("\n{:38} {:>10} {:>12}", "quantity", "paper", "measured");
    println!("{}", "-".repeat(64));
    let row = |name: &str, paper: &str, measured: String| {
        println!("{name:38} {paper:>10} {measured:>12}");
    };
    row(
        "optimal threshold s",
        "0.81",
        format!("{:.3}", threshold.value),
    );
    row(
        "right-group mean",
        "~0.95",
        format!("{:.3}", groups.right.mu()),
    );
    row(
        "wrong-group mean",
        "~0.3",
        format!("{:.3}", groups.wrong.mu()),
    );
    row(
        "P(right|q>s) = P(wrong|q<s)",
        "0.8112",
        format!("{:.3}", probs.selection_right),
    );
    row(
        "P(right|q<s)",
        "0.0846",
        format!("{:.3}", probs.false_negative),
    );
    row(
        "P(wrong|q>s)",
        "0.0217",
        format!("{:.3}", probs.false_positive),
    );
    row(
        "discard rate (24-pt set)",
        "33%",
        format!("{:.1}%", 100.0 * outcome.discard_rate()),
    );
    row(
        "accuracy before -> after",
        "67->100%",
        format!(
            "{:.0}->{:.0}%",
            100.0 * outcome.accuracy_before(),
            100.0 * outcome.accuracy_after()
        ),
    );
    row("24-pt AUC", "1.0 impl.", format!("{set_auc:.3}"));
    row(
        "24-pt AUC 95% bootstrap CI",
        "n/a",
        format!("[{:.2},{:.2}]", ci.lo, ci.hi),
    );
}

/// The `fig5` section: quality scatter of the 24-point test set plus the
/// dashed-line group means.
pub fn run_fig5(eval: &PaperEval) {
    println!("{}", render_quality_scatter(&eval.set));

    let labeled = labeled_qualities(&eval.set);
    let groups = QualityGroups::fit_labeled(&labeled).expect("both outcomes present");
    println!("\nstatistical mean values (the dashed lines of Fig. 5):");
    println!(
        "  right mean = {:.4} (sigma {:.4}, n={})",
        groups.right.mu(),
        groups.right.sigma(),
        groups.n_right
    );
    println!(
        "  wrong mean = {:.4} (sigma {:.4}, n={})",
        groups.wrong.mu(),
        groups.wrong.sigma(),
        groups.n_wrong
    );

    let separable = cqm_stats::separation::fully_separable(&labeled).expect("both outcomes");
    println!("\nfully separable by a single threshold: {separable}   (paper: true)");
    let set_auc = cqm_stats::separation::auc(&labeled).expect("both outcomes");
    println!("empirical AUC over the test set     : {set_auc:.4} (paper: 1.0 implied)");
}

/// The `fig6` section: fitted densities, optimal threshold and the §2.33
/// probability table.
pub fn run_fig6(eval: &PaperEval) {
    let labeled = labeled_qualities(&eval.set);
    let groups = QualityGroups::fit_labeled(&labeled).expect("both outcomes present");
    let threshold = optimal_threshold(&groups).expect("informative measure");

    println!("fitted densities (MLE, §2.31):");
    println!("  right: {}", groups.right);
    println!("  wrong: {}", groups.wrong);
    println!("\noptimal threshold (density intersection, §2.32):");
    println!("  {threshold}   (paper example: s = 0.81)\n");

    // Density series over the measure axis — the Fig. 6 curves — alongside
    // the empirical histogram densities of the underlying samples.
    let mut hist_r = Histogram::new(0.0, 1.0, 20).expect("valid histogram");
    let mut hist_w = Histogram::new(0.0, 1.0, 20).expect("valid histogram");
    for &(q, right) in &labeled {
        if right {
            hist_r.add(q);
        } else {
            hist_w.add(q);
        }
    }
    println!("density series (q, fitted phi vs empirical histogram density):");
    println!("   q     phi_r    emp_r    phi_w    emp_w");
    for bin in 0..20 {
        let q = hist_r.bin_center(bin);
        let marker = if (q - threshold.value).abs() < 0.025 {
            "  <-- threshold"
        } else {
            ""
        };
        println!(
            "  {q:.3}  {:8.4} {:8.4} {:8.4} {:8.4}{marker}",
            groups.right.pdf(q),
            hist_r.density(bin),
            groups.wrong.pdf(q),
            hist_w.density(bin)
        );
    }

    let probs = TailProbabilities::at(&groups, &threshold);
    println!("\nprobability table (§2.33 median cuts):");
    println!("{probs}");

    // The identity the paper reports at the optimal threshold.
    let identity_gap = (probs.selection_right - probs.selection_wrong).abs();
    println!(
        "\nidentity P(right|q>s) == P(wrong|q<s): gap = {identity_gap:.2e} (paper: exact equality)"
    );
}

/// The `improvement` section: 24-point accounting, whole-pool accounting and
/// the aggregated whiteboard-camera decision.
pub fn run_improvement(testbed: &Testbed, eval: &PaperEval) {
    // --- Part 1: the paper's 24-point accounting. §3.2 derives the optimal
    // threshold from the statistical analysis of the test set itself (the
    // Fig. 6 densities), then filters that same set.
    let groups = QualityGroups::fit_labeled(&labeled_qualities(&eval.set)).expect("both outcomes");
    let threshold = optimal_threshold(&groups)
        .expect("informative measure")
        .value
        .clamp(0.0, 1.0);
    let filter = QualityFilter::new(threshold).expect("valid threshold");
    let labeled: Vec<_> = eval.set.iter().map(|s| (s.quality, s.right)).collect();
    let outcome = filter.evaluate(&labeled);
    println!(
        "-- 24-point test set (16 right / 8 wrong), threshold s = {threshold:.3} (paper: 0.81) --"
    );
    println!("  {outcome}");
    println!(
        "  discard rate            : {:5.1}%   (paper: 33% = all wrong ones)",
        100.0 * outcome.discard_rate()
    );
    println!(
        "  accuracy before filter  : {:5.1}%   (paper: 66.7%)",
        100.0 * outcome.accuracy_before()
    );
    println!(
        "  accuracy after filter   : {:5.1}%   (paper: 100%)",
        100.0 * outcome.accuracy_after()
    );
    println!(
        "  improvement             : {:+5.1} percentage points (paper: +33.3)",
        100.0 * outcome.improvement()
    );

    // --- Part 2: whole-pool accounting (honest large-sample version) at
    // the *deployment* threshold learned during training.
    let deploy_threshold = testbed.build.trained_cqm.threshold.value.clamp(0.0, 1.0);
    let deploy_filter = QualityFilter::new(deploy_threshold).expect("valid threshold");
    let labeled_pool: Vec<_> = eval.pool.iter().map(|s| (s.quality, s.right)).collect();
    let pool_outcome = deploy_filter.evaluate(&labeled_pool);
    println!(
        "\n-- full evaluation pool ({} windows), deployment threshold s = {deploy_threshold:.3} --",
        eval.pool.len()
    );
    println!("  {pool_outcome}");

    // --- Part 3: application-level camera decision, aggregated.
    println!("\n-- whiteboard camera decision (aggregate over 6 office runs) --");
    let mut agg = [[0usize; 3]; 2];
    for seed in 0..6u64 {
        let config = OfficeConfig {
            seed: seed * 131 + 11,
            ..OfficeConfig::default()
        };
        let report = run_office(&config).expect("office run");
        for (i, s) in [&report.with_quality, &report.without_quality]
            .iter()
            .enumerate()
        {
            agg[i][0] += s.camera.correct;
            agg[i][1] += s.camera.false_triggers;
            agg[i][2] += s.camera.missed;
        }
    }
    for (label, row) in [("with CQM   ", agg[0]), ("without CQM", agg[1])] {
        let acc = row[0] as f64 / (row[0] + row[1] + row[2]) as f64;
        println!(
            "  {label}: {} correct, {} false, {} missed  -> decision accuracy {:.1}%",
            row[0],
            row[1],
            row[2],
            100.0 * acc
        );
    }
    let with_acc = agg[0][0] as f64 / (agg[0][0] + agg[0][1] + agg[0][2]) as f64;
    let without_acc = agg[1][0] as f64 / (agg[1][0] + agg[1][1] + agg[1][2]) as f64;
    println!(
        "  improvement: {:+.1} percentage points (paper: +33 on their example)",
        100.0 * (with_acc - without_acc)
    );
}
