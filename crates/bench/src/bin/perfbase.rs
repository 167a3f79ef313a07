//! PERFBASE — the performance baseline harness.
//!
//! Times the three hot paths (subtractive clustering, ANFIS training and
//! single-sample FIS evaluation), ANFIS training also on worker pools of
//! 1/2/4/8 threads, asserts serial/pooled bit-identity on the way, and
//! writes the results as `BENCH_PERFBASE.json` (schema
//! `cqm-bench/perfbase/v5`, documented in `cqm_bench::perf`).
//!
//! ```sh
//! cargo run --release -p cqm-bench --bin perfbase            # full sizes
//! cargo run --release -p cqm-bench --bin perfbase -- --smoke # CI sizes
//! cargo run --release -p cqm-bench --bin perfbase -- --out /tmp/perf.json
//! cargo run --release -p cqm-bench --bin perfbase -- --section eval_single
//! ```
//!
//! `--smoke` shrinks the workloads to CI size. A run of every section
//! re-reads the written JSON and validates it; no timing is gated (see
//! `cqm_bench::perf`). On a 1-core container the run warns that its
//! multi-thread timings are time-sliced.
//!
//! `--section NAME` (repeatable) restricts the run to the named sections so
//! a kernel can be iterated on without re-running the clustering/ANFIS
//! workloads. A partial baseline is still written to
//! `--out`, but schema validation is skipped (with a notice) because
//! required sections are absent by construction.

// lint: allow(PANIC_IN_LIB, file) -- perf driver: abort loudly on setup failure instead of degrading

use std::process::ExitCode;

use cqm_anfis::{train_hybrid_with, Dataset, HybridConfig};
use cqm_bench::harness::{write_json, Cli, Flag};
use cqm_bench::perf::{
    time_best, PerfBaseline, Section, ThreadTiming, SCHEMA, SECTION_NAMES, THREAD_COUNTS,
};
use cqm_cluster::subtractive::{SubtractiveClustering, SubtractiveParams};
use cqm_fuzzy::TskFis;
use cqm_parallel::WorkerPool;

/// Deterministic synthetic points: a plain LCG so the workload is identical
/// on every run and machine (no RNG crate, no wall-clock seeding).
struct Lcg(u64);

impl Lcg {
    fn next_unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Top 53 bits -> [0, 1).
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn synth_points(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Lcg(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.next_unit() * 4.0 - 2.0).collect())
        .collect()
}

/// A smooth nonlinear target over 2 inputs for the training workload.
fn synth_dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = Lcg(seed);
    let mut data = Dataset::new(2);
    for _ in 0..n {
        let a = rng.next_unit() * 2.0 - 1.0;
        let b = rng.next_unit() * 2.0 - 1.0;
        let y = (3.0 * a).sin() * 0.5 + b * b - 0.3 * a * b;
        data.push(vec![a, b], y).expect("finite sample");
    }
    data
}

fn pools() -> Vec<(usize, WorkerPool)> {
    THREAD_COUNTS
        .iter()
        .map(|&t| (t, WorkerPool::new(t)))
        .collect()
}

fn section_clustering(smoke: bool, reps: usize) -> Section {
    let n = if smoke { 400 } else { 2000 };
    let data = synth_points(n, 3, 0xC1);
    let clustering = SubtractiveClustering::new(SubtractiveParams {
        radius: 0.4,
        ..SubtractiveParams::default()
    });

    let serial_millis = time_best(reps, || {
        clustering.cluster(&data).expect("clustering");
    });
    Section {
        name: "clustering".into(),
        workload: format!("subtractive clustering, n={n} points, d=3, radius 0.4"),
        serial_millis,
        threaded: Vec::new(),
    }
}

fn section_anfis(smoke: bool, reps: usize) -> Section {
    let n = if smoke { 200 } else { 600 };
    let data = synth_dataset(n, 0xA2);
    let params = cqm_anfis::GenfisParams::with_radius(0.5);
    let base = cqm_anfis::genfis(&data, &params).expect("genfis");
    let epochs = 3usize;
    let config = HybridConfig {
        epochs,
        patience: epochs,
        ..HybridConfig::default()
    };

    let mut reference: Option<TskFis> = None;
    let serial_millis = time_best(reps, || {
        let mut fis = base.clone();
        train_hybrid_with(&mut fis, &data, None, &config, &WorkerPool::serial()).expect("training");
        reference = Some(fis);
    });
    let reference = reference.expect("at least one rep");
    let threaded = pools()
        .iter()
        .map(|(t, pool)| ThreadTiming {
            threads: *t,
            millis: time_best(reps, || {
                let mut fis = base.clone();
                train_hybrid_with(&mut fis, &data, None, &config, pool).expect("training");
                assert_eq!(fis.rules().len(), reference.rules().len(), "threads={t}");
            }),
        })
        .collect();
    Section {
        name: "anfis_epoch".into(),
        workload: format!("hybrid training, n={n} samples, dim=2, {epochs} epochs"),
        serial_millis,
        threaded,
    }
}

fn section_eval_single(smoke: bool, reps: usize) -> Section {
    let data = synth_dataset(if smoke { 200 } else { 600 }, 0xA2);
    let mut fis =
        cqm_anfis::genfis(&data, &cqm_anfis::GenfisParams::with_radius(0.5)).expect("genfis");
    let config = HybridConfig {
        epochs: 3,
        patience: 3,
        ..HybridConfig::default()
    };
    train_hybrid_with(&mut fis, &data, None, &config, &WorkerPool::auto()).expect("training");
    let inputs = synth_points(2000, fis.input_dim(), 0xE5)
        .into_iter()
        .map(|v| v.into_iter().map(|x| x * 0.4).collect::<Vec<f64>>())
        .collect::<Vec<_>>();

    let serial_millis = time_best(reps, || {
        let mut acc = 0.0f64;
        for v in &inputs {
            acc += fis.eval(v).expect("eval");
        }
        assert!(acc.is_finite());
    });
    let kernel = fis.kernel();
    let mut scratch = cqm_fuzzy::TskScratch::with_rules(kernel.rule_count());
    let kernel_millis = time_best(reps, || {
        let mut acc = 0.0f64;
        for v in &inputs {
            acc += kernel.eval_into(v, &mut scratch).expect("eval");
        }
        assert!(acc.is_finite());
    });
    Section {
        name: "eval_single".into(),
        workload: format!(
            "2000 single-sample evals, {} rules, dim={} (threaded[0] = allocation-free kernel)",
            fis.rules().len(),
            fis.input_dim()
        ),
        serial_millis,
        threaded: vec![ThreadTiming {
            threads: 1,
            millis: kernel_millis,
        }],
    }
}

const CLI: Cli = Cli {
    bin: "perfbase",
    about: "performance baseline",
    out: "BENCH_PERFBASE.json",
    smoke: "CI-sized workloads",
    flags: &[Flag::names(
        "--section",
        "run only this section; partial runs skip validation",
        &SECTION_NAMES,
    )],
    gate: "schema validation",
};

fn main() -> ExitCode {
    let args = CLI.args();
    let smoke = args.smoke;
    let selected = args.names("--section");
    let run_all = selected.is_empty();
    let want = |name: &str| run_all || selected.contains(&name);
    let reps = if smoke { 4 } else { 3 };

    let cores = CLI.banner(smoke);
    if cores == 1 {
        println!(
            "perfbase: WARNING: running on 1 core — multi-thread timings \
             time-slice a single CPU; do not read them as scaling evidence"
        );
    }
    println!();

    let total = SECTION_NAMES.iter().filter(|n| want(n)).count();
    let mut step = 0usize;
    let mut progress = |name: &str| {
        step += 1;
        println!("[{step}/{total}] {name} ...");
    };

    let mut sections: Vec<Section> = Vec::new();
    if want("clustering") {
        progress("clustering");
        sections.push(section_clustering(smoke, reps));
    }
    if want("anfis_epoch") {
        progress("anfis training");
        sections.push(section_anfis(smoke, reps));
    }
    if want("eval_single") {
        progress("single-sample eval");
        sections.push(section_eval_single(smoke, reps));
    }

    let baseline = PerfBaseline {
        schema: SCHEMA.to_string(),
        smoke,
        available_parallelism: cores,
        sections,
    };

    println!(
        "\n{:20} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "section", "serial", "t=1", "t=2", "t=4", "t=8"
    );
    for s in &baseline.sections {
        let cell = |t: usize| {
            s.millis_at(t)
                .map_or_else(|| "-".to_string(), |m| format!("{m:.2}"))
        };
        println!(
            "{:20} {:>10.2} {:>8} {:>8} {:>8} {:>8}",
            s.name,
            s.serial_millis,
            cell(1),
            cell(2),
            cell(4),
            cell(8)
        );
    }

    if !run_all {
        if let Err(e) = write_json(&args.out, &baseline) {
            eprintln!("perfbase: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "perfbase: partial run (--section): schema validation needs the \
             full section set, skipping it"
        );
        return ExitCode::SUCCESS;
    }
    CLI.finish(&args.out, &baseline, SCHEMA, PerfBaseline::validate, |_| {
        Ok("perfbase: timings recorded; no timing is gated".into())
    })
}
