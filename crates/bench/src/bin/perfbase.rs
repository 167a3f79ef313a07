//! PERFBASE — the performance baseline harness.
//!
//! Times the five hot paths (subtractive clustering, ANFIS training,
//! single-sample FIS evaluation, batch FIS evaluation, and the serial
//! `TskKernel::eval_batch_into` sweep) serially and — where pooling
//! applies — on worker pools of 1/2/4/8 threads, asserts serial/parallel
//! and batch/row-wise bit-identity on the way, and writes the results as
//! `BENCH_PERFBASE.json` (schema `cqm-bench/perfbase/v3`, documented in
//! `cqm_bench::perf`).
//!
//! ```sh
//! cargo run --release -p cqm-bench --bin perfbase            # full sizes
//! cargo run --release -p cqm-bench --bin perfbase -- --smoke # CI gate
//! cargo run --release -p cqm-bench --bin perfbase -- --out /tmp/perf.json
//! cargo run --release -p cqm-bench --bin perfbase -- \
//!     --section eval_batch_blocked
//! ```
//!
//! `--smoke` shrinks the workloads to CI size and applies the performance
//! gate (`PerfBaseline::gate`): the clustering thread-scaling gate, which
//! is core-aware, and on a 1-core container is **skipped with a loud
//! warning** instead of pretending time-sliced numbers mean anything.
//!
//! `--section NAME` (repeatable) restricts the run to the named sections so
//! a kernel can be iterated on without re-running the clustering/ANFIS
//! workloads. A partial baseline is still written to
//! `--out`, but schema validation and the gate are skipped (with a notice)
//! because required sections are absent by construction.

// lint: allow(PANIC_IN_LIB, file) -- perf driver: abort loudly on setup failure instead of degrading

use std::process::ExitCode;

use cqm_anfis::{train_hybrid_with, Dataset, HybridConfig};
use cqm_bench::harness::{write_json, Cli, Flag};
use cqm_bench::perf::{
    time_best, GateOutcome, PerfBaseline, Section, ThreadTiming, SCHEMA, SECTION_NAMES,
    THREAD_COUNTS,
};
use cqm_cluster::subtractive::{SubtractiveClustering, SubtractiveParams};
use cqm_fuzzy::{MembershipFunction, TskFis, TskRule};
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

    let reference = clustering.cluster(&data).expect("clustering");
    let serial_millis = time_best(reps, || {
        let r = clustering.cluster(&data).expect("clustering");
        assert_eq!(r.centers.len(), reference.centers.len());
    });
    let threaded = pools()
        .iter()
        .map(|(t, pool)| {
            let r = clustering.cluster_with(&data, pool).expect("clustering");
            // Bit-identity between serial and every pooled run — the
            // property the whole runtime is built on.
            assert_eq!(r.centers.len(), reference.centers.len(), "threads={t}");
            for (a, b) in r.centers.iter().zip(&reference.centers) {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "threads={t}");
                }
            }
            ThreadTiming {
                threads: *t,
                millis: time_best(reps, || {
                    clustering.cluster_with(&data, pool).expect("clustering");
                }),
            }
        })
        .collect();
    Section {
        name: "clustering".into(),
        workload: format!("subtractive clustering, n={n} points, d=3, radius 0.4"),
        serial_millis,
        threaded,
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

fn section_eval_single(fis: &TskFis, reps: usize) -> Section {
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

fn section_eval_batch(fis: &TskFis, smoke: bool, reps: usize) -> Section {
    let n = if smoke { 1000 } else { 5000 };
    let inputs = synth_points(n, fis.input_dim(), 0xB7)
        .into_iter()
        .map(|v| v.into_iter().map(|x| x * 0.4).collect::<Vec<f64>>())
        .collect::<Vec<_>>();

    let reference = fis.eval_batch(&inputs).expect("batch eval");
    let serial_millis = time_best(reps, || {
        let out = fis.eval_batch(&inputs).expect("batch eval");
        assert_eq!(out.len(), inputs.len());
    });
    let threaded = pools()
        .iter()
        .map(|(t, pool)| {
            let out = fis.eval_batch_with(&inputs, pool).expect("batch eval");
            for (a, b) in out.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={t}");
            }
            ThreadTiming {
                threads: *t,
                millis: time_best(reps, || {
                    fis.eval_batch_with(&inputs, pool).expect("batch eval");
                }),
            }
        })
        .collect();
    Section {
        name: "eval_batch".into(),
        workload: format!("batch eval, n={n} rows, {} rules", fis.rules().len()),
        serial_millis,
        threaded,
    }
}


/// A deterministic Gaussian-only TSK rule base sized like an appliance
/// context model (the trained demo FIS is too small — 6 rules over 2
/// inputs — for blocking effects to show; the paper's context models carry
/// more cues and finer rule coverage). Seeded LCG parameters, identical on
/// every machine.
fn synth_gaussian_fis(rules: usize, dim: usize, seed: u64) -> TskFis {
    let mut rng = Lcg(seed);
    let rule = |rng: &mut Lcg| {
        let antecedents = (0..dim)
            .map(|_| {
                let mu = rng.next_unit() * 2.0 - 1.0;
                let sigma = 0.3 + rng.next_unit() * 0.5;
                MembershipFunction::gaussian(mu, sigma).expect("valid mf")
            })
            .collect();
        let consequent = (0..=dim).map(|_| rng.next_unit() * 2.0 - 1.0).collect();
        TskRule::new(antecedents, consequent).expect("valid rule")
    };
    TskFis::new((0..rules).map(|_| rule(&mut rng)).collect()).expect("valid fis")
}

/// `TskKernel::eval_batch_into` vs a hand-written loop of `eval_into`. Same
/// math, same bits; the batch entry point is itself that loop, so the
/// ratio reads ≈ 1.0 and shows only what the entry point costs. The
/// section keeps its schema-v3 name from the rule-major blocked sweep it
/// timed until that sweep was deleted.
fn section_eval_batch_blocked(smoke: bool, reps: usize) -> Section {
    let n = if smoke { 1000 } else { 5000 };
    let fis = &synth_gaussian_fis(16, 4, 0x9B);
    let inputs = synth_points(n, fis.input_dim(), 0xB7)
        .into_iter()
        .map(|v| v.into_iter().map(|x| x * 0.4).collect::<Vec<f64>>())
        .collect::<Vec<_>>();
    let kernel = fis.kernel();

    let mut scratch = kernel.scratch();
    let reference: Vec<f64> = inputs
        .iter()
        .map(|v| kernel.eval_into(v, &mut scratch).expect("eval"))
        .collect();
    let serial_millis = time_best(reps, || {
        let mut acc = 0.0f64;
        for v in &inputs {
            acc += kernel.eval_into(v, &mut scratch).expect("eval");
        }
        assert!(acc.is_finite());
    });

    let mut out = Vec::with_capacity(n);
    kernel
        .eval_batch_into(&inputs, &mut scratch, &mut out)
        .expect("batch eval");
    // The kernel's contract: batch bits == row-wise bits.
    for (i, (a, b)) in out.iter().zip(&reference).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "batch row {i} diverged");
    }
    let batch_millis = time_best(reps, || {
        kernel
            .eval_batch_into(&inputs, &mut scratch, &mut out)
            .expect("batch eval");
    });
    Section {
        name: "eval_batch_blocked".into(),
        workload: format!(
            "eval_batch_into vs row loop, n={n} rows, {} rules, dim={} (bit-identical)",
            fis.rules().len(),
            fis.input_dim()
        ),
        serial_millis,
        threaded: vec![ThreadTiming {
            threads: 1,
            millis: batch_millis,
        }],
    }
}

const CLI: Cli = Cli {
    bin: "perfbase",
    about: "performance baseline",
    out: "BENCH_PERFBASE.json",
    smoke: "CI-sized workloads + the perf gate",
    flags: &[Flag::names(
        "--section",
        "run only this section; partial runs skip validation and the gate",
        &SECTION_NAMES,
    )],
    gate: "(with --smoke) the perf gate",
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
             time-slice a single CPU and the thread-scaling gate will be \
             SKIPPED; regenerate the committed baseline on real cores"
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

    let needs_fis = ["eval_single", "eval_batch"].iter().any(|n| want(n));
    let fis = needs_fis.then(|| {
        // Reuse one trained FIS for every evaluation section.
        let data = synth_dataset(if smoke { 200 } else { 600 }, 0xA2);
        let mut fis =
            cqm_anfis::genfis(&data, &cqm_anfis::GenfisParams::with_radius(0.5)).expect("genfis");
        train_hybrid_with(
            &mut fis,
            &data,
            None,
            &HybridConfig {
                epochs: 3,
                patience: 3,
                ..HybridConfig::default()
            },
            &WorkerPool::auto(),
        )
        .expect("training");
        fis
    });

    if let Some(fis) = &fis {
        if want("eval_single") {
            progress("single-sample eval");
            sections.push(section_eval_single(fis, reps));
        }
        if want("eval_batch") {
            progress("batch eval");
            sections.push(section_eval_batch(fis, smoke, reps));
        }
    }
    if want("eval_batch_blocked") {
        progress("eval_batch_into vs row loop");
        sections.push(section_eval_batch_blocked(smoke, reps));
    }

    let baseline = PerfBaseline {
        schema: SCHEMA.to_string(),
        smoke,
        available_parallelism: cores,
        sections,
    };

    println!("\n{:20} {:>10} {:>8} {:>8} {:>8} {:>8}", "section", "serial", "t=1", "t=2", "t=4", "t=8");
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
    if let Some(speedup) = baseline
        .section("clustering")
        .and_then(|s| s.speedup_at(4))
    {
        println!("\nclustering speedup at 4 threads: {speedup:.2}x (on {cores} core(s))");
    }
    if let Some(speedup) = baseline
        .section("eval_batch_blocked")
        .and_then(|s| s.speedup_at(1))
    {
        println!("eval_batch_into vs row loop (single thread): {speedup:.2}x");
    }

    if !run_all {
        if let Err(e) = write_json(&args.out, &baseline) {
            eprintln!("perfbase: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "perfbase: partial run (--section): schema validation and the \
             perf gate need the full section set, skipping both"
        );
        return ExitCode::SUCCESS;
    }
    CLI.finish(&args.out, &baseline, SCHEMA, PerfBaseline::validate, |b| {
        if !b.smoke {
            return Ok("perf gate: applies to --smoke runs only".into());
        }
        match b.gate() {
            Ok(GateOutcome::Passed) => Ok("perf gate: ok (thread scaling)".into()),
            Ok(GateOutcome::ThreadGateSkipped { cores }) => Ok(format!(
                "perfbase: WARNING: thread-scaling gate SKIPPED — baseline \
                 taken on {cores} core(s); multi-thread numbers in this file \
                 are time-sliced and must not be read as scaling evidence"
            )),
            Err(e) => Err(format!("perf gate failed: {e}")),
        }
    })
}
