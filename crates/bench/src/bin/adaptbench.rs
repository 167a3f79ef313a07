//! ADAPTBENCH — the online-adaptation drift-recovery harness (PR 10).
//!
//! Starts an in-process [`cqm_serve::CqmServer`] with a seeded disk-fault
//! plan under its checkpoint store, keeps client traffic running against it
//! for the whole scenario, and drives a `cqm_adapt::AdaptationSupervisor`
//! through a two-phase labeled stream:
//!
//! 1. **stationary** — seeded healthy traffic; the Page–Hinkley detector
//!    must stay silent (zero false alarms, zero retrains, zero swaps);
//! 2. **context shift** — traffic concentrates where the live classifier
//!    is wrong; the detector must confirm drift, the supervisor must
//!    retrain from its window, validate the candidate and promote it
//!    through a live `swap_model` — with a deliberate rollback drill
//!    against the disk-fault schedule proving failed swaps keep last-good.
//!
//! The promoted model, the stale pre-drift model and a from-scratch
//! `train_cqm_with` retrain are all scored on the **same** deterministic
//! holdout; the gate (`AdaptBaseline::gate`, always applied) requires the
//! adapted model to beat the stale one and land within the documented
//! recovery bound of the from-scratch retrain, with zero requests dropped
//! across every swap. The accounting is written as `BENCH_PR10.json`
//! (schema documented in `cqm_bench::adaptbench`).
//!
//! ```sh
//! cargo run --release -p cqm-bench --bin adaptbench            # full run
//! cargo run --release -p cqm-bench --bin adaptbench -- --smoke # CI gate
//! cargo run --release -p cqm-bench --bin adaptbench -- --out /tmp/adapt.json
//! cargo run --release -p cqm-bench --bin adaptbench -- --seed 99 --stationary 800
//! ```

// lint: allow(PANIC_IN_LIB, file) -- perf driver: abort loudly on setup failure instead of degrading

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use cqm_adapt::supervisor::holdout_rmse;
use cqm_adapt::{
    AdaptSample, AdaptationConfig, AdaptationOutcome, AdaptationSupervisor, DriftState,
    SlidingWindow,
};
use cqm_bench::adaptbench::{AdaptBaseline, RECOVERY_BOUND, SCHEMA};
use cqm_bench::harness::{Cli, Flag};
use cqm_bench::soak::{is_typed_failure, tiny_model};
use cqm_core::classifier::ClassId;
use cqm_core::model::{CqmModel, MODEL_VERSION};
use cqm_core::training::{train_cqm_with, CqmTrainingConfig};
use cqm_parallel::WorkerPool;
use cqm_resilience::DiskFaultPlan;
use cqm_serve::{
    ClientConfig, CqmClient, CqmServer, FleetConfig, ModelSource, ServedModel, ServerConfig,
    DEFAULT_TENANT,
};

/// The seeded stationary sample at stream position `i`: mostly easy cues
/// near the poles, some ambiguous ones — the same Weyl-sequence pattern the
/// supervisor's own stationary soak uses.
fn stationary_sample(i: u64, phase: u64) -> (f64, ClassId) {
    let r = (i.wrapping_mul(2654435761).wrapping_add(phase) % 1000) as f64 / 1000.0;
    let cue = if i.is_multiple_of(4) {
        0.3 + r * 0.4
    } else if i.is_multiple_of(2) {
        r * 0.25
    } else {
        0.75 + r * 0.25
    };
    (cue, ClassId(usize::from(cue > 0.45)))
}

/// Per-thread tally of the traffic soak.
#[derive(Default)]
struct Tally {
    issued: u64,
    delivered: u64,
    typed_failures: u64,
}

/// Hammer the server with classification requests until `stop` flips.
/// Every outcome must be a delivered answer or a typed error; a panic
/// here fails the run. Swaps happen live under this traffic.
fn drive_traffic(addr: SocketAddr, session: u64, stop: &AtomicBool) -> Tally {
    let mut client = CqmClient::connect(
        addr,
        ClientConfig {
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_millis(500),
            retries: 4,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(20),
            call_deadline: Duration::from_secs(10),
            session_id: Some(session),
            seed: 7,
            ..ClientConfig::default()
        },
    )
    .expect("connect traffic client");
    let mut tally = Tally::default();
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let cue = vec![-0.1 + 1.2 * (i % 16) as f64 / 16.0];
        i += 1;
        tally.issued += 1;
        match client.classify(&cue) {
            Ok(_answer) => tally.delivered += 1,
            Err(e) if is_typed_failure(&e) => tally.typed_failures += 1,
            Err(other) => panic!("traffic produced an untyped failure: {other}"),
        }
    }
    tally
}

fn disk_plan(seed: u64) -> DiskFaultPlan {
    DiskFaultPlan {
        // Boot and the initial checkpoint write/read must land cleanly;
        // everything after runs against a one-in-four corrupt-read rate.
        warmup_ops: 24,
        corrupt_p: 0.25,
        ..DiskFaultPlan::clean(seed.wrapping_add(1))
    }
}

const CLI: Cli = Cli {
    bin: "adaptbench",
    about: "drift recovery with validated live swap",
    out: "BENCH_PR10.json",
    smoke: "quick CI-sized run (400 stationary samples)",
    flags: &[
        Flag::count("--stationary", "stationary-phase samples", 1200, 400),
        Flag::seed("--seed", "stream + disk-fault seed", 0xADA7),
    ],
    gate: "the drift-recovery gate",
};

fn main() -> ExitCode {
    let args = CLI.args();
    let smoke = args.smoke;
    let stationary = args.number("--stationary");
    let seed = args.number("--seed");
    let workers = 2usize;
    let disk = disk_plan(seed);
    let adapt_config = AdaptationConfig::default();

    let cores = CLI.banner(smoke);
    println!(
        "{stationary} stationary sample(s), window {} (holdout every {}), seed {seed}\n",
        adapt_config.window_capacity, adapt_config.holdout_every
    );

    println!("[1/6] starting server with seeded disk faults under the store ...");
    let dir: PathBuf = std::env::temp_dir().join(format!("cqm_adaptbench_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("store dir");
    let stale = tiny_model(0.5, "boot");
    let server = CqmServer::start(
        ModelSource::Fresh(stale.clone()),
        ServerConfig {
            workers,
            fleet: FleetConfig {
                store_dir: Some(dir.clone()),
                disk_faults: Some(disk),
                probe_cues: (0..4).map(|i| vec![0.1 + 0.25 * i as f64]).collect(),
                ..FleetConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let addr = server.local_addr();
    println!("serving on {addr}");

    let stop = AtomicBool::new(false);
    let scenario = std::thread::scope(|scope| {
        let traffic: Vec<_> = (0..2)
            .map(|t| {
                let stop = &stop;
                scope.spawn(move || drive_traffic(addr, 0xADA0 + t, stop))
            })
            .collect();

        println!("[2/6] stationary phase: {stationary} samples, detector must stay silent ...");
        let mut sup = AdaptationSupervisor::new(
            adapt_config.clone(),
            stale.clone(),
            DEFAULT_TENANT,
            dir.join("validate"),
        )
        .expect("supervisor");
        let mut mirror = SlidingWindow::new(adapt_config.window_capacity).expect("mirror window");
        for i in 0..stationary {
            let (cue, truth) = stationary_sample(i, 1);
            sup.observe(&[cue], truth).expect("observe");
            mirror.push(AdaptSample {
                cues: vec![cue],
                truth,
            });
        }
        let stationary_false_alarms = sup.stats().drift_events;
        println!(
            "    state {:?}, {} false alarm(s), {} retrain(s)",
            sup.drift_state(),
            stationary_false_alarms,
            sup.stats().retrains
        );

        println!("[3/6] rollback drill: swapping against the disk-fault schedule ...");
        let mut drill_attempts = 0u64;
        let mut drill_failures = 0u64;
        while drill_failures == 0 && drill_attempts < 64 {
            drill_attempts += 1;
            match server.swap_model(DEFAULT_TENANT, tiny_model(0.5, "drill")) {
                Ok(_seq) => {}
                Err(rolled_back) => {
                    drill_failures += 1;
                    println!("    drill swap rolled back as designed: {rolled_back}");
                }
            }
        }
        println!("    {drill_failures} rollback(s) in {drill_attempts} attempt(s)");

        println!("[4/6] context shift: driving to confirmed drift and promotion ...");
        let mut shifted_samples = 0u64;
        let mut drift_detected_at = 0u64;
        let mut promoted: Option<ServedModel> = None;
        let mut i = 0u64;
        while promoted.is_none() && i < 20_000 {
            // Traffic concentrates where the classifier is wrong (cue just
            // above its 0.5 boundary, truth says class 0), interleaved with
            // easy right samples so the window keeps both outcomes.
            let r = (i.wrapping_mul(2654435761) % 1000) as f64 / 1000.0;
            let wrong = 0.5 + r * 0.1;
            sup.observe(&[wrong], ClassId(0)).expect("observe");
            mirror.push(AdaptSample {
                cues: vec![wrong],
                truth: ClassId(0),
            });
            let easy = if i.is_multiple_of(2) {
                0.05 + r * 0.1
            } else {
                0.85 + r * 0.1
            };
            let easy_truth = ClassId(usize::from(easy > 0.45));
            sup.observe(&[easy], easy_truth).expect("observe");
            mirror.push(AdaptSample {
                cues: vec![easy],
                truth: easy_truth,
            });
            shifted_samples += 2;
            i += 1;
            if sup.drift_state() == DriftState::Drift {
                if drift_detected_at == 0 {
                    drift_detected_at = sup.stats().observed;
                    println!("    drift confirmed at observation {drift_detected_at}");
                }
                match sup.step(&server).expect("step") {
                    AdaptationOutcome::Promoted {
                        swap_seq,
                        candidate,
                    } => {
                        println!(
                            "    promoted at swap seq {swap_seq}: holdout rmse {:.4} \
                             (live was {:.4}), {} -> {} rule(s)",
                            candidate.holdout_rmse,
                            candidate.live_holdout_rmse,
                            candidate.rules_before,
                            candidate.rules_after
                        );
                        promoted = Some(sup.live().clone());
                    }
                    AdaptationOutcome::Rejected { reason } => {
                        println!("    candidate rejected, retrying: {reason}");
                    }
                    other => {
                        println!("    unexpected outcome {other:?}, continuing");
                    }
                }
            }
        }
        let promoted = promoted.expect("context shift never produced a promotion");

        println!("[5/6] from-scratch retrain on the same window for the recovery bound ...");
        let (train, holdout) = mirror
            .split(adapt_config.holdout_every)
            .expect("mirror split");
        let cues: Vec<Vec<f64>> = train.iter().map(|s| s.cues.clone()).collect();
        let truth: Vec<ClassId> = train.iter().map(|s| s.truth).collect();
        let pool = WorkerPool::new(workers);
        let trained = train_cqm_with(
            stale.classifier(),
            &cues,
            &truth,
            &CqmTrainingConfig::fast(),
            &pool,
        )
        .expect("from-scratch retrain");
        let scratch = ServedModel::new(
            stale.classifier().clone(),
            CqmModel {
                version: MODEL_VERSION,
                measure: trained.measure,
                threshold: trained.threshold.value.clamp(0.0, 1.0),
                note: "from-scratch retrain".into(),
            },
        )
        .expect("scratch model");
        let stale_rmse = holdout_rmse(&stale, &holdout).expect("stale rmse");
        let adapted_rmse = holdout_rmse(&promoted, &holdout).expect("adapted rmse");
        let scratch_rmse = holdout_rmse(&scratch, &holdout).expect("scratch rmse");
        println!(
            "    rmse on the shared holdout: stale {stale_rmse:.4}, adapted {adapted_rmse:.4}, \
             from-scratch {scratch_rmse:.4} (bound {RECOVERY_BOUND}x)"
        );

        stop.store(true, Ordering::Relaxed);
        let tallies: Vec<Tally> = traffic
            .into_iter()
            .map(|h| h.join().expect("traffic thread"))
            .collect();
        (
            sup.stats(),
            stationary_false_alarms,
            shifted_samples,
            drift_detected_at,
            drill_attempts,
            drill_failures,
            stale_rmse,
            adapted_rmse,
            scratch_rmse,
            tallies,
        )
    });
    let (
        stats,
        stationary_false_alarms,
        shifted_samples,
        drift_detected_at,
        drill_attempts,
        drill_failures,
        stale_rmse,
        adapted_rmse,
        scratch_rmse,
        tallies,
    ) = scenario;

    println!("[6/6] draining ...");
    let health = server.shutdown().expect("server shutdown");
    std::fs::remove_dir_all(&dir).ok();

    let issued: u64 = tallies.iter().map(|t| t.issued).sum();
    let delivered: u64 = tallies.iter().map(|t| t.delivered).sum();
    let typed_failures: u64 = tallies.iter().map(|t| t.typed_failures).sum();
    let dropped = issued.saturating_sub(delivered + typed_failures);

    let baseline = AdaptBaseline {
        schema: SCHEMA.to_string(),
        smoke,
        available_parallelism: cores,
        seed,
        workers,
        window_capacity: adapt_config.window_capacity,
        holdout_every: adapt_config.holdout_every,
        disk_plan: (&disk).into(),
        stationary_samples: stationary,
        stationary_false_alarms,
        shifted_samples,
        drift_detected_at,
        warn_events: stats.warn_events,
        drift_events: stats.drift_events,
        retrains: stats.retrains,
        promotions: stats.promotions,
        rejections: stats.rejections,
        swap_failures: stats.swap_failures,
        rollback_drill_attempts: drill_attempts,
        rollback_drill_failures: drill_failures,
        server_swaps: health.swaps,
        server_swap_rollbacks: health.swap_rollbacks,
        stale_rmse,
        adapted_rmse,
        scratch_rmse,
        recovery_bound: RECOVERY_BOUND,
        issued,
        delivered,
        typed_failures,
        dropped,
    };

    println!(
        "\nsupervisor: {} observation(s), {} warn / {} drift event(s), \
         {} retrain(s), {} promotion(s), {} rejection(s), {} swap failure(s)",
        stats.observed,
        stats.warn_events,
        stats.drift_events,
        stats.retrains,
        stats.promotions,
        stats.rejections,
        stats.swap_failures
    );
    println!(
        "server: {} swap(s), {} rollback(s); traffic: issued {issued}, delivered {delivered}, \
         typed failures {typed_failures}, dropped {dropped}",
        health.swaps, health.swap_rollbacks
    );

    CLI.finish(&args.out, &baseline, SCHEMA, AdaptBaseline::validate, |b| {
        b.gate()
            .map(|()| {
                format!(
                    "adapt gate: ok (silent stationary phase, drift detected at {}, \
                     {} promotion(s), {} rollback(s), adapted rmse {:.4} within {}x of \
                     from-scratch {:.4}, zero drops)",
                    b.drift_detected_at,
                    b.promotions,
                    b.server_swap_rollbacks,
                    b.adapted_rmse,
                    b.recovery_bound,
                    b.scratch_rmse
                )
            })
            .map_err(|e| format!("drift-recovery gate failed: {e}"))
    })
}
