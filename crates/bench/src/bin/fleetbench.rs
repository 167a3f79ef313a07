//! FLEETBENCH — the multi-tenant isolation soak harness (PR 8).
//!
//! Starts an in-process [`cqm_serve::CqmServer`] with a model registry
//! whose LRU (`max_active 4`) is half the tenant count, puts a seeded
//! [`cqm_resilience::ChaosProxy`] in front of it *and* a seeded disk-fault
//! injector under its checkpoint store, drives one retrying client per
//! tenant plus a prober against a deliberately corrupt tenant, performs
//! live hot swaps mid-traffic, and writes the isolation accounting as
//! `BENCH_PR8.json` (schema documented in `cqm_bench::fleetbench`).
//!
//! ```sh
//! cargo run --release -p cqm-bench --bin fleetbench            # full soak
//! cargo run --release -p cqm-bench --bin fleetbench -- --smoke # CI gate
//! cargo run --release -p cqm-bench --bin fleetbench -- --out /tmp/fleet.json
//! cargo run --release -p cqm-bench --bin fleetbench -- --tenants 12 --requests 100
//! cargo run --release -p cqm-bench --bin fleetbench -- --seed 99
//! ```
//!
//! Every delivered answer is checked bit-for-bit against the issuing
//! tenant's own in-process reference — both its boot generation and (for
//! swapped tenants) the post-swap generation. An answer matching another
//! tenant's model but not its own is a **cross-tenant leak**; an answer
//! matching no generation at all is a **mismatch** (half-loaded or stale
//! engine). The gate (`FleetBaseline::gate`, always applied): zero drops,
//! zero leaks, zero mismatches, at least 8 tenants and at least 3 live
//! swaps.

// lint: allow(PANIC_IN_LIB, file) -- perf driver: abort loudly on setup failure instead of degrading

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use cqm_bench::fleetbench::{FleetBaseline, SCHEMA};
use cqm_bench::harness::{percentile_micros, Cli, Flag};
use cqm_bench::soak::{chaos_client, is_typed_failure, tiny_model};
use cqm_core::normalize::Quality;
use cqm_core::pipeline::{CqmSystem, QualifiedClassification};
use cqm_resilience::{ChaosProxy, DiskFaultPlan, NetFaultPlan};
use cqm_serve::{CqmServer, FleetConfig, ModelSource, ServedModel, ServerConfig};

/// Probe cues reused cyclically by every tenant's traffic (same sweep as
/// `chaosbench`): 16 deterministic points over and slightly past the
/// covered range, including the x = 0.5 decision boundary.
const CUE_COUNT: usize = 16;

/// Quality thresholds sitting *between* the quality levels the 16 probe
/// cues produce (0.5, 0.768, 0.917, 0.973, 0.992, 0.997, 0.9989, 0.9994),
/// so each rung accepts a strictly different subset of the cues — eight
/// pairwise bit-distinct decision patterns for leak detection.
const THRESHOLD_LADDER: [f64; 8] = [0.45, 0.60, 0.80, 0.93, 0.98, 0.995, 0.998, 0.999];

/// Tenants that receive a live hot swap mid-traffic.
const SWAP_TENANTS: usize = 4;

/// Ladder offset between a swapped tenant's boot and post-swap
/// generations (two rungs guarantees the decision pattern changes).
const SWAP_SHIFT: usize = 2;

fn probe_cue(i: usize) -> Vec<f64> {
    vec![-0.1 + 1.2 * (i % CUE_COUNT) as f64 / CUE_COUNT as f64]
}

/// A tenant's expected answers: one row of 16 per generation (boot, and
/// post-swap for swapped tenants), computed on an in-process `CqmSystem`.
struct TenantRef {
    key: String,
    gens: Vec<Vec<QualifiedClassification>>,
}

fn reference_answers(model: &ServedModel) -> Vec<QualifiedClassification> {
    let system = CqmSystem::new(
        model.classifier().clone(),
        model.model().measure.clone(),
        model.model().filter().expect("threshold"),
    )
    .expect("reference system");
    (0..CUE_COUNT)
        .map(|i| {
            system
                .classify_with_quality(&probe_cue(i))
                .expect("reference")
        })
        .collect()
}

fn same_answer(a: &QualifiedClassification, b: &QualifiedClassification) -> bool {
    a.class == b.class
        && a.decision == b.decision
        && match (a.quality, b.quality) {
            (Quality::Value(x), Quality::Value(y)) => x.to_bits() == y.to_bits(),
            (x, y) => x == y,
        }
}

/// Per-thread tally of one soak run.
#[derive(Default)]
struct Tally {
    delivered: u64,
    typed_failures: u64,
    mismatched: u64,
    cross_tenant_leaks: u64,
    latencies_micros: Vec<f64>,
}

/// Sort one delivered answer: own tenant's generations first, then every
/// other tenant's (a match there and not at home is a leak), else a
/// mismatch.
fn judge(
    tally: &mut Tally,
    refs: &[TenantRef],
    own: usize,
    cue: usize,
    got: &QualifiedClassification,
) {
    if refs[own].gens.iter().any(|gen| same_answer(got, &gen[cue])) {
        return;
    }
    let foreign = refs
        .iter()
        .enumerate()
        .filter(|(t, _)| *t != own)
        .any(|(_, r)| r.gens.iter().any(|gen| same_answer(got, &gen[cue])));
    if foreign {
        tally.cross_tenant_leaks += 1;
    } else {
        tally.mismatched += 1;
    }
}

/// Drive one tenant's retrying client. Every outcome must be a delivered
/// classification (judged against the references) or a typed error; a
/// panic here fails the run.
fn drive(
    addr: SocketAddr,
    refs: &[TenantRef],
    tenant: usize,
    requests: usize,
    barrier: &Barrier,
) -> Tally {
    let mut client = chaos_client(addr, 0xF1E0 + tenant as u64);
    let mut tally = Tally::default();
    barrier.wait();
    for i in 0..requests {
        let cue_idx = i % CUE_COUNT;
        let start = Instant::now();
        match client.classify_for(Some(&refs[tenant].key), &probe_cue(cue_idx)) {
            Ok(answer) => {
                tally.delivered += 1;
                tally
                    .latencies_micros
                    .push(start.elapsed().as_secs_f64() * 1e6);
                judge(&mut tally, refs, tenant, cue_idx, &answer);
            }
            Err(e) if is_typed_failure(&e) => {
                tally.typed_failures += 1;
                tally
                    .latencies_micros
                    .push(start.elapsed().as_secs_f64() * 1e6);
            }
            Err(other) => panic!("fleet soak produced an untyped failure: {other}"),
        }
    }
    tally
}

/// Probe the deliberately corrupt tenant. Its checkpoint never decodes,
/// so every probe must come back typed (`TenantQuarantined`, or a
/// transport error under chaos) — a delivered answer is judged against
/// the healthy references, where it can only score as a leak or mismatch.
fn probe_sick(addr: SocketAddr, refs: &[TenantRef], probes: u64, barrier: &Barrier) -> Tally {
    let mut client = chaos_client(addr, 0x51C4);
    let mut tally = Tally::default();
    barrier.wait();
    for i in 0..probes as usize {
        let cue_idx = i % CUE_COUNT;
        let start = Instant::now();
        match client.classify_for(Some("sick"), &probe_cue(cue_idx)) {
            Ok(answer) => {
                tally.delivered += 1;
                tally
                    .latencies_micros
                    .push(start.elapsed().as_secs_f64() * 1e6);
                // No healthy generation belongs to "sick": anything
                // delivered is a leak or a half-loaded mismatch.
                let foreign = refs
                    .iter()
                    .any(|r| r.gens.iter().any(|gen| same_answer(&answer, &gen[cue_idx])));
                if foreign {
                    tally.cross_tenant_leaks += 1;
                } else {
                    tally.mismatched += 1;
                }
            }
            Err(e) if is_typed_failure(&e) => {
                tally.typed_failures += 1;
                tally
                    .latencies_micros
                    .push(start.elapsed().as_secs_f64() * 1e6);
            }
            Err(other) => panic!("sick probe produced an untyped failure: {other}"),
        }
    }
    tally
}

fn net_plan(seed: u64) -> NetFaultPlan {
    NetFaultPlan {
        warmup_ops: 6,
        partial_p: 0.08,
        latency_p: 0.02,
        latency: Duration::from_millis(2),
        corrupt_p: 0.01,
        reset_p: 0.005,
        ..NetFaultPlan::clean(seed)
    }
}

fn disk_plan(seed: u64) -> DiskFaultPlan {
    DiskFaultPlan {
        warmup_ops: 6,
        corrupt_p: 0.02,
        torn_p: 0.02,
        delay_p: 0.10,
        delay: Duration::from_millis(1),
        ..DiskFaultPlan::clean(seed.wrapping_add(1))
    }
}

const CLI: Cli = Cli {
    bin: "fleetbench",
    about: "multi-tenant isolation under combined chaos",
    out: "BENCH_PR8.json",
    smoke: "quick CI-sized run (8 tenants x 40 requests)",
    flags: &[
        Flag::count("--tenants", "healthy tenants; the gate needs >= 8", 8, 8),
        Flag::count("--requests", "requests per tenant", 120, 40),
        Flag::seed("--seed", "fault schedule seed", 0xF1EE7),
    ],
    gate: "the isolation gate",
};

fn main() -> ExitCode {
    let args = CLI.args();
    let smoke = args.smoke;
    let tenants = args.number("--tenants") as usize;
    let requests = args.number("--requests") as usize;
    let seed = args.number("--seed");
    let sick_probes = (requests as u64 / 4).max(1);
    let workers = 2usize;
    let max_active = 4usize;
    let net = net_plan(seed);
    let disk = disk_plan(seed);

    let cores = CLI.banner(smoke);
    println!(
        "{tenants} tenant(s) x {requests} request(s) + {sick_probes} sick probe(s), \
         LRU {max_active}, {workers} worker(s), seed {seed}\n"
    );

    println!("[1/5] building {tenants} tenant models and their references ...");
    let swap_count = SWAP_TENANTS.min(tenants);
    let refs: Vec<TenantRef> = (0..tenants)
        .map(|i| {
            let key = format!("t{i}");
            let boot = tiny_model(THRESHOLD_LADDER[i % 8], &key);
            let mut gens = vec![reference_answers(&boot)];
            if i < swap_count {
                let next = tiny_model(THRESHOLD_LADDER[(i + SWAP_SHIFT) % 8], &format!("{key}+"));
                gens.push(reference_answers(&next));
            }
            TenantRef { key, gens }
        })
        .collect();
    for r in refs.iter().take(swap_count) {
        let differs = (0..CUE_COUNT).any(|c| !same_answer(&r.gens[0][c], &r.gens[1][c]));
        assert!(
            differs,
            "swap generations of {} must be bit-distinct",
            r.key
        );
    }

    println!("[2/5] seeding the checkpoint store (one corrupt tenant) ...");
    let dir: PathBuf = std::env::temp_dir().join(format!("cqm_fleetbench_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("store dir");
    {
        let seeder = CqmServer::start(
            ModelSource::Fresh(tiny_model(0.5, "default")),
            ServerConfig {
                fleet: FleetConfig {
                    store_dir: Some(dir.clone()),
                    ..FleetConfig::default()
                },
                ..ServerConfig::default()
            },
        )
        .expect("seed server");
        seeder
            .install_model("sick", tiny_model(0.7, "sick"))
            .expect("install sick");
        seeder.shutdown().expect("seed shutdown");
    }
    let sick_path = dir.join("sick.ckpt");
    let mut bytes = std::fs::read(&sick_path).expect("read sick.ckpt");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&sick_path, &bytes).expect("corrupt sick.ckpt");

    println!("[3/5] starting server, disk-fault injector and chaos proxy ...");
    let server = CqmServer::start(
        ModelSource::Fresh(tiny_model(0.5, "default")),
        ServerConfig {
            workers,
            micro_batch: 4,
            frame_deadline: Some(Duration::from_millis(500)),
            fleet: FleetConfig {
                max_active,
                store_dir: Some(dir.clone()),
                disk_faults: Some(disk),
                probe_cues: (0..4).map(|i| probe_cue(2 + 3 * i)).collect(),
                ..FleetConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    for (i, r) in refs.iter().enumerate() {
        let model = tiny_model(THRESHOLD_LADDER[i % 8], &r.key);
        server.install_model(&r.key, model).expect("install tenant");
    }
    let mut proxy = ChaosProxy::start(server.local_addr(), net).expect("start chaos proxy");
    let addr = proxy.local_addr();
    println!("serving on {} via chaos proxy {addr}", server.local_addr());

    println!("[4/5] soaking with live hot swaps ...");
    let started = Instant::now();
    let barrier = Barrier::new(tenants + 2); // tenants + sick prober + swap driver
    let (tallies, swaps_done) = std::thread::scope(|scope| {
        let refs = &refs;
        let barrier = &barrier;
        let mut handles: Vec<_> = (0..tenants)
            .map(|t| scope.spawn(move || drive(addr, refs, t, requests, barrier)))
            .collect();
        handles.push(scope.spawn(move || probe_sick(addr, refs, sick_probes, barrier)));

        // The swap driver: flip the first SWAP_TENANTS routing slots live,
        // mid-traffic, retrying each swap through transient disk faults
        // (every failed attempt is a recorded rollback, never a dropped or
        // wrong answer).
        barrier.wait();
        std::thread::sleep(Duration::from_millis(20));
        let mut swaps_done = 0u64;
        for (i, r) in refs.iter().enumerate().take(swap_count) {
            let mut landed = false;
            let mut last_err = String::new();
            for _attempt in 0..25 {
                let next = tiny_model(
                    THRESHOLD_LADDER[(i + SWAP_SHIFT) % 8],
                    &format!("{}+", r.key),
                );
                match server.swap_model(&r.key, next) {
                    Ok(_seq) => {
                        swaps_done += 1;
                        landed = true;
                        break;
                    }
                    Err(rolled_back) => {
                        last_err = rolled_back.to_string();
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            }
            if !landed {
                eprintln!("fleetbench: swap of {:?} never landed: {last_err}", r.key);
            }
            std::thread::sleep(Duration::from_millis(10));
        }

        let tallies: Vec<Tally> = handles
            .into_iter()
            .map(|h| h.join().expect("soak thread"))
            .collect();
        (tallies, swaps_done)
    });
    let elapsed = started.elapsed();

    println!("[5/5] draining ...");
    proxy.stop();
    let health = server.shutdown().expect("server shutdown");
    std::fs::remove_dir_all(&dir).ok();

    let issued = (tenants * requests) as u64 + sick_probes;
    let delivered: u64 = tallies.iter().map(|t| t.delivered).sum();
    let typed_failures: u64 = tallies.iter().map(|t| t.typed_failures).sum();
    let dropped = issued.saturating_sub(delivered + typed_failures);
    let mismatched: u64 = tallies.iter().map(|t| t.mismatched).sum();
    let cross_tenant_leaks: u64 = tallies.iter().map(|t| t.cross_tenant_leaks).sum();
    let latencies: Vec<f64> = tallies
        .iter()
        .flat_map(|t| t.latencies_micros.iter().copied())
        .collect();

    let baseline = FleetBaseline {
        schema: SCHEMA.to_string(),
        smoke,
        available_parallelism: cores,
        seed,
        workers,
        max_active,
        tenants: tenants as u64,
        requests_per_tenant: requests,
        sick_probes,
        net_plan: (&net).into(),
        disk_plan: (&disk).into(),
        issued,
        delivered,
        typed_failures,
        dropped,
        mismatched,
        cross_tenant_leaks,
        swaps: health.swaps,
        swap_rollbacks: health.swap_rollbacks,
        warm_loads: health.warm_loads,
        evictions: health.evictions,
        tenants_quarantined: health.tenants_quarantined,
        quarantined_answers: health.quarantined_answers,
        p50_micros: percentile_micros(&latencies, 0.50),
        p99_micros: percentile_micros(&latencies, 0.99),
    };

    println!(
        "\nissued {issued}, delivered {delivered}, typed failures {typed_failures}, dropped {dropped}"
    );
    println!("isolation: {mismatched} mismatched, {cross_tenant_leaks} cross-tenant leak(s)");
    println!(
        "fleet: {} swap(s) done live ({} reported, {} rollback(s)), {} warm load(s), {} eviction(s)",
        swaps_done, health.swaps, health.swap_rollbacks, health.warm_loads, health.evictions
    );
    println!(
        "quarantine: {} tenant(s) at shutdown, {} quarantined answer(s)",
        health.tenants_quarantined, health.quarantined_answers
    );
    println!(
        "latency: p50 {:.1} us, p99 {:.1} us over {:.1} ms wall",
        baseline.p50_micros,
        baseline.p99_micros,
        elapsed.as_secs_f64() * 1e3
    );

    CLI.finish(&args.out, &baseline, SCHEMA, FleetBaseline::validate, |b| {
        b.gate()
            .map(|()| {
                format!(
                    "fleet gate: ok (zero drops, zero leaks, zero mismatches, \
                     {} tenants, {} live swaps)",
                    b.tenants, b.swaps
                )
            })
            .map_err(|e| format!("fleet gate failed: {e}"))
    })
}
