//! CHAOSBENCH — the exactly-once-under-chaos baseline harness (PR 7).
//!
//! Starts an in-process [`cqm_serve::CqmServer`], puts a seeded
//! [`cqm_resilience::ChaosProxy`] in front of it (torn chunks, injected
//! delays, bit flips, connection resets on a replayable schedule), drives
//! it with concurrent retrying clients, and writes the exactly-once
//! accounting as `BENCH_PR7.json` (schema documented in
//! `cqm_bench::chaosbench`).
//!
//! ```sh
//! cargo run --release -p cqm-bench --bin chaosbench            # full soak
//! cargo run --release -p cqm-bench --bin chaosbench -- --smoke # CI gate
//! cargo run --release -p cqm-bench --bin chaosbench -- --out /tmp/chaos.json
//! cargo run --release -p cqm-bench --bin chaosbench -- --clients 8 --requests 100
//! cargo run --release -p cqm-bench --bin chaosbench -- --seed 99
//! ```
//!
//! The gate (`ChaosBaseline::gate`, always applied): every issued request
//! is delivered or fails typed (`lost == 0`), the server never executed a
//! request twice (`duplicated == 0`), and the soak delivered answers.

// lint: allow(PANIC_IN_LIB, file) -- perf driver: abort loudly on setup failure instead of degrading

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use cqm_bench::chaosbench::{ChaosBaseline, SCHEMA};
use cqm_bench::harness::{percentile_micros, Cli, Flag};
use cqm_bench::soak::{chaos_client, is_typed_failure, tiny_model};
use cqm_resilience::{ChaosProxy, DegradationPolicy, NetFaultPlan};
use cqm_serve::{CqmServer, ModelSource, ServerConfig};

/// The measured fault schedule: hostile enough to exercise retries,
/// dedup replays and torn frames, survivable enough that the soak
/// delivers the vast majority of requests.
fn soak_plan(seed: u64) -> NetFaultPlan {
    NetFaultPlan {
        warmup_ops: 6,
        partial_p: 0.12,
        latency_p: 0.02,
        latency: Duration::from_millis(2),
        corrupt_p: 0.015,
        reset_p: 0.008,
        ..NetFaultPlan::clean(seed)
    }
}

/// Per-client tally of one soak run.
#[derive(Default)]
struct Tally {
    delivered: u64,
    typed_failures: u64,
    /// `attempts[i]` = logical calls that took `i + 1` transport attempts.
    attempts: Vec<u64>,
    latencies_micros: Vec<f64>,
}

impl Tally {
    fn bump_attempts(&mut self, attempts: u32) {
        let slot = attempts.max(1) as usize - 1;
        if self.attempts.len() <= slot {
            self.attempts.resize(slot + 1, 0);
        }
        self.attempts[slot] += 1;
    }
}

/// Drive one retrying client through the proxy. Every outcome must be a
/// delivered classification or a typed error; a panic here fails the run.
fn drive(addr: SocketAddr, session: u64, requests: usize, barrier: &Barrier) -> Tally {
    let mut client = chaos_client(addr, session);
    let mut tally = Tally::default();
    barrier.wait();
    for i in 0..requests {
        // Deterministic cues over (and slightly past) the covered range.
        let cue = -0.1 + 1.2 * (i % 16) as f64 / 16.0;
        let start = Instant::now();
        match client.classify(&[cue]) {
            Ok(_answer) => {
                tally.delivered += 1;
                tally
                    .latencies_micros
                    .push(start.elapsed().as_secs_f64() * 1e6);
            }
            Err(e) if is_typed_failure(&e) => {
                tally.typed_failures += 1;
                tally
                    .latencies_micros
                    .push(start.elapsed().as_secs_f64() * 1e6);
            }
            Err(other) => panic!("chaos soak produced an untyped failure: {other}"),
        }
        tally.bump_attempts(client.last_attempts());
    }
    tally
}

const CLI: Cli = Cli {
    bin: "chaosbench",
    about: "exactly-once under network chaos",
    out: "BENCH_PR7.json",
    smoke: "quick CI-sized run (4 clients x 50 requests)",
    flags: &[
        Flag::count("--clients", "concurrent retrying clients", 8, 4),
        Flag::count("--requests", "requests per client", 200, 50),
        Flag::seed("--seed", "chaos schedule seed", 0xCA05),
    ],
    gate: "the exactly-once gate",
};

fn main() -> ExitCode {
    let args = CLI.args();
    let smoke = args.smoke;
    let clients = args.number("--clients") as usize;
    let requests = args.number("--requests") as usize;
    let seed = args.number("--seed");
    let workers = 2usize;
    let plan = soak_plan(seed);

    let cores = CLI.banner(smoke);
    println!(
        "{clients} client(s) x {requests} request(s), {workers} worker(s), chaos seed {seed}\n"
    );

    println!("[1/3] starting server and chaos proxy ...");
    let server = CqmServer::start(
        ModelSource::Fresh(tiny_model(0.5, "chaosbench")),
        ServerConfig {
            workers,
            micro_batch: 4,
            frame_deadline: Some(Duration::from_millis(500)),
            ladder: Some(DegradationPolicy::default()),
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let mut proxy = ChaosProxy::start(server.local_addr(), plan).expect("start chaos proxy");
    let addr = proxy.local_addr();
    println!("serving on {} via chaos proxy {addr}", server.local_addr());

    println!("[2/3] soaking ...");
    let started = Instant::now();
    let barrier = Barrier::new(clients);
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|k| {
                let barrier = &barrier;
                scope.spawn(move || drive(addr, 0xBE7C + k as u64, requests, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("soak client thread"))
            .collect()
    });
    let elapsed = started.elapsed();

    println!("[3/3] draining ...");
    proxy.stop();
    let health = server.shutdown().expect("server shutdown");

    let issued = (clients * requests) as u64;
    let delivered: u64 = tallies.iter().map(|t| t.delivered).sum();
    let typed_failures: u64 = tallies.iter().map(|t| t.typed_failures).sum();
    let lost = issued.saturating_sub(delivered + typed_failures);
    let mut retry_histogram: Vec<u64> = Vec::new();
    for t in &tallies {
        if retry_histogram.len() < t.attempts.len() {
            retry_histogram.resize(t.attempts.len(), 0);
        }
        for (slot, n) in t.attempts.iter().enumerate() {
            retry_histogram[slot] += n;
        }
    }
    let latencies: Vec<f64> = tallies
        .iter()
        .flat_map(|t| t.latencies_micros.iter().copied())
        .collect();

    let baseline = ChaosBaseline {
        schema: SCHEMA.to_string(),
        smoke,
        available_parallelism: cores,
        seed,
        workers,
        clients,
        requests_per_client: requests,
        plan: (&plan).into(),
        issued,
        delivered,
        typed_failures,
        lost,
        duplicated: health.duplicate_executions,
        dedup_hits: health.dedup_hits,
        degraded_served: health.degraded_served,
        retry_histogram,
        p50_micros: percentile_micros(&latencies, 0.50),
        p99_micros: percentile_micros(&latencies, 0.99),
    };

    println!(
        "\nissued {issued}, delivered {delivered}, typed failures {typed_failures}, lost {lost}"
    );
    println!(
        "server: {} executed, {} dedup hits, {} duplicate executions, {} degraded",
        health.rows_classified,
        health.dedup_hits,
        health.duplicate_executions,
        health.degraded_served
    );
    println!(
        "latency: p50 {:.1} us, p99 {:.1} us over {:.1} ms wall",
        baseline.p50_micros,
        baseline.p99_micros,
        elapsed.as_secs_f64() * 1e3
    );
    print!("retry histogram:");
    for (slot, n) in baseline.retry_histogram.iter().enumerate() {
        print!(" {}x{}", slot + 1, n);
    }
    println!();

    CLI.finish(&args.out, &baseline, SCHEMA, ChaosBaseline::validate, |b| {
        b.gate()
            .map(|()| "chaos gate: ok (every request accounted, zero duplicate executions)".into())
            .map_err(|e| format!("chaos gate failed: {e}"))
    })
}
