//! Chaos soak baseline behind the `chaosbench` binary.
//!
//! Drives a live [`cqm_serve::CqmServer`] through a seeded
//! `cqm_resilience::ChaosProxy` (torn chunks, delays, bit flips,
//! connection resets on a replayable schedule) with retrying clients and
//! records the exactly-once accounting as `BENCH_PR7.json`.
//!
//! # `BENCH_PR7.json` schema (`cqm-bench/chaosbase/v1`)
//!
//! ```json
//! {
//!   "schema": "cqm-bench/chaosbase/v1",
//!   "smoke": true,
//!   "available_parallelism": 8,
//!   "seed": 51966,
//!   "workers": 2,
//!   "clients": 6,
//!   "requests_per_client": 80,
//!   "plan": { "warmup_ops": 6, "partial_p": 0.12, "latency_p": 0.02,
//!             "latency_micros": 2000, "corrupt_p": 0.015, "reset_p": 0.008 },
//!   "issued": 480,
//!   "delivered": 472,
//!   "typed_failures": 8,
//!   "lost": 0,
//!   "duplicated": 0,
//!   "dedup_hits": 10,
//!   "degraded_served": 0,
//!   "retry_histogram": [463, 7, 2],
//!   "p50_micros": 310.0,
//!   "p99_micros": 4800.0
//! }
//! ```
//!
//! * `schema` — exact constant [`SCHEMA`]; bump on layout changes.
//! * `seed` — the chaos plan seed; the whole fault schedule replays from
//!   it (same seed, same workload → same schedule).
//! * `issued` / `delivered` / `typed_failures` / `lost` — the accounting
//!   identity: every issued request is either delivered (a classification,
//!   possibly after retries) or failed with a *typed* error; `lost` is the
//!   remainder and must be zero.
//! * `duplicated` — server-side `duplicate_executions`; the exactly-once
//!   invariant is precisely "this stays 0 under retries".
//! * `dedup_hits` — retried requests answered from the dedup window
//!   instead of being re-executed.
//! * `retry_histogram[i]` — delivered or typed-failed requests whose call
//!   took `i + 1` transport attempts.
//! * `p50_micros` / `p99_micros` — full round-trip latency per logical
//!   call as seen by the client, retries and backoff included.

use cqm_resilience::NetFaultPlan;
use serde::{Deserialize, Serialize};

use crate::harness::{check_header, check_percentiles};

/// Schema identifier written to and expected in `BENCH_PR7.json`.
pub const SCHEMA: &str = "cqm-bench/chaosbase/v1";

/// The chaos plan knobs, mirrored into the document so a baseline is
/// self-describing (probabilities as written into the `NetFaultPlan`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosPlanRecord {
    /// Fault-free operations at the start of every stream.
    pub warmup_ops: u64,
    /// Per-operation probability of a short read/write.
    pub partial_p: f64,
    /// Per-operation probability of an injected delay.
    pub latency_p: f64,
    /// Injected delay in microseconds when latency fires.
    pub latency_micros: u64,
    /// Per-operation probability of a flipped bit.
    pub corrupt_p: f64,
    /// Per-operation probability of a connection reset.
    pub reset_p: f64,
}

impl From<&NetFaultPlan> for ChaosPlanRecord {
    fn from(plan: &NetFaultPlan) -> Self {
        ChaosPlanRecord {
            warmup_ops: plan.warmup_ops,
            partial_p: plan.partial_p,
            latency_p: plan.latency_p,
            latency_micros: plan.latency.as_micros() as u64,
            corrupt_p: plan.corrupt_p,
            reset_p: plan.reset_p,
        }
    }
}

/// The complete `BENCH_PR7.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosBaseline {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// Whether smoke (CI-sized) load was used.
    pub smoke: bool,
    /// Cores visible to the process at measurement time.
    pub available_parallelism: usize,
    /// Chaos plan seed; the fault schedule is a pure function of it.
    pub seed: u64,
    /// Server-side worker threads.
    pub workers: usize,
    /// Concurrent retrying clients.
    pub clients: usize,
    /// Logical requests issued per client.
    pub requests_per_client: usize,
    /// The fault schedule parameters.
    pub plan: ChaosPlanRecord,
    /// Logical requests issued (`clients * requests_per_client`).
    pub issued: u64,
    /// Requests answered with a classification (after retries).
    pub delivered: u64,
    /// Requests that failed with a typed error (never a panic or hang).
    pub typed_failures: u64,
    /// Requests neither delivered nor typed-failed; must be zero.
    pub lost: u64,
    /// Server-side duplicate executions; must be zero (exactly-once).
    pub duplicated: u64,
    /// Retried requests answered from the dedup window.
    pub dedup_hits: u64,
    /// Failsafe last-good answers served (degraded, typed as such).
    pub degraded_served: u64,
    /// `retry_histogram[i]` = logical calls that took `i + 1` attempts.
    pub retry_histogram: Vec<u64>,
    /// Median round-trip latency per logical call, microseconds.
    pub p50_micros: f64,
    /// 99th-percentile round-trip latency per logical call, microseconds.
    pub p99_micros: f64,
}

impl ChaosBaseline {
    /// Validate the document against the schema contract: identifier,
    /// plan probabilities, internally consistent counters, positive
    /// finite ordered percentiles, and a histogram that sums to the
    /// accounted requests.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        check_header(&self.schema, SCHEMA, self.available_parallelism)?;
        if self.workers == 0 || self.clients == 0 || self.requests_per_client == 0 {
            return Err("workers, clients and requests_per_client must be >= 1".into());
        }
        for (name, p) in [
            ("partial_p", self.plan.partial_p),
            ("latency_p", self.plan.latency_p),
            ("corrupt_p", self.plan.corrupt_p),
            ("reset_p", self.plan.reset_p),
        ] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(format!("plan.{name} {p} is not a probability in [0, 1]"));
            }
        }
        if self.issued != (self.clients * self.requests_per_client) as u64 {
            return Err(format!(
                "issued {} != clients {} * requests_per_client {}",
                self.issued, self.clients, self.requests_per_client
            ));
        }
        let accounted = self.delivered + self.typed_failures + self.lost;
        if accounted != self.issued {
            return Err(format!(
                "delivered {} + typed_failures {} + lost {} != issued {}",
                self.delivered, self.typed_failures, self.lost, self.issued
            ));
        }
        let histogram: u64 = self.retry_histogram.iter().sum();
        if histogram != self.delivered + self.typed_failures {
            return Err(format!(
                "retry histogram sums to {histogram}, expected delivered + typed_failures = {}",
                self.delivered + self.typed_failures
            ));
        }
        check_percentiles(self.p50_micros, self.p99_micros)
    }

    /// The CI gate — the exactly-once contract under chaos:
    ///
    /// * every issued request is accounted for (`lost == 0`);
    /// * nothing was executed twice (`duplicated == 0`);
    /// * the soak actually delivered answers (`delivered > 0`).
    ///
    /// No delivery-rate floor beyond "some": the plan decides how hostile
    /// the network is; the invariant is accounting, not availability.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violation.
    pub fn gate(&self) -> Result<(), String> {
        if self.lost != 0 {
            return Err(format!("{} request(s) went unaccounted", self.lost));
        }
        if self.duplicated != 0 {
            return Err(format!(
                "{} duplicate execution(s): the exactly-once invariant is broken",
                self.duplicated
            ));
        }
        if self.delivered == 0 {
            return Err("no request was delivered through the chaos".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> ChaosBaseline {
        ChaosBaseline {
            schema: SCHEMA.into(),
            smoke: true,
            available_parallelism: 4,
            seed: 0xCAFE,
            workers: 2,
            clients: 4,
            requests_per_client: 32,
            plan: ChaosPlanRecord {
                warmup_ops: 6,
                partial_p: 0.12,
                latency_p: 0.02,
                latency_micros: 2000,
                corrupt_p: 0.015,
                reset_p: 0.008,
            },
            issued: 128,
            delivered: 125,
            typed_failures: 3,
            lost: 0,
            duplicated: 0,
            dedup_hits: 5,
            degraded_served: 0,
            retry_histogram: vec![120, 6, 2],
            p50_micros: 400.0,
            p99_micros: 9000.0,
        }
    }

    #[test]
    fn valid_baseline_passes_validate_and_gate() {
        let b = baseline();
        b.validate().unwrap();
        b.gate().unwrap();
    }

    #[test]
    fn validation_catches_schema_and_accounting_drift() {
        let mut b = baseline();
        b.schema = "other/v0".into();
        assert!(b.validate().is_err());

        let mut b = baseline();
        b.delivered = 120; // 120 + 3 + 0 != 128
        assert!(b.validate().unwrap_err().contains("issued"));

        let mut b = baseline();
        b.retry_histogram = vec![100];
        assert!(b.validate().unwrap_err().contains("histogram"));

        let mut b = baseline();
        b.plan.reset_p = 1.5;
        assert!(b.validate().unwrap_err().contains("reset_p"));

        let mut b = baseline();
        b.p50_micros = 10_000.0; // above p99
        assert!(b.validate().unwrap_err().contains("percentiles"));
    }

    #[test]
    fn gate_enforces_the_exactly_once_contract() {
        let mut b = baseline();
        b.lost = 1;
        b.delivered = 124; // keep validate-style accounting coherent
        assert!(b.gate().unwrap_err().contains("unaccounted"));

        let mut b = baseline();
        b.duplicated = 2;
        assert!(b.gate().unwrap_err().contains("exactly-once"));

        let mut b = baseline();
        b.delivered = 0;
        b.typed_failures = 128;
        assert!(b.gate().unwrap_err().contains("delivered"));
    }

    #[test]
    fn json_round_trip() {
        let b = baseline();
        let json = serde_json::to_string_pretty(&b).expect("serialize");
        let back: ChaosBaseline = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, b);
        back.validate().unwrap();
    }
}
