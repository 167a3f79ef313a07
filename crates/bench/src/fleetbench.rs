//! Multi-tenant fleet soak baseline behind the `fleetbench` binary.
//!
//! Drives a live [`cqm_serve::CqmServer`] fleet — many tenants behind one
//! `ModelRegistry` with an LRU smaller than the tenant count — through a
//! seeded `cqm_resilience::ChaosProxy` *and* a seeded checkpoint-store
//! disk-fault injector, performs live hot swaps mid-traffic, and records
//! the isolation accounting as `BENCH_PR8.json`.
//!
//! # `BENCH_PR8.json` schema (`cqm-bench/fleetbase/v1`)
//!
//! ```json
//! {
//!   "schema": "cqm-bench/fleetbase/v1",
//!   "smoke": true,
//!   "available_parallelism": 8,
//!   "seed": 51966,
//!   "workers": 2,
//!   "max_active": 4,
//!   "tenants": 8,
//!   "requests_per_tenant": 40,
//!   "sick_probes": 10,
//!   "net_plan": { "warmup_ops": 6, "partial_p": 0.08, "latency_p": 0.02,
//!                 "latency_micros": 2000, "corrupt_p": 0.01, "reset_p": 0.005 },
//!   "disk_plan": { "warmup_ops": 6, "corrupt_p": 0.02, "torn_p": 0.02,
//!                  "delay_p": 0.1, "delay_micros": 1000 },
//!   "issued": 330,
//!   "delivered": 318,
//!   "typed_failures": 12,
//!   "dropped": 0,
//!   "mismatched": 0,
//!   "cross_tenant_leaks": 0,
//!   "swaps": 4,
//!   "swap_rollbacks": 1,
//!   "warm_loads": 37,
//!   "evictions": 33,
//!   "tenants_quarantined": 1,
//!   "quarantined_answers": 10,
//!   "p50_micros": 410.0,
//!   "p99_micros": 5200.0
//! }
//! ```
//!
//! * `schema` — exact constant [`SCHEMA`]; bump on layout changes.
//! * `seed` — drives both fault schedules (network and disk); the whole
//!   soak replays from it.
//! * `issued` / `delivered` / `typed_failures` / `dropped` — the
//!   accounting identity: every issued request is either delivered (a
//!   classification, possibly after retries) or failed with a *typed*
//!   error; `dropped` is the remainder and must be zero.
//! * `mismatched` — delivered answers that bit-match **no** generation of
//!   their own tenant's model (half-loaded or stale-engine answers).
//! * `cross_tenant_leaks` — delivered answers that bit-match a *different*
//!   tenant's model but not their own: the bulkhead-isolation failure the
//!   gate exists to catch.
//! * `swaps` / `swap_rollbacks` — server-side counters; the gate requires
//!   at least three swaps to have flipped live routing slots mid-traffic.
//! * `warm_loads` / `evictions` — LRU churn; with `max_active` below the
//!   tenant count these are the proof that answers survived eviction and
//!   reload under disk faults.
//! * `tenants_quarantined` / `quarantined_answers` — the sick tenant
//!   (corrupt checkpoint seeded on disk) plus any transient disk-fault
//!   quarantines; quarantine is per-tenant by construction.

use cqm_resilience::DiskFaultPlan;
use serde::{Deserialize, Serialize};

use crate::chaosbench::ChaosPlanRecord;
use crate::harness::{check_header, check_percentiles};

/// Schema identifier written to and expected in `BENCH_PR8.json`.
pub const SCHEMA: &str = "cqm-bench/fleetbase/v1";

/// The checkpoint-store disk-fault knobs, mirrored into the document so a
/// baseline is self-describing (as written into the `DiskFaultPlan`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiskPlanRecord {
    /// Fault-free reads at the start of the schedule.
    pub warmup_ops: u64,
    /// Per-read probability of a flipped bit in the returned bytes.
    pub corrupt_p: f64,
    /// Per-read probability of a truncated (torn) read.
    pub torn_p: f64,
    /// Per-read probability of an injected delay.
    pub delay_p: f64,
    /// Injected delay in microseconds when it fires.
    pub delay_micros: u64,
}

impl From<&DiskFaultPlan> for DiskPlanRecord {
    fn from(plan: &DiskFaultPlan) -> Self {
        DiskPlanRecord {
            warmup_ops: plan.warmup_ops,
            corrupt_p: plan.corrupt_p,
            torn_p: plan.torn_p,
            delay_p: plan.delay_p,
            delay_micros: plan.delay.as_micros() as u64,
        }
    }
}

/// The complete `BENCH_PR8.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetBaseline {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// Whether smoke (CI-sized) load was used.
    pub smoke: bool,
    /// Cores visible to the process at measurement time.
    pub available_parallelism: usize,
    /// Seed for both fault schedules.
    pub seed: u64,
    /// Server-side worker threads.
    pub workers: usize,
    /// Registry LRU capacity (kept below `tenants` to force churn).
    pub max_active: usize,
    /// Healthy tenants driven with traffic (the sick tenant is extra).
    pub tenants: u64,
    /// Logical requests issued per healthy tenant.
    pub requests_per_tenant: usize,
    /// Probes sent to the deliberately corrupt tenant.
    pub sick_probes: u64,
    /// Network fault schedule (the `ChaosProxy` in front of the server).
    pub net_plan: ChaosPlanRecord,
    /// Checkpoint-store fault schedule (the registry's read path).
    pub disk_plan: DiskPlanRecord,
    /// Logical requests issued (`tenants * requests_per_tenant + sick_probes`).
    pub issued: u64,
    /// Requests answered with a classification (after retries).
    pub delivered: u64,
    /// Requests that failed with a typed error (never a panic or hang).
    pub typed_failures: u64,
    /// Requests neither delivered nor typed-failed; must be zero.
    pub dropped: u64,
    /// Delivered answers bit-matching no generation of their own tenant.
    pub mismatched: u64,
    /// Delivered answers bit-matching a different tenant's model only.
    pub cross_tenant_leaks: u64,
    /// Hot swaps that flipped a live routing slot mid-traffic.
    pub swaps: u64,
    /// Swaps that failed validation and rolled back to last-good.
    pub swap_rollbacks: u64,
    /// Models loaded from the checkpoint store (cold → active).
    pub warm_loads: u64,
    /// Active models evicted back to their checkpoints by the LRU.
    pub evictions: u64,
    /// Tenants quarantined at shutdown.
    pub tenants_quarantined: u64,
    /// Requests answered with a typed `TenantQuarantined`.
    pub quarantined_answers: u64,
    /// Median round-trip latency per logical call, microseconds.
    pub p50_micros: f64,
    /// 99th-percentile round-trip latency per logical call, microseconds.
    pub p99_micros: f64,
}

impl FleetBaseline {
    /// Validate the document against the schema contract: identifier,
    /// plan probabilities, internally consistent counters, and positive
    /// finite ordered percentiles.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        check_header(&self.schema, SCHEMA, self.available_parallelism)?;
        if self.workers == 0 || self.max_active == 0 {
            return Err("workers and max_active must be >= 1".into());
        }
        if self.tenants == 0 || self.requests_per_tenant == 0 {
            return Err("tenants and requests_per_tenant must be >= 1".into());
        }
        for (name, p) in [
            ("net_plan.partial_p", self.net_plan.partial_p),
            ("net_plan.latency_p", self.net_plan.latency_p),
            ("net_plan.corrupt_p", self.net_plan.corrupt_p),
            ("net_plan.reset_p", self.net_plan.reset_p),
            ("disk_plan.corrupt_p", self.disk_plan.corrupt_p),
            ("disk_plan.torn_p", self.disk_plan.torn_p),
            ("disk_plan.delay_p", self.disk_plan.delay_p),
        ] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} {p} is not a probability in [0, 1]"));
            }
        }
        let expected = self.tenants * self.requests_per_tenant as u64 + self.sick_probes;
        if self.issued != expected {
            return Err(format!(
                "issued {} != tenants {} * requests_per_tenant {} + sick_probes {}",
                self.issued, self.tenants, self.requests_per_tenant, self.sick_probes
            ));
        }
        let accounted = self.delivered + self.typed_failures + self.dropped;
        if accounted != self.issued {
            return Err(format!(
                "delivered {} + typed_failures {} + dropped {} != issued {}",
                self.delivered, self.typed_failures, self.dropped, self.issued
            ));
        }
        if self.mismatched + self.cross_tenant_leaks > self.delivered {
            return Err(format!(
                "mismatched {} + cross_tenant_leaks {} exceed delivered {}",
                self.mismatched, self.cross_tenant_leaks, self.delivered
            ));
        }
        check_percentiles(self.p50_micros, self.p99_micros)
    }

    /// The CI gate — bulkhead isolation and zero-drop hot swap under
    /// combined network and disk chaos:
    ///
    /// * every issued request is accounted for (`dropped == 0`);
    /// * no answer crossed a tenant boundary (`cross_tenant_leaks == 0`);
    /// * no answer came from a half-loaded or stale engine
    ///   (`mismatched == 0`);
    /// * the soak was a real fleet (`tenants >= 8`) with real churn
    ///   (`swaps >= 3` live mid-traffic swaps);
    /// * the soak actually delivered answers (`delivered > 0`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violation.
    pub fn gate(&self) -> Result<(), String> {
        if self.dropped != 0 {
            return Err(format!("{} request(s) went unaccounted", self.dropped));
        }
        if self.cross_tenant_leaks != 0 {
            return Err(format!(
                "{} answer(s) leaked across a tenant boundary",
                self.cross_tenant_leaks
            ));
        }
        if self.mismatched != 0 {
            return Err(format!(
                "{} answer(s) matched no generation of their own tenant",
                self.mismatched
            ));
        }
        if self.tenants < 8 {
            return Err(format!(
                "fleet too small: {} tenant(s), need >= 8",
                self.tenants
            ));
        }
        if self.swaps < 3 {
            return Err(format!("only {} live swap(s), need >= 3", self.swaps));
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

    fn baseline() -> FleetBaseline {
        FleetBaseline {
            schema: SCHEMA.into(),
            smoke: true,
            available_parallelism: 4,
            seed: 0xF1EE7,
            workers: 2,
            max_active: 4,
            tenants: 8,
            requests_per_tenant: 40,
            sick_probes: 10,
            net_plan: ChaosPlanRecord {
                warmup_ops: 6,
                partial_p: 0.08,
                latency_p: 0.02,
                latency_micros: 2000,
                corrupt_p: 0.01,
                reset_p: 0.005,
            },
            disk_plan: DiskPlanRecord {
                warmup_ops: 6,
                corrupt_p: 0.02,
                torn_p: 0.02,
                delay_p: 0.1,
                delay_micros: 1000,
            },
            issued: 330,
            delivered: 318,
            typed_failures: 12,
            dropped: 0,
            mismatched: 0,
            cross_tenant_leaks: 0,
            swaps: 4,
            swap_rollbacks: 1,
            warm_loads: 37,
            evictions: 33,
            tenants_quarantined: 1,
            quarantined_answers: 10,
            p50_micros: 410.0,
            p99_micros: 5200.0,
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
        b.issued = 999;
        assert!(b.validate().unwrap_err().contains("issued"));

        let mut b = baseline();
        b.delivered = 100; // 100 + 12 + 0 != 330
        assert!(b.validate().unwrap_err().contains("delivered"));

        let mut b = baseline();
        b.mismatched = 400; // exceeds delivered
        assert!(b.validate().unwrap_err().contains("exceed"));

        let mut b = baseline();
        b.disk_plan.torn_p = -0.1;
        assert!(b.validate().unwrap_err().contains("torn_p"));

        let mut b = baseline();
        b.p50_micros = 10_000.0; // above p99
        assert!(b.validate().unwrap_err().contains("percentiles"));
    }

    #[test]
    fn gate_enforces_isolation_and_swap_liveness() {
        let mut b = baseline();
        b.dropped = 1;
        assert!(b.gate().unwrap_err().contains("unaccounted"));

        let mut b = baseline();
        b.cross_tenant_leaks = 1;
        assert!(b.gate().unwrap_err().contains("leaked"));

        let mut b = baseline();
        b.mismatched = 2;
        assert!(b.gate().unwrap_err().contains("generation"));

        let mut b = baseline();
        b.tenants = 4;
        assert!(b.gate().unwrap_err().contains("fleet too small"));

        let mut b = baseline();
        b.swaps = 2;
        assert!(b.gate().unwrap_err().contains("swap"));

        let mut b = baseline();
        b.delivered = 0;
        b.typed_failures = 330;
        b.mismatched = 0;
        b.cross_tenant_leaks = 0;
        assert!(b.gate().unwrap_err().contains("delivered"));
    }

    #[test]
    fn json_round_trip() {
        let b = baseline();
        let json = serde_json::to_string_pretty(&b).expect("serialize");
        let back: FleetBaseline = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, b);
        back.validate().unwrap();
    }
}
