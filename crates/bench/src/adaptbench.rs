//! Online-adaptation drift-recovery baseline behind the `adaptbench`
//! binary.
//!
//! Drives a live [`cqm_serve::CqmServer`] plus a `cqm_adapt`
//! `AdaptationSupervisor` through a two-phase labeled stream — a seeded
//! stationary phase (the detector must stay silent) followed by a context
//! shift (the detector must confirm, the supervisor must retrain, validate
//! and promote through a live swap) — with client traffic running across
//! every swap and a seeded disk-fault plan under the server's checkpoint
//! store forcing at least one validated-swap rollback. The accounting is
//! recorded as `BENCH_PR10.json`.
//!
//! # `BENCH_PR10.json` schema (`cqm-bench/adaptbase/v1`)
//!
//! ```json
//! {
//!   "schema": "cqm-bench/adaptbase/v1",
//!   "smoke": true,
//!   "available_parallelism": 8,
//!   "seed": 2989,
//!   "workers": 2,
//!   "window_capacity": 240,
//!   "holdout_every": 5,
//!   "disk_plan": { "warmup_ops": 24, "corrupt_p": 0.25, "torn_p": 0.0,
//!                  "delay_p": 0.0, "delay_micros": 0 },
//!   "stationary_samples": 400,
//!   "stationary_false_alarms": 0,
//!   "shifted_samples": 180,
//!   "drift_detected_at": 505,
//!   "warn_events": 1,
//!   "drift_events": 1,
//!   "retrains": 2,
//!   "promotions": 1,
//!   "rejections": 1,
//!   "swap_failures": 1,
//!   "rollback_drill_attempts": 3,
//!   "rollback_drill_failures": 1,
//!   "server_swaps": 3,
//!   "server_swap_rollbacks": 2,
//!   "stale_rmse": 0.62,
//!   "adapted_rmse": 0.21,
//!   "scratch_rmse": 0.19,
//!   "recovery_bound": 1.25,
//!   "issued": 1200,
//!   "delivered": 1200,
//!   "typed_failures": 0,
//!   "dropped": 0
//! }
//! ```
//!
//! * `schema` — exact constant [`SCHEMA`]; bump on layout changes.
//! * `seed` — drives the labeled stream *and* the disk-fault schedule; the
//!   whole scenario replays from it (traffic counters are the only
//!   timing-dependent fields, and the gate constrains only their identity).
//! * `stationary_false_alarms` — drift confirmations during the stationary
//!   phase; the detector's false-positive budget is **zero**.
//! * `drift_detected_at` — supervisor observation index of the first
//!   confirmed drift after the context shift.
//! * `rollback_drill_*` — deliberate swap attempts against the disk-fault
//!   schedule before the adaptation phase; at least one must fail so the
//!   server-side rollback path (`server_swap_rollbacks`) is exercised.
//! * `stale_rmse` / `adapted_rmse` / `scratch_rmse` — quality-vs-rightness
//!   RMSE of the pre-drift model, the promoted candidate and a from-scratch
//!   `train_cqm_with` retrain, all scored on the **same** deterministic
//!   holdout from the post-shift window.
//! * `recovery_bound` — the documented bound: the online-adapted model must
//!   land within `recovery_bound ×` the from-scratch retrain's RMSE.
//! * `issued` / `delivered` / `typed_failures` / `dropped` — client traffic
//!   accounting across every live swap; `dropped` must be zero.

use serde::{Deserialize, Serialize};

use crate::fleetbench::DiskPlanRecord;
use crate::harness::check_header;

/// Schema identifier written to and expected in `BENCH_PR10.json`.
pub const SCHEMA: &str = "cqm-bench/adaptbase/v1";

/// The documented drift-recovery bound: the online-adapted model's holdout
/// RMSE must be within this factor of the from-scratch retrain's.
pub const RECOVERY_BOUND: f64 = 1.25;

/// The complete `BENCH_PR10.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptBaseline {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// Whether smoke (CI-sized) load was used.
    pub smoke: bool,
    /// Cores visible to the process at measurement time.
    pub available_parallelism: usize,
    /// Seed for the labeled stream and the disk-fault schedule.
    pub seed: u64,
    /// Server-side worker threads.
    pub workers: usize,
    /// Supervisor sliding-window capacity.
    pub window_capacity: usize,
    /// Every k-th window position goes to the holdout split.
    pub holdout_every: usize,
    /// Checkpoint-store fault schedule (the swap validation read path).
    pub disk_plan: DiskPlanRecord,
    /// Labeled observations fed during the stationary phase.
    pub stationary_samples: u64,
    /// Drift confirmations during the stationary phase; must be zero.
    pub stationary_false_alarms: u64,
    /// Labeled observations fed after the context shift (up to promotion).
    pub shifted_samples: u64,
    /// Supervisor observation index of the first confirmed drift.
    pub drift_detected_at: u64,
    /// Stable→Warn transitions observed by the supervisor.
    pub warn_events: u64,
    /// Confirmed drift transitions observed by the supervisor.
    pub drift_events: u64,
    /// Retrain attempts triggered by confirmed drift.
    pub retrains: u64,
    /// Candidates promoted through a live swap.
    pub promotions: u64,
    /// Candidates rejected by validation (holdout/round-trip/derivation).
    pub rejections: u64,
    /// Promotions aborted because the server-side swap failed (the server
    /// rolled back to last-good; the supervisor retried on a later step).
    pub swap_failures: u64,
    /// Deliberate same-model swap attempts against the disk-fault schedule.
    pub rollback_drill_attempts: u64,
    /// Drill attempts that failed (each one is a server-side rollback).
    pub rollback_drill_failures: u64,
    /// Server-side swaps that landed (drill + adaptation).
    pub server_swaps: u64,
    /// Server-side swaps that failed validation and rolled back.
    pub server_swap_rollbacks: u64,
    /// Pre-drift model's RMSE on the post-shift holdout.
    pub stale_rmse: f64,
    /// Promoted (online-adapted) model's RMSE on the same holdout.
    pub adapted_rmse: f64,
    /// From-scratch `train_cqm_with` retrain's RMSE on the same holdout.
    pub scratch_rmse: f64,
    /// The documented recovery bound ([`RECOVERY_BOUND`]).
    pub recovery_bound: f64,
    /// Client requests issued while the scenario (and its swaps) ran.
    pub issued: u64,
    /// Requests answered with a classification.
    pub delivered: u64,
    /// Requests that failed with a typed error (never a panic or hang).
    pub typed_failures: u64,
    /// Requests neither delivered nor typed-failed; must be zero.
    pub dropped: u64,
}

impl AdaptBaseline {
    /// Validate the document against the schema contract: identifier, plan
    /// probabilities, internally consistent counters, and finite
    /// non-negative RMSE fields.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        check_header(&self.schema, SCHEMA, self.available_parallelism)?;
        if self.workers == 0 {
            return Err("workers must be >= 1".into());
        }
        if self.window_capacity == 0 {
            return Err("window_capacity must be >= 1".into());
        }
        if self.holdout_every < 2 {
            return Err(format!("holdout_every {} must be >= 2", self.holdout_every));
        }
        for (name, p) in [
            ("disk_plan.corrupt_p", self.disk_plan.corrupt_p),
            ("disk_plan.torn_p", self.disk_plan.torn_p),
            ("disk_plan.delay_p", self.disk_plan.delay_p),
        ] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} {p} is not a probability in [0, 1]"));
            }
        }
        if self.stationary_samples == 0 {
            return Err("stationary_samples must be >= 1".into());
        }
        for (field, value) in [
            ("stale_rmse", self.stale_rmse),
            ("adapted_rmse", self.adapted_rmse),
            ("scratch_rmse", self.scratch_rmse),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(format!("{field} {value} not finite and non-negative"));
            }
        }
        if !(self.recovery_bound.is_finite() && self.recovery_bound >= 1.0) {
            return Err(format!(
                "recovery_bound {} must be finite and >= 1",
                self.recovery_bound
            ));
        }
        if self.promotions > self.retrains {
            return Err(format!(
                "promotions {} exceed retrains {}",
                self.promotions, self.retrains
            ));
        }
        if self.rollback_drill_failures > self.rollback_drill_attempts {
            return Err(format!(
                "rollback_drill_failures {} exceed attempts {}",
                self.rollback_drill_failures, self.rollback_drill_attempts
            ));
        }
        let accounted = self.delivered + self.typed_failures + self.dropped;
        if accounted != self.issued {
            return Err(format!(
                "delivered {} + typed_failures {} + dropped {} != issued {}",
                self.delivered, self.typed_failures, self.dropped, self.issued
            ));
        }
        Ok(())
    }

    /// The CI gate — drift recovery with zero collateral damage:
    ///
    /// * the stationary phase raised no false alarm
    ///   (`stationary_false_alarms == 0`);
    /// * the context shift was detected (`drift_events >= 1`) and a
    ///   validated candidate was promoted through a live swap
    ///   (`promotions >= 1`);
    /// * the seeded disk-fault drill exercised the server-side rollback
    ///   path (`server_swap_rollbacks >= 1`);
    /// * the adapted model recovered: better than the stale model on the
    ///   post-shift holdout, and within [`RECOVERY_BOUND`] of the
    ///   from-scratch retrain;
    /// * client traffic ran across every swap with zero dropped requests
    ///   (`dropped == 0`, `delivered > 0`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violation.
    pub fn gate(&self) -> Result<(), String> {
        if self.stationary_false_alarms != 0 {
            return Err(format!(
                "{} false drift alarm(s) on stationary traffic",
                self.stationary_false_alarms
            ));
        }
        if self.drift_events == 0 {
            return Err("the context shift was never detected".into());
        }
        if self.promotions == 0 {
            return Err("no validated candidate was promoted".into());
        }
        if self.server_swap_rollbacks == 0 {
            return Err("the swap rollback path was never exercised".into());
        }
        if self.adapted_rmse >= self.stale_rmse {
            return Err(format!(
                "adapted rmse {} did not improve on stale rmse {}",
                self.adapted_rmse, self.stale_rmse
            ));
        }
        let ceiling = self.scratch_rmse * self.recovery_bound;
        if self.adapted_rmse > ceiling {
            return Err(format!(
                "adapted rmse {} above {} (from-scratch {} x bound {})",
                self.adapted_rmse, ceiling, self.scratch_rmse, self.recovery_bound
            ));
        }
        if self.dropped != 0 {
            return Err(format!("{} request(s) went unaccounted", self.dropped));
        }
        if self.delivered == 0 {
            return Err("no request was delivered across the swaps".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> AdaptBaseline {
        AdaptBaseline {
            schema: SCHEMA.into(),
            smoke: true,
            available_parallelism: 4,
            seed: 0xADA7,
            workers: 2,
            window_capacity: 240,
            holdout_every: 5,
            disk_plan: DiskPlanRecord {
                warmup_ops: 24,
                corrupt_p: 0.25,
                torn_p: 0.0,
                delay_p: 0.0,
                delay_micros: 0,
            },
            stationary_samples: 400,
            stationary_false_alarms: 0,
            shifted_samples: 180,
            drift_detected_at: 505,
            warn_events: 1,
            drift_events: 1,
            retrains: 2,
            promotions: 1,
            rejections: 1,
            swap_failures: 1,
            rollback_drill_attempts: 3,
            rollback_drill_failures: 1,
            server_swaps: 3,
            server_swap_rollbacks: 2,
            stale_rmse: 0.62,
            adapted_rmse: 0.21,
            scratch_rmse: 0.19,
            recovery_bound: RECOVERY_BOUND,
            issued: 1200,
            delivered: 1200,
            typed_failures: 0,
            dropped: 0,
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
        b.holdout_every = 1;
        assert!(b.validate().unwrap_err().contains("holdout_every"));

        let mut b = baseline();
        b.disk_plan.corrupt_p = 1.5;
        assert!(b.validate().unwrap_err().contains("corrupt_p"));

        let mut b = baseline();
        b.adapted_rmse = f64::NAN;
        assert!(b.validate().unwrap_err().contains("adapted_rmse"));

        let mut b = baseline();
        b.recovery_bound = 0.5;
        assert!(b.validate().unwrap_err().contains("recovery_bound"));

        let mut b = baseline();
        b.promotions = b.retrains + 1;
        assert!(b.validate().unwrap_err().contains("promotions"));

        let mut b = baseline();
        b.delivered = 100; // 100 + 0 + 0 != 1200
        assert!(b.validate().unwrap_err().contains("delivered"));
    }

    #[test]
    fn gate_enforces_recovery_silence_and_zero_drop() {
        let mut b = baseline();
        b.stationary_false_alarms = 1;
        assert!(b.gate().unwrap_err().contains("false drift alarm"));

        let mut b = baseline();
        b.drift_events = 0;
        assert!(b.gate().unwrap_err().contains("never detected"));

        let mut b = baseline();
        b.promotions = 0;
        assert!(b.gate().unwrap_err().contains("promoted"));

        let mut b = baseline();
        b.server_swap_rollbacks = 0;
        assert!(b.gate().unwrap_err().contains("rollback"));

        let mut b = baseline();
        b.adapted_rmse = b.stale_rmse + 0.1;
        assert!(b.gate().unwrap_err().contains("did not improve"));

        let mut b = baseline();
        b.adapted_rmse = b.scratch_rmse * RECOVERY_BOUND + 0.1;
        b.stale_rmse = 2.0;
        assert!(b.gate().unwrap_err().contains("bound"));

        let mut b = baseline();
        b.dropped = 1;
        b.delivered -= 1;
        assert!(b.gate().unwrap_err().contains("unaccounted"));

        let mut b = baseline();
        b.delivered = 0;
        b.typed_failures = b.issued;
        assert!(b.gate().unwrap_err().contains("delivered"));
    }

    #[test]
    fn json_round_trip() {
        let b = baseline();
        let json = serde_json::to_string_pretty(&b).expect("serialize");
        let back: AdaptBaseline = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, b);
        back.validate().unwrap();
    }
}
