//! Performance baseline harness behind the `perfbase` binary.
//!
//! Times the three hot paths of the runtime — subtractive clustering, one
//! ANFIS training run and single-sample FIS evaluation — serial and (where
//! pooling applies) on worker pools of 1/2/4/8 threads, and writes the
//! results as `BENCH_PERFBASE.json`.
//!
//! # Baseline schema (`cqm-bench/perfbase/v4`)
//!
//! ```json
//! {
//!   "schema": "cqm-bench/perfbase/v4",
//!   "smoke": false,
//!   "available_parallelism": 8,
//!   "sections": [
//!     {
//!       "name": "clustering",
//!       "workload": "subtractive clustering, n=2000 points, d=3",
//!       "serial_millis": 123.4,
//!       "threaded": [
//!         { "threads": 1, "millis": 124.0 },
//!         { "threads": 2, "millis": 63.1 },
//!         { "threads": 4, "millis": 33.0 },
//!         { "threads": 8, "millis": 30.9 }
//!       ]
//!     }
//!   ]
//! }
//! ```
//!
//! * `schema` — exact constant [`SCHEMA`]; bump on layout changes.
//! * `smoke` — whether the fast CI workload sizes were used.
//! * `available_parallelism` — cores visible to the process when the
//!   numbers were taken; timings from a 1-core container show ≈1.0×
//!   "speedups" by construction and must be read alongside this field.
//! * `sections[*].name` — one of `clustering`, `anfis_epoch`,
//!   `eval_single` (all three required).
//! * `sections[*].serial_millis` — wall-clock milliseconds of the plain
//!   serial API (`cluster`, `train_hybrid`, `eval`).
//! * `sections[*].threaded` — wall-clock milliseconds of the pooled API at
//!   each thread count; `clustering` and `anfis_epoch` carry all of
//!   1/2/4/8, while `eval_single` carries one `threads: 1` entry: the
//!   allocation-free kernel path, a per-core measurement, so its
//!   `serial / t1` ratio is meaningful on any machine, 1-core CI
//!   containers included.
//!
//! Every pooled path is bit-identical to its serial counterpart at any
//! thread count (the property the runtime is built around), so timings on
//! multi-core machines measure the same computation, not a numerically
//! different one.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::harness::check_header;

/// Schema identifier written to and expected in the baseline JSON.
pub const SCHEMA: &str = "cqm-bench/perfbase/v4";

/// Thread counts every multi-threaded section must cover.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Section names that must be present in a valid baseline.
pub const SECTION_NAMES: [&str; 3] = ["clustering", "anfis_epoch", "eval_single"];

/// Sections that carry a single `threads: 1` timing instead of the full
/// 1/2/4/8 ladder (per-core measurements).
pub const SINGLE_THREAD_SECTIONS: [&str; 1] = ["eval_single"];

/// Wall-clock timing of one pooled run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadTiming {
    /// Worker-pool thread count.
    pub threads: usize,
    /// Best-of-reps wall-clock milliseconds.
    pub millis: f64,
}

/// One timed hot path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Section {
    /// Section name (see [`SECTION_NAMES`]).
    pub name: String,
    /// Human-readable workload description (sizes, dimensions).
    pub workload: String,
    /// Best-of-reps wall-clock milliseconds of the serial API.
    pub serial_millis: f64,
    /// Pooled timings per thread count.
    pub threaded: Vec<ThreadTiming>,
}

impl Section {
    /// Pooled milliseconds at `threads`, if that count was measured.
    pub fn millis_at(&self, threads: usize) -> Option<f64> {
        self.threaded
            .iter()
            .find(|t| t.threads == threads)
            .map(|t| t.millis)
    }

    /// `serial / threaded` speedup factor at `threads`.
    pub fn speedup_at(&self, threads: usize) -> Option<f64> {
        self.millis_at(threads).map(|m| self.serial_millis / m)
    }
}

/// The complete baseline document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfBaseline {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// Whether smoke (CI-sized) workloads were used.
    pub smoke: bool,
    /// Cores visible to the process at measurement time.
    pub available_parallelism: usize,
    /// The timed hot paths.
    pub sections: Vec<Section>,
}

impl PerfBaseline {
    /// Look up a section by name.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Validate the document against the schema contract: identifier,
    /// required sections, required thread counts, positive finite timings.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        check_header(&self.schema, SCHEMA, self.available_parallelism)?;
        for name in SECTION_NAMES {
            let section = self
                .section(name)
                .ok_or_else(|| format!("missing section {name:?}"))?;
            if !(section.serial_millis > 0.0 && section.serial_millis.is_finite()) {
                return Err(format!(
                    "section {name:?}: serial_millis {} not positive finite",
                    section.serial_millis
                ));
            }
            if section.workload.is_empty() {
                return Err(format!("section {name:?}: empty workload description"));
            }
            for t in &section.threaded {
                if !(t.millis > 0.0 && t.millis.is_finite()) {
                    return Err(format!(
                        "section {name:?}: threads={} millis {} not positive finite",
                        t.threads, t.millis
                    ));
                }
            }
            let required: &[usize] = if SINGLE_THREAD_SECTIONS.contains(&name) {
                &[1]
            } else {
                &THREAD_COUNTS
            };
            for &threads in required {
                if section.millis_at(threads).is_none() {
                    return Err(format!(
                        "section {name:?}: missing timing for {threads} threads"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The CI performance gate: thread scaling. The pooled clustering path
    /// at 4 threads must not be slower than the serial path. The tolerance
    /// is core-aware — with at least 4 cores the pool must genuinely win
    /// (ratio ≤ 1.0 with a small noise margin); on 2–3 cores only bounded
    /// dispatch overhead is accepted. On a **single core** the gate is
    /// skipped entirely and [`GateOutcome::ThreadGateSkipped`] is returned
    /// so the caller can warn loudly: a 4-thread pool time-slicing one
    /// core measures the scheduler, not the runtime, and a baseline
    /// regenerated there must not silently "pass" thread scaling.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn gate(&self) -> Result<GateOutcome, String> {
        let section = self
            .section("clustering")
            .ok_or_else(|| "missing clustering section".to_string())?;
        let t4 = section
            .millis_at(4)
            .ok_or_else(|| "clustering: no 4-thread timing".to_string())?;
        if self.available_parallelism == 1 {
            return Ok(GateOutcome::ThreadGateSkipped {
                cores: self.available_parallelism,
            });
        }
        let ratio = t4 / section.serial_millis;
        let limit = if self.available_parallelism >= 4 {
            1.05
        } else {
            // On 2-3 cores the 4 threads time-slice one another; allow
            // scheduling overhead but still catch pathological slowdowns.
            1.5
        };
        if ratio > limit {
            return Err(format!(
                "clustering at 4 threads is {ratio:.2}x the serial time \
                 (limit {limit:.2} on {} cores): serial {:.2} ms vs pooled {:.2} ms",
                self.available_parallelism, section.serial_millis, t4
            ));
        }
        Ok(GateOutcome::Passed)
    }
}

/// What [`PerfBaseline::gate`] concluded when no limit was violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateOutcome {
    /// The thread-scaling gate was applied and held.
    Passed,
    /// The thread-scaling gate was skipped because the baseline was taken
    /// on a single core — the caller must surface this loudly, because
    /// 4-thread timings from one core are meaningless.
    ThreadGateSkipped {
        /// Cores visible when the baseline was taken (always 1 today).
        cores: usize,
    },
}

/// Best-of-`reps` wall-clock milliseconds of `f`.
pub fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single(name: &str, serial: f64, t1: f64) -> Section {
        Section {
            name: name.into(),
            workload: "test".into(),
            serial_millis: serial,
            threaded: vec![ThreadTiming {
                threads: 1,
                millis: t1,
            }],
        }
    }

    fn baseline(cores: usize, clustering_t4: f64) -> PerfBaseline {
        let full = |name: &str, t4: f64| Section {
            name: name.into(),
            workload: "test".into(),
            serial_millis: 100.0,
            threaded: THREAD_COUNTS
                .iter()
                .map(|&threads| ThreadTiming {
                    threads,
                    millis: if threads == 4 { t4 } else { 100.0 },
                })
                .collect(),
        };
        PerfBaseline {
            schema: SCHEMA.into(),
            smoke: true,
            available_parallelism: cores,
            sections: vec![
                full("clustering", clustering_t4),
                full("anfis_epoch", 100.0),
                single("eval_single", 1.0, 0.8),
            ],
        }
    }

    #[test]
    fn valid_baseline_passes() {
        let b = baseline(1, 110.0);
        b.validate().unwrap();
        assert!(b.section("clustering").is_some());
        assert!((b.section("eval_single").unwrap().speedup_at(1).unwrap() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_schema_drift() {
        let mut b = baseline(1, 100.0);
        b.schema = "other/v0".into();
        assert!(b.validate().is_err());

        let mut b = baseline(1, 100.0);
        b.sections.retain(|s| s.name != "anfis_epoch");
        assert!(b.validate().unwrap_err().contains("anfis_epoch"));

        let mut b = baseline(1, 100.0);
        b.sections[0].threaded.retain(|t| t.threads != 8);
        assert!(b.validate().unwrap_err().contains("8 threads"));

        let mut b = baseline(1, 100.0);
        b.sections[0].serial_millis = 0.0;
        assert!(b.validate().is_err());
    }

    #[test]
    fn gate_is_core_aware() {
        // 1 core: the thread-scaling half is skipped (and reported as such)
        // no matter how bad the time-sliced 4-thread number looks.
        assert_eq!(
            baseline(1, 145.0).gate().unwrap(),
            GateOutcome::ThreadGateSkipped { cores: 1 }
        );
        assert_eq!(
            baseline(1, 500.0).gate().unwrap(),
            GateOutcome::ThreadGateSkipped { cores: 1 }
        );
        // 2-3 cores: bounded dispatch overhead accepted, not more.
        assert_eq!(baseline(2, 145.0).gate().unwrap(), GateOutcome::Passed);
        assert!(baseline(2, 160.0).gate().is_err());
        // >= 4 cores: the pool must not be slower than serial.
        assert_eq!(baseline(8, 100.0).gate().unwrap(), GateOutcome::Passed);
        assert!(baseline(8, 120.0).gate().is_err());
    }

    #[test]
    fn validation_requires_every_section() {
        for name in SECTION_NAMES {
            let mut b = baseline(1, 100.0);
            b.sections.retain(|s| s.name != name);
            assert!(b.validate().unwrap_err().contains(name), "{name}");
        }
        let mut b = baseline(1, 100.0);
        b.sections[2].threaded.clear();
        assert!(b.validate().unwrap_err().contains("eval_single"));
    }

    #[test]
    fn json_round_trip() {
        let b = baseline(2, 100.0);
        let json = serde_json::to_string_pretty(&b).expect("serialize");
        let back: PerfBaseline = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, b);
        back.validate().unwrap();
    }

    #[test]
    fn time_best_measures_something() {
        let ms = time_best(3, || {
            let mut acc = 0.0f64;
            for i in 0..10_000 {
                acc += (i as f64).sqrt();
            }
            assert!(acc > 0.0);
        });
        assert!(ms > 0.0 && ms.is_finite());
    }
}
