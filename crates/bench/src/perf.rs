//! Performance baseline harness behind the `perfbase` binary.
//!
//! Times the three hot paths of the runtime — subtractive clustering, one
//! ANFIS training run and single-sample FIS evaluation — and writes the
//! results as `BENCH_PERFBASE.json`. ANFIS training is also timed on worker
//! pools of 1/2/4/8 threads.
//!
//! # Baseline schema (`cqm-bench/perfbase/v5`)
//!
//! ```json
//! {
//!   "schema": "cqm-bench/perfbase/v5",
//!   "smoke": false,
//!   "available_parallelism": 8,
//!   "sections": [
//!     {
//!       "name": "anfis_epoch",
//!       "workload": "hybrid training, n=600 samples, dim=2, 3 epochs",
//!       "serial_millis": 12.4,
//!       "threaded": [
//!         { "threads": 1, "millis": 12.5 },
//!         { "threads": 2, "millis": 7.1 },
//!         { "threads": 4, "millis": 4.3 },
//!         { "threads": 8, "millis": 4.0 }
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
//! * `sections[*].threaded` — the timings [`required_threads`] names:
//!   none for `clustering`, which has no pooled path; the pooled API at
//!   each of 1/2/4/8 threads for `anfis_epoch`; one `threads: 1` entry for
//!   `eval_single`, the allocation-free kernel path, a per-core
//!   measurement, so its `serial / t1` ratio is meaningful on any machine,
//!   1-core CI containers included.
//!
//! The document is a record, not a gate: [`PerfBaseline::validate`] checks
//! its shape and nothing compares the timings. Thread scaling on a shared
//! host moves more from run to run than any bound a gate could hold: two
//! runs of the same commit on one 2-core host read clustering's
//! 4-thread/serial ratio as 0.62 and 1.13.
//!
//! The pooled training path is bit-identical to its serial counterpart at
//! any thread count (the property the runtime is built around), so timings
//! on multi-core machines measure the same computation, not a numerically
//! different one.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::harness::check_header;

/// Schema identifier written to and expected in the baseline JSON.
pub const SCHEMA: &str = "cqm-bench/perfbase/v5";

/// Thread counts the pooled `anfis_epoch` section covers.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Section names that must be present in a valid baseline.
pub const SECTION_NAMES: [&str; 3] = ["clustering", "anfis_epoch", "eval_single"];

/// The `threaded` timings section `name` must carry: none for the serial
/// `clustering`, the full ladder for `anfis_epoch`, and one `threads: 1`
/// entry (the allocation-free kernel) for `eval_single`.
pub fn required_threads(name: &str) -> &'static [usize] {
    match name {
        "anfis_epoch" => &THREAD_COUNTS,
        "eval_single" => &[1],
        _ => &[],
    }
}

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
            for &threads in required_threads(name) {
                if section.millis_at(threads).is_none() {
                    return Err(format!(
                        "section {name:?}: missing timing for {threads} threads"
                    ));
                }
            }
        }
        Ok(())
    }
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

    fn baseline(cores: usize) -> PerfBaseline {
        PerfBaseline {
            schema: SCHEMA.into(),
            smoke: true,
            available_parallelism: cores,
            sections: vec![
                Section {
                    name: "clustering".into(),
                    workload: "test".into(),
                    serial_millis: 100.0,
                    threaded: Vec::new(),
                },
                Section {
                    name: "anfis_epoch".into(),
                    workload: "test".into(),
                    serial_millis: 100.0,
                    threaded: THREAD_COUNTS
                        .iter()
                        .map(|&threads| ThreadTiming {
                            threads,
                            millis: 100.0,
                        })
                        .collect(),
                },
                single("eval_single", 1.0, 0.8),
            ],
        }
    }

    #[test]
    fn valid_baseline_passes() {
        let b = baseline(1);
        b.validate().unwrap();
        assert!(b.section("clustering").is_some());
        assert!((b.section("eval_single").unwrap().speedup_at(1).unwrap() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_schema_drift() {
        let mut b = baseline(1);
        b.schema = "cqm-bench/perfbase/v4".into();
        assert!(b.validate().is_err());

        let mut b = baseline(1);
        b.sections.retain(|s| s.name != "anfis_epoch");
        assert!(b.validate().unwrap_err().contains("anfis_epoch"));

        let mut b = baseline(1);
        b.sections[1].threaded.retain(|t| t.threads != 8);
        assert!(b.validate().unwrap_err().contains("8 threads"));

        let mut b = baseline(1);
        b.sections[0].serial_millis = 0.0;
        assert!(b.validate().is_err());
    }

    #[test]
    fn validation_requires_every_section() {
        for name in SECTION_NAMES {
            let mut b = baseline(1);
            b.sections.retain(|s| s.name != name);
            assert!(b.validate().unwrap_err().contains(name), "{name}");
        }
        let mut b = baseline(1);
        b.sections[2].threaded.clear();
        assert!(b.validate().unwrap_err().contains("eval_single"));
    }

    #[test]
    fn each_section_carries_its_own_thread_counts() {
        assert!(required_threads("clustering").is_empty());
        assert_eq!(required_threads("anfis_epoch"), &THREAD_COUNTS);
        assert_eq!(required_threads("eval_single"), &[1]);
        // Timings at 1 core or 8, slow or fast, are recorded, never judged.
        for cores in [1usize, 2, 8] {
            let mut b = baseline(cores);
            b.sections[1].threaded[2].millis = 500.0;
            b.validate().unwrap();
        }
    }

    #[test]
    fn json_round_trip() {
        let b = baseline(2);
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
