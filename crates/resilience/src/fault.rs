//! Deterministic fault injection over window-indexed cue streams.
//!
//! A [`FaultPlan`] schedules per-channel faults over window indices; a
//! [`FaultInjector`] built from the plan corrupts any cue stream
//! deterministically (seeded, replayable). The injector operates *between*
//! the windower and the classifier — on whole cue vectors — so it composes
//! with the sample-level `cqm_sensors::noise::NoiseModel`: noise models the
//! sensor's physics, faults model the sensing *system* breaking down.
//!
//! Fault taxonomy (DESIGN.md §7):
//!
//! | fault | effect on the reading |
//! |---|---|
//! | stuck-at | channel frozen at a rail value or its last pre-fault value |
//! | dropout | whole reading missing (`None`) or one channel poisoned (NaN) |
//! | spike | large transient added with a seeded per-window probability |
//! | drift | slowly growing offset (sensor decalibration) |
//! | latency | readings delivered stale, `age` windows late |
//! | flapping | periodic dropout: on for `period`, off for `period` |

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::{ResilienceError, Result};

/// What a scheduled fault does to the affected windows.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Channel frozen: `Some(v)` = stuck at rail `v`; `None` = stuck at the
    /// last value observed before the fault began (a frozen sensor).
    StuckAt(Option<f64>),
    /// Reading lost. With a channel selector the channel turns NaN (a
    /// poisoned field the pipeline must reject); without one the whole
    /// reading is missing.
    Dropout,
    /// Transient of the given magnitude added with probability `p` per
    /// affected window (seeded, replayable).
    Spike {
        /// Spike amplitude (added with alternating sign).
        magnitude: f64,
        /// Per-window probability of a spike.
        p: f64,
    },
    /// Slow drift: offset grows by `rate` per window from fault onset.
    Drift {
        /// Offset increment per window.
        rate: f64,
    },
    /// Delivery latency: readings arrive `windows` late (stale data). The
    /// reading's `age` field carries the staleness for TTL checks.
    Latency {
        /// Delay in windows.
        windows: usize,
    },
    /// Intermittent connectivity: alternates `period` windows delivered,
    /// `period` windows dropped, starting with a delivered stretch.
    Flapping {
        /// Half-period in windows.
        period: usize,
    },
}

/// One fault scheduled over a half-open window-index range.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduledFault {
    /// Affected cue channel; `None` = the whole reading.
    pub channel: Option<usize>,
    /// What happens.
    pub kind: FaultKind,
    /// First affected window index.
    pub from: usize,
    /// First index past the fault (exclusive).
    pub until: usize,
}

impl ScheduledFault {
    fn validate(&self) -> Result<()> {
        if self.from >= self.until {
            return Err(ResilienceError::InvalidConfig(format!(
                "fault range {}..{} is empty",
                self.from, self.until
            )));
        }
        match self.kind {
            FaultKind::StuckAt(Some(v)) if !v.is_finite() => Err(ResilienceError::InvalidConfig(
                format!("stuck-at value {v} must be finite"),
            )),
            FaultKind::Spike { magnitude, p } if !(magnitude.is_finite() && (0.0..=1.0).contains(&p)) => {
                Err(ResilienceError::InvalidConfig(format!(
                    "spike magnitude {magnitude} must be finite and p {p} in [0,1]"
                )))
            }
            FaultKind::Drift { rate } if !rate.is_finite() => Err(ResilienceError::InvalidConfig(
                format!("drift rate {rate} must be finite"),
            )),
            FaultKind::Latency { windows: 0 } => Err(ResilienceError::InvalidConfig(
                "latency of 0 windows is not a fault".into(),
            )),
            FaultKind::Flapping { period: 0 } => Err(ResilienceError::InvalidConfig(
                "flapping period must be positive".into(),
            )),
            _ => Ok(()),
        }
    }

    fn active(&self, index: usize) -> bool {
        (self.from..self.until).contains(&index)
    }
}

/// A validated, seeded schedule of faults — the replayable unit of a chaos
/// experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    faults: Vec<ScheduledFault>,
    seed: u64,
}

impl FaultPlan {
    /// Validated constructor.
    ///
    /// # Errors
    ///
    /// Returns [`ResilienceError::InvalidConfig`] for an empty range or
    /// out-of-domain fault parameters.
    pub fn new(seed: u64, faults: Vec<ScheduledFault>) -> Result<Self> {
        for f in &faults {
            f.validate()?;
        }
        Ok(FaultPlan { faults, seed })
    }

    /// A plan with no faults (the identity injector).
    pub fn clean(seed: u64) -> Self {
        FaultPlan {
            faults: Vec::new(),
            seed,
        }
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[ScheduledFault] {
        &self.faults
    }

    /// The plan's RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// First window index past every scheduled fault (when the stream is
    /// guaranteed clean again, latency tails aside).
    pub fn horizon(&self) -> usize {
        self.faults.iter().map(|f| f.until).max().unwrap_or(0)
    }
}

/// One possibly-corrupted reading emitted by the injector.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultyReading {
    /// The cue vector, or `None` for a whole-reading dropout.
    pub cues: Option<Vec<f64>>,
    /// Staleness in windows (0 = fresh); nonzero under latency faults.
    pub age: usize,
    /// Whether any fault touched this reading (for scoring/diagnostics).
    pub faulted: bool,
}

/// Stateful, deterministic fault injector for one cue stream.
///
/// Feed it the clean readings in window order via [`FaultInjector::corrupt`];
/// it returns what the degraded sensing system would have delivered.
/// Rebuilding the injector from the same plan replays the identical fault
/// sequence.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    /// Held values per (fault slot) for stuck-at-last faults.
    held: Vec<Option<Vec<f64>>>,
    /// Recent clean readings for latency replay (bounded by max latency).
    history: VecDeque<Vec<f64>>,
    max_latency: usize,
    next_index: usize,
    /// Sign of the next spike (alternates for zero-mean transients).
    spike_sign: f64,
}

impl FaultInjector {
    /// Build an injector from a plan.
    pub fn new(plan: &FaultPlan) -> Self {
        let max_latency = plan
            .faults
            .iter()
            .filter_map(|f| match f.kind {
                FaultKind::Latency { windows } => Some(windows),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        FaultInjector {
            held: vec![None; plan.faults.len()],
            history: VecDeque::with_capacity(max_latency + 1),
            max_latency,
            rng: StdRng::seed_from_u64(plan.seed ^ 0xFAB1_7FA0_17C7_ED01),
            plan: plan.clone(),
            next_index: 0,
            spike_sign: 1.0,
        }
    }

    /// The window index the next [`FaultInjector::corrupt`] call expects.
    pub fn next_index(&self) -> usize {
        self.next_index
    }

    /// Corrupt the reading for the next window. Readings must be fed in
    /// window order — the injector tracks the index itself so latency and
    /// drift state stay consistent.
    pub fn corrupt(&mut self, clean: &[f64]) -> FaultyReading {
        let index = self.next_index;
        self.next_index += 1;

        // Latency history is recorded *before* corruption: a slow link
        // delivers old-but-genuine data.
        self.history.push_back(clean.to_vec());
        while self.history.len() > self.max_latency + 1 {
            self.history.pop_front();
        }

        let mut cues = clean.to_vec();
        let mut age = 0usize;
        let mut dropped = false;
        let mut faulted = false;

        for (&fault, held) in self.plan.faults.iter().zip(self.held.iter_mut()) {
            if !fault.active(index) {
                // Forget held stuck values once the fault window has passed.
                if index >= fault.until {
                    *held = None;
                }
                continue;
            }
            faulted = true;
            match fault.kind {
                FaultKind::StuckAt(value) => {
                    let frozen = match (value, &*held) {
                        (Some(v), _) => vec![v; cues.len()],
                        (None, Some(h)) => h.clone(),
                        (None, None) => {
                            let h = cues.clone();
                            *held = Some(h.clone());
                            h
                        }
                    };
                    apply_channel(&mut cues, fault.channel, |ch, _| {
                        frozen.get(ch).copied().unwrap_or(0.0)
                    });
                }
                FaultKind::Dropout => match fault.channel {
                    Some(_) => apply_channel(&mut cues, fault.channel, |_, _| f64::NAN),
                    None => dropped = true,
                },
                FaultKind::Spike { magnitude, p } => {
                    let roll: f64 = self.rng.gen();
                    if roll < p {
                        let sign = self.spike_sign;
                        self.spike_sign = -self.spike_sign;
                        apply_channel(&mut cues, fault.channel, |_, v| v + sign * magnitude);
                    }
                }
                FaultKind::Drift { rate } => {
                    let offset = rate * (index - fault.from + 1) as f64;
                    apply_channel(&mut cues, fault.channel, |_, v| v + offset);
                }
                FaultKind::Latency { windows } => {
                    age = age.max(windows);
                }
                FaultKind::Flapping { period } => {
                    let phase = (index - fault.from) / period;
                    if phase % 2 == 1 {
                        match fault.channel {
                            Some(_) => apply_channel(&mut cues, fault.channel, |_, _| f64::NAN),
                            None => dropped = true,
                        }
                    }
                }
            }
        }

        if dropped {
            return FaultyReading {
                cues: None,
                age,
                faulted: true,
            };
        }

        if age > 0 {
            // Serve the reading from `age` windows ago (stale delivery); at
            // stream start there is nothing to deliver yet.
            let n = self.history.len();
            match n.checked_sub(age + 1).and_then(|i| self.history.get(i)) {
                Some(old) => cues = old.clone(),
                None => {
                    return FaultyReading {
                        cues: None,
                        age,
                        faulted: true,
                    }
                }
            }
        }

        FaultyReading { cues: Some(cues), age, faulted }
    }

    /// Corrupt a whole stream at once (convenience for batch experiments).
    pub fn corrupt_stream(&mut self, clean: &[Vec<f64>]) -> Vec<FaultyReading> {
        clean.iter().map(|c| self.corrupt(c)).collect()
    }
}

/// Apply `f(channel, value)` to one channel or to all of them.
fn apply_channel<F: FnMut(usize, f64) -> f64>(cues: &mut [f64], channel: Option<usize>, mut f: F) {
    match channel {
        Some(ch) => {
            if let Some(v) = cues.get_mut(ch) {
                *v = f(ch, *v);
            }
        }
        None => {
            for (ch, v) in cues.iter_mut().enumerate() {
                *v = f(ch, *v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64, 10.0 + i as f64, -1.0]).collect()
    }

    fn plan(kind: FaultKind, channel: Option<usize>, from: usize, until: usize) -> FaultPlan {
        FaultPlan::new(
            7,
            vec![ScheduledFault {
                channel,
                kind,
                from,
                until,
            }],
        )
        .unwrap()
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let bad = |kind, from, until| {
            FaultPlan::new(0, vec![ScheduledFault { channel: None, kind, from, until }])
        };
        assert!(bad(FaultKind::Dropout, 5, 5).is_err());
        assert!(bad(FaultKind::StuckAt(Some(f64::NAN)), 0, 2).is_err());
        assert!(bad(FaultKind::Spike { magnitude: 1.0, p: 1.5 }, 0, 2).is_err());
        assert!(bad(FaultKind::Spike { magnitude: f64::INFINITY, p: 0.5 }, 0, 2).is_err());
        assert!(bad(FaultKind::Drift { rate: f64::NAN }, 0, 2).is_err());
        assert!(bad(FaultKind::Latency { windows: 0 }, 0, 2).is_err());
        assert!(bad(FaultKind::Flapping { period: 0 }, 0, 2).is_err());
        assert!(bad(FaultKind::Dropout, 0, 2).is_ok());
    }

    #[test]
    fn clean_plan_is_identity() {
        let mut inj = FaultInjector::new(&FaultPlan::clean(1));
        for (i, r) in inj.corrupt_stream(&stream(5)).into_iter().enumerate() {
            assert_eq!(r.cues.as_deref(), Some(&stream(5)[i][..]));
            assert_eq!(r.age, 0);
            assert!(!r.faulted);
        }
    }

    #[test]
    fn stuck_at_rail_freezes_channel() {
        let mut inj = FaultInjector::new(&plan(FaultKind::StuckAt(Some(99.0)), Some(1), 2, 4));
        let out = inj.corrupt_stream(&stream(6));
        assert_eq!(out[1].cues.as_ref().map(|c| c[1]), Some(11.0));
        assert_eq!(out[2].cues.as_ref().map(|c| c[1]), Some(99.0));
        assert_eq!(out[3].cues.as_ref().map(|c| c[1]), Some(99.0));
        assert_eq!(out[4].cues.as_ref().map(|c| c[1]), Some(14.0));
        assert!(out[2].faulted && !out[4].faulted);
    }

    #[test]
    fn stuck_at_last_holds_onset_value() {
        let mut inj = FaultInjector::new(&plan(FaultKind::StuckAt(None), None, 2, 5));
        let out = inj.corrupt_stream(&stream(6));
        // Frozen at window 2's clean values for the whole fault.
        for window in &out[2..5] {
            assert_eq!(window.cues.as_ref().map(|c| c[0]), Some(2.0));
        }
        assert_eq!(out[5].cues.as_ref().map(|c| c[0]), Some(5.0));
    }

    #[test]
    fn whole_reading_dropout_yields_none() {
        let mut inj = FaultInjector::new(&plan(FaultKind::Dropout, None, 1, 3));
        let out = inj.corrupt_stream(&stream(4));
        assert!(out[0].cues.is_some());
        assert!(out[1].cues.is_none());
        assert!(out[2].cues.is_none());
        assert!(out[3].cues.is_some());
    }

    #[test]
    fn channel_dropout_poisons_with_nan() {
        let mut inj = FaultInjector::new(&plan(FaultKind::Dropout, Some(0), 1, 2));
        let out = inj.corrupt_stream(&stream(3));
        let c = out[1].cues.as_ref().unwrap();
        assert!(c[0].is_nan());
        assert!(c[1].is_finite());
    }

    #[test]
    fn drift_grows_linearly() {
        let mut inj = FaultInjector::new(&plan(FaultKind::Drift { rate: 0.5 }, Some(0), 2, 5));
        let out = inj.corrupt_stream(&stream(5));
        assert_eq!(out[2].cues.as_ref().map(|c| c[0]), Some(2.0 + 0.5));
        assert_eq!(out[3].cues.as_ref().map(|c| c[0]), Some(3.0 + 1.0));
        assert_eq!(out[4].cues.as_ref().map(|c| c[0]), Some(4.0 + 1.5));
    }

    #[test]
    fn latency_serves_stale_readings_with_age() {
        let mut inj = FaultInjector::new(&plan(FaultKind::Latency { windows: 2 }, None, 2, 5));
        let out = inj.corrupt_stream(&stream(6));
        assert_eq!(out[2].age, 2);
        // Window 2 delivers window 0's data.
        assert_eq!(out[2].cues.as_ref().map(|c| c[0]), Some(0.0));
        assert_eq!(out[3].cues.as_ref().map(|c| c[0]), Some(1.0));
        // Past the fault: fresh again.
        assert_eq!(out[5].age, 0);
        assert_eq!(out[5].cues.as_ref().map(|c| c[0]), Some(5.0));
    }

    #[test]
    fn latency_at_stream_start_is_a_dropout() {
        let mut inj = FaultInjector::new(&plan(FaultKind::Latency { windows: 3 }, None, 0, 2));
        let out = inj.corrupt_stream(&stream(3));
        assert!(out[0].cues.is_none());
        assert!(out[1].cues.is_none());
    }

    #[test]
    fn flapping_alternates_on_and_off() {
        let mut inj = FaultInjector::new(&plan(FaultKind::Flapping { period: 2 }, None, 0, 8));
        let out = inj.corrupt_stream(&stream(8));
        let delivered: Vec<bool> = out.iter().map(|r| r.cues.is_some()).collect();
        assert_eq!(delivered, vec![true, true, false, false, true, true, false, false]);
    }

    #[test]
    fn spikes_are_seeded_and_replayable() {
        let p = plan(FaultKind::Spike { magnitude: 50.0, p: 0.5 }, Some(0), 0, 50);
        let a: Vec<FaultyReading> = FaultInjector::new(&p).corrupt_stream(&stream(50));
        let b: Vec<FaultyReading> = FaultInjector::new(&p).corrupt_stream(&stream(50));
        assert_eq!(a, b);
        let spiked = a
            .iter()
            .enumerate()
            .filter(|(i, r)| {
                r.cues
                    .as_ref()
                    .is_some_and(|c| (c[0] - *i as f64).abs() > 1.0)
            })
            .count();
        assert!(spiked > 10 && spiked < 40, "spiked {spiked}/50");
    }

    #[test]
    fn overlapping_faults_compose() {
        let plan = FaultPlan::new(
            3,
            vec![
                ScheduledFault {
                    channel: Some(0),
                    kind: FaultKind::StuckAt(Some(5.0)),
                    from: 0,
                    until: 4,
                },
                ScheduledFault {
                    channel: Some(0),
                    kind: FaultKind::Drift { rate: 1.0 },
                    from: 0,
                    until: 4,
                },
            ],
        )
        .unwrap();
        let mut inj = FaultInjector::new(&plan);
        let out = inj.corrupt_stream(&stream(4));
        // Stuck applies first (order of the plan), drift then offsets it.
        assert_eq!(out[0].cues.as_ref().map(|c| c[0]), Some(6.0));
        assert_eq!(out[3].cues.as_ref().map(|c| c[0]), Some(9.0));
    }

    #[test]
    fn horizon_and_accessors() {
        let p = plan(FaultKind::Dropout, None, 3, 9);
        assert_eq!(p.horizon(), 9);
        assert_eq!(p.seed(), 7);
        assert_eq!(p.faults().len(), 1);
        assert_eq!(FaultPlan::clean(1).horizon(), 0);
    }
}
