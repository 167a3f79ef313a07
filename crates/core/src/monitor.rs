//! Online quality monitoring (extension of the §5 outlook).
//!
//! A deployed CQM was trained against one sensing environment; if the
//! environment drifts (new users, sensor aging, re-mounted node), the
//! quality statistics drift with it. [`QualityMonitor`] tracks the running
//! acceptance rate and mean quality over a sliding window and compares them
//! against the training-time expectations, flagging when retraining is due —
//! the operational counterpart of the paper's "we are in the process of
//! integrating the context system to other appliances and testing".

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::filter::Decision;
use crate::normalize::Quality;
use crate::{CqmError, Result};

/// Expected operating statistics captured at training time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingProfile {
    /// Expected acceptance rate (fraction of classifications above the
    /// threshold) on in-distribution data.
    pub accept_rate: f64,
    /// Expected mean quality of non-ε measures.
    pub mean_quality: f64,
}

impl OperatingProfile {
    /// Validated constructor.
    ///
    /// # Errors
    ///
    /// Returns [`CqmError::InvalidInput`] for values outside `[0, 1]`.
    pub fn new(accept_rate: f64, mean_quality: f64) -> Result<Self> {
        for (name, v) in [("accept_rate", accept_rate), ("mean_quality", mean_quality)] {
            if !(0.0..=1.0).contains(&v) {
                return Err(CqmError::InvalidInput(format!("{name} {v} outside [0, 1]")));
            }
        }
        Ok(OperatingProfile {
            accept_rate,
            mean_quality,
        })
    }

    /// Derive the profile from a trained CQM's own analysis samples.
    pub fn from_trained(trained: &crate::training::TrainedCqm) -> Self {
        let threshold = trained.threshold.value;
        let mut accepts = 0usize;
        let mut total = 0usize;
        let mut q_sum = 0.0;
        let mut q_count = 0usize;
        for s in &trained.analysis_samples {
            total += 1;
            if let Some(q) = s.quality.value() {
                q_sum += q;
                q_count += 1;
                if q > threshold {
                    accepts += 1;
                }
            }
        }
        OperatingProfile {
            accept_rate: if total > 0 {
                accepts as f64 / total as f64
            } else {
                0.0
            },
            mean_quality: if q_count > 0 {
                q_sum / q_count as f64
            } else {
                0.0
            },
        }
    }
}

/// Verdict of the monitor after an observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MonitorStatus {
    /// Not enough observations yet.
    Warmup,
    /// Statistics within tolerance of the operating profile.
    Healthy,
    /// Statistics drifted beyond tolerance: the model should be retrained
    /// or the sensor checked. Payload: observed (accept rate, mean quality).
    Drifted {
        /// Windowed acceptance rate.
        accept_rate: f64,
        /// Windowed mean quality (non-ε).
        mean_quality: f64,
    },
}

/// Sliding-window drift monitor over `(quality, decision)` observations.
#[derive(Debug, Clone)]
pub struct QualityMonitor {
    profile: OperatingProfile,
    window: usize,
    tolerance: f64,
    history: VecDeque<(Option<f64>, bool)>,
}

impl QualityMonitor {
    /// Create a monitor with the given window length and absolute tolerance
    /// on both tracked statistics.
    ///
    /// # Errors
    ///
    /// Returns [`CqmError::InvalidInput`] if `window < 8` or the tolerance
    /// is not in `(0, 1)`.
    pub fn new(profile: OperatingProfile, window: usize, tolerance: f64) -> Result<Self> {
        if window < 8 {
            return Err(CqmError::InvalidInput(format!(
                "monitor window {window} too small (need >= 8)"
            )));
        }
        if !(tolerance > 0.0 && tolerance < 1.0) {
            return Err(CqmError::InvalidInput(format!(
                "tolerance {tolerance} outside (0, 1)"
            )));
        }
        Ok(QualityMonitor {
            profile,
            window,
            tolerance,
            history: VecDeque::new(),
        })
    }

    /// Feed one runtime observation and get the current verdict.
    pub fn observe(&mut self, quality: Quality, decision: Decision) -> MonitorStatus {
        self.history
            .push_back((quality.value(), decision.is_accept()));
        while self.history.len() > self.window {
            self.history.pop_front();
        }
        if self.history.len() < self.window {
            return MonitorStatus::Warmup;
        }
        let accepts = self.history.iter().filter(|(_, a)| *a).count();
        let accept_rate = accepts as f64 / self.history.len() as f64;
        // Count, then sum in window order: no buffer per observation.
        let valued = self.history.iter().filter(|(q, _)| q.is_some()).count();
        let mean_quality = if valued == 0 {
            0.0
        } else {
            self.history.iter().filter_map(|(q, _)| *q).sum::<f64>() / valued as f64
        };
        let drifted = (accept_rate - self.profile.accept_rate).abs() > self.tolerance
            || (mean_quality - self.profile.mean_quality).abs() > self.tolerance;
        if drifted {
            MonitorStatus::Drifted {
                accept_rate,
                mean_quality,
            }
        } else {
            MonitorStatus::Healthy
        }
    }

    /// Forget all observations (e.g. after a model swap).
    pub fn reset(&mut self) {
        self.history.clear();
    }

    /// Capture the monitor's full state for persistence.
    pub fn snapshot(&self) -> MonitorSnapshot {
        MonitorSnapshot {
            profile: self.profile,
            window: self.window,
            tolerance: self.tolerance,
            history: self.history.iter().copied().collect(),
        }
    }

    /// Rebuild a monitor from a persisted snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`CqmError::InvalidInput`] if the snapshot's window or
    /// tolerance are out of domain (same rules as [`QualityMonitor::new`]).
    pub fn from_snapshot(snap: &MonitorSnapshot) -> Result<Self> {
        let mut m = QualityMonitor::new(snap.profile, snap.window, snap.tolerance)?;
        // Keep at most `window` trailing observations, matching observe().
        let skip = snap.history.len().saturating_sub(snap.window);
        m.history = snap.history.iter().skip(skip).copied().collect();
        Ok(m)
    }
}

/// Serializable snapshot of a [`QualityMonitor`] (profile, knobs, and the
/// sliding observation window) for crash-safe persistence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorSnapshot {
    /// The training-time operating profile.
    pub profile: OperatingProfile,
    /// Sliding-window length.
    pub window: usize,
    /// Absolute drift tolerance.
    pub tolerance: f64,
    /// Observations, oldest first: `(quality value or None for eps, accepted)`.
    pub history: Vec<(Option<f64>, bool)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> QualityMonitor {
        QualityMonitor::new(OperatingProfile::new(0.8, 0.85).unwrap(), 10, 0.15).unwrap()
    }

    fn accept(q: f64) -> (Quality, Decision) {
        (Quality::Value(q), Decision::Accept)
    }

    fn discard(q: f64) -> (Quality, Decision) {
        (Quality::Value(q), Decision::Discard)
    }

    #[test]
    fn construction_validation() {
        assert!(OperatingProfile::new(1.5, 0.5).is_err());
        assert!(OperatingProfile::new(0.5, -0.1).is_err());
        let p = OperatingProfile::new(0.8, 0.85).unwrap();
        assert!(QualityMonitor::new(p, 4, 0.1).is_err());
        assert!(QualityMonitor::new(p, 10, 0.0).is_err());
        assert!(QualityMonitor::new(p, 10, 1.0).is_err());
    }

    #[test]
    fn healthy_stream_stays_healthy() {
        let mut m = monitor();
        let mut last = MonitorStatus::Warmup;
        for i in 0..20 {
            let (q, d) = if i % 5 == 4 {
                discard(0.5)
            } else {
                accept(0.93)
            };
            last = m.observe(q, d);
        }
        assert_eq!(last, MonitorStatus::Healthy);
    }

    #[test]
    fn collapsed_acceptance_flags_drift() {
        let mut m = monitor();
        let mut last = MonitorStatus::Warmup;
        for _ in 0..12 {
            last = m.observe(Quality::Value(0.3), Decision::Discard);
        }
        match last {
            MonitorStatus::Drifted {
                accept_rate,
                mean_quality,
            } => {
                assert_eq!(accept_rate.to_bits(), 0.0f64.to_bits());
                assert!(mean_quality < 0.5);
            }
            other => panic!("expected drift, got {other:?}"),
        }
    }

    #[test]
    fn warmup_until_window_full() {
        let mut m = monitor();
        for _ in 0..9 {
            assert_eq!(
                m.observe(accept(0.9).0, accept(0.9).1),
                MonitorStatus::Warmup
            );
        }
        assert_ne!(
            m.observe(accept(0.9).0, accept(0.9).1),
            MonitorStatus::Warmup
        );
    }

    #[test]
    fn epsilon_heavy_stream_drifts() {
        // ε carries no quality value; an ε flood craters the accept rate.
        let mut m = monitor();
        let mut last = MonitorStatus::Warmup;
        for _ in 0..12 {
            last = m.observe(Quality::Epsilon, Decision::Discard);
        }
        assert!(matches!(last, MonitorStatus::Drifted { .. }));
    }

    #[test]
    fn reset_returns_to_warmup() {
        let mut m = monitor();
        for _ in 0..12 {
            m.observe(accept(0.9).0, accept(0.9).1);
        }
        m.reset();
        assert_eq!(
            m.observe(accept(0.9).0, accept(0.9).1),
            MonitorStatus::Warmup
        );
    }

    #[test]
    fn drift_reset_then_rehealthy() {
        // The full recovery path: a drifted monitor is reset (model swap /
        // recalibration), re-warms, and reports Healthy again on good data.
        let mut m = monitor();
        let mut last = MonitorStatus::Warmup;
        for _ in 0..12 {
            last = m.observe(Quality::Value(0.2), Decision::Discard);
        }
        assert!(matches!(last, MonitorStatus::Drifted { .. }));
        m.reset();
        // After reset: warmup for window-1 observations, then Healthy —
        // never Drifted, because the bad history is gone. The healthy
        // stream matches the profile: 4 accepts to 1 discard (rate 0.8).
        let profile_stream = |i: usize| {
            if i % 5 == 4 {
                discard(0.8)
            } else {
                accept(0.9)
            }
        };
        for i in 0..9 {
            let (q, d) = profile_stream(i);
            assert_eq!(
                m.observe(q, d),
                MonitorStatus::Warmup,
                "observation {i} after reset"
            );
        }
        for i in 9..20 {
            let (q, d) = profile_stream(i);
            assert_eq!(m.observe(q, d), MonitorStatus::Healthy);
        }
    }

    #[test]
    fn drift_clears_without_reset_once_window_rolls_over() {
        // Recovery also happens organically: once the sliding window is
        // fully repopulated with healthy observations the verdict flips
        // back, no reset required.
        let mut m = monitor();
        for _ in 0..12 {
            m.observe(Quality::Value(0.2), Decision::Discard);
        }
        let mut last = MonitorStatus::Warmup;
        for i in 0..10 {
            let (q, d) = if i % 5 == 4 {
                discard(0.8)
            } else {
                accept(0.9)
            };
            last = m.observe(q, d);
        }
        assert_eq!(last, MonitorStatus::Healthy);
    }

    #[test]
    fn exactly_at_tolerance_does_not_flap() {
        // The drift predicate is strict (`> tolerance`): a stream whose
        // statistics sit exactly on the tolerance boundary stays Healthy on
        // every observation — no Healthy/Drifted oscillation. All values
        // chosen exactly representable in binary (0.75, 0.5, 0.25) so the
        // boundary really is the boundary.
        //
        // Profile accept_rate 0.75, all accepts → |Δ rate| = 0.25 = tol.
        // Profile mean_quality 0.75, all q = 0.5 → |Δ mean| = 0.25 = tol.
        let profile = OperatingProfile::new(0.75, 0.75).unwrap();
        let mut m = QualityMonitor::new(profile, 8, 0.25).unwrap();
        let mut verdicts = Vec::new();
        for _ in 0..32 {
            verdicts.push(m.observe(Quality::Value(0.5), Decision::Accept));
        }
        // Post-warmup, every verdict is Healthy: exactly-at-tolerance is
        // inside the healthy band, on every single observation.
        for (i, v) in verdicts.iter().enumerate().skip(7) {
            assert_eq!(*v, MonitorStatus::Healthy, "flapped at observation {i}");
        }
        // One hair past the tolerance does drift.
        let mut m2 = QualityMonitor::new(profile, 8, 0.25).unwrap();
        let mut last = MonitorStatus::Warmup;
        for _ in 0..8 {
            last = m2.observe(Quality::Value(0.499), Decision::Accept);
        }
        assert!(
            matches!(last, MonitorStatus::Drifted { .. }),
            "0.001 past tolerance must drift, got {last:?}"
        );
    }

    #[test]
    fn profile_from_trained_cqm() {
        use crate::classifier::test_support::BoundaryClassifier;
        use crate::classifier::ClassId;
        use crate::training::{train_cqm, CqmTrainingConfig};
        let cues: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 199.0]).collect();
        let truth: Vec<ClassId> = cues
            .iter()
            .map(|c| ClassId(usize::from(c[0] > 0.45)))
            .collect();
        let trained = train_cqm(
            &BoundaryClassifier { boundary: 0.5 },
            &cues,
            &truth,
            &CqmTrainingConfig::fast(),
        )
        .unwrap();
        let profile = OperatingProfile::from_trained(&trained);
        assert!((0.0..=1.0).contains(&profile.accept_rate));
        assert!((0.0..=1.0).contains(&profile.mean_quality));
        assert!(profile.mean_quality > 0.3, "{profile:?}");
    }
}
