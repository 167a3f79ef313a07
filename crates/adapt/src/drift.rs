//! Drift detection on the CQM tail statistics (Page–Hinkley).
//!
//! The paper's threshold `s` (§2.3) is the operating point of the quality
//! measure: a healthy deployment produces quality values whose mean margin
//! above `s` is stationary. When the context model rots — the environment
//! shifted under a fixed model — the margin's mean falls. The detector runs
//! the one-sided Page–Hinkley test on the margin signal `x_t = q_t − s`
//! (with the ε error state contributing its worst case, `q = 0`):
//!
//! ```text
//! m_t = Σ_{i≤t} (x̄_i − x_i − δ)      (cumulative negative deviation)
//! PH_t = m_t − min_{i≤t} m_i
//! ```
//!
//! `PH_t` exceeding the warn threshold yields [`DriftState::Warn`]; the
//! drift threshold yields [`DriftState::Drift`] — the signal the
//! [`crate::supervisor::AdaptationSupervisor`] treats as confirmed drift.
//! The statistic is a pure fold over the observation sequence: no clock, no
//! randomness, so any seeded traffic replay reproduces the same alarm at
//! the same observation index (the adversary's seed is the only seed).

use cqm_core::normalize::Quality;

use crate::{AdaptError, Result};

/// Detector state after an observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftState {
    /// The margin signal is stationary.
    Stable,
    /// The Page–Hinkley statistic crossed the warn threshold.
    Warn,
    /// The statistic crossed the drift threshold: confirmed drift.
    Drift,
}

/// Page–Hinkley configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Magnitude tolerance δ: mean shifts smaller than this are noise and
    /// accumulate nothing.
    pub delta: f64,
    /// `PH` level that raises [`DriftState::Warn`].
    pub warn_threshold: f64,
    /// `PH` level that confirms [`DriftState::Drift`]; must be at or above
    /// the warn threshold.
    pub drift_threshold: f64,
    /// Observations before any alarm may fire (the running mean needs to
    /// settle before deviations from it are meaningful).
    pub min_samples: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        // Tuned for the quality-margin signal in [−1, 1]: a sustained mean
        // drop of ~0.1 confirms within ~60 observations, while seeded
        // stationary office traffic stays silent (tests/adapt.rs soaks
        // this).
        DriftConfig {
            delta: 0.02,
            warn_threshold: 2.5,
            drift_threshold: 5.0,
            min_samples: 30,
        }
    }
}

impl DriftConfig {
    /// Validate the parameter domains.
    ///
    /// # Errors
    ///
    /// Returns [`AdaptError::InvalidConfig`] for non-finite or negative
    /// values, or thresholds out of order.
    pub fn validate(&self) -> Result<()> {
        if !(self.delta >= 0.0 && self.delta.is_finite()) {
            return Err(AdaptError::InvalidConfig {
                name: "delta",
                value: self.delta,
            });
        }
        if !(self.warn_threshold > 0.0 && self.warn_threshold.is_finite()) {
            return Err(AdaptError::InvalidConfig {
                name: "warn_threshold",
                value: self.warn_threshold,
            });
        }
        if !(self.drift_threshold >= self.warn_threshold && self.drift_threshold.is_finite()) {
            return Err(AdaptError::InvalidConfig {
                name: "drift_threshold",
                value: self.drift_threshold,
            });
        }
        Ok(())
    }
}

/// The Page–Hinkley detector over the quality margin `q − s`.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    config: DriftConfig,
    /// Observations folded in since the last reset.
    count: u64,
    /// Running mean of the margin signal.
    mean: f64,
    /// Cumulative deviation `m_t`.
    cumulative: f64,
    /// Running minimum of `m_t`.
    minimum: f64,
    state: DriftState,
}

impl DriftDetector {
    /// Create a detector.
    ///
    /// # Errors
    ///
    /// Propagates [`DriftConfig::validate`].
    pub fn new(config: DriftConfig) -> Result<Self> {
        config.validate()?;
        Ok(DriftDetector {
            config,
            count: 0,
            mean: 0.0,
            cumulative: 0.0,
            minimum: 0.0,
            state: DriftState::Stable,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &DriftConfig {
        &self.config
    }

    /// Current state.
    pub fn state(&self) -> DriftState {
        self.state
    }

    /// Observations folded in since the last reset.
    pub fn observed(&self) -> u64 {
        self.count
    }

    /// The current Page–Hinkley statistic `PH_t`.
    pub fn statistic(&self) -> f64 {
        self.cumulative - self.minimum
    }

    /// Fold in one quality observation against the threshold `s` and
    /// return the new state. ε contributes its worst case (`q = 0`).
    pub fn observe(&mut self, quality: Quality, threshold: f64) -> DriftState {
        let q = match quality {
            Quality::Value(v) => v,
            Quality::Epsilon => 0.0,
        };
        self.observe_margin(q - threshold)
    }

    /// Fold in one raw margin observation `x_t` and return the new state.
    pub fn observe_margin(&mut self, margin: f64) -> DriftState {
        self.count += 1;
        // Incremental running mean, then the deviation of this observation
        // below it (one-sided: only mean *drops* accumulate).
        self.mean += (margin - self.mean) / self.count as f64;
        self.cumulative += self.mean - margin - self.config.delta;
        if self.cumulative < self.minimum {
            self.minimum = self.cumulative;
        }
        if self.count >= self.config.min_samples {
            let ph = self.statistic();
            self.state = if ph > self.config.drift_threshold {
                DriftState::Drift
            } else if ph > self.config.warn_threshold {
                DriftState::Warn
            } else {
                DriftState::Stable
            };
        }
        self.state
    }

    /// Forget all accumulated evidence (after an adaptation landed, or was
    /// explicitly rejected): the detector restarts on the post-adaptation
    /// distribution.
    pub fn reset(&mut self) {
        self.count = 0;
        self.mean = 0.0;
        self.cumulative = 0.0;
        self.minimum = 0.0;
        self.state = DriftState::Stable;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        let ok = DriftConfig::default();
        assert!(ok.validate().is_ok());
        for bad in [
            DriftConfig { delta: -0.1, ..ok },
            DriftConfig {
                warn_threshold: 0.0,
                ..ok
            },
            DriftConfig {
                drift_threshold: ok.warn_threshold / 2.0,
                ..ok
            },
            DriftConfig {
                drift_threshold: f64::INFINITY,
                ..ok
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn stationary_signal_stays_stable() {
        let mut d = DriftDetector::new(DriftConfig::default()).unwrap();
        // A deterministic oscillation around a constant mean.
        for i in 0..2000 {
            let x = 0.3 + 0.05 * ((i % 7) as f64 - 3.0) / 3.0;
            let state = d.observe_margin(x);
            assert_eq!(state, DriftState::Stable, "false alarm at {i}");
        }
    }

    #[test]
    fn sustained_mean_drop_warns_then_confirms() {
        let mut d = DriftDetector::new(DriftConfig::default()).unwrap();
        for _ in 0..200 {
            d.observe_margin(0.3);
        }
        assert_eq!(d.state(), DriftState::Stable);
        let mut saw_warn = false;
        let mut confirmed_at = None;
        for i in 0..400 {
            match d.observe_margin(0.1) {
                DriftState::Warn => saw_warn = true,
                DriftState::Drift => {
                    confirmed_at = Some(i);
                    break;
                }
                DriftState::Stable => {}
            }
        }
        assert!(saw_warn, "warn state should precede drift");
        let at = confirmed_at.expect("a 0.2 mean drop must confirm drift");
        assert!(at < 200, "confirmation took {at} observations");
    }

    #[test]
    fn no_alarm_before_min_samples() {
        let config = DriftConfig {
            min_samples: 50,
            ..DriftConfig::default()
        };
        let mut d = DriftDetector::new(config).unwrap();
        // A violent level shift inside the settling window must not alarm.
        for i in 0..49 {
            let x = if i < 10 { 1.0 } else { -1.0 };
            assert_eq!(d.observe_margin(x), DriftState::Stable, "i={i}");
        }
    }

    #[test]
    fn epsilon_counts_as_worst_case() {
        let mut d = DriftDetector::new(DriftConfig::default()).unwrap();
        for _ in 0..100 {
            d.observe(Quality::Value(0.9), 0.6);
        }
        assert_eq!(d.state(), DriftState::Stable);
        for _ in 0..300 {
            if d.observe(Quality::Epsilon, 0.6) == DriftState::Drift {
                break;
            }
        }
        assert_eq!(d.state(), DriftState::Drift);
    }

    #[test]
    fn replay_is_bit_identical() {
        let trace: Vec<f64> = (0..500)
            .map(|i| 0.25 + 0.1 * ((i * 37 % 17) as f64 / 17.0) - if i > 300 { 0.2 } else { 0.0 })
            .collect();
        let run = |_: ()| {
            let mut d = DriftDetector::new(DriftConfig::default()).unwrap();
            let mut states = Vec::new();
            for &x in &trace {
                states.push(d.observe_margin(x));
            }
            (states, d.statistic().to_bits())
        };
        let (s1, ph1) = run(());
        let (s2, ph2) = run(());
        assert_eq!(s1, s2);
        assert_eq!(ph1, ph2);
    }

    #[test]
    fn reset_restarts_cleanly() {
        let mut d = DriftDetector::new(DriftConfig::default()).unwrap();
        for _ in 0..100 {
            d.observe_margin(0.3);
        }
        for _ in 0..300 {
            if d.observe_margin(0.0) == DriftState::Drift {
                break;
            }
        }
        assert_eq!(d.state(), DriftState::Drift);
        d.reset();
        assert_eq!(d.state(), DriftState::Stable);
        assert_eq!(d.observed(), 0);
        assert_eq!(d.statistic().to_bits(), 0.0f64.to_bits());
        // The new regime is its new normal.
        for i in 0..200 {
            assert_eq!(d.observe_margin(0.0), DriftState::Stable, "i={i}");
        }
    }
}
