//! `SupervisedSystem` — graceful degradation around `CqmSystem`.
//!
//! The raw pipeline (`classify → measure → filter`) is pure and fails fast;
//! a deployed appliance must instead *absorb* failure: re-poll a flapping
//! source, reject stale or poisoned readings, fall back to the last good
//! context while the fault is fresh, and make its own health explicit so
//! consumers can downgrade their behaviour. The supervisor implements that
//! contract as a per-step protocol:
//!
//! 1. poll the cue source, with bounded retry + exponential backoff on
//!    transient failures and a per-call wall-clock timeout;
//! 2. validate the reading (staleness TTL) and run the CQM pipeline on it;
//! 3. classify the outcome: ε quality, classify errors, dropouts, timeouts
//!    and monitor-level drift are *fault signals* feeding the
//!    [`DegradationLadder`]; ordinary low-quality discards are normal
//!    operation (the paper's mechanism working as intended), not faults;
//! 4. serve the result: fresh when possible, the cached last-good context
//!    while it is within TTL, or an explicit `Unavailable`.

use std::time::{Duration, Instant};

use cqm_core::classifier::{ClassId, Classifier};
use cqm_core::monitor::{MonitorSnapshot, MonitorStatus, QualityMonitor};
use cqm_core::normalize::Quality;
use cqm_core::pipeline::{CqmSystem, QualifiedClassification};
use serde::{Deserialize, Serialize};

use crate::degrade::{DegradationLadder, DegradationPolicy, HealthState, LadderSnapshot};
use crate::fault::FaultInjector;
use crate::{ResilienceError, Result};

/// One delivered cue reading.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// Window index the consumer is currently at (scoring key).
    pub index: usize,
    /// The cue vector as delivered (possibly corrupted).
    pub cues: Vec<f64>,
    /// Staleness in windows: 0 = fresh, `n` = delivered `n` windows late.
    pub age: usize,
}

/// Result of one source poll.
#[derive(Debug, Clone, PartialEq)]
pub enum Poll {
    /// A reading was delivered.
    Ready(Reading),
    /// Nothing available right now (dropout, radio silence); a retry is a
    /// fresh read attempt and may succeed.
    NotReady,
    /// The stream is over.
    Ended,
}

/// Anything the supervisor can pull cue readings from.
pub trait CueSource {
    /// One read attempt. Every call is a fresh attempt: time moves forward,
    /// so consecutive calls may serve consecutive windows.
    fn poll(&mut self) -> Poll;
}

/// A [`CueSource`] over a pre-generated window stream with a
/// [`FaultInjector`] in front — the standard chaos-test source.
#[derive(Debug, Clone)]
pub struct WindowSource {
    windows: Vec<Vec<f64>>,
    injector: FaultInjector,
    pos: usize,
}

impl WindowSource {
    /// Wrap a clean window stream with a fault injector.
    pub fn new(windows: Vec<Vec<f64>>, injector: FaultInjector) -> Self {
        WindowSource {
            windows,
            injector,
            pos: 0,
        }
    }

    /// Windows already consumed.
    pub fn position(&self) -> usize {
        self.pos
    }
}

impl CueSource for WindowSource {
    fn poll(&mut self) -> Poll {
        let Some(clean) = self.windows.get(self.pos) else {
            return Poll::Ended;
        };
        let index = self.pos;
        self.pos += 1;
        let reading = self.injector.corrupt(clean);
        match reading.cues {
            Some(cues) => Poll::Ready(Reading {
                index,
                cues,
                age: reading.age,
            }),
            None => Poll::NotReady,
        }
    }
}

/// Supervisor tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SupervisorConfig {
    /// Extra poll/classify attempts per step after the first.
    pub max_retries: usize,
    /// Backoff before retry `k` is `backoff_base * 2^(k-1)`; zero disables
    /// sleeping (deterministic tests).
    pub backoff_base: Duration,
    /// Wall-clock budget for one whole step (poll + retries + inference);
    /// `None` disables the timeout.
    pub call_timeout: Option<Duration>,
    /// Maximum acceptable reading age in windows; older readings are
    /// rejected as faults.
    pub staleness_ttl: usize,
    /// How many steps the last-good context may be served after the stream
    /// degrades.
    pub cache_ttl: usize,
    /// Streak thresholds for the degradation ladder.
    pub policy: DegradationPolicy,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_retries: 2,
            backoff_base: Duration::ZERO,
            call_timeout: None,
            staleness_ttl: 2,
            cache_ttl: 8,
            policy: DegradationPolicy::default(),
        }
    }
}

/// Why a step counted as a fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StepFault {
    /// The source had nothing to deliver, retries included.
    Dropout,
    /// The step exceeded the configured wall-clock timeout.
    Timeout,
    /// Every delivered reading was older than the staleness TTL.
    Stale,
    /// The pipeline rejected the cues (malformed input, dimension error).
    ClassifyError(String),
    /// The quality measure returned ε: the cues are outside the trained
    /// domain (the paper's "no semantically valid measure exists").
    Epsilon,
    /// The quality monitor flagged statistical drift this step.
    Drifted,
}

impl std::fmt::Display for StepFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepFault::Dropout => f.write_str("dropout"),
            StepFault::Timeout => f.write_str("timeout"),
            StepFault::Stale => f.write_str("stale"),
            StepFault::ClassifyError(msg) => write!(f, "classify error: {msg}"),
            StepFault::Epsilon => f.write_str("epsilon"),
            StepFault::Drifted => f.write_str("drifted"),
        }
    }
}

/// What the supervisor served this step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServedContext {
    /// A fresh classification straight from the pipeline.
    Fresh {
        /// Window index the reading belongs to.
        index: usize,
        /// The qualified classification (class, quality, decision).
        result: QualifiedClassification,
    },
    /// The last good (accepted) context, re-served under a fault.
    Cached {
        /// Window index the cached context was produced at.
        index: usize,
        /// Cached class.
        class: ClassId,
        /// Quality the cached classification carried.
        quality: Quality,
        /// How many steps ago the cache was filled.
        age_steps: usize,
    },
    /// Nothing servable: consumers must use their no-context fallback.
    Unavailable,
}

impl ServedContext {
    /// The class served, if any.
    pub fn class(&self) -> Option<ClassId> {
        match self {
            ServedContext::Fresh { result, .. } => Some(result.class),
            ServedContext::Cached { class, .. } => Some(*class),
            ServedContext::Unavailable => None,
        }
    }
}

/// Full accounting for one supervisor step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepReport {
    /// What was served.
    pub served: ServedContext,
    /// Ladder state after this step.
    pub state: HealthState,
    /// The fault signal, if this step counted as one.
    pub fault: Option<StepFault>,
    /// Retries spent (0 = first attempt succeeded).
    pub retries: usize,
    /// Monitor verdict, when a monitor is attached and the step produced a
    /// fresh observation.
    pub monitor: Option<MonitorStatus>,
}

struct CachedContext {
    index: usize,
    class: ClassId,
    quality: Quality,
    age_steps: usize,
}

/// Serializable mirror of the last-good-context cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheSnapshot {
    /// Window index the cached context was produced at.
    pub index: usize,
    /// Cached class.
    pub class: ClassId,
    /// Quality the cached classification carried.
    pub quality: Quality,
    /// How many steps ago the cache was filled.
    pub age_steps: usize,
}

/// Everything a [`SupervisedSystem`] needs to survive a restart, minus the
/// wrapped `CqmSystem` itself (the model is checkpointed separately; see the
/// `cqm-persist` crate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SupervisorSnapshot {
    /// Tuning knobs in force.
    pub config: SupervisorConfig,
    /// Degradation ladder state, streaks and transition log.
    pub ladder: LadderSnapshot,
    /// Last-good-context cache, if filled.
    pub cache: Option<CacheSnapshot>,
    /// Quality-monitor state, if a monitor is attached.
    pub monitor: Option<MonitorSnapshot>,
}

/// The graceful-degradation wrapper around [`CqmSystem`].
pub struct SupervisedSystem<C> {
    system: CqmSystem<C>,
    config: SupervisorConfig,
    ladder: DegradationLadder,
    monitor: Option<QualityMonitor>,
    cache: Option<CachedContext>,
}

impl<C: Classifier> SupervisedSystem<C> {
    /// Wrap a composed CQM system.
    pub fn new(system: CqmSystem<C>, config: SupervisorConfig) -> Self {
        SupervisedSystem {
            system,
            ladder: DegradationLadder::new(config.policy),
            config,
            monitor: None,
            cache: None,
        }
    }

    /// Attach a quality monitor whose drift verdicts feed the ladder.
    pub fn with_monitor(mut self, monitor: QualityMonitor) -> Self {
        self.monitor = Some(monitor);
        self
    }

    /// The wrapped system.
    pub fn system(&self) -> &CqmSystem<C> {
        &self.system
    }

    /// Current ladder state.
    pub fn state(&self) -> HealthState {
        self.ladder.state()
    }

    /// The ladder (streaks, transition log).
    pub fn ladder(&self) -> &DegradationLadder {
        &self.ladder
    }

    /// Forget cache, streaks and monitor history (e.g. after a model swap).
    pub fn reset(&mut self) {
        self.ladder.reset();
        self.cache = None;
        if let Some(m) = self.monitor.as_mut() {
            m.reset();
        }
    }

    fn serve_fallback(&mut self, fault: StepFault, retries: usize) -> StepReport {
        let state = self.ladder.on_fault();
        let served = match &self.cache {
            Some(c) if c.age_steps <= self.config.cache_ttl => ServedContext::Cached {
                index: c.index,
                class: c.class,
                quality: c.quality,
                age_steps: c.age_steps,
            },
            _ => ServedContext::Unavailable,
        };
        StepReport {
            served,
            state,
            fault: Some(fault),
            retries,
            monitor: None,
        }
    }

    /// Run one supervised step against `source`. Returns `None` once the
    /// source has ended.
    pub fn step(&mut self, source: &mut dyn CueSource) -> Option<StepReport> {
        // The cache ages in steps regardless of what this step produces.
        if let Some(c) = self.cache.as_mut() {
            c.age_steps = c.age_steps.saturating_add(1);
        }

        let started = Instant::now();
        let mut last_fault = StepFault::Dropout;
        let mut retries = 0usize;

        for attempt in 0..=self.config.max_retries {
            if attempt > 0 {
                retries = attempt;
                let backoff = self.config.backoff_base * (1u32 << (attempt - 1).min(16));
                if backoff > Duration::ZERO {
                    std::thread::sleep(backoff);
                }
            }
            if let Some(budget) = self.config.call_timeout {
                if started.elapsed() > budget {
                    return Some(self.serve_fallback(StepFault::Timeout, retries));
                }
            }
            match source.poll() {
                Poll::Ended => {
                    if attempt == 0 {
                        // The end-of-stream probe produced no report, so it
                        // must not count as a step: undo the cache aging so
                        // state is exactly the sum of reported steps (the
                        // crash-recovery replay invariant).
                        if let Some(c) = self.cache.as_mut() {
                            c.age_steps = c.age_steps.saturating_sub(1);
                        }
                        return None;
                    }
                    // The stream ran out mid-retry: surface the transient
                    // fault; the next step reports the end.
                    break;
                }
                Poll::NotReady => {
                    last_fault = StepFault::Dropout;
                    continue;
                }
                Poll::Ready(reading) => {
                    if reading.age > self.config.staleness_ttl {
                        last_fault = StepFault::Stale;
                        continue;
                    }
                    match self.system.classify_with_quality(&reading.cues) {
                        Err(e) => {
                            last_fault = StepFault::ClassifyError(e.to_string());
                            continue;
                        }
                        Ok(result) if result.quality.is_epsilon() => {
                            last_fault = StepFault::Epsilon;
                            continue;
                        }
                        Ok(result) => {
                            if let Some(budget) = self.config.call_timeout {
                                if started.elapsed() > budget {
                                    return Some(
                                        self.serve_fallback(StepFault::Timeout, retries),
                                    );
                                }
                            }
                            return Some(self.finish_success(reading.index, result, retries));
                        }
                    }
                }
            }
        }
        Some(self.serve_fallback(last_fault, retries))
    }

    fn finish_success(
        &mut self,
        index: usize,
        result: QualifiedClassification,
        retries: usize,
    ) -> StepReport {
        let monitor_status = self
            .monitor
            .as_mut()
            .map(|m| m.observe(result.quality, result.decision));
        if result.decision.is_accept() {
            self.cache = Some(CachedContext {
                index,
                class: result.class,
                quality: result.quality,
                age_steps: 0,
            });
        }
        let drifted = matches!(monitor_status, Some(MonitorStatus::Drifted { .. }));
        let (state, fault) = if drifted {
            (self.ladder.on_fault(), Some(StepFault::Drifted))
        } else {
            (self.ladder.on_success(), None)
        };
        StepReport {
            served: ServedContext::Fresh { index, result },
            state,
            fault,
            retries,
            monitor: monitor_status,
        }
    }

    /// Drive the source to exhaustion, collecting every step report.
    pub fn run(&mut self, source: &mut dyn CueSource) -> Vec<StepReport> {
        let mut out = Vec::new();
        while let Some(report) = self.step(source) {
            out.push(report);
        }
        out
    }

    /// Capture the supervisor's full runtime state for persistence.
    pub fn snapshot(&self) -> SupervisorSnapshot {
        SupervisorSnapshot {
            config: self.config,
            ladder: self.ladder.snapshot(),
            cache: self.cache.as_ref().map(|c| CacheSnapshot {
                index: c.index,
                class: c.class,
                quality: c.quality,
                age_steps: c.age_steps,
            }),
            monitor: self.monitor.as_ref().map(QualityMonitor::snapshot),
        }
    }

    /// Rebuild a supervisor around `system` from a persisted snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`ResilienceError::InvalidConfig`] if the snapshot carries an
    /// invalid or internally inconsistent policy, or a core error if the
    /// monitor state fails revalidation — a corrupted or hand-edited
    /// checkpoint must surface as a typed error, never as a bad supervisor.
    pub fn restore(system: CqmSystem<C>, snap: &SupervisorSnapshot) -> Result<Self> {
        let ladder = DegradationLadder::from_snapshot(&snap.ladder)?;
        if snap.config.policy != *ladder.policy() {
            return Err(ResilienceError::InvalidConfig(
                "snapshot config.policy disagrees with ladder policy".to_string(),
            ));
        }
        let monitor = match &snap.monitor {
            Some(m) => Some(QualityMonitor::from_snapshot(m)?),
            None => None,
        };
        Ok(SupervisedSystem {
            system,
            config: snap.config,
            ladder,
            monitor,
            cache: snap.cache.as_ref().map(|c| CachedContext {
                index: c.index,
                class: c.class,
                quality: c.quality,
                age_steps: c.age_steps,
            }),
        })
    }

    /// Re-apply one journaled step's state effects without re-running
    /// inference. Crash recovery replays the journal tail through this: the
    /// recorded outcome drives the ladder, cache and monitor exactly as the
    /// original [`step`](Self::step) did, so the rebuilt supervisor lands in
    /// the same state the crashed process was in.
    pub fn apply_journaled_step(&mut self, report: &StepReport) {
        if let Some(c) = self.cache.as_mut() {
            c.age_steps = c.age_steps.saturating_add(1);
        }
        if let ServedContext::Fresh { index, result } = &report.served {
            if report.monitor.is_some() {
                if let Some(m) = self.monitor.as_mut() {
                    m.observe(result.quality, result.decision);
                }
            }
            if result.decision.is_accept() {
                self.cache = Some(CachedContext {
                    index: *index,
                    class: result.class,
                    quality: result.quality,
                    age_steps: 0,
                });
            }
        }
        if report.fault.is_some() {
            self.ladder.on_fault();
        } else {
            self.ladder.on_success();
        }
    }
}

impl<C: std::fmt::Debug> std::fmt::Debug for SupervisedSystem<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisedSystem")
            .field("state", &self.ladder.state())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqm_core::monitor::OperatingProfile;
    use cqm_core::training::{train_cqm, CqmTrainingConfig};
    use cqm_core::Result as CoreResult;

    use crate::fault::{FaultKind, FaultPlan, ScheduledFault};

    /// Deterministic 1-D classifier: class 1 iff `cue[0] > boundary`.
    struct BoundaryClassifier {
        boundary: f64,
    }

    impl Classifier for BoundaryClassifier {
        fn classify(&self, cues: &[f64]) -> CoreResult<ClassId> {
            self.check_cues(cues)?;
            Ok(ClassId(usize::from(cues[0] > self.boundary)))
        }

        fn cue_dim(&self) -> usize {
            1
        }

        fn num_classes(&self) -> usize {
            2
        }
    }

    fn trained_system() -> CqmSystem<BoundaryClassifier> {
        let cues: Vec<Vec<f64>> = (0..300).map(|i| vec![i as f64 / 299.0]).collect();
        let truth: Vec<ClassId> = cues
            .iter()
            .map(|c| ClassId(usize::from(c[0] > 0.45)))
            .collect();
        let clf = BoundaryClassifier { boundary: 0.5 };
        let trained = train_cqm(&clf, &cues, &truth, &CqmTrainingConfig::fast()).unwrap();
        CqmSystem::from_trained(BoundaryClassifier { boundary: 0.5 }, &trained).unwrap()
    }

    /// Confident class-1 windows: always accepted on a clean stream.
    fn clean_windows(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![0.85 + 0.1 * (i as f64 / n as f64)]).collect()
    }

    fn source(windows: Vec<Vec<f64>>, plan: &FaultPlan) -> WindowSource {
        WindowSource::new(windows, FaultInjector::new(plan))
    }

    fn supervisor() -> SupervisedSystem<BoundaryClassifier> {
        SupervisedSystem::new(trained_system(), SupervisorConfig::default())
    }

    #[test]
    fn clean_stream_stays_healthy_and_serves_fresh() {
        let mut sup = supervisor();
        let mut src = source(clean_windows(30), &FaultPlan::clean(0));
        let reports = sup.run(&mut src);
        assert_eq!(reports.len(), 30);
        for r in &reports {
            assert!(matches!(r.served, ServedContext::Fresh { .. }));
            assert_eq!(r.state, HealthState::Healthy);
            assert_eq!(r.fault, None);
            assert_eq!(r.retries, 0);
        }
    }

    #[test]
    fn sustained_dropout_escalates_and_serves_cache_then_unavailable() {
        let mut sup = supervisor();
        // 10 clean, then dropout to the end.
        let plan = FaultPlan::new(
            1,
            vec![ScheduledFault {
                channel: None,
                kind: FaultKind::Dropout,
                from: 10,
                until: 200,
            }],
        )
        .unwrap();
        let mut src = source(clean_windows(100), &FaultPlan::clean(0));
        src.injector = FaultInjector::new(&plan);
        let reports = sup.run(&mut src);
        // Dropout steps burn 1 + max_retries windows each.
        let faulted: Vec<&StepReport> = reports.iter().filter(|r| r.fault.is_some()).collect();
        assert!(!faulted.is_empty());
        // Early faulted steps serve the cached context; eventually the TTL
        // expires and the supervisor goes Unavailable.
        assert!(matches!(faulted[0].served, ServedContext::Cached { .. }));
        let last = reports.last().unwrap();
        assert_eq!(last.served, ServedContext::Unavailable);
        // Ladder escalated all the way down.
        assert_eq!(sup.state(), HealthState::Failsafe);
    }

    #[test]
    fn recovery_after_fault_clears() {
        let mut sup = supervisor();
        let plan = FaultPlan::new(
            2,
            vec![ScheduledFault {
                channel: None,
                kind: FaultKind::Dropout,
                from: 5,
                until: 50,
            }],
        )
        .unwrap();
        let mut src = source(clean_windows(120), &plan);
        let reports = sup.run(&mut src);
        assert_eq!(sup.state(), HealthState::Healthy, "did not recover");
        let states: Vec<HealthState> =
            sup.ladder().transitions().iter().map(|&(_, s)| s).collect();
        assert!(states.contains(&HealthState::Degraded));
        assert!(states.contains(&HealthState::Recovering));
        assert_eq!(states.last(), Some(&HealthState::Healthy));
        assert!(reports.iter().any(|r| r.fault.is_some()));
    }

    #[test]
    fn stale_readings_rejected_by_ttl() {
        let mut sup = supervisor();
        let plan = FaultPlan::new(
            3,
            vec![ScheduledFault {
                channel: None,
                kind: FaultKind::Latency { windows: 5 },
                from: 10,
                until: 40,
            }],
        )
        .unwrap();
        let mut src = source(clean_windows(60), &plan);
        let reports = sup.run(&mut src);
        assert!(reports
            .iter()
            .any(|r| matches!(r.fault, Some(StepFault::Stale))));
    }

    #[test]
    fn epsilon_cues_are_fault_signals() {
        let mut sup = supervisor();
        let plan = FaultPlan::new(
            4,
            vec![ScheduledFault {
                channel: None,
                kind: FaultKind::StuckAt(Some(500.0)),
                from: 5,
                until: 30,
            }],
        )
        .unwrap();
        let mut src = source(clean_windows(40), &plan);
        let reports = sup.run(&mut src);
        let eps_or_err = reports.iter().any(|r| {
            matches!(
                r.fault,
                Some(StepFault::Epsilon) | Some(StepFault::ClassifyError(_))
            )
        });
        assert!(eps_or_err, "stuck-at-rail must surface as eps/classify fault");
        // The fault streak demoted the ladder at some point (it may have
        // legitimately recovered on the clean tail).
        assert!(sup
            .ladder()
            .transitions()
            .iter()
            .any(|&(_, s)| s == HealthState::Degraded));
    }

    #[test]
    fn nan_poisoned_channel_is_classify_error_not_panic() {
        let mut sup = supervisor();
        let plan = FaultPlan::new(
            5,
            vec![ScheduledFault {
                channel: Some(0),
                kind: FaultKind::Dropout,
                from: 0,
                until: 10,
            }],
        )
        .unwrap();
        let mut src = source(clean_windows(10), &plan);
        let reports = sup.run(&mut src);
        assert!(reports
            .iter()
            .all(|r| matches!(r.fault, Some(StepFault::ClassifyError(_)))));
    }

    #[test]
    fn timeout_fires_on_slow_source() {
        struct SlowSource {
            left: usize,
        }
        impl CueSource for SlowSource {
            fn poll(&mut self) -> Poll {
                if self.left == 0 {
                    return Poll::Ended;
                }
                self.left -= 1;
                std::thread::sleep(Duration::from_millis(20));
                Poll::NotReady
            }
        }
        let mut sup = SupervisedSystem::new(
            trained_system(),
            SupervisorConfig {
                call_timeout: Some(Duration::from_millis(5)),
                max_retries: 5,
                ..SupervisorConfig::default()
            },
        );
        let mut src = SlowSource { left: 3 };
        let report = sup.step(&mut src).unwrap();
        assert_eq!(report.fault, Some(StepFault::Timeout));
        // The timeout bounded the step: nowhere near 6 polls happened.
        assert!(src.left > 0);
    }

    #[test]
    fn retry_rides_through_single_window_flap() {
        let mut sup = supervisor();
        // period-1 flapping: every other window drops; one retry reaches the
        // next (delivered) window, so no step ever exhausts its retries. The
        // fault ends at 39 so the final window is delivered (a drop on the
        // very last window would leave that step with nothing to retry into).
        let plan = FaultPlan::new(
            6,
            vec![ScheduledFault {
                channel: None,
                kind: FaultKind::Flapping { period: 1 },
                from: 0,
                until: 39,
            }],
        )
        .unwrap();
        let mut src = source(clean_windows(40), &plan);
        let reports = sup.run(&mut src);
        assert!(reports.iter().all(|r| r.fault.is_none()));
        assert!(reports.iter().any(|r| r.retries > 0));
        assert_eq!(sup.state(), HealthState::Healthy);
    }

    #[test]
    fn monitor_drift_feeds_the_ladder() {
        // A monitor expecting high acceptance sees a discard-heavy stream:
        // drift verdicts must escalate the ladder even though every window
        // classifies without error.
        let monitor = QualityMonitor::new(
            OperatingProfile::new(1.0, 0.95).unwrap(),
            8,
            0.2,
        )
        .unwrap();
        let mut sup = SupervisedSystem::new(trained_system(), SupervisorConfig::default())
            .with_monitor(monitor);
        // Ambiguous-band windows: valid quality, mostly discarded.
        let windows: Vec<Vec<f64>> = (0..40).map(|i| vec![0.46 + 0.001 * (i % 10) as f64]).collect();
        let mut src = source(windows, &FaultPlan::clean(0));
        let reports = sup.run(&mut src);
        assert!(reports
            .iter()
            .any(|r| matches!(r.fault, Some(StepFault::Drifted))));
        assert_ne!(sup.state(), HealthState::Healthy);
    }

    #[test]
    fn reset_clears_cache_and_state() {
        let mut sup = supervisor();
        let plan = FaultPlan::new(
            7,
            vec![ScheduledFault {
                channel: None,
                kind: FaultKind::Dropout,
                from: 3,
                until: 60,
            }],
        )
        .unwrap();
        let mut src = source(clean_windows(60), &plan);
        sup.run(&mut src);
        assert_ne!(sup.state(), HealthState::Healthy);
        sup.reset();
        assert_eq!(sup.state(), HealthState::Healthy);
        // After reset the cache is gone: a fault serves Unavailable.
        let mut src2 = source(clean_windows(3), &{
            FaultPlan::new(
                8,
                vec![ScheduledFault {
                    channel: None,
                    kind: FaultKind::Dropout,
                    from: 0,
                    until: 3,
                }],
            )
            .unwrap()
        });
        let r = sup.step(&mut src2).unwrap();
        assert_eq!(r.served, ServedContext::Unavailable);
    }

    /// A faulty-but-recovering plan used by the persistence tests.
    fn bumpy_plan(seed: u64) -> FaultPlan {
        FaultPlan::new(
            seed,
            vec![
                ScheduledFault {
                    channel: None,
                    kind: FaultKind::Dropout,
                    from: 8,
                    until: 20,
                },
                ScheduledFault {
                    channel: None,
                    kind: FaultKind::Flapping { period: 2 },
                    from: 35,
                    until: 45,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut sup = supervisor();
        let mut src = source(clean_windows(60), &bumpy_plan(11));
        sup.run(&mut src);
        let snap = sup.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: SupervisorSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
        assert!(snap.cache.is_some(), "accepted steps must fill the cache");
    }

    #[test]
    fn restore_resumes_bit_identically() {
        // Run A for 25 steps, snapshot, restore B from the snapshot, then
        // drive both over the identical remaining stream: every report must
        // match exactly (the deterministic-recovery contract).
        let mut a = supervisor();
        let mut src = source(clean_windows(80), &bumpy_plan(12));
        for _ in 0..25 {
            a.step(&mut src).unwrap();
        }
        let snap = a.snapshot();
        let mut b = SupervisedSystem::restore(trained_system(), &snap).unwrap();
        let mut src_b = src.clone();
        let rest_a = a.run(&mut src);
        let rest_b = b.run(&mut src_b);
        assert_eq!(rest_a, rest_b);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn restore_preserves_monitor_state() {
        let monitor =
            QualityMonitor::new(OperatingProfile::new(1.0, 0.95).unwrap(), 8, 0.2).unwrap();
        let mut a = SupervisedSystem::new(trained_system(), SupervisorConfig::default())
            .with_monitor(monitor);
        let windows: Vec<Vec<f64>> =
            (0..30).map(|i| vec![0.46 + 0.001 * (i % 10) as f64]).collect();
        let mut src = source(windows.clone(), &FaultPlan::clean(0));
        for _ in 0..15 {
            a.step(&mut src).unwrap();
        }
        let snap = a.snapshot();
        assert!(snap.monitor.is_some());
        let mut b = SupervisedSystem::restore(trained_system(), &snap).unwrap();
        let mut src_b = src.clone();
        assert_eq!(a.run(&mut src), b.run(&mut src_b));
    }

    #[test]
    fn restore_rejects_inconsistent_policy() {
        let sup = supervisor();
        let mut snap = sup.snapshot();
        snap.ladder.policy.failsafe_after = snap.ladder.policy.degrade_after; // invalid
        assert!(SupervisedSystem::restore(trained_system(), &snap).is_err());
        let mut snap2 = sup.snapshot();
        snap2.config.policy = DegradationPolicy::new(2, 9, 4, 6).unwrap(); // mismatch
        assert!(SupervisedSystem::restore(trained_system(), &snap2).is_err());
    }

    #[test]
    fn journal_replay_reaches_the_crashed_state() {
        // Original process: run to completion, journaling every report.
        let mut original = supervisor();
        let mut src = source(clean_windows(60), &bumpy_plan(13));
        let journal = original.run(&mut src);
        // Recovery: fresh supervisor + replayed journal tail.
        let mut recovered = supervisor();
        for report in &journal {
            recovered.apply_journaled_step(report);
        }
        assert_eq!(original.snapshot(), recovered.snapshot());
    }

    #[test]
    fn journal_replay_with_monitor_reaches_the_crashed_state() {
        let mk = || {
            let monitor =
                QualityMonitor::new(OperatingProfile::new(1.0, 0.95).unwrap(), 8, 0.2).unwrap();
            SupervisedSystem::new(trained_system(), SupervisorConfig::default())
                .with_monitor(monitor)
        };
        let mut original = mk();
        let windows: Vec<Vec<f64>> =
            (0..40).map(|i| vec![0.46 + 0.001 * (i % 10) as f64]).collect();
        let mut src = source(windows, &FaultPlan::clean(0));
        let journal = original.run(&mut src);
        let mut recovered = mk();
        for report in &journal {
            recovered.apply_journaled_step(report);
        }
        assert_eq!(original.snapshot(), recovered.snapshot());
    }

    #[test]
    fn served_context_class_accessor() {
        assert_eq!(ServedContext::Unavailable.class(), None);
        let c = ServedContext::Cached {
            index: 0,
            class: ClassId(1),
            quality: Quality::Epsilon,
            age_steps: 1,
        };
        assert_eq!(c.class(), Some(ClassId(1)));
        assert!(StepFault::Timeout.to_string().contains("timeout"));
    }
}
