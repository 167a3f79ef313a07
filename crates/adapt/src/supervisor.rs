//! The adaptation supervisor: observe → detect → retrain → validate →
//! promote, with rollback to last-good.
//!
//! [`AdaptationSupervisor`] closes the paper's offline training loop
//! online. It rides *beside* the serve hot path, never in it:
//!
//! 1. **observe** — every labeled observation is scored by the live model
//!    (classify + quality), the margin `q − s` feeds the Page–Hinkley
//!    [`DriftDetector`], and the sample enters the [`SlidingWindow`].
//! 2. **detect** — the supervisor does nothing until the detector
//!    *confirms* drift; warnings are surfaced but trigger no retrain, so a
//!    noisy hour cannot thrash the model.
//! 3. **retrain** — on confirmed drift the rule structure is evolved
//!    against the window ([`RuleEvolution`]; the O(n²) potential field
//!    is one serial pass over the sample pairs) and the TSK
//!    consequents are re-estimated by streaming RLS
//!    ([`StreamingConsequents`]) warm-started from the live coefficients
//!    (same structure) or from the evolved structure's zeros. The
//!    operating threshold is re-derived exactly as §2.3 does offline:
//!    Gaussian MLE per outcome group, intersection point.
//! 4. **validate** — the candidate must (a) beat the live model's RMSE on
//!    a deterministic holdout split of the window, and (b) survive a
//!    `cqm-persist` checkpoint round-trip with bit-exact quality replay —
//!    a model that cannot round-trip through the swap machinery is
//!    rejected *before* the swap is attempted.
//! 5. **promote** — through [`CqmServer::swap_model`], the registry's
//!    zero-drop validated swap. A failed swap (registry already rolled
//!    back to last-good) is counted and reported, never propagated as a
//!    panic: the serve path keeps answering on the old model either way.
//!
//! Every stage is a deterministic function of the observation stream, so
//! a seeded replay reproduces the same retrain, the same candidate, and
//! the same promotion decision.

use std::path::PathBuf;

use cqm_core::classifier::{ClassId, Classifier};
use cqm_core::model::{CqmModel, MODEL_VERSION};
use cqm_core::normalize::Quality;
use cqm_core::quality::QualityMeasure;
use cqm_persist::CheckpointHandle;
use cqm_serve::{CqmServer, ServeCheckpoint, ServedModel};
use cqm_stats::mle::QualityGroups;
use cqm_stats::threshold::optimal_threshold;

use crate::drift::{DriftConfig, DriftDetector, DriftState};
use crate::evolve::{EvolveConfig, EvolvedRules, RuleEvolution};
use crate::rls::StreamingConsequents;
use crate::window::{AdaptSample, SlidingWindow};
use crate::{AdaptError, Result};

/// Quality value substituted for the ε error state when computing RMSE
/// against the 0/1 rightness target: maximally uninformative, penalizing
/// ε equally against both outcomes.
const EPSILON_QUALITY: f64 = 0.5;

/// Configuration of the adaptation loop.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationConfig {
    /// Sliding-window capacity (samples retained for retraining).
    pub window_capacity: usize,
    /// Minimum samples in the window before a retrain is attempted.
    pub min_window_fill: usize,
    /// Every k-th window sample goes to the validation holdout.
    pub holdout_every: usize,
    /// Drift detector parameters.
    pub drift: DriftConfig,
    /// Evolving rule-structure parameters.
    pub evolve: EvolveConfig,
    /// RLS covariance initialization `P = γI`.
    pub rls_gamma: f64,
    /// RLS forgetting factor λ ∈ (0, 1].
    pub rls_lambda: f64,
    /// Passes of streaming RLS over the training split.
    pub rls_epochs: usize,
    /// Acceptance bar: candidate holdout RMSE must be at most
    /// `live RMSE × max_holdout_ratio`.
    pub max_holdout_ratio: f64,
}

impl Default for AdaptationConfig {
    fn default() -> Self {
        AdaptationConfig {
            window_capacity: 240,
            min_window_fill: 60,
            holdout_every: 5,
            drift: DriftConfig::default(),
            evolve: EvolveConfig::default(),
            rls_gamma: 1e6,
            rls_lambda: 1.0,
            rls_epochs: 2,
            max_holdout_ratio: 1.0,
        }
    }
}

impl AdaptationConfig {
    /// Validate the parameter domains.
    ///
    /// # Errors
    ///
    /// Returns [`AdaptError::InvalidConfig`] on the first out-of-domain
    /// parameter; propagates nested config validation.
    pub fn validate(&self) -> Result<()> {
        if self.window_capacity == 0 {
            return Err(AdaptError::InvalidConfig {
                name: "window_capacity",
                value: 0.0,
            });
        }
        if self.min_window_fill < 8 || self.min_window_fill > self.window_capacity {
            return Err(AdaptError::InvalidConfig {
                name: "min_window_fill",
                value: self.min_window_fill as f64,
            });
        }
        if self.holdout_every < 2 {
            return Err(AdaptError::InvalidConfig {
                name: "holdout_every",
                value: self.holdout_every as f64,
            });
        }
        if !(self.rls_gamma > 0.0 && self.rls_gamma.is_finite()) {
            return Err(AdaptError::InvalidConfig {
                name: "rls_gamma",
                value: self.rls_gamma,
            });
        }
        if !(self.rls_lambda > 0.0 && self.rls_lambda <= 1.0) {
            return Err(AdaptError::InvalidConfig {
                name: "rls_lambda",
                value: self.rls_lambda,
            });
        }
        if self.rls_epochs == 0 {
            return Err(AdaptError::InvalidConfig {
                name: "rls_epochs",
                value: 0.0,
            });
        }
        if !(self.max_holdout_ratio > 0.0 && self.max_holdout_ratio.is_finite()) {
            return Err(AdaptError::InvalidConfig {
                name: "max_holdout_ratio",
                value: self.max_holdout_ratio,
            });
        }
        self.drift.validate()?;
        self.evolve.validate()?;
        Ok(())
    }
}

/// Counters the supervisor maintains across its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptationStats {
    /// Labeled observations folded in.
    pub observed: u64,
    /// Transitions into [`DriftState::Warn`].
    pub warn_events: u64,
    /// Transitions into [`DriftState::Drift`].
    pub drift_events: u64,
    /// Retrains attempted (candidate builds started).
    pub retrains: u64,
    /// Candidates promoted to live.
    pub promotions: u64,
    /// Candidates rejected (validation failure or failed swap).
    pub rejections: u64,
    /// Swap attempts the registry refused (and rolled back to last-good).
    pub swap_failures: u64,
}

/// A validated candidate model, ready to promote.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The candidate served artifact (same classifier, adapted quality
    /// model).
    pub model: ServedModel,
    /// Live model's RMSE on the holdout split.
    pub live_holdout_rmse: f64,
    /// Candidate's RMSE on the same holdout.
    pub holdout_rmse: f64,
    /// Structure-evolution outcome.
    pub structure: EvolvedRules,
    /// Re-derived operating threshold.
    pub threshold: f64,
    /// Rule count before adaptation.
    pub rules_before: usize,
    /// Rule count after adaptation.
    pub rules_after: usize,
}

/// What one supervision step did.
#[derive(Debug, Clone)]
pub enum AdaptationOutcome {
    /// No drift: nothing to do.
    Stable,
    /// Detector warns; no retrain yet.
    Warning,
    /// A candidate was validated and swapped in.
    Promoted {
        /// Registry swap sequence number.
        swap_seq: u64,
        /// The promoted candidate (now live).
        candidate: Box<Candidate>,
    },
    /// Drift confirmed but no candidate landed; the live model stays.
    Rejected {
        /// Why (validation failure, or a failed swap the registry rolled
        /// back).
        reason: String,
    },
}

/// The online adaptation supervisor.
#[derive(Debug)]
pub struct AdaptationSupervisor {
    config: AdaptationConfig,
    window: SlidingWindow,
    detector: DriftDetector,
    evolution: RuleEvolution,
    live: ServedModel,
    tenant: String,
    validate_path: PathBuf,
    stats: AdaptationStats,
}

impl AdaptationSupervisor {
    /// Create a supervisor for `tenant`, starting from the currently
    /// served `live` model. `validate_dir` hosts the throwaway checkpoint
    /// used for the round-trip validation probe.
    ///
    /// # Errors
    ///
    /// Propagates [`AdaptationConfig::validate`].
    pub fn new(
        config: AdaptationConfig,
        live: ServedModel,
        tenant: impl Into<String>,
        validate_dir: impl Into<PathBuf>,
    ) -> Result<Self> {
        config.validate()?;
        let window = SlidingWindow::new(config.window_capacity)?;
        let detector = DriftDetector::new(config.drift)?;
        let evolution = RuleEvolution::new(config.evolve)?;
        Ok(AdaptationSupervisor {
            config,
            window,
            detector,
            evolution,
            live,
            tenant: tenant.into(),
            validate_path: validate_dir.into().join("adapt_candidate.ckpt"),
            stats: AdaptationStats::default(),
        })
    }

    /// The model the supervisor believes is live (last promoted, or the
    /// initial one).
    pub fn live(&self) -> &ServedModel {
        &self.live
    }

    /// Lifetime counters.
    pub fn stats(&self) -> AdaptationStats {
        self.stats
    }

    /// Current detector state.
    pub fn drift_state(&self) -> DriftState {
        self.detector.state()
    }

    /// The sample window.
    pub fn window(&self) -> &SlidingWindow {
        &self.window
    }

    /// Fold in one labeled observation: score it with the live model, feed
    /// the drift detector, store it in the window. Returns the detector
    /// state after the observation.
    ///
    /// # Errors
    ///
    /// Propagates classification/measurement failures from the live model
    /// (dimension mismatches — a healthy stream never hits these).
    pub fn observe(&mut self, cues: &[f64], truth: ClassId) -> Result<DriftState> {
        let predicted = self.live.classifier().classify(cues)?;
        let quality = self.live.model().measure.measure(cues, predicted)?;
        let before = self.detector.state();
        let after = self.detector.observe(quality, self.live.model().threshold);
        if after != before {
            match after {
                DriftState::Warn => self.stats.warn_events += 1,
                DriftState::Drift => self.stats.drift_events += 1,
                DriftState::Stable => {}
            }
        }
        self.window.push(AdaptSample {
            cues: cues.to_vec(),
            truth,
        });
        self.stats.observed += 1;
        Ok(after)
    }

    /// One supervision step against a live server: retrain + validate +
    /// promote if drift is confirmed, otherwise report the detector state.
    /// Rejections (including a failed swap, which the registry rolls back)
    /// are outcomes, not errors — the serve path is never poisoned by a
    /// bad candidate.
    ///
    /// # Errors
    ///
    /// Only infrastructure failures (e.g. a broken live model). All
    /// validation failures come back as [`AdaptationOutcome::Rejected`].
    pub fn step(&mut self, server: &CqmServer) -> Result<AdaptationOutcome> {
        let tenant = self.tenant.clone();
        self.step_with(|model| {
            server
                .swap_model(&tenant, model.clone())
                .map_err(AdaptError::from)
        })
    }

    /// [`AdaptationSupervisor::step`] with an explicit promotion function
    /// (exposed for tests and custom deployment topologies). `swap` is
    /// called at most once, with the validated candidate.
    ///
    /// # Errors
    ///
    /// Same contract as [`AdaptationSupervisor::step`].
    pub fn step_with<F>(&mut self, mut swap: F) -> Result<AdaptationOutcome>
    where
        F: FnMut(&ServedModel) -> Result<u64>,
    {
        match self.detector.state() {
            DriftState::Stable => return Ok(AdaptationOutcome::Stable),
            DriftState::Warn => return Ok(AdaptationOutcome::Warning),
            DriftState::Drift => {}
        }
        self.stats.retrains += 1;
        let candidate = match self.try_candidate() {
            Ok(c) => c,
            Err(AdaptError::CandidateRejected(reason)) => {
                self.stats.rejections += 1;
                return Ok(AdaptationOutcome::Rejected { reason });
            }
            Err(e) => return Err(e),
        };
        match swap(&candidate.model) {
            Ok(swap_seq) => {
                self.live = candidate.model.clone();
                self.detector.reset();
                self.stats.promotions += 1;
                Ok(AdaptationOutcome::Promoted {
                    swap_seq,
                    candidate: Box::new(candidate),
                })
            }
            Err(e) => {
                self.stats.swap_failures += 1;
                self.stats.rejections += 1;
                Ok(AdaptationOutcome::Rejected {
                    reason: format!("swap failed, registry kept last-good: {e}"),
                })
            }
        }
    }

    /// Build and validate a candidate from the current window, without
    /// promoting it. The classifier is kept fixed (the CQM treats it as a
    /// black box); only the quality measure and threshold adapt.
    ///
    /// # Errors
    ///
    /// * [`AdaptError::CandidateRejected`] for every *soft* failure: short
    ///   window, one-sided outcomes, unordered quality groups, holdout
    ///   regression, round-trip mismatch.
    /// * Other variants only for infrastructure failures.
    pub fn try_candidate(&mut self) -> Result<Candidate> {
        if self.window.len() < self.config.min_window_fill {
            return Err(AdaptError::CandidateRejected(format!(
                "window holds {} samples, retrain needs {}",
                self.window.len(),
                self.config.min_window_fill
            )));
        }
        let (train, holdout) = match self.window.split(self.config.holdout_every) {
            Ok(parts) => parts,
            Err(e) => return Err(AdaptError::CandidateRejected(format!("split failed: {e}"))),
        };

        // Joint rows + rightness targets under the fixed black-box
        // classifier.
        let measure = &self.live.model().measure;
        let classifier = self.live.classifier();
        let mut train_rows: Vec<Vec<f64>> = Vec::with_capacity(train.len());
        let mut train_targets: Vec<f64> = Vec::with_capacity(train.len());
        let mut train_predicted: Vec<ClassId> = Vec::with_capacity(train.len());
        for s in &train {
            let predicted = classifier.classify(&s.cues)?;
            train_rows.push(measure.joint_input(&s.cues, predicted));
            train_targets.push(if predicted == s.truth { 1.0 } else { 0.0 });
            train_predicted.push(predicted);
        }
        let rights = train_targets.iter().filter(|&&t| t > 0.5).count();
        if rights == 0 || rights == train_targets.len() {
            return Err(AdaptError::CandidateRejected(format!(
                "window is one-sided ({rights}/{} right): threshold underivable",
                train_targets.len()
            )));
        }

        // Evolve the rule structure against the window.
        let rules_before = measure.fis().rule_count();
        let current_centers = RuleEvolution::centers_of(measure.fis());
        let structure = self.evolution.evolve(&current_centers, &train_rows)?;
        let mut fis = if structure.changed() {
            self.evolution
                .structure_for(&structure.centers, &train_rows)?
        } else {
            measure.fis().clone()
        };

        // Streaming RLS over the training split: warm-started from the
        // live coefficients when the structure is unchanged (covariance
        // reset re-opens the gain), from the structure's zeros otherwise.
        let mut rls =
            StreamingConsequents::new(&fis, self.config.rls_gamma, self.config.rls_lambda)?;
        for epoch in 0..self.config.rls_epochs {
            if epoch > 0 {
                rls.reset_covariance(self.config.rls_gamma)?;
            }
            for (row, &target) in train_rows.iter().zip(&train_targets) {
                rls.observe(&fis, row, target)?;
            }
        }
        if rls.updates() == 0 {
            return Err(AdaptError::CandidateRejected(
                "no training sample fires any rule".into(),
            ));
        }
        rls.apply(&mut fis);
        let candidate_measure = QualityMeasure::new(fis)
            .map_err(|e| AdaptError::CandidateRejected(format!("measure rebuild: {e}")))?;

        // Threshold re-derivation (§2.3 on the adapted measure): Gaussian
        // MLE per outcome group over the training split, intersection.
        let mut right = Vec::new();
        let mut wrong = Vec::new();
        for ((s, predicted), &target) in train.iter().zip(&train_predicted).zip(&train_targets) {
            if let Quality::Value(q) = candidate_measure.measure(&s.cues, *predicted)? {
                if target > 0.5 {
                    right.push(q);
                } else {
                    wrong.push(q);
                }
            }
        }
        let groups =
            QualityGroups::fit_with_floor(&right, &wrong, cqm_stats::mle::DEFAULT_SIGMA_FLOOR)
                .map_err(|e| AdaptError::CandidateRejected(format!("quality groups: {e}")))?;
        let threshold = optimal_threshold(&groups)
            .map_err(|e| AdaptError::CandidateRejected(format!("threshold: {e}")))?
            .value
            .clamp(0.0, 1.0);

        let model = CqmModel {
            version: MODEL_VERSION,
            measure: candidate_measure,
            threshold,
            note: format!(
                "adapted online at observation {} (window {}, {} rules)",
                self.window.observed(),
                self.window.len(),
                structure.centers.len()
            ),
        };
        let candidate = ServedModel::new(classifier.clone(), model)
            .map_err(|e| AdaptError::CandidateRejected(format!("served-model validation: {e}")))?;

        // Holdout gate: the candidate must not regress against the live
        // model on data neither was fitted on.
        let live_holdout_rmse = holdout_rmse(&self.live, &holdout)?;
        let cand_holdout_rmse = holdout_rmse(&candidate, &holdout)?;
        if cand_holdout_rmse > live_holdout_rmse * self.config.max_holdout_ratio {
            return Err(AdaptError::CandidateRejected(format!(
                "holdout regression: candidate RMSE {cand_holdout_rmse:.4} vs live {live_holdout_rmse:.4} (ratio bar {})",
                self.config.max_holdout_ratio
            )));
        }

        // Round-trip gate: the candidate must survive the same checkpoint
        // machinery the swap path uses, with bit-exact quality replay.
        self.roundtrip_probe(&candidate, &holdout)?;

        let rules_after = candidate.model().measure.fis().rule_count();
        Ok(Candidate {
            model: candidate,
            live_holdout_rmse,
            holdout_rmse: cand_holdout_rmse,
            structure,
            threshold,
            rules_before,
            rules_after,
        })
    }

    /// Save + reload the candidate through `cqm-persist` and replay the
    /// holdout bit-exactly on the reloaded copy.
    fn roundtrip_probe(&self, candidate: &ServedModel, holdout: &[&AdaptSample]) -> Result<()> {
        if let Some(dir) = self.validate_path.parent() {
            std::fs::create_dir_all(dir).ok();
        }
        let handle = CheckpointHandle::new(&self.validate_path);
        let reject = |msg: String| AdaptError::CandidateRejected(msg);
        handle
            .save(&ServeCheckpoint {
                seq: self.stats.retrains,
                model: candidate.clone(),
            })
            .map_err(|e| reject(format!("checkpoint save: {e}")))?;
        let reloaded: ServeCheckpoint = handle
            .load()
            .map_err(|e| reject(format!("checkpoint reload: {e}")))?;
        for s in holdout {
            let predicted = candidate.classifier().classify(&s.cues)?;
            let a = candidate.model().measure.measure(&s.cues, predicted)?;
            let b = reloaded.model.model().measure.measure(&s.cues, predicted)?;
            let same = match (a, b) {
                (Quality::Value(x), Quality::Value(y)) => x.to_bits() == y.to_bits(),
                (Quality::Epsilon, Quality::Epsilon) => true,
                _ => false,
            };
            if !same {
                return Err(reject(
                    "round-trip probe: reloaded candidate answers differently".into(),
                ));
            }
        }
        Ok(())
    }
}

/// RMSE of a model's quality output against the 0/1 rightness target over
/// holdout samples (ε scored as 0.5, the maximally uninformative quality).
/// This is the metric the supervisor's holdout gate compares candidates
/// with; it is public so external harnesses (the `adaptbench` baseline)
/// can score stale, adapted and from-scratch models on the same holdout.
///
/// # Errors
///
/// Returns [`AdaptError::NotEnoughData`] on an empty holdout and
/// propagates classification/measure failures.
pub fn holdout_rmse(model: &ServedModel, holdout: &[&AdaptSample]) -> Result<f64> {
    if holdout.is_empty() {
        return Err(AdaptError::NotEnoughData { have: 0, need: 1 });
    }
    let mut acc = 0.0f64;
    for s in holdout {
        let predicted = model.classifier().classify(&s.cues)?;
        let target = if predicted == s.truth { 1.0 } else { 0.0 };
        let q = match model.model().measure.measure(&s.cues, predicted)? {
            Quality::Value(v) => v,
            Quality::Epsilon => EPSILON_QUALITY,
        };
        acc += (q - target) * (q - target);
    }
    Ok((acc / holdout.len() as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqm_classify::FisClassifier;
    use cqm_fuzzy::{MembershipFunction, TskFis, TskRule};

    /// Hand-built 1-cue 2-class model: class 0 near cue 0, class 1 near
    /// cue 1; quality high on the diagonal (cue and class agree).
    fn tiny_model(threshold: f64) -> ServedModel {
        let g = |mu: f64, s: f64| MembershipFunction::gaussian(mu, s).unwrap();
        let class_fis = TskFis::new(vec![
            TskRule::new(vec![g(0.0, 0.3)], vec![0.0, 0.0]).unwrap(),
            TskRule::new(vec![g(1.0, 0.3)], vec![0.0, 1.0]).unwrap(),
        ])
        .unwrap();
        let classifier = FisClassifier::from_fis(class_fis, 2).unwrap();
        let quality_fis = TskFis::new(vec![
            TskRule::new(vec![g(0.0, 0.25), g(0.0, 0.25)], vec![0.0, 0.0, 1.0]).unwrap(),
            TskRule::new(vec![g(1.0, 0.25), g(1.0, 0.25)], vec![0.0, 0.0, 1.0]).unwrap(),
            TskRule::new(vec![g(0.0, 0.25), g(1.0, 0.25)], vec![0.0, 0.0, 0.0]).unwrap(),
            TskRule::new(vec![g(1.0, 0.25), g(0.0, 0.25)], vec![0.0, 0.0, 0.0]).unwrap(),
        ])
        .unwrap();
        let model = CqmModel {
            version: MODEL_VERSION,
            measure: QualityMeasure::new(quality_fis).unwrap(),
            threshold,
            note: "tiny".into(),
        };
        ServedModel::new(classifier, model).unwrap()
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cqm_adapt_sup_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn supervisor(tag: &str, config: AdaptationConfig) -> AdaptationSupervisor {
        AdaptationSupervisor::new(config, tiny_model(0.5), "default", scratch_dir(tag)).unwrap()
    }

    /// A deterministic labeled stream. `flip_band` misclassifies cues in
    /// [0.35, 0.65): the classifier says one thing, truth says another.
    fn feed(sup: &mut AdaptationSupervisor, n: usize, phase: u64) {
        for i in 0..n {
            let r =
                ((i as u64).wrapping_mul(2654435761).wrapping_add(phase) % 1000) as f64 / 1000.0;
            // Mostly easy samples near the poles, some ambiguous ones.
            let cue = if i % 4 == 0 {
                0.3 + r * 0.4
            } else if i % 2 == 0 {
                r * 0.25
            } else {
                0.75 + r * 0.25
            };
            let truth = ClassId(usize::from(cue > 0.45));
            sup.observe(&[cue], truth).unwrap();
        }
    }

    #[test]
    fn config_validation() {
        let ok = AdaptationConfig::default();
        assert!(ok.validate().is_ok());
        for bad in [
            AdaptationConfig {
                window_capacity: 0,
                ..ok.clone()
            },
            AdaptationConfig {
                min_window_fill: 4,
                ..ok.clone()
            },
            AdaptationConfig {
                min_window_fill: ok.window_capacity + 1,
                ..ok.clone()
            },
            AdaptationConfig {
                holdout_every: 1,
                ..ok.clone()
            },
            AdaptationConfig {
                rls_lambda: 0.0,
                ..ok.clone()
            },
            AdaptationConfig {
                rls_epochs: 0,
                ..ok.clone()
            },
            AdaptationConfig {
                max_holdout_ratio: 0.0,
                ..ok.clone()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn stationary_stream_stays_stable_and_never_swaps() {
        let mut sup = supervisor("stable", AdaptationConfig::default());
        feed(&mut sup, 400, 1);
        assert_eq!(sup.drift_state(), DriftState::Stable);
        let mut swaps = 0;
        let out = sup
            .step_with(|_| {
                swaps += 1;
                Ok(0)
            })
            .unwrap();
        assert!(matches!(out, AdaptationOutcome::Stable));
        assert_eq!(swaps, 0, "stable stream must not touch the server");
        assert_eq!(sup.stats().retrains, 0);
        assert_eq!(sup.stats().drift_events, 0);
    }

    #[test]
    fn short_window_rejects_candidate() {
        let mut sup = supervisor("short", AdaptationConfig::default());
        feed(&mut sup, 10, 1);
        let err = sup.try_candidate().unwrap_err();
        assert!(matches!(err, AdaptError::CandidateRejected(_)), "{err:?}");
    }

    /// Drive the supervisor into confirmed drift: the live model's quality
    /// collapses because traffic concentrates where classifier and truth
    /// disagree.
    fn drive_to_drift(sup: &mut AdaptationSupervisor) {
        // Healthy warm-up.
        feed(sup, 150, 1);
        // Regime change: half the traffic lands in a band where the
        // classifier is *wrong* (cue slightly above its 0.5 boundary,
        // truth says class 0 — supervision disagrees).
        let mut i = 0u64;
        while sup.drift_state() != DriftState::Drift {
            let r = (i.wrapping_mul(2654435761) % 1000) as f64 / 1000.0;
            let cue = 0.5 + r * 0.1;
            let truth = ClassId(0); // classifier says 1 -> wrong
            sup.observe(&[cue], truth).unwrap();
            // Interleave easy, *right* samples so the window keeps both
            // outcomes.
            let easy = if i.is_multiple_of(2) {
                0.05 + r * 0.1
            } else {
                0.85 + r * 0.1
            };
            sup.observe(&[easy], ClassId(usize::from(easy > 0.45)))
                .unwrap();
            i += 1;
            assert!(i < 5000, "drift never confirmed");
        }
    }

    #[test]
    fn drift_produces_a_validated_candidate_and_promotes() {
        let mut sup = supervisor("promote", AdaptationConfig::default());
        drive_to_drift(&mut sup);
        // The PH statistic can oscillate around the drift threshold while
        // the regime change develops; at least one confirmed transition.
        assert!(sup.stats().drift_events >= 1);
        let mut swapped = false;
        let out = sup
            .step_with(|m| {
                swapped = true;
                assert_eq!(m.cue_dim(), 1);
                Ok(7)
            })
            .unwrap();
        match out {
            AdaptationOutcome::Promoted {
                swap_seq,
                candidate,
            } => {
                assert!(swapped);
                assert_eq!(swap_seq, 7);
                assert!(candidate.threshold >= 0.0 && candidate.threshold <= 1.0);
                assert!(
                    candidate.holdout_rmse <= candidate.live_holdout_rmse,
                    "candidate {} vs live {}",
                    candidate.holdout_rmse,
                    candidate.live_holdout_rmse
                );
            }
            other => panic!("expected promotion, got {other:?}"),
        }
        // Promotion resets the detector and installs the candidate.
        assert_eq!(sup.drift_state(), DriftState::Stable);
        assert_eq!(sup.stats().promotions, 1);
        assert!(sup.live().model().note.contains("adapted online"));
    }

    #[test]
    fn failed_swap_keeps_last_good_and_counts_rollback() {
        let mut sup = supervisor("rollback", AdaptationConfig::default());
        drive_to_drift(&mut sup);
        let before = sup.live().clone();
        let out = sup
            .step_with(|_| {
                Err(AdaptError::CandidateRejected(
                    "injected swap failure".into(),
                ))
            })
            .unwrap();
        match out {
            AdaptationOutcome::Rejected { reason } => {
                assert!(reason.contains("kept last-good"), "{reason}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(sup.stats().swap_failures, 1);
        assert_eq!(sup.stats().promotions, 0);
        assert_eq!(sup.live(), &before, "live model must be untouched");
        // Detector NOT reset: the next step retries the adaptation.
        assert_eq!(sup.drift_state(), DriftState::Drift);
    }

    #[test]
    fn candidate_build_is_deterministic() {
        let build = |tag: &str| {
            let mut sup = supervisor(tag, AdaptationConfig::default());
            drive_to_drift(&mut sup);
            let c = sup.try_candidate().unwrap();
            (
                c.holdout_rmse.to_bits(),
                c.threshold.to_bits(),
                c.rules_after,
            )
        };
        assert_eq!(build("det_a"), build("det_b"));
    }
}
