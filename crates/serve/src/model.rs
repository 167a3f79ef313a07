//! The served artifact and where it comes from.
//!
//! A server holds one [`ServedModel`]: the trained FIS classifier plus the
//! [`CqmModel`] bundle (quality measure + operating threshold). Models are
//! validated at construction — cue dimensions must agree and the threshold
//! must build a filter — so a server never starts on an inconsistent
//! artifact.
//!
//! Warm start reuses `cqm-persist`'s checkpoint machinery verbatim: a
//! [`ServeCheckpoint`] is an ordinary CRC-guarded checkpoint envelope whose
//! payload is the model plus a monotone sequence number. A server given
//! [`ModelSource::WarmStart`] refuses to run without one; given
//! [`ModelSource::WarmStartOr`] it falls back to the provided fresh model
//! on a missing file (but still refuses a *corrupt* one — silently serving
//! a fallback when the checkpoint is damaged would hide exactly the fault
//! the CRC exists to surface).

use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use cqm_classify::FisClassifier;
use cqm_core::classifier::Classifier;
use cqm_core::model::CqmModel;
use cqm_core::QualityFilter;
use cqm_persist::CheckpointHandle;

use crate::{Result, ServeError};

/// Everything a server needs to answer classify+quality requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServedModel {
    classifier: FisClassifier,
    model: CqmModel,
}

impl ServedModel {
    /// Bundle a classifier with its quality model, validating consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] if the cue dimensions
    /// disagree or the model's threshold cannot build a filter.
    pub fn new(classifier: FisClassifier, model: CqmModel) -> Result<Self> {
        if classifier.cue_dim() != model.measure.cue_dim() {
            return Err(ServeError::InvalidConfig(format!(
                "classifier expects {} cues, quality measure expects {}",
                classifier.cue_dim(),
                model.measure.cue_dim()
            )));
        }
        model
            .filter()
            .map_err(|e| ServeError::InvalidConfig(format!("model threshold: {e}")))?;
        Ok(ServedModel { classifier, model })
    }

    /// The classifier half.
    pub fn classifier(&self) -> &FisClassifier {
        &self.classifier
    }

    /// The quality-model half.
    pub fn model(&self) -> &CqmModel {
        &self.model
    }

    /// Cue dimensionality `n` both halves agree on.
    pub fn cue_dim(&self) -> usize {
        self.classifier.cue_dim()
    }

    /// Number of context classes the classifier can emit.
    pub fn num_classes(&self) -> usize {
        self.classifier.num_classes()
    }

    /// The runtime filter at the model's operating threshold.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] on an invalid stored
    /// threshold (guarded at construction, so practically unreachable).
    pub fn filter(&self) -> Result<QualityFilter> {
        self.model
            .filter()
            .map_err(|e| ServeError::InvalidConfig(format!("model threshold: {e}")))
    }
}

/// The checkpoint payload a server writes on shutdown and warm-starts
/// from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeCheckpoint {
    /// Monotone generation counter: 0 means "never checkpointed"; each
    /// graceful shutdown writes `seq + 1`.
    pub seq: u64,
    /// The model that was being served.
    pub model: ServedModel,
}

/// Where a server's model comes from.
#[derive(Debug, Clone)]
pub enum ModelSource {
    /// Serve this model; start at sequence 0.
    Fresh(ServedModel),
    /// Load the checkpoint at this path; refuse to start without it.
    WarmStart(PathBuf),
    /// Load the checkpoint if present, otherwise serve the fallback. A
    /// *corrupt* checkpoint is still an error, never silently skipped.
    WarmStartOr {
        /// Checkpoint location.
        path: PathBuf,
        /// Model to serve when no checkpoint exists yet.
        fallback: Box<ServedModel>,
    },
}

/// A resolved source: the model to serve plus its provenance.
#[derive(Debug, Clone)]
pub struct ResolvedModel {
    /// The model to serve.
    pub model: ServedModel,
    /// Sequence of the checkpoint it came from (0 for fresh).
    pub seq: u64,
    /// Whether it came from a checkpoint.
    pub warm_started: bool,
}

impl ModelSource {
    /// Resolve to a concrete model, reading the checkpoint when asked.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Persist`] on a missing ([`WarmStart`]) or corrupt
    ///   (both warm variants) checkpoint;
    /// * [`ServeError::InvalidConfig`] if the loaded model fails
    ///   validation.
    ///
    /// [`WarmStart`]: ModelSource::WarmStart
    pub fn resolve(self) -> Result<ResolvedModel> {
        match self {
            ModelSource::Fresh(model) => Ok(ResolvedModel {
                model,
                seq: 0,
                warm_started: false,
            }),
            ModelSource::WarmStart(path) => {
                let ck: ServeCheckpoint = CheckpointHandle::new(path).load()?;
                Ok(ResolvedModel {
                    // Re-validate: the CRC proves integrity, not semantic
                    // consistency of a hand-edited artifact.
                    model: ServedModel::new(ck.model.classifier, ck.model.model)?,
                    seq: ck.seq,
                    warm_started: true,
                })
            }
            ModelSource::WarmStartOr { path, fallback } => {
                match CheckpointHandle::new(path).try_load::<ServeCheckpoint>()? {
                    Some(ck) => Ok(ResolvedModel {
                        model: ServedModel::new(ck.model.classifier, ck.model.model)?,
                        seq: ck.seq,
                        warm_started: true,
                    }),
                    None => Ok(ResolvedModel {
                        model: *fallback,
                        seq: 0,
                        warm_started: false,
                    }),
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use cqm_core::model::MODEL_VERSION;
    use cqm_core::QualityMeasure;
    use cqm_fuzzy::{MembershipFunction, TskFis, TskRule};

    /// A hand-built two-class model over one cue in [0, 1]: class 0 near
    /// 0, class 1 near 1; quality high when cue and class agree.
    pub fn tiny_model() -> ServedModel {
        let g = |mu: f64, s: f64| MembershipFunction::gaussian(mu, s).expect("gaussian");
        let class_fis = TskFis::new(vec![
            TskRule::new(vec![g(0.0, 0.3)], vec![0.0, 0.0]).expect("rule"),
            TskRule::new(vec![g(1.0, 0.3)], vec![0.0, 1.0]).expect("rule"),
        ])
        .expect("class fis");
        let classifier = FisClassifier::from_fis(class_fis, 2).expect("classifier");
        let quality_fis = TskFis::new(vec![
            TskRule::new(vec![g(0.0, 0.25), g(0.0, 0.25)], vec![0.0, 0.0, 1.0]).expect("rule"),
            TskRule::new(vec![g(1.0, 0.25), g(1.0, 0.25)], vec![0.0, 0.0, 1.0]).expect("rule"),
            TskRule::new(vec![g(0.0, 0.25), g(1.0, 0.25)], vec![0.0, 0.0, 0.0]).expect("rule"),
            TskRule::new(vec![g(1.0, 0.25), g(0.0, 0.25)], vec![0.0, 0.0, 0.0]).expect("rule"),
        ])
        .expect("quality fis");
        let measure = QualityMeasure::new(quality_fis).expect("measure");
        let model = CqmModel {
            version: MODEL_VERSION,
            measure,
            threshold: 0.5,
            note: "tiny test model".into(),
        };
        ServedModel::new(classifier, model).expect("served model")
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::tiny_model;
    use super::*;
    use cqm_persist::PersistError;
    use std::fs;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cqm_serve_model_{tag}_{}", std::process::id()));
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn construction_validates_cue_dims() {
        let m = tiny_model();
        assert_eq!(m.cue_dim(), 1);
        assert_eq!(m.num_classes(), 2);
        // A quality measure over 2 cues cannot pair with a 1-cue classifier.
        let other = tiny_model();
        let mismatched = CqmModel {
            measure: {
                use cqm_fuzzy::{MembershipFunction, TskFis, TskRule};
                let g = |mu: f64| MembershipFunction::gaussian(mu, 0.3).expect("gaussian");
                cqm_core::QualityMeasure::new(
                    TskFis::new(vec![TskRule::new(
                        vec![g(0.0), g(0.0), g(0.0)],
                        vec![0.0, 0.0, 0.0, 1.0],
                    )
                    .expect("rule")])
                    .expect("fis"),
                )
                .expect("measure")
            },
            ..other.model().clone()
        };
        assert!(matches!(
            ServedModel::new(other.classifier().clone(), mismatched),
            Err(ServeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn fresh_source_resolves_cold() {
        let r = ModelSource::Fresh(tiny_model()).resolve().expect("resolve");
        assert_eq!(r.seq, 0);
        assert!(!r.warm_started);
    }

    #[test]
    fn warm_start_round_trips_through_checkpoint() {
        let dir = scratch_dir("warm");
        let path = dir.join("serve.ckpt");
        let ck = ServeCheckpoint {
            seq: 3,
            model: tiny_model(),
        };
        CheckpointHandle::new(&path).save(&ck).expect("save");
        let r = ModelSource::WarmStart(path).resolve().expect("resolve");
        assert_eq!(r.seq, 3);
        assert!(r.warm_started);
        assert_eq!(r.model, tiny_model());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strict_warm_start_refuses_missing_checkpoint() {
        let dir = scratch_dir("strict");
        let err = ModelSource::WarmStart(dir.join("absent.ckpt"))
            .resolve()
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Persist(PersistError::NoCheckpoint(_))
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_start_or_falls_back_on_missing_but_not_on_corrupt() {
        let dir = scratch_dir("fallback");
        let path = dir.join("serve.ckpt");
        let source = || ModelSource::WarmStartOr {
            path: path.clone(),
            fallback: Box::new(tiny_model()),
        };
        let r = source().resolve().expect("fallback resolve");
        assert!(!r.warm_started);
        assert_eq!(r.seq, 0);
        // Now a corrupt checkpoint: fallback must NOT paper over it.
        CheckpointHandle::new(&path)
            .save(&ServeCheckpoint {
                seq: 1,
                model: tiny_model(),
            })
            .expect("save");
        let mut bytes = fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).expect("write");
        assert!(matches!(
            source().resolve().unwrap_err(),
            ServeError::Persist(PersistError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).ok();
    }
}
