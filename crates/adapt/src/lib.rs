//! # cqm-adapt — online adaptation for the Context Quality Measure
//!
//! The paper trains the quality measure once, offline (§2.2), and the §5
//! outlook asks for the obvious next step: keep it honest as the
//! environment changes. This crate closes that training loop *online*:
//!
//! * [`window`] — a bounded sliding window of labeled observations with
//!   deterministic oldest-first eviction; the only sample store the
//!   adaptation loop ever reads, so memory is O(capacity) forever.
//! * [`drift`] — a Page–Hinkley detector over the quality margin `q − s`
//!   (the §2.3 threshold signal). Explicit Stable → Warn → Drift states,
//!   seeded + replayable: the statistic is a pure fold over observations.
//! * [`rls`] — recursive least squares for the TSK consequents, layered on
//!   the batch LSE seam in `cqm-anfis`. Streaming updates are bit-identical
//!   to the batch RLS sweep at any worker count; the difference to the SVD
//!   batch solution is bounded and documented (DESIGN.md §14).
//! * [`evolve`] — evolving rule structure: a sample whose subtractive
//!   potential against the window exceeds the accept ratio seeds a new
//!   rule; rules whose centers collapse onto each other are merged.
//! * [`supervisor`] — [`supervisor::AdaptationSupervisor`] wires it all
//!   together: observe → window + detector; on confirmed drift retrain
//!   beside the serve path, validate the candidate (holdout
//!   RMSE, checkpoint round-trip, replay probe), promote through
//!   `CqmServer::swap_model`, roll back to last-good on regression. The
//!   serve hot path is never blocked.
//!
//! The complementary *accept-rate* monitor (`cqm_core::monitor`) answers
//! "is the filter discarding more than usual"; this crate answers "has the
//! world changed under the model, and can we fix it live".

#![forbid(unsafe_code)]

pub mod drift;
pub mod evolve;
pub mod rls;
pub mod supervisor;
pub mod window;

pub use drift::{DriftConfig, DriftDetector, DriftState};
pub use evolve::{EvolveConfig, RuleEvolution};
pub use rls::StreamingConsequents;
pub use supervisor::{
    holdout_rmse, AdaptationConfig, AdaptationOutcome, AdaptationStats, AdaptationSupervisor,
    Candidate,
};
pub use window::{AdaptSample, SlidingWindow};

/// Errors produced by the adaptation layer.
#[derive(Debug)]
pub enum AdaptError {
    /// A configuration parameter is outside its domain.
    InvalidConfig {
        /// Parameter name.
        name: &'static str,
        /// Offending value (integer parameters are cast).
        value: f64,
    },
    /// The window holds too few samples for the requested operation.
    NotEnoughData {
        /// Samples available.
        have: usize,
        /// Samples required.
        need: usize,
    },
    /// A candidate model failed validation and was not promoted.
    CandidateRejected(String),
    /// Propagated from the CQM core.
    Core(cqm_core::CqmError),
    /// Propagated from ANFIS / least squares.
    Anfis(cqm_anfis::AnfisError),
    /// Propagated from clustering.
    Cluster(cqm_cluster::ClusterError),
    /// Propagated from the statistical analysis.
    Stats(cqm_stats::StatsError),
    /// Propagated from the serving layer.
    Serve(cqm_serve::ServeError),
    /// Propagated from persistence.
    Persist(cqm_persist::PersistError),
}

impl std::fmt::Display for AdaptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptError::InvalidConfig { name, value } => {
                write!(f, "invalid config: {name} = {value}")
            }
            AdaptError::NotEnoughData { have, need } => {
                write!(f, "not enough data: have {have}, need {need}")
            }
            AdaptError::CandidateRejected(msg) => write!(f, "candidate rejected: {msg}"),
            AdaptError::Core(e) => write!(f, "core error: {e}"),
            AdaptError::Anfis(e) => write!(f, "anfis error: {e}"),
            AdaptError::Cluster(e) => write!(f, "cluster error: {e}"),
            AdaptError::Stats(e) => write!(f, "stats error: {e}"),
            AdaptError::Serve(e) => write!(f, "serve error: {e}"),
            AdaptError::Persist(e) => write!(f, "persist error: {e}"),
        }
    }
}

impl std::error::Error for AdaptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AdaptError::Core(e) => Some(e),
            AdaptError::Anfis(e) => Some(e),
            AdaptError::Cluster(e) => Some(e),
            AdaptError::Stats(e) => Some(e),
            AdaptError::Serve(e) => Some(e),
            AdaptError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cqm_core::CqmError> for AdaptError {
    fn from(e: cqm_core::CqmError) -> Self {
        AdaptError::Core(e)
    }
}

impl From<cqm_anfis::AnfisError> for AdaptError {
    fn from(e: cqm_anfis::AnfisError) -> Self {
        AdaptError::Anfis(e)
    }
}

impl From<cqm_cluster::ClusterError> for AdaptError {
    fn from(e: cqm_cluster::ClusterError) -> Self {
        AdaptError::Cluster(e)
    }
}

impl From<cqm_stats::StatsError> for AdaptError {
    fn from(e: cqm_stats::StatsError) -> Self {
        AdaptError::Stats(e)
    }
}

impl From<cqm_serve::ServeError> for AdaptError {
    fn from(e: cqm_serve::ServeError) -> Self {
        AdaptError::Serve(e)
    }
}

impl From<cqm_persist::PersistError> for AdaptError {
    fn from(e: cqm_persist::PersistError) -> Self {
        AdaptError::Persist(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, AdaptError>;
