//! # cqm — Context Quality Measure for smart appliances
//!
//! A from-scratch Rust reproduction of *Using a Context Quality Measure for
//! Improving Smart Appliances* (Berchtold, Decker, Riedel, Zimmer, Beigl —
//! ICDCS Workshops 2007).
//!
//! The paper's contribution is the first context system that attaches a
//! **real-time quality value** `q ∈ [0, 1]` to every context classification
//! made by an arbitrary black-box recognizer, by training a TSK fuzzy
//! inference system over the joint (cues, class) vector and normalizing its
//! output. Applications use a statistically derived threshold to discard
//! unreliable classifications — in the paper's AwarePen example that removes
//! 33 % of the classifications (exactly the wrong ones).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`math`] | `cqm-math` | SVD/QR least squares, Gaussians, statistics |
//! | [`fuzzy`] | `cqm-fuzzy` | Gaussian memberships, TSK FIS and its kernel |
//! | [`cluster`] | `cqm-cluster` | subtractive/mountain/FCM/k-means clustering |
//! | [`anfis`] | `cqm-anfis` | genfis + ANFIS hybrid learning |
//! | [`stats`] | `cqm-stats` | MLE fits, thresholds, tail probabilities, ROC |
//! | [`core`] | `cqm-core` | the CQM itself: quality, filter, training, fusion |
//! | [`sensors`] | `cqm-sensors` | synthetic AwarePen accelerometer substrate |
//! | [`classify`] | `cqm-classify` | TSK-FIS classifier + k-NN/centroid baselines |
//! | [`appliance`] | `cqm-appliance` | AwareOffice simulation: pen, bus, camera |
//! | [`serve`] | `cqm-serve` | networked inference service: protocol, server, client |
//! | [`adapt`] | `cqm-adapt` | online adaptation: sliding window, RLS, drift, live swap |
//!
//! ## End-to-end example
//!
//! ```
//! use cqm::appliance::pen::train_pen;
//! use cqm::core::classifier::Classifier;
//! use cqm::sensors::{Context, SensorNode, Scenario};
//!
//! // Train the full AwarePen stack (classifier + CQM) on synthetic data.
//! let build = train_pen(7, 1).unwrap();
//! // Classify one fresh window and inspect its quality.
//! let mut node = SensorNode::with_seed(1234);
//! let windows = node
//!     .run_scenario(&Scenario::new(vec![(Context::Writing, 3.0)]).unwrap())
//!     .unwrap();
//! let class = build.classifier.classify(&windows[0].cues).unwrap();
//! let quality = build.trained_cqm.measure.measure(&windows[0].cues, class).unwrap();
//! println!("context {class} with {quality}");
//! ```

#![forbid(unsafe_code)]

pub use cqm_adapt as adapt;
pub use cqm_anfis as anfis;
pub use cqm_appliance as appliance;
pub use cqm_classify as classify;
pub use cqm_cluster as cluster;
pub use cqm_core as core;
pub use cqm_fuzzy as fuzzy;
pub use cqm_math as math;
pub use cqm_parallel as parallel;
pub use cqm_persist as persist;
pub use cqm_resilience as resilience;
pub use cqm_sensors as sensors;
pub use cqm_serve as serve;
pub use cqm_stats as stats;

/// Workspace version.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_set() {
        assert!(!super::VERSION.is_empty());
    }
}
