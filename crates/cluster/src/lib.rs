//! # cqm-cluster — structure identification for fuzzy systems
//!
//! The paper's automated FIS construction starts with **structure
//! identification**: how many rules are there and where do their membership
//! functions sit? §2.2.1 evaluates two density-based cluster estimators and
//! picks subtractive clustering:
//!
//! > "A mountain clustering could be suitable, but is highly dependent on the
//! > grid structure. We opt for a subtractive clustering instead."
//!
//! * [`subtractive`] — Chiu's subtractive clustering: every data point is a
//!   candidate center, no prior cluster count, parameters per Chiu (1997).
//! * [`mountain`] — Yager–Filev mountain clustering on a regular grid (the
//!   rejected alternative; kept for the ABL-CLUST ablation).
//! * [`fcm`] — fuzzy c-means, the classic partitional baseline (compared in
//!   the ABL-CLUST ablation, which hands it the cluster count).
//! * [`kmeans`] — crisp k-means (used as an initializer and sanity baseline).
//! * [`normalize`] — affine mapping of data into the unit hypercube, which
//!   both density methods require to make their radii meaningful.
//!
//! ```
//! use cqm_cluster::subtractive::{SubtractiveClustering, SubtractiveParams};
//!
//! // Two well-separated planted blobs.
//! let mut data = Vec::new();
//! for i in 0..20 {
//!     let t = i as f64 * 0.001;
//!     data.push(vec![0.1 + t, 0.1 - t]);
//!     data.push(vec![0.9 - t, 0.9 + t]);
//! }
//! let result = SubtractiveClustering::new(SubtractiveParams::default())
//!     .cluster(&data)
//!     .unwrap();
//! assert_eq!(result.centers.len(), 2);
//! ```

#![forbid(unsafe_code)]

pub mod fcm;
pub mod kmeans;
pub mod mountain;
pub mod normalize;
pub mod subtractive;

pub use subtractive::{SubtractiveClustering, SubtractiveParams};

/// Errors produced by the clustering algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// The data set was empty or had inconsistent dimensionality.
    InvalidData(String),
    /// An algorithm parameter was out of domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// Iterative refinement did not converge.
    NoConvergence {
        /// Algorithm name.
        method: &'static str,
        /// Iterations performed.
        iterations: usize,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::InvalidData(msg) => write!(f, "invalid data: {msg}"),
            ClusterError::InvalidParameter { name, value } => {
                write!(f, "invalid parameter {name} = {value}")
            }
            ClusterError::NoConvergence { method, iterations } => {
                write!(f, "{method} did not converge after {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ClusterError>;

/// Validate that `data` is a non-empty set of equal-length points and return
/// the dimension.
pub(crate) fn check_data(data: &[Vec<f64>]) -> Result<usize> {
    if data.is_empty() {
        return Err(ClusterError::InvalidData("empty data set".into()));
    }
    let dim = data[0].len();
    if dim == 0 {
        return Err(ClusterError::InvalidData("zero-dimensional points".into()));
    }
    for (i, p) in data.iter().enumerate() {
        if p.len() != dim {
            return Err(ClusterError::InvalidData(format!(
                "point {i} has dimension {} but expected {dim}",
                p.len()
            )));
        }
        if p.iter().any(|x| !x.is_finite()) {
            return Err(ClusterError::InvalidData(format!(
                "point {i} contains a non-finite coordinate"
            )));
        }
    }
    Ok(dim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_data_accepts_consistent_points() {
        assert_eq!(check_data(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap(), 2);
    }

    #[test]
    fn check_data_rejects_bad_input() {
        assert!(check_data(&[]).is_err());
        assert!(check_data(&[vec![]]).is_err());
        assert!(check_data(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(check_data(&[vec![f64::NAN]]).is_err());
        assert!(check_data(&[vec![f64::INFINITY]]).is_err());
    }

    #[test]
    fn error_display() {
        let e = ClusterError::NoConvergence {
            method: "fcm",
            iterations: 100,
        };
        assert!(e.to_string().contains("fcm"));
    }
}
