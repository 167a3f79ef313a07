//! # cqm-anfis — Adaptive-Network-based Fuzzy Inference System
//!
//! The paper constructs its quality FIS automatically (§2.2): "a fuzzy
//! clustering, a linear regression analysis and the training of a neural
//! fuzzy network". This crate implements that pipeline end to end:
//!
//! 1. [`genfis`](genfis()) — **structure identification**: subtractive clustering over
//!    the joint input space determines the number of rules `m`, the initial
//!    Gaussian membership functions `F_ij` and (via a global least-squares
//!    fit) the initial linear consequents `f_j` (§2.2.1–2.2.2). This mirrors
//!    Matlab's classic `genfis2`.
//! 2. [`lse`] — the **forward half of hybrid learning**: with premises
//!    fixed, the consequent coefficients are the solution of one
//!    over-determined linear system, solved by SVD (the paper's choice) or
//!    the ablation backends. A recursive (RLS) variant is provided as in
//!    Jang's original formulation.
//! 3. [`backprop`] — the **backward half**: analytic gradients of the
//!    squared output error with respect to every Gaussian `µ_ij, σ_ij`.
//! 4. [`hybrid`] — the training loop combining both passes with Jang's
//!    step-size adaptation heuristics and the paper's stopping rule: "the
//!    hybrid learning stops … when a degradation of the error for a
//!    different check data set is continuously observed" (§2.2.4).
//!
//! ```
//! use cqm_anfis::dataset::Dataset;
//! use cqm_anfis::genfis::{genfis, GenfisParams};
//!
//! // Learn y = 2x on [0, 1] from samples.
//! let mut data = Dataset::new(1);
//! for i in 0..50 {
//!     let x = i as f64 / 49.0;
//!     data.push(vec![x], 2.0 * x).unwrap();
//! }
//! let fis = genfis(&data, &GenfisParams::default()).unwrap();
//! let y = fis.eval(&[0.25]).unwrap();
//! assert!((y - 0.5).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
// `!(x > 0.0)` is the intentional NaN-rejecting guard in training code.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod backprop;
pub mod dataset;
mod epoch;
pub mod genfis;
pub mod grid;
pub mod hybrid;
pub mod lse;

pub use dataset::Dataset;
pub use genfis::{genfis, genfis_structure, genfis_with, GenfisParams, StructureParams};
pub use hybrid::{train_hybrid, train_hybrid_with, HybridConfig, TrainReport};

/// Errors produced by ANFIS construction and training.
#[derive(Debug, Clone, PartialEq)]
pub enum AnfisError {
    /// Propagated from the math substrate.
    Math(cqm_math::MathError),
    /// Propagated from the fuzzy substrate.
    Fuzzy(cqm_fuzzy::FuzzyError),
    /// Propagated from the clustering substrate.
    Cluster(cqm_cluster::ClusterError),
    /// Training data was empty or inconsistent.
    InvalidData(String),
    /// A training configuration value was out of domain.
    InvalidConfig {
        /// Configuration field.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
}

impl std::fmt::Display for AnfisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnfisError::Math(e) => write!(f, "math error: {e}"),
            AnfisError::Fuzzy(e) => write!(f, "fuzzy error: {e}"),
            AnfisError::Cluster(e) => write!(f, "cluster error: {e}"),
            AnfisError::InvalidData(msg) => write!(f, "invalid training data: {msg}"),
            AnfisError::InvalidConfig { name, value } => {
                write!(f, "invalid config {name} = {value}")
            }
        }
    }
}

impl std::error::Error for AnfisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnfisError::Math(e) => Some(e),
            AnfisError::Fuzzy(e) => Some(e),
            AnfisError::Cluster(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cqm_math::MathError> for AnfisError {
    fn from(e: cqm_math::MathError) -> Self {
        AnfisError::Math(e)
    }
}

impl From<cqm_fuzzy::FuzzyError> for AnfisError {
    fn from(e: cqm_fuzzy::FuzzyError) -> Self {
        AnfisError::Fuzzy(e)
    }
}

impl From<cqm_cluster::ClusterError> for AnfisError {
    fn from(e: cqm_cluster::ClusterError) -> Self {
        AnfisError::Cluster(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, AnfisError>;

/// The data checks every training pass makes first: a non-empty dataset
/// of the FIS input dimension.
pub(crate) fn check_shape(fis: &cqm_fuzzy::TskFis, data: &dataset::Dataset) -> Result<()> {
    if data.is_empty() {
        return Err(AnfisError::InvalidData("empty dataset".into()));
    }
    if data.dim() != fis.input_dim() {
        return Err(AnfisError::InvalidData(format!(
            "dataset dimension {} does not match FIS input dimension {}",
            data.dim(),
            fis.input_dim()
        )));
    }
    Ok(())
}

/// Root-mean-square error of a FIS over a dataset; samples on which the FIS
/// cannot fire any rule are skipped (they are reported by training instead).
pub fn rmse(fis: &cqm_fuzzy::TskFis, data: &dataset::Dataset) -> f64 {
    rmse_with(fis, data, &cqm_parallel::WorkerPool::serial())
}

/// [`rmse`] on a worker pool. Samples are split into fixed
/// [`cqm_parallel::REDUCE_CHUNK`]-sized chunks (independent of the thread
/// count); each chunk accumulates its squared-error sum sequentially and the
/// partials are folded strictly in chunk order, making the result
/// bit-identical at any thread count. Datasets of at most one chunk reduce
/// exactly like the plain sequential loop.
pub fn rmse_with(
    fis: &cqm_fuzzy::TskFis,
    data: &dataset::Dataset,
    pool: &cqm_parallel::WorkerPool,
) -> f64 {
    let kernel = fis.kernel();
    let inputs = data.inputs();
    let targets = data.targets();
    let parts = pool.run_chunks(data.len(), cqm_parallel::REDUCE_CHUNK, |chunk| {
        let mut scratch = cqm_fuzzy::TskScratch::with_rules(kernel.rule_count());
        let mut sum = 0.0;
        let mut n = 0usize;
        let rows = inputs[chunk.start..chunk.end]
            .iter()
            .zip(&targets[chunk.start..chunk.end]);
        for (x, &y) in rows {
            if let Ok(pred) = kernel.eval_into(x, &mut scratch) {
                sum += (pred - y) * (pred - y);
                n += 1;
            }
        }
        (sum, n)
    });
    rmse_from_parts(parts)
}

/// Fold per-chunk `(squared-error sum, row count)` partials in chunk order
/// into an RMSE (infinite when no row counted).
pub(crate) fn rmse_from_parts(parts: Vec<(f64, usize)>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for (s, c) in parts {
        sum += s;
        n += c;
    }
    if n == 0 {
        f64::INFINITY
    } else {
        (sum / n as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions_preserve_source() {
        let e: AnfisError = cqm_math::MathError::EmptyInput("x").into();
        assert!(matches!(e, AnfisError::Math(_)));
        assert!(std::error::Error::source(&e).is_some());
        let e: AnfisError = cqm_fuzzy::FuzzyError::NoRuleFired.into();
        assert!(e.to_string().contains("fuzzy"));
        let e: AnfisError = cqm_cluster::ClusterError::InvalidData("d".into()).into();
        assert!(e.to_string().contains("cluster"));
    }

    #[test]
    fn rmse_of_empty_dataset_is_infinite() {
        use cqm_fuzzy::{MembershipFunction, TskFis, TskRule};
        let fis = TskFis::new(vec![TskRule::new(
            vec![MembershipFunction::gaussian(0.0, 1.0).unwrap()],
            vec![0.0, 0.0],
        )
        .unwrap()])
        .unwrap();
        let data = Dataset::new(1);
        assert!(rmse(&fis, &data).is_infinite());
    }
}
