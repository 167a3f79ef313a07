//! # cqm-fuzzy — fuzzy inference substrate
//!
//! Implements the one fuzzy system the paper builds on (§2.1.2):
//!
//! * [`membership`] — the non-linear **Gaussian** membership function
//!   `F_ij(v_i) = exp(−(v_i−µ_ij)² / (2σ_ij²))` and its analytic gradient.
//! * [`tsk`] — the first-order **Takagi–Sugeno–Kang FIS**: product-T-norm
//!   antecedents, linear consequents `f_j(v) = a_1j v_1 + … + a_(n+1)j`,
//!   weighted-sum-average projection (§2.1.2). This exact structure is used
//!   twice in the paper: once as the AwarePen context classifier and once as
//!   the quality system `S~_Q`.
//! * [`kernel`] — a struct-of-arrays evaluator of the same system,
//!   bit-identical to [`TskFis::eval`] and allocation-free in the steady
//!   state, with one row-wise entry point (DESIGN.md §9).
//! * [`linguistic`] — verbalization of rules in the paper's linguistic form:
//!   `IF F_1j(v_1) AND … AND F_(n+1)j(c) THEN f_j(v_Q)`.
//!
//! ## Example: a two-rule TSK system evaluated by hand
//!
//! ```
//! use cqm_fuzzy::membership::MembershipFunction;
//! use cqm_fuzzy::tsk::{TskFis, TskRule};
//!
//! // One input; two rules around x = 0 and x = 1.
//! let fis = TskFis::new(vec![
//!     TskRule::new(
//!         vec![MembershipFunction::gaussian(0.0, 0.3).unwrap()],
//!         vec![0.0, 0.0], // f(x) = 0
//!     ).unwrap(),
//!     TskRule::new(
//!         vec![MembershipFunction::gaussian(1.0, 0.3).unwrap()],
//!         vec![0.0, 1.0], // f(x) = 1
//!     ).unwrap(),
//! ]).unwrap();
//! // Halfway between the rule centers both rules fire equally: output 0.5.
//! let y = fis.eval(&[0.5]).unwrap();
//! assert!((y - 0.5).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
// `!(x > 0.0)` is the intentional NaN-rejecting guard in evaluation code.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod kernel;
pub mod linguistic;
pub mod membership;
pub mod tsk;

pub use kernel::{TskKernel, TskScratch};
pub use membership::MembershipFunction;
pub use tsk::{TskFis, TskRule};

/// Errors produced by FIS construction and evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum FuzzyError {
    /// A membership-function parameter was outside its valid domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// Input dimension does not match the system's antecedent dimension.
    DimensionMismatch {
        /// Expected input length.
        expected: usize,
        /// Actual input length.
        actual: usize,
    },
    /// A rule set was empty or structurally inconsistent.
    InvalidRuleBase(String),
    /// All rules fired with (numerically) zero strength, so the weighted
    /// average is undefined for this input.
    NoRuleFired,
}

impl std::fmt::Display for FuzzyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FuzzyError::InvalidParameter { name, value } => {
                write!(f, "invalid membership parameter {name} = {value}")
            }
            FuzzyError::DimensionMismatch { expected, actual } => {
                write!(
                    f,
                    "input dimension mismatch: expected {expected}, got {actual}"
                )
            }
            FuzzyError::InvalidRuleBase(msg) => write!(f, "invalid rule base: {msg}"),
            FuzzyError::NoRuleFired => write!(f, "no rule fired with non-zero strength"),
        }
    }
}

impl std::error::Error for FuzzyError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, FuzzyError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(FuzzyError::NoRuleFired.to_string().contains("no rule"));
        assert!(FuzzyError::InvalidRuleBase("empty".into())
            .to_string()
            .contains("empty"));
        assert!(FuzzyError::DimensionMismatch {
            expected: 3,
            actual: 1
        }
        .to_string()
        .contains("expected 3"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FuzzyError>();
    }
}
