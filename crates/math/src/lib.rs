//! # cqm-math — numerical substrate for the CQM reproduction
//!
//! Dense linear algebra and statistics primitives used by every other crate in
//! the workspace. The paper's automated FIS construction needs:
//!
//! * a **least-squares solver** for the TSK consequent coefficients — the
//!   paper uses singular value decomposition (§2.2.2); we provide a one-sided
//!   Jacobi [`svd::Svd`], a Householder [`qr::Qr`] and normal equations, all
//!   behind [`linsolve::lstsq`] so the choice can be ablated;
//! * **Gaussian machinery** for the membership functions and the statistical
//!   analysis (§2.3): [`special::erf`], [`gaussian::Gaussian`] with pdf/cdf
//!   and tail integrals;
//! * **descriptive statistics** for cue extraction and evaluation
//!   ([`stats`]), including numerically stable streaming moments;
//! * small **root finding** helpers for density intersections ([`roots`]).
//!
//! Everything is implemented from scratch over `f64`; no external linear
//! algebra dependency is used.
//!
//! ## Example
//!
//! ```
//! use cqm_math::matrix::Matrix;
//! use cqm_math::linsolve::{lstsq, LstsqMethod};
//!
//! // Fit y = 2x + 1 through three points.
//! let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 1.0], &[3.0, 1.0]]);
//! let y = [3.0, 5.0, 7.0];
//! let coef = lstsq(&a, &y, LstsqMethod::Svd).unwrap();
//! assert!((coef[0] - 2.0).abs() < 1e-10);
//! assert!((coef[1] - 1.0).abs() < 1e-10);
//! ```

#![forbid(unsafe_code)]
// Numerical kernels intentionally use negated comparisons (`!(x > 0.0)`)
// as NaN-rejecting guards, and index-based loops where several parallel
// buffers are updated per iteration; rewriting those per clippy's style
// suggestions would change NaN semantics or obscure the algorithms.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::needless_range_loop)]

pub mod fastexp;
pub mod gaussian;
pub mod histogram;
pub mod linsolve;
pub mod matrix;
pub mod qr;
pub mod roots;
pub mod special;
pub mod stats;
pub mod svd;
pub mod vector;

pub use gaussian::Gaussian;
pub use matrix::Matrix;

/// Default absolute tolerance used by iterative kernels in this crate.
pub const EPS: f64 = 1e-12;

/// Errors produced by the numerical kernels in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum MathError {
    /// Operand dimensions do not agree (e.g. matrix product shapes).
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        context: &'static str,
        /// Dimension expected by the operation.
        expected: usize,
        /// Dimension actually supplied.
        actual: usize,
    },
    /// The input was empty where at least one element is required.
    EmptyInput(&'static str),
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// Name of the method that failed.
        method: &'static str,
        /// Number of iterations performed.
        iterations: usize,
    },
    /// The problem is singular or numerically rank-deficient beyond repair.
    Singular(&'static str),
    /// A parameter was out of its valid domain (e.g. `sigma <= 0`).
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
}

impl std::fmt::Display for MathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MathError::DimensionMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, got {actual}"
            ),
            MathError::EmptyInput(what) => write!(f, "empty input: {what}"),
            MathError::NoConvergence { method, iterations } => {
                write!(f, "{method} did not converge after {iterations} iterations")
            }
            MathError::Singular(what) => write!(f, "singular system: {what}"),
            MathError::InvalidParameter { name, value } => {
                write!(f, "invalid parameter {name} = {value}")
            }
        }
    }
}

impl std::error::Error for MathError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MathError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = MathError::DimensionMismatch {
            context: "matmul",
            expected: 3,
            actual: 4,
        };
        assert!(e.to_string().contains("matmul"));
        assert!(e.to_string().contains('3'));
        let e = MathError::NoConvergence {
            method: "jacobi-svd",
            iterations: 60,
        };
        assert!(e.to_string().contains("jacobi-svd"));
        let e = MathError::InvalidParameter {
            name: "sigma",
            value: -1.0,
        };
        assert!(e.to_string().contains("sigma"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MathError>();
    }
}
