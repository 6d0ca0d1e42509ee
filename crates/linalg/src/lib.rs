//! Dense linear-algebra kernels for the `cloudconst` workspace.
//!
//! This crate implements, from scratch, exactly the numerical machinery the
//! RPCA solvers in `cloudconst-rpca` need:
//!
//! * [`Mat`] — a row-major dense `f64` matrix with the usual arithmetic,
//!   BLAS-3 style multiplication (rayon-parallel above a size threshold), and
//!   structural helpers (transpose, slicing rows, outer products).
//! * [`eigen`] — a cyclic Jacobi eigensolver for symmetric matrices.
//! * [`svd`] — thin / truncated singular value decompositions. For the very
//!   wide matrices RPCA sees (a temporal performance matrix is
//!   `time_steps × N²`, e.g. `10 × 38416`), the SVD is computed through the
//!   Gram matrix of the *small* dimension, which is orders of magnitude
//!   faster than any direct bidiagonalization. A one-sided Jacobi SVD is
//!   provided as a high-accuracy cross-check.
//! * [`shrink`] — the proximal operators of RPCA: elementwise
//!   soft-thresholding (ℓ₁ prox) and singular-value thresholding (nuclear
//!   norm prox).
//!
//! The crate is deliberately small and dependency-light; it is not a general
//! purpose linear algebra library, but every routine is exact about its
//! contract and tested against both hand-computed cases and property-based
//! random inputs.

pub mod eigen;
pub mod mat;
pub mod norms;
pub mod shrink;
pub mod svd;

pub use eigen::{eigh, EighResult};
pub use mat::{select_stable, Mat};
pub use norms::{blocked_sums, count_above, fro_norm, inf_norm, l1_norm, zero_norm_frac};
pub use shrink::{
    for_each_chunk_pair, shrink_scalar, soft_threshold, soft_threshold_into, svt, svt_in_place,
    SvtResult,
};
pub use svd::{svd_jacobi, svd_thin, svd_trunc, Svd};

/// Relative tolerance used by default when deciding whether a singular or
/// eigen value is numerically zero.
pub const DEFAULT_RELATIVE_TOL: f64 = 1e-12;

/// Errors produced by routines in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left/first operand.
        lhs: (usize, usize),
        /// Shape of the right/second operand.
        rhs: (usize, usize),
    },
    /// The matrix was expected to be square.
    NotSquare {
        /// Actual shape.
        shape: (usize, usize),
    },
    /// An iterative routine failed to converge within its iteration budget.
    NoConvergence {
        /// Which routine failed.
        routine: &'static str,
        /// Iterations performed.
        iters: usize,
    },
    /// The input was empty where a non-empty matrix is required.
    Empty,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs {}x{}, rhs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotSquare { shape } => {
                write!(f, "matrix must be square, got {}x{}", shape.0, shape.1)
            }
            LinalgError::NoConvergence { routine, iters } => {
                write!(f, "{routine} did not converge after {iters} iterations")
            }
            LinalgError::Empty => write!(f, "matrix must be non-empty"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
