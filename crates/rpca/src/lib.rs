//! Robust Principal Component Analysis for `cloudconst`.
//!
//! RPCA decomposes a data matrix `A` into a low-rank component `D` and a
//! sparse component `E`:
//!
//! ```text
//! minimize   rank(D) + λ‖E‖₀      subject to  A = D + E
//! ```
//!
//! relaxed, as usual, to the convex surrogate `‖D‖* + λ‖E‖₁`. Two solvers
//! are provided:
//!
//! * [`apg`](mod@apg) — the **accelerated proximal gradient** method with
//!   continuation, the algorithm of Ji & Ye that the paper uses
//!   (paper §II-B, reference \[20\]/\[35\]).
//! * [`ialm`](mod@ialm) — the **inexact augmented Lagrange multiplier** method, an
//!   independent solver used for cross-checks and ablation.
//!
//! On top of the raw decomposition, [`constant`] extracts the paper's
//! rank-one *constant component* (all rows identical — the long-term
//! pair-wise performance estimate) and [`metrics`] computes the paper's
//! effectiveness measure `Norm(N_E) = ‖N_E‖₀ / ‖N_A‖₀`.

pub mod apg;
pub mod constant;
pub mod ialm;
pub mod metrics;
pub mod rank1;

pub use apg::{apg, ApgOptions};
pub use constant::{constant_matrix, extract_constant, ConstantMethod};
pub use ialm::{ialm, IalmOptions};
pub use metrics::{norm_ne, norm_ne_l1, relative_difference};
pub use rank1::{rank1_rpca, Rank1Result};

use cloudconst_linalg::{eigh, LinalgError, Mat};

/// Result of an RPCA decomposition `A ≈ D + E`.
#[derive(Debug, Clone)]
pub struct RpcaResult {
    /// Low-rank component.
    pub d: Mat,
    /// Sparse component as produced by the solver.
    pub e: Mat,
    /// Iterations performed.
    pub iters: usize,
    /// Final relative residual `‖A − D − E‖_F / ‖A‖_F`.
    pub residual: f64,
    /// Rank of `D` at the last singular-value thresholding step.
    pub rank: usize,
}

impl RpcaResult {
    /// The sparse component re-derived so the decomposition is *exact*:
    /// `E := A − D`. The paper's problem statement requires `N_A = N_D +
    /// N_E` as an equality; solvers only satisfy it to a small residual, so
    /// downstream code uses this exact form.
    pub fn exact_error(&self, a: &Mat) -> Result<Mat, LinalgError> {
        a.sub(&self.d)
    }
}

/// Errors from RPCA solvers.
#[derive(Debug, Clone)]
pub enum RpcaError {
    /// Underlying linear algebra failed.
    Linalg(LinalgError),
    /// The solver hit its iteration budget without satisfying the tolerance.
    NoConvergence {
        /// Iterations performed.
        iters: usize,
        /// Relative residual `‖A − D − E‖_F / ‖A‖_F` when the budget ran
        /// out, in the same (original-data) scale as `partial`.
        residual: f64,
        /// The decomposition reached when the budget ran out, rescaled to
        /// the original data. A near-tolerance partial split is usually
        /// still usable as an estimate; callers that need strict
        /// convergence can keep treating this as a failure.
        partial: Box<RpcaResult>,
    },
}

impl From<LinalgError> for RpcaError {
    fn from(e: LinalgError) -> Self {
        RpcaError::Linalg(e)
    }
}

impl std::fmt::Display for RpcaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcaError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            RpcaError::NoConvergence {
                iters, residual, ..
            } => {
                write!(
                    f,
                    "RPCA did not converge in {iters} iterations (residual {residual:.3e})"
                )
            }
        }
    }
}

impl std::error::Error for RpcaError {}

/// Crate result alias.
pub type Result<T, E = RpcaError> = std::result::Result<T, E>;

/// The standard RPCA sparsity weight `λ = 1/√max(m, n)` (Candès et al.).
pub fn default_lambda(rows: usize, cols: usize) -> f64 {
    1.0 / (rows.max(cols) as f64).sqrt()
}

/// Spectral norm (largest singular value) of a matrix.
///
/// Read off the largest eigenvalue of the Gram matrix of the smaller
/// dimension, `σ_max = √max(λ₀, 0)`, without building any singular
/// vector. Bit-identical to `svd_trunc(a, 0.0).s[0]`, which takes σ from
/// the same Gram eigenvalues.
///
/// # Errors
/// [`LinalgError::Empty`] for an empty matrix.
pub fn spectral_norm(a: &Mat) -> Result<f64, LinalgError> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Err(LinalgError::Empty);
    }
    let gram = if m <= n { a.gram_rows() } else { a.gram_cols() };
    let lam0 = eigh(&gram)?.values.first().copied().unwrap_or(0.0);
    let sigma = lam0.max(0.0).sqrt();
    // The SVD keeps only σ > 0 and reports +0.0 when none survives.
    Ok(if sigma > 0.0 { sigma } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_lambda_values() {
        assert!((default_lambda(10, 100) - 0.1).abs() < 1e-12);
        assert!((default_lambda(100, 10) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn spectral_norm_diag() {
        let a = Mat::diag(&[1.0, -7.0, 3.0]);
        assert!((spectral_norm(&a).unwrap() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn spectral_norm_matches_svd_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        let shapes = [
            (1, 1),
            (3, 17),
            (10, 256),
            (6, 6),
            (40, 7),
            (257, 3),
            (2, 1),
        ];
        for (case, &(m, n)) in shapes.iter().cycle().take(4 * shapes.len()).enumerate() {
            let data = (0..m * n).map(|_| rng.random_range(-5.0..5.0)).collect();
            let a = Mat::from_vec(m, n, data);
            let svd = cloudconst_linalg::svd_trunc(&a, 0.0).unwrap();
            assert_eq!(
                spectral_norm(&a).unwrap().to_bits(),
                svd.s[0].to_bits(),
                "case {case}: {m}x{n}"
            );
        }
        let zero = Mat::zeros(3, 5);
        assert_eq!(spectral_norm(&zero).unwrap().to_bits(), 0.0f64.to_bits());
        assert!(matches!(
            spectral_norm(&Mat::zeros(0, 4)),
            Err(LinalgError::Empty)
        ));
    }

    #[test]
    fn exact_error_closes_decomposition() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let r = RpcaResult {
            d: Mat::from_rows(&[&[1.0, 2.0], &[3.0, 3.0]]),
            e: Mat::zeros(2, 2),
            iters: 0,
            residual: 0.0,
            rank: 1,
        };
        let e = r.exact_error(&a).unwrap();
        assert_eq!(r.d.add(&e).unwrap(), a);
    }
}
