//! Inexact augmented Lagrange multiplier (IALM) RPCA.
//!
//! An independent solver (Lin, Chen & Ma, 2010) for the same convex program
//! as [`crate::apg`](fn@crate::apg). It keeps the constraint `A = D + E` explicit through a
//! Lagrange multiplier matrix `Y` and alternates exact minimization over `D`
//! (singular-value thresholding) and `E` (soft thresholding) while the
//! penalty `μ` grows geometrically. Usually converges in a few dozen
//! iterations; used in `cloudconst` as a cross-check and in the solver
//! ablation bench.

use crate::{default_lambda, spectral_norm, Result, RpcaError, RpcaResult};
use cloudconst_linalg::{fro_norm, inf_norm, soft_threshold, svt, Mat};

/// Growth factor of μ per iteration (ρ in the literature).
const RHO: f64 = 1.5;

/// Stop when `‖A − D − E‖_F / ‖A‖_F` drops below this.
const TOL: f64 = 1e-7;

/// Options for [`ialm`]. The sparsity weight is `λ = 1/√max(m,n)`, as for
/// [`crate::apg`](fn@crate::apg); only the iteration budget can be set.
#[derive(Debug, Clone)]
pub struct IalmOptions {
    /// Hard iteration cap.
    pub max_iters: usize,
}

impl Default for IalmOptions {
    fn default() -> Self {
        IalmOptions { max_iters: 200 }
    }
}

/// Run IALM RPCA on `a`.
///
/// # Errors
/// [`RpcaError::NoConvergence`] if the residual stays above tolerance for
/// `max_iters` iterations.
pub fn ialm(a: &Mat, opts: &IalmOptions) -> Result<RpcaResult> {
    let (m, n) = a.shape();
    let lambda = default_lambda(m, n);

    let a_fro = fro_norm(a);
    let a_norm2 = spectral_norm(a)?;
    if a_norm2 == 0.0 {
        return Ok(RpcaResult {
            d: Mat::zeros(m, n),
            e: Mat::zeros(m, n),
            iters: 0,
            residual: 0.0,
            rank: 0,
        });
    }

    // Standard initialization: Y = A / J(A), J(A) = max(‖A‖₂, ‖A‖_∞/λ).
    let j = a_norm2.max(inf_norm(a) / lambda);
    let mut y = a.scale(1.0 / j);
    let mut mu = 1.25 / a_norm2;
    let mu_max = mu * 1e7;

    let mut d = Mat::zeros(m, n);
    let mut e = Mat::zeros(m, n);
    let mut rank;

    for k in 0..opts.max_iters {
        // D-step: argmin over D of the augmented Lagrangian.
        let target_d = a.sub(&e)?.add(&y.scale(1.0 / mu))?;
        let svt_res = svt(&target_d, 1.0 / mu)?;
        d = svt_res.mat;
        rank = svt_res.rank;

        // E-step.
        let target_e = a.sub(&d)?.add(&y.scale(1.0 / mu))?;
        e = soft_threshold(&target_e, lambda / mu);

        // Multiplier and penalty update.
        let z = a.sub(&d)?.sub(&e)?;
        y.axpy(mu, &z)?;
        mu = (mu * RHO).min(mu_max);

        let residual = fro_norm(&z) / a_fro.max(f64::MIN_POSITIVE);
        if residual < TOL {
            return Ok(RpcaResult {
                d,
                e,
                iters: k + 1,
                residual,
                rank,
            });
        }
    }

    // IALM iterates in the original data scale, so the partial split needs
    // no rescaling — only packaging.
    let z = a.sub(&d)?.sub(&e)?;
    let residual = fro_norm(&z) / a_fro.max(f64::MIN_POSITIVE);
    let rank = cloudconst_linalg::svd_thin(&d)
        .map(|s| s.rank(1e-9))
        .unwrap_or(0);
    Err(RpcaError::NoConvergence {
        iters: opts.max_iters,
        residual,
        partial: Box::new(RpcaResult {
            d,
            e,
            iters: opts.max_iters,
            residual,
            rank,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apg::{apg, ApgOptions};
    use cloudconst_linalg::svd_thin;

    fn fixture() -> (Mat, Mat) {
        let n = 50;
        let m = 8;
        let row: Vec<f64> = (0..n).map(|j| 5.0 + ((j * 13) % 11) as f64).collect();
        let mut low = Mat::zeros(m, n);
        for i in 0..m {
            low.row_mut(i).copy_from_slice(&row);
        }
        let mut a = low.clone();
        a[(1, 10)] += 30.0;
        a[(6, 42)] -= 25.0;
        a[(3, 3)] += 28.0;
        (a, low)
    }

    #[test]
    fn recovers_low_rank() {
        let (a, low) = fixture();
        let r = ialm(&a, &IalmOptions::default()).unwrap();
        let err = fro_norm(&r.d.sub(&low).unwrap()) / fro_norm(&low);
        assert!(err < 0.02, "relative error {err}");
        assert_eq!(svd_thin(&r.d).unwrap().rank(1e-3), 1);
    }

    #[test]
    fn residual_meets_tolerance() {
        let (a, _) = fixture();
        let r = ialm(&a, &IalmOptions::default()).unwrap();
        assert!(r.residual < TOL);
    }

    #[test]
    fn agrees_with_apg() {
        let (a, _) = fixture();
        let r1 = ialm(&a, &IalmOptions::default()).unwrap();
        let r2 = apg(&a, &ApgOptions::default()).unwrap();
        let diff = fro_norm(&r1.d.sub(&r2.d).unwrap()) / fro_norm(&r1.d);
        assert!(diff < 0.05, "solver disagreement {diff}");
    }

    #[test]
    fn zero_matrix_trivial() {
        let a = Mat::zeros(3, 7);
        let r = ialm(&a, &IalmOptions::default()).unwrap();
        assert_eq!(r.rank, 0);
        assert_eq!(r.iters, 0);
    }

    #[test]
    fn exhausted_budget_reports_no_convergence() {
        let (a, _) = fixture();
        let o = IalmOptions { max_iters: 1 };
        assert!(matches!(
            ialm(&a, &o),
            Err(RpcaError::NoConvergence { iters: 1, .. })
        ));
    }
}
