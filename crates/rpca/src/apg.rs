//! Accelerated proximal gradient RPCA with continuation.
//!
//! This is the algorithm the paper adopts (Ji & Ye \[20\], distributed as the
//! "RPCA Accelerated Proximal Gradient (APG)" sample code \[35\]). The
//! equality-constrained problem is relaxed to
//!
//! ```text
//! minimize  μ‖D‖* + μλ‖E‖₁ + ½‖D + E − A‖_F²
//! ```
//!
//! and solved by FISTA-style accelerated proximal steps while the smoothing
//! parameter `μ` is geometrically decreased (continuation) from `δ·‖A‖₂`
//! down to a floor `μ̄`; as `μ → μ̄` the solution approaches the constrained
//! optimum. Each iteration costs one truncated SVD of the low-rank iterate —
//! cheap because [`cloudconst_linalg::svt_in_place`] only materializes
//! singular values above the threshold.
//!
//! A solve allocates its working set once — six `m × n` buffers: `D`,
//! `D_prev`, `E`, `E_prev`, the gradient's `D` half and the next `E` — and
//! each iteration makes three passes over it: the extrapolation, gradient
//! and `E` shrinkage in one elementwise pass; the Gram/SVT of the `D` half
//! in place, which turns that buffer into the next `D`; and one blocked
//! reduction for the four norms of the stopping test. The normalized input
//! `Â = A/‖A‖_F` is not kept (a scaled copy lives only for the spectral
//! norm, before the working set exists): every pass reads
//! `a[i] · (1/‖A‖_F)`, the expression `Mat::scale` computes. At exit one
//! more blocked pass takes the residual, and `D` and `E` are rescaled in
//! place. Each element is a fixed expression of its index and each norm
//! sums in `fro_norm`'s block order, so the output is the same bits for
//! any thread count; the workspace's `apg_golden` test pins those bits.

use crate::{default_lambda, spectral_norm, Result, RpcaError, RpcaResult};
use cloudconst_linalg::{
    blocked_sums, for_each_chunk_pair, fro_norm, shrink_scalar, svt_in_place, Mat,
};
use serde::{Deserialize, Serialize};

/// Options for [`apg`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ApgOptions {
    /// Sparsity weight λ. `None` selects `1/√max(m,n)`.
    pub lambda: Option<f64>,
    /// Initial `μ = mu_init_factor · ‖A‖₂`. The reference implementation
    /// uses 0.99.
    pub mu_init_factor: f64,
    /// Continuation decay: `μ_{k+1} = max(eta · μ_k, μ_floor)`.
    pub eta: f64,
    /// Floor for μ as a fraction of the initial μ.
    pub mu_floor_factor: f64,
    /// Stop when the proximal-gradient stationarity measure drops below
    /// `tol · max(1, ‖[D E]‖_F)`.
    pub tol: f64,
    /// Hard iteration cap.
    pub max_iters: usize,
}

impl Default for ApgOptions {
    fn default() -> Self {
        ApgOptions {
            lambda: None,
            mu_init_factor: 0.99,
            eta: 0.9,
            mu_floor_factor: 1e-9,
            tol: 5e-6,
            max_iters: 500,
        }
    }
}

/// Run APG RPCA on `a`, returning the low-rank/sparse split.
///
/// # Errors
/// [`RpcaError::BadOption`] for non-positive λ/η/tol;
/// [`RpcaError::NoConvergence`] when `max_iters` is exhausted while the
/// stationarity measure is still above tolerance.
pub fn apg(a: &Mat, opts: &ApgOptions) -> Result<RpcaResult> {
    let (m, n) = a.shape();
    let lambda = opts.lambda.unwrap_or_else(|| default_lambda(m, n));
    if lambda <= 0.0 {
        return Err(RpcaError::BadOption("lambda must be positive"));
    }
    if !(0.0 < opts.eta && opts.eta < 1.0) {
        return Err(RpcaError::BadOption("eta must lie in (0, 1)"));
    }
    if opts.tol <= 0.0 {
        return Err(RpcaError::BadOption("tol must be positive"));
    }

    let a_fro_orig = fro_norm(a);
    if a_fro_orig == 0.0 {
        // A is zero: trivial decomposition.
        return Ok(RpcaResult {
            d: Mat::zeros(m, n),
            e: Mat::zeros(m, n),
            iters: 0,
            residual: 0.0,
            rank: 0,
        });
    }
    // Normalize to unit Frobenius norm: the reference stopping criterion
    // compares against max(1, ‖[D E]‖_F), which silently "converges" at
    // iteration zero when the data scale is far below 1 (inverse
    // bandwidths are ~1e-8 s/byte). The problem is scale-equivariant, so
    // solve on Â = A/‖A‖_F and rescale D, E afterwards. Â is read as
    // `xa[i] * inv`; the one scaled copy lives only for the spectral norm,
    // before the working set exists.
    let inv = 1.0 / a_fro_orig;
    let xa = a.as_slice();
    let a_norm2 = spectral_norm(&a.scale(inv))?;

    let mu_init = opts.mu_init_factor * a_norm2;
    let mu_floor = opts.mu_floor_factor * mu_init;

    // The whole working set, allocated once per solve: the iterates X_k
    // and X_{k−1}, the D half of the gradient step (thresholded in place
    // into the next D), and the next E. The extrapolations Y_D, Y_E and
    // the full gradient are never stored; each pass recomputes them per
    // element.
    let mut d = Mat::zeros(m, n);
    let mut d_prev = Mat::zeros(m, n);
    let mut e = Mat::zeros(m, n);
    let mut e_prev = Mat::zeros(m, n);
    let mut gd = Mat::zeros(m, n);
    let mut e_next = Mat::zeros(m, n);
    let mut t: f64 = 1.0;
    let mut t_prev: f64 = 1.0;
    let mut mu = mu_init;
    let mut rank;

    for k in 0..opts.max_iters {
        let beta = (t_prev - 1.0) / t;
        let (xd, xd_prev) = (d.as_slice(), d_prev.as_slice());
        let (xe, xe_prev) = (e.as_slice(), e_prev.as_slice());

        // Pass A. Momentum extrapolation Y = X_k + β (X_k − X_{k−1}), then
        // the gradient of the smooth term at (Y_D, Y_E): G = Y_D + Y_E − Â
        // for both blocks; the Lipschitz constant of the joint gradient is
        // 2, so the step is ½. The E half is shrunk at once.
        let tau_e = lambda * mu / 2.0;
        for_each_chunk_pair(gd.as_mut_slice(), e_next.as_mut_slice(), |lo, gd, en| {
            let r = lo..lo + gd.len();
            let (a, d, dp) = (&xa[r.clone()], &xd[r.clone()], &xd_prev[r.clone()]);
            let (e, ep, en) = (&xe[r.clone()], &xe_prev[r], &mut en[..gd.len()]);
            for i in 0..gd.len() {
                let (yd, ye) = (
                    extrapolate(d[i], dp[i], beta),
                    extrapolate(e[i], ep[i], beta),
                );
                let g = (yd + ye) - a[i] * inv;
                gd[i] = yd - 0.5 * g;
                en[i] = shrink_scalar(ye - 0.5 * g, tau_e);
            }
        });

        // Gram + SVT in place: D_{k+1} = U (Σ − μ/2)₊ Vᵀ of the D half.
        rank = svt_in_place(&mut gd, mu / 2.0)?.0;

        // Norms pass. Stationarity measure from the reference
        // implementation:
        //   S = 2 (Y − X_{k+1}) + (X_{k+1} − Y) summed over blocks
        // i.e. S_D = 2(Y_D − D_{k+1}) + (D_{k+1} + E_{k+1} − Y_D − Y_E), and
        // symmetrically for E (both blocks share the second term). The
        // four squared norms share fro_norm's block order, so each equals
        // fro_norm of the matrix it would have been.
        let (dn, en) = (gd.as_slice(), e_next.as_slice());
        let [sd2, se2, dn2, en2] = blocked_sums(m * n, |i| {
            let yd = extrapolate(xd[i], xd_prev[i], beta);
            let ye = extrapolate(xe[i], xe_prev[i], beta);
            let common = (dn[i] + en[i]) - (yd + ye);
            let sd = (yd - dn[i]) * 2.0 + common;
            let se = (ye - en[i]) * 2.0 + common;
            [sd * sd, se * se, dn[i] * dn[i], en[i] * en[i]]
        });
        let stat = (sd2.sqrt().powi(2) + se2.sqrt().powi(2)).sqrt();
        let xscale = (dn2.sqrt().powi(2) + en2.sqrt().powi(2)).sqrt().max(1.0);

        // X_{k−1} ← X_k ← X_{k+1}; the oldest buffer becomes next scratch.
        std::mem::swap(&mut d_prev, &mut d);
        std::mem::swap(&mut d, &mut gd);
        std::mem::swap(&mut e_prev, &mut e);
        std::mem::swap(&mut e, &mut e_next);
        t_prev = t;
        t = (1.0 + (4.0 * t_prev * t_prev + 1.0).sqrt()) / 2.0;
        mu = (opts.eta * mu).max(mu_floor);

        if stat <= opts.tol * xscale {
            return Ok(RpcaResult {
                residual: residual(xa, inv, &d, &e),
                d: rescale(d, a_fro_orig),
                e: rescale(e, a_fro_orig),
                iters: k + 1,
                rank,
            });
        }
    }

    // Out of budget: hand back the partial decomposition instead of
    // dropping it. The solver ran on Â = A/‖A‖_F, so D and E must be
    // rescaled exactly like the convergence path above; the relative
    // residual is scale-invariant and therefore already consistent.
    let residual = residual(xa, inv, &d, &e);
    let rank = svd_rank_of(&d);
    Err(RpcaError::NoConvergence {
        iters: opts.max_iters,
        residual,
        partial: Box::new(RpcaResult {
            d: rescale(d, a_fro_orig),
            e: rescale(e, a_fro_orig),
            iters: opts.max_iters,
            residual,
            rank,
        }),
    })
}

/// Relative residual `‖Â − D − E‖_F / ‖Â‖_F` of the normalized problem
/// (`‖Â‖_F = 1`) in one blocked pass, `Â` read as `a[i] * inv`: the bits
/// of `fro_norm(&a_hat.sub(d)?.sub(e)?)`.
fn residual(a: &[f64], inv: f64, d: &Mat, e: &Mat) -> f64 {
    let (d, e) = (d.as_slice(), e.as_slice());
    let [r2] = blocked_sums(a.len(), |i| {
        let r = (a[i] * inv - d[i]) - e[i];
        [r * r]
    });
    r2.sqrt()
}

/// Undo the normalization in place: every element times `‖A‖_F`, as
/// `Mat::scale` computes it.
fn rescale(mut x: Mat, a_fro: f64) -> Mat {
    x.as_mut_slice().iter_mut().for_each(|v| *v *= a_fro);
    x
}

/// Momentum extrapolation of one element: `x + β (x − x_prev)`.
#[inline]
fn extrapolate(x: f64, x_prev: f64, beta: f64) -> f64 {
    x + beta * (x - x_prev)
}

/// Numerical rank of the final iterate (relative threshold 1e-9), for the
/// partial result — the in-loop rank tracks the *previous* SVT call and is
/// not in scope once the loop ends.
fn svd_rank_of(d: &Mat) -> usize {
    cloudconst_linalg::svd_thin(d).map(|s| s.rank(1e-9)).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudconst_linalg::{svd_thin, zero_norm_frac};

    /// Deterministic low-rank + sparse test fixture.
    fn fixture(m: usize, n: usize, spikes: &[(usize, usize, f64)]) -> (Mat, Mat, Mat) {
        // Rank-1 base: constant row (the paper's shape).
        let row: Vec<f64> = (0..n).map(|j| 10.0 + (j % 7) as f64).collect();
        let mut low = Mat::zeros(m, n);
        for i in 0..m {
            low.row_mut(i).copy_from_slice(&row);
        }
        let mut sparse = Mat::zeros(m, n);
        for &(i, j, v) in spikes {
            sparse[(i, j)] = v;
        }
        let a = low.add(&sparse).unwrap();
        (a, low, sparse)
    }

    #[test]
    fn recovers_rank_one_plus_spikes() {
        let (a, low, _sparse) = fixture(
            8,
            40,
            &[(0, 3, 25.0), (2, 17, -18.0), (5, 30, 30.0), (7, 7, 22.0)],
        );
        let r = apg(&a, &ApgOptions::default()).unwrap();
        // Low-rank part close to ground truth.
        let err = fro_norm(&r.d.sub(&low).unwrap()) / fro_norm(&low);
        assert!(err < 0.02, "relative low-rank error {err}");
        // Recovered D is (essentially) rank one.
        let svd = svd_thin(&r.d).unwrap();
        assert_eq!(svd.rank(1e-3), 1);
    }

    #[test]
    fn sparse_support_recovered() {
        let spikes = [(1usize, 5usize, 40.0), (4, 20, -35.0)];
        let (a, _low, _s) = fixture(6, 30, &spikes);
        let r = apg(&a, &ApgOptions::default()).unwrap();
        let e = r.exact_error(&a).unwrap();
        // The two injected spikes dominate the error matrix.
        let mut entries: Vec<(f64, usize, usize)> = (0..6)
            .flat_map(|i| (0..30).map(move |j| (i, j)))
            .map(|(i, j)| (e[(i, j)].abs(), i, j))
            .collect();
        entries.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        let top: Vec<(usize, usize)> = entries[..2].iter().map(|&(_, i, j)| (i, j)).collect();
        for (i, j, _) in spikes {
            assert!(top.contains(&(i, j)), "spike ({i},{j}) not in top entries");
        }
    }

    #[test]
    fn clean_matrix_gives_tiny_error() {
        let (a, _low, _s) = fixture(5, 25, &[]);
        let r = apg(&a, &ApgOptions::default()).unwrap();
        let e = r.exact_error(&a).unwrap();
        assert!(zero_norm_frac(&e, &a, 1e-3) < 0.05);
    }

    #[test]
    fn zero_matrix_trivial() {
        let a = Mat::zeros(4, 9);
        let r = apg(&a, &ApgOptions::default()).unwrap();
        assert_eq!(r.rank, 0);
        assert_eq!(fro_norm(&r.d), 0.0);
        assert_eq!(fro_norm(&r.e), 0.0);
    }

    #[test]
    fn residual_small_at_convergence() {
        let (a, _, _) = fixture(6, 20, &[(0, 0, 15.0)]);
        let r = apg(&a, &ApgOptions::default()).unwrap();
        assert!(r.residual < 1e-3, "residual {}", r.residual);
    }

    #[test]
    fn bad_options_rejected() {
        let a = Mat::zeros(2, 2);
        let o = ApgOptions {
            lambda: Some(-1.0),
            ..Default::default()
        };
        assert!(matches!(apg(&a, &o), Err(RpcaError::BadOption(_))));
        let o = ApgOptions {
            eta: 1.5,
            ..Default::default()
        };
        assert!(matches!(apg(&a, &o), Err(RpcaError::BadOption(_))));
        let o = ApgOptions {
            tol: 0.0,
            ..Default::default()
        };
        assert!(matches!(apg(&a, &o), Err(RpcaError::BadOption(_))));
    }

    #[test]
    fn no_convergence_carries_rescaled_partial() {
        let (a, _low, _s) = fixture(6, 30, &[(1, 5, 40.0), (4, 20, -35.0)]);
        let o = ApgOptions {
            max_iters: 2, // force the budget to run out
            ..Default::default()
        };
        match apg(&a, &o) {
            Err(RpcaError::NoConvergence {
                iters,
                residual,
                partial,
            }) => {
                assert_eq!(iters, 2);
                assert_eq!(partial.d.shape(), a.shape());
                assert_eq!(partial.e.shape(), a.shape());
                // The partial split must be in the ORIGINAL data scale:
                // the reported relative residual recomputed from it must
                // match (the solver works on A/‖A‖_F internally, so an
                // unrescaled partial would be off by ‖A‖_F ≈ 262).
                let recomputed = fro_norm(
                    &a.sub(&partial.d).unwrap().sub(&partial.e).unwrap(),
                ) / fro_norm(&a);
                assert!(
                    (recomputed - residual).abs() <= 1e-12 * residual.max(1.0),
                    "residual {residual} inconsistent with partial ({recomputed})"
                );
                assert_eq!(partial.residual, residual);
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn wide_matrix_like_tp_matrix() {
        // Shape like a small TP-matrix: 10 snapshots × 16 machines squared.
        let n_links = 16 * 16;
        let (a, low, _) = fixture(10, n_links, &[(3, 100, 50.0), (7, 200, 45.0)]);
        let r = apg(&a, &ApgOptions::default()).unwrap();
        let err = fro_norm(&r.d.sub(&low).unwrap()) / fro_norm(&low);
        assert!(err < 0.02, "relative error {err}");
    }
}
