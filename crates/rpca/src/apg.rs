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
//!
//! The stopping test is false on every iteration but the last, so the
//! norms pass stops as soon as a prefix of it proves that (`stationary`):
//! its terms are squares, so with monotone rounding the running prefix of
//! the blocked fold never exceeds the full sum, and a prefix whose
//! stationarity measure already exceeds `TOL` times an upper bound on the
//! scale settles "not converged". Otherwise the fold runs to the end and
//! decides on the same bits as a full pass; either way every iterate and
//! the iteration count are unchanged. NaN never compares greater, so NaN
//! terms, or a NaN or infinite bound, run the full pass. Debug builds
//! recompute the full pass on every early exit and assert the decision.

use crate::{default_lambda, spectral_norm, Result, RpcaError, RpcaResult};
use cloudconst_linalg::{
    blocked_sums, blocked_sums_until, for_each_chunk_pair, fro_norm, shrink_scalar, sum_squares,
    svt_in_place, Mat,
};

/// Initial smoothing `μ₀ = MU_INIT_FACTOR · ‖Â‖₂`, as in the reference
/// implementation.
const MU_INIT_FACTOR: f64 = 0.99;

/// Continuation decay: `μ_{k+1} = max(ETA · μ_k, μ̄)`.
const ETA: f64 = 0.9;

/// The floor `μ̄` as a fraction of the initial μ.
const MU_FLOOR_FACTOR: f64 = 1e-9;

/// Stop when the proximal-gradient stationarity measure drops below
/// `TOL · max(1, ‖[D E]‖_F)`.
const TOL: f64 = 5e-6;

/// Options for [`apg`]. The continuation schedule, the sparsity weight
/// `λ = 1/√max(m,n)` and the tolerance are fixed; only the iteration
/// budget can be set.
#[derive(Debug, Clone)]
pub struct ApgOptions {
    /// Hard iteration cap.
    pub max_iters: usize,
}

impl Default for ApgOptions {
    fn default() -> Self {
        ApgOptions { max_iters: 500 }
    }
}

/// Run APG RPCA on `a`, returning the low-rank/sparse split.
///
/// # Errors
/// [`RpcaError::NoConvergence`] when `max_iters` is exhausted while the
/// stationarity measure is still above tolerance.
pub fn apg(a: &Mat, opts: &ApgOptions) -> Result<RpcaResult> {
    let (m, n) = a.shape();
    let lambda = default_lambda(m, n);

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

    let mu_init = MU_INIT_FACTOR * a_norm2;
    let mu_floor = MU_FLOOR_FACTOR * mu_init;

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

        // Norms pass, cut short when it can be. Stationarity measure from
        // the reference implementation:
        //   S = 2 (Y − X_{k+1}) + (X_{k+1} − Y) summed over blocks
        // i.e. S_D = 2(Y_D − D_{k+1}) + (D_{k+1} + E_{k+1} − Y_D − Y_E), and
        // symmetrically for E (both blocks share the second term).
        let (dn, en) = (gd.as_slice(), e_next.as_slice());
        let converged = stationary(m * n, sum_squares(dn, en), |i| {
            let yd = extrapolate(xd[i], xd_prev[i], beta);
            let ye = extrapolate(xe[i], xe_prev[i], beta);
            let common = (dn[i] + en[i]) - (yd + ye);
            let sd = (yd - dn[i]) * 2.0 + common;
            let se = (ye - en[i]) * 2.0 + common;
            [sd * sd, se * se, dn[i] * dn[i], en[i] * en[i]]
        });

        // X_{k−1} ← X_k ← X_{k+1}; the oldest buffer becomes next scratch.
        std::mem::swap(&mut d_prev, &mut d);
        std::mem::swap(&mut d, &mut gd);
        std::mem::swap(&mut e_prev, &mut e);
        std::mem::swap(&mut e, &mut e_next);
        t_prev = t;
        t = (1.0 + (4.0 * t_prev * t_prev + 1.0).sqrt()) / 2.0;
        mu = (ETA * mu).max(mu_floor);

        if converged {
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

/// Margin by which [`stationary`] inflates its bound on `xscale²`. For
/// `len < 2³²`, a sum of `len` non-negative terms in any order lands
/// within about `len · 2⁻⁵³ < 2⁻²¹` (relative) of the exact sum, so the
/// blocked sums and the bound differ by about `2⁻²⁰` at most, plus a few
/// ulps for `sqrt`, `powi` and `+`. `2⁻¹⁶` covers that many times over.
const XSCALE_MARGIN: f64 = 1.0 + 1.0 / 65536.0;

/// The stopping test of one iteration, `stat ≤ TOL · xscale`, over the
/// per-element terms `[sd², se², dn², en²]` of the norms pass. `sq_sum` is
/// `Σ dn² + en²` in any order ([`sum_squares`]); inflated by
/// [`XSCALE_MARGIN`] it bounds `xscale²` from above.
///
/// The sums run in [`blocked_sums`]' order and stop at the first prefix
/// whose `stat` exceeds `TOL · max(1, √bound)`. Every term is a square and
/// rounding is monotone, so a prefix never exceeds its full sum, and
/// `sqrt`, `powi(2)` and `+` keep that order: the full `stat` exceeds the
/// same limit, which is at least `TOL · xscale`, and the iterate is not
/// stationary. When no prefix settles it, the full sums are the bits of
/// four `fro_norm`s and decide as before. A NaN never compares greater,
/// so NaN terms run the full reduction, and a NaN bound allows no early
/// exit; an infinite bound allows none either.
fn stationary(len: usize, sq_sum: f64, term: impl Fn(usize) -> [f64; 4] + Sync) -> bool {
    let scale = (sq_sum * XSCALE_MARGIN).sqrt();
    let limit = if (len as u64) >= 1 << 32 {
        f64::INFINITY
    } else if scale < 1.0 {
        TOL
    } else {
        // A NaN scale lands here: `TOL · NaN` settles nothing.
        TOL * scale
    };
    let decide =
        |[sd2, se2, dn2, en2]: [f64; 4]| pair_norm(sd2, se2) <= TOL * pair_norm(dn2, en2).max(1.0);
    match blocked_sums_until(len, &term, |&[sd2, se2, _, _]| pair_norm(sd2, se2) > limit) {
        Some(sums) => decide(sums),
        None => {
            debug_assert!(
                !decide(blocked_sums(len, &term)),
                "a prefix of the norms pass settled an iterate the full pass calls stationary"
            );
            false
        }
    }
}

/// `‖[X Y]‖_F` from the sums of squares `‖X‖_F²` and `‖Y‖_F²`, through the
/// two `fro_norm`s those sums make.
fn pair_norm(x2: f64, y2: f64) -> f64 {
    (x2.sqrt().powi(2) + y2.sqrt().powi(2)).sqrt()
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
    cloudconst_linalg::svd_thin(d)
        .map(|s| s.rank(1e-9))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudconst_linalg::{svd_thin, zero_norm_frac, LinalgError};
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn no_convergence_carries_rescaled_partial() {
        let (a, _low, _s) = fixture(6, 30, &[(1, 5, 40.0), (4, 20, -35.0)]);
        let o = ApgOptions {
            max_iters: 2, // force the budget to run out
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
                let recomputed =
                    fro_norm(&a.sub(&partial.d).unwrap().sub(&partial.e).unwrap()) / fro_norm(&a);
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

    // The early-out tests below run in debug builds too, where every early
    // exit of the stop test recomputes the full reduction and asserts the
    // decision.

    /// Terms `[sd², se², dn², en²]` over `len` elements whose stationarity
    /// ratio `stat / (TOL · xscale)` is about `ratio`, spread unevenly.
    fn stop_terms(len: usize, ratio: f64) -> Vec<[f64; 4]> {
        let wave = |i: usize| 1.0 + ((i * 7919) % 613) as f64 / 613.0;
        let x: Vec<[f64; 4]> = (0..len)
            .map(|i| [wave(i), wave(i + 1), 4.0 * wave(i + 2), wave(i + 3)])
            .collect();
        let [sd2, se2, dn2, en2] = blocked_sums(len, |i| x[i]);
        let k = (ratio * TOL * pair_norm(dn2, en2).max(1.0) / pair_norm(sd2, se2)).powi(2);
        x.into_iter()
            .map(|[sd, se, dn, en]| [sd * k, se * k, dn, en])
            .collect()
    }

    fn full_decision(len: usize, x: &[[f64; 4]]) -> bool {
        let [sd2, se2, dn2, en2] = blocked_sums(len, |i| x[i]);
        pair_norm(sd2, se2) <= TOL * pair_norm(dn2, en2).max(1.0)
    }

    fn bound_of(x: &[[f64; 4]]) -> f64 {
        let dn: Vec<f64> = x.iter().map(|t| t[2].sqrt()).collect();
        let en: Vec<f64> = x.iter().map(|t| t[3].sqrt()).collect();
        sum_squares(&dn, &en)
    }

    /// Terms the debug self-check reads again after an early exit.
    fn self_check_calls(len: usize) -> usize {
        if cfg!(debug_assertions) {
            len
        } else {
            0
        }
    }

    #[test]
    fn stop_test_matches_the_full_test_at_every_shape() {
        // Below one block, a ragged last block, and past the parallel
        // threshold (2¹⁵ elements).
        for len in [300, 7000, 40_000] {
            for ratio in [0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.001, 2.0, 1e6] {
                let x = stop_terms(len, ratio);
                let fast = stationary(len, bound_of(&x), |i| x[i]);
                assert_eq!(fast, full_decision(len, &x), "len {len} ratio {ratio}");
            }
        }
    }

    #[test]
    fn stop_test_settles_a_far_from_converged_state_after_one_block() {
        for len in [4 * 1024, 40_000] {
            let x = stop_terms(len, 1e3);
            let calls = AtomicUsize::new(0);
            let converged = stationary(len, bound_of(&x), |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                x[i]
            });
            assert!(!converged);
            let calls = calls.load(Ordering::Relaxed) - self_check_calls(len);
            if len < 1 << 15 {
                assert_eq!(calls, 1024, "the serial fold stops after its first block");
            } else {
                // Other threads may have started a block or two meanwhile.
                assert!(calls < len / 2, "{calls} of {len} terms read");
            }
        }
    }

    #[test]
    fn stop_test_reads_on_while_the_leading_blocks_are_stationary() {
        // Stationary leading blocks (zero sd, se) hide a far-from-converged
        // tail: no prefix before it can settle, the full pass has to.
        let len = 8 * 1024;
        let mut x = stop_terms(len, 1e3);
        for t in &mut x[..6 * 1024] {
            (t[0], t[1]) = (0.0, 0.0);
        }
        let calls = AtomicUsize::new(0);
        let converged = stationary(len, bound_of(&x), |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            x[i]
        });
        assert!(!converged);
        assert_eq!(
            calls.load(Ordering::Relaxed) - self_check_calls(len),
            7 * 1024
        );
    }

    #[test]
    fn stop_test_runs_the_full_pass_on_nan_and_infinite_bounds() {
        let len = 4 * 1024;
        let x = stop_terms(len, 1e3);
        for bound in [f64::NAN, f64::INFINITY] {
            let calls = AtomicUsize::new(0);
            let converged = stationary(len, bound, |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                x[i]
            });
            assert!(!converged, "bound {bound}");
            assert_eq!(calls.load(Ordering::Relaxed), len, "bound {bound}");
        }
        // A NaN term leaves every prefix NaN: nothing settles early, and
        // the full test says "not stationary", as it did before.
        let mut x = x;
        x[0][0] = f64::NAN;
        assert!(!stationary(len, bound_of(&x), |i| x[i]));
    }

    #[test]
    fn non_finite_input_is_a_linalg_error() {
        // Each used to panic in the eigensolver's sort, under the
        // spectral norm.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut a = Mat::full(4, 9, 1.0);
            a[(2, 5)] = bad;
            assert!(
                matches!(
                    apg(&a, &ApgOptions::default()),
                    Err(RpcaError::Linalg(LinalgError::NonFinite))
                ),
                "{bad}"
            );
        }
    }

    #[test]
    fn early_out_solves_every_shape() {
        // m·n below one block, not a multiple of the block, and above the
        // parallel threshold.
        for (m, n) in [(3, 100), (7, 1000), (10, 3300)] {
            let (a, low, _) = fixture(m, n, &[(1, n / 3, 40.0), (m - 1, n - 2, -35.0)]);
            let r = apg(&a, &ApgOptions::default()).unwrap();
            assert!(r.iters > 1, "{m}x{n}");
            let err = fro_norm(&r.d.sub(&low).unwrap()) / fro_norm(&low);
            assert!(err < 0.02, "{m}x{n}: relative low-rank error {err}");
        }
    }

    #[test]
    fn early_out_solves_identical_leading_rows() {
        // The first blocks lie in identical rank-one rows; the spikes sit
        // in the last row, past the first block.
        let (m, n) = (6, 2048);
        let (a, low, _) = fixture(m, n, &[(5, 100, 50.0), (5, 1500, -40.0)]);
        let r = apg(&a, &ApgOptions::default()).unwrap();
        let err = fro_norm(&r.d.sub(&low).unwrap()) / fro_norm(&low);
        assert!(err < 0.02, "relative low-rank error {err}");
    }
}
