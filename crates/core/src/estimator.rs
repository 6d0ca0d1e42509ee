//! Constant-component estimators.

use crate::{CoreError, Result};
use cloudconst_linalg::Mat;
use cloudconst_netmodel::{PerfMatrix, TpMatrix, BETA_PROBE_BYTES};
use cloudconst_rpca::{
    apg, constant_matrix, extract_constant, metrics, ApgOptions, ConstantMethod, RpcaError,
};

/// What to do when the RPCA solver exhausts its iteration budget
/// ([`RpcaError::NoConvergence`]) instead of converging.
///
/// The error carries a rescaled partial decomposition together with its
/// relative residual; a near-tolerance partial split is usually still a
/// usable constant estimate, and a fault-degraded calibration campaign is
/// exactly when the solver is most likely to need more iterations than the
/// budget allows. The policy makes the trade-off explicit instead of
/// hard-failing the calibration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DegradedPolicy {
    /// Strict mode (the default): any non-convergence is an error.
    #[default]
    Fail,
    /// Accept the partial decomposition when its relative residual
    /// `‖A − D − E‖_F / ‖A‖_F` is at most the payload ε; the resulting
    /// estimate is flagged [`ConstantEstimate::degraded`].
    AcceptNearTolerance(f64),
}

/// How to reduce a TP-matrix to one constant performance matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimatorKind {
    /// The paper's proposal: RPCA (APG) on the latency and inverse-
    /// bandwidth temporal matrices, then rank-one extraction.
    Rpca,
    /// Direct rank-one RPCA: enforce the paper's exact constraint
    /// (identical rows + sparse error) with robust alternating
    /// minimization instead of the convex relaxation — SVD-free and
    /// `O(m·n)` per sweep.
    Rank1Direct,
    /// Column mean of the measurements (the paper's "Heuristics").
    HeuristicMean,
    /// Column minimum (best case seen per link; mentioned in §V-A as
    /// behaving like the mean).
    HeuristicMin,
    /// Exponentially weighted moving average with decay `gamma ∈ (0, 1]`
    /// (weight of snapshot `k` of `n`: `gamma^(n-1-k)`).
    HeuristicEwma(f64),
    /// Direct use of the most recent measurement — the ad-hoc practice of
    /// prior cloud work that the paper argues against.
    LastMeasurement,
}

/// A constant-component estimate plus the paper's error diagnostics.
#[derive(Debug, Clone)]
pub struct ConstantEstimate {
    /// The estimated long-term all-link performance (`P_D`).
    pub perf: PerfMatrix,
    /// `Norm(N_E)` — thresholded-count form (paper §IV-A), computed in the
    /// transfer-time domain at the 8 MB calibration size. When the
    /// TP-matrix carries imputed cells, those are excluded from the count
    /// (masked accounting).
    pub norm_ne: f64,
    /// ℓ₁ form of the same ratio (smooth; used for trend plots).
    pub norm_ne_l1: f64,
    /// RPCA iterations (0 for heuristic estimators).
    pub solver_iters: usize,
    /// True when the estimate came from a non-converged partial
    /// decomposition accepted under
    /// [`DegradedPolicy::AcceptNearTolerance`].
    pub degraded: bool,
}

/// Estimate the constant component of `tp` with the chosen estimator.
///
/// All estimators report `Norm(N_E)` against the same reference: the
/// TP-matrix in the transfer-time domain at the paper's 8 MB probe size,
/// with the estimate expanded to the rank-one `N_D` and `N_E = N_A − N_D`.
/// Strict about solver convergence and on default solver options; see
/// [`estimate_with_opts`] for the degraded-mode variant.
pub fn estimate(tp: &TpMatrix, kind: EstimatorKind) -> Result<ConstantEstimate> {
    estimate_with_opts(tp, kind, DegradedPolicy::Fail, &ApgOptions::default())
}

/// Full-control variant of [`estimate`]: choose the degraded-mode policy
/// and the APG solver options (the latter matter only for
/// [`EstimatorKind::Rpca`]).
pub fn estimate_with_opts(
    tp: &TpMatrix,
    kind: EstimatorKind,
    policy: DegradedPolicy,
    opts: &ApgOptions,
) -> Result<ConstantEstimate> {
    if tp.steps() == 0 {
        return Err(CoreError::EmptyTpMatrix);
    }
    let n = tp.n();
    let mut degraded = false;
    let (alpha_row, inv_beta_row, iters) = match kind {
        EstimatorKind::Rpca => {
            // The α and 1/β solves are independent: run them side by side.
            // Each is bit-identical to a solo solve, and `?` on α first
            // keeps α's error when both fail.
            let (ra, rb) = rayon::join(
                || run_rpca(tp.alpha_matrix(), opts, policy),
                || run_rpca(tp.inv_beta_matrix(), opts, policy),
            );
            let (ra, rb) = (ra?, rb?);
            degraded = ra.2 || rb.2;
            let a =
                extract_constant(&ra.0, ConstantMethod::TopSingular).map_err(CoreError::Rpca)?;
            let b =
                extract_constant(&rb.0, ConstantMethod::TopSingular).map_err(CoreError::Rpca)?;
            (a, b, ra.1 + rb.1)
        }
        EstimatorKind::Rank1Direct => {
            let ra = cloudconst_rpca::rank1_rpca(tp.alpha_matrix());
            let rb = cloudconst_rpca::rank1_rpca(tp.inv_beta_matrix());
            (ra.constant, rb.constant, ra.iters + rb.iters)
        }
        EstimatorKind::HeuristicMean => (
            tp.alpha_matrix().col_means(),
            tp.inv_beta_matrix().col_means(),
            0,
        ),
        EstimatorKind::HeuristicMin => (
            tp.alpha_matrix().col_mins(),
            tp.inv_beta_matrix().col_mins(),
            0,
        ),
        EstimatorKind::HeuristicEwma(gamma) => {
            assert!(
                gamma > 0.0 && gamma <= 1.0,
                "EWMA decay must lie in (0, 1], got {gamma}"
            );
            (
                ewma_cols(tp.alpha_matrix(), gamma),
                ewma_cols(tp.inv_beta_matrix(), gamma),
                0,
            )
        }
        EstimatorKind::LastMeasurement => {
            let last = tp.steps() - 1;
            (
                tp.alpha_matrix().row(last).to_vec(),
                tp.inv_beta_matrix().row(last).to_vec(),
                0,
            )
        }
    };

    let perf = PerfMatrix::from_flat(n, &alpha_row, &inv_beta_row);

    // Error diagnostics in the transfer-time domain.
    let n_a = tp.weight_matrix(BETA_PROBE_BYTES);
    let weight_row: Vec<f64> = alpha_row
        .iter()
        .zip(inv_beta_row.iter())
        .map(|(a, ib)| a.max(0.0) + BETA_PROBE_BYTES as f64 * ib.max(0.0))
        .collect();
    let n_d = constant_matrix(&weight_row, tp.steps());
    let n_e = n_a.sub(&n_d).expect("same shape");

    // Imputed cells were never measured: the mask excludes them from the
    // sparsity statistic so fill values cannot pollute `Norm(N_E)`.
    let mask = tp.mask_matrix();
    let norm_ne = metrics::norm_ne(&n_e, &n_a, mask);
    let norm_ne_l1 = metrics::norm_ne_l1(&n_e, &n_a, mask);

    Ok(ConstantEstimate {
        perf,
        norm_ne,
        norm_ne_l1,
        solver_iters: iters,
        degraded,
    })
}

/// Run one APG solve, applying the degraded-mode policy to a
/// [`RpcaError::NoConvergence`]. Returns `(low_rank, iters, degraded)`.
fn run_rpca(m: &Mat, opts: &ApgOptions, policy: DegradedPolicy) -> Result<(Mat, usize, bool)> {
    match apg(m, opts) {
        Ok(r) => Ok((r.d, r.iters, false)),
        Err(RpcaError::NoConvergence {
            iters,
            residual,
            partial,
        }) => match policy {
            // A budget-exhausted solve carries a rescaled partial split;
            // accept it when the caller declared a residual it can live
            // with, and flag the estimate as degraded.
            DegradedPolicy::AcceptNearTolerance(eps) if residual <= eps => {
                Ok((partial.d, iters, true))
            }
            _ => Err(CoreError::Rpca(RpcaError::NoConvergence {
                iters,
                residual,
                partial,
            })),
        },
        Err(e) => Err(CoreError::Rpca(e)),
    }
}

fn ewma_cols(m: &Mat, gamma: f64) -> Vec<f64> {
    let (rows, cols) = m.shape();
    let mut out = vec![0.0; cols];
    let mut norm = 0.0;
    let mut w = 1.0;
    // Most recent row gets weight 1, older rows gamma, gamma², …
    for r in (0..rows).rev() {
        for (o, &v) in out.iter_mut().zip(m.row(r)) {
            *o += w * v;
        }
        norm += w;
        w *= gamma;
    }
    out.iter_mut().for_each(|o| *o /= norm);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudconst_netmodel::LinkPerf;

    /// TP-matrix with a known constant plus one corrupted snapshot.
    fn tp_with_spike(n: usize, steps: usize) -> (TpMatrix, PerfMatrix) {
        let truth = PerfMatrix::from_fn(n, |i, j| {
            LinkPerf::new(1e-4 * (1 + i + j) as f64, 1e8 / (1.0 + 0.1 * j as f64))
        });
        let mut tp = TpMatrix::new(n);
        for k in 0..steps {
            let mut snap = truth.clone();
            if k == steps / 2 {
                // One congested measurement on one link.
                let l = truth.link(0, 1);
                snap.set(0, 1, LinkPerf::new(l.alpha * 3.0, l.beta / 5.0));
            }
            tp.push(k as f64, &snap);
        }
        (tp, truth)
    }

    fn assert_perf_close(a: &PerfMatrix, b: &PerfMatrix, rel: f64) {
        for i in 0..a.n() {
            for j in 0..a.n() {
                if i == j {
                    continue;
                }
                let (ta, tb) = (
                    a.transfer_time(i, j, BETA_PROBE_BYTES),
                    b.transfer_time(i, j, BETA_PROBE_BYTES),
                );
                assert!(
                    (ta - tb).abs() / tb.max(1e-12) < rel,
                    "({i},{j}): {ta} vs {tb}"
                );
            }
        }
    }

    #[test]
    fn rpca_recovers_constant_despite_spike() {
        let (tp, truth) = tp_with_spike(6, 10);
        let est = estimate(&tp, EstimatorKind::Rpca).unwrap();
        assert_perf_close(&est.perf, &truth, 0.05);
        assert!(est.solver_iters > 0);
    }

    #[test]
    fn rpca_error_is_sparse_and_small() {
        let (tp, _) = tp_with_spike(6, 10);
        let est = estimate(&tp, EstimatorKind::Rpca).unwrap();
        // One corrupted link out of 30, one snapshot out of 10 → tiny
        // fraction of significant error entries.
        assert!(est.norm_ne < 0.15, "norm_ne {}", est.norm_ne);
    }

    #[test]
    fn mean_heuristic_is_biased_by_spike() {
        let (tp, truth) = tp_with_spike(6, 10);
        let mean = estimate(&tp, EstimatorKind::HeuristicMean).unwrap();
        let rpca = estimate(&tp, EstimatorKind::Rpca).unwrap();
        let spiked_link_truth = truth.transfer_time(0, 1, BETA_PROBE_BYTES);
        let err_mean = (mean.perf.transfer_time(0, 1, BETA_PROBE_BYTES) - spiked_link_truth).abs();
        let err_rpca = (rpca.perf.transfer_time(0, 1, BETA_PROBE_BYTES) - spiked_link_truth).abs();
        assert!(
            err_rpca < err_mean,
            "rpca {err_rpca} should beat mean {err_mean} on the spiked link"
        );
    }

    #[test]
    fn min_heuristic_takes_per_link_minimum() {
        let (tp, truth) = tp_with_spike(4, 5);
        let est = estimate(&tp, EstimatorKind::HeuristicMin).unwrap();
        // The spike only ever slows links down, so the min equals truth.
        assert_perf_close(&est.perf, &truth, 1e-9);
    }

    #[test]
    fn last_measurement_uses_final_row() {
        let (tp, truth) = tp_with_spike(4, 5);
        // Final snapshot is clean in the fixture (spike at steps/2 = 2).
        let est = estimate(&tp, EstimatorKind::LastMeasurement).unwrap();
        assert_perf_close(&est.perf, &truth, 1e-9);
    }

    #[test]
    fn ewma_interpolates_between_last_and_mean() {
        let (tp, _) = tp_with_spike(4, 6);
        let last = estimate(&tp, EstimatorKind::LastMeasurement).unwrap();
        let ewma = estimate(&tp, EstimatorKind::HeuristicEwma(0.01)).unwrap();
        // Tiny gamma ≈ last measurement.
        assert_perf_close(&ewma.perf, &last.perf, 1e-2);
        let mean = estimate(&tp, EstimatorKind::HeuristicMean).unwrap();
        let ewma1 = estimate(&tp, EstimatorKind::HeuristicEwma(1.0)).unwrap();
        // Gamma = 1 is exactly the mean.
        assert_perf_close(&ewma1.perf, &mean.perf, 1e-9);
    }

    #[test]
    fn rank1_direct_also_rejects_spike() {
        let (tp, truth) = tp_with_spike(6, 10);
        let est = estimate(&tp, EstimatorKind::Rank1Direct).unwrap();
        assert_perf_close(&est.perf, &truth, 0.05);
        assert!(est.solver_iters > 0);
    }

    #[test]
    fn rank1_direct_matches_apg_rpca_on_spiky_fixture() {
        let (tp, _) = tp_with_spike(6, 10);
        let a = estimate(&tp, EstimatorKind::Rpca).unwrap();
        let b = estimate(&tp, EstimatorKind::Rank1Direct).unwrap();
        assert_perf_close(&a.perf, &b.perf, 0.05);
    }

    #[test]
    fn clean_tp_matrix_has_near_zero_error() {
        let truth = PerfMatrix::from_fn(5, |i, j| {
            LinkPerf::new(1e-4 * (1 + i) as f64, 1e8 * (1 + j) as f64)
        });
        let mut tp = TpMatrix::new(5);
        for k in 0..8 {
            tp.push(k as f64, &truth);
        }
        let est = estimate(&tp, EstimatorKind::Rpca).unwrap();
        assert!(est.norm_ne < 0.02, "norm_ne {}", est.norm_ne);
        assert!(est.norm_ne_l1 < 0.02, "norm_ne_l1 {}", est.norm_ne_l1);
    }

    #[test]
    fn degraded_policy_consumes_no_convergence_partial() {
        let (tp, truth) = tp_with_spike(6, 10);
        // Starve the solver so it cannot converge (this fixture needs 74
        // iterations; at 50 the residual is ~0.6% — near tolerance)…
        let opts = ApgOptions { max_iters: 50 };
        // …strict mode refuses the partial…
        let strict = estimate_with_opts(&tp, EstimatorKind::Rpca, DegradedPolicy::Fail, &opts);
        assert!(
            matches!(
                strict,
                Err(CoreError::Rpca(
                    cloudconst_rpca::RpcaError::NoConvergence { .. }
                ))
            ),
            "expected NoConvergence, got {strict:?}"
        );
        // …but AcceptNearTolerance consumes the rescaled partial and flags
        // the estimate.
        let degraded = estimate_with_opts(
            &tp,
            EstimatorKind::Rpca,
            DegradedPolicy::AcceptNearTolerance(0.02),
            &opts,
        )
        .unwrap();
        assert!(degraded.degraded, "estimate must be flagged degraded");
        assert!(degraded.solver_iters > 0);
        // The near-tolerance partial is a usable estimate on every link.
        for i in 0..6 {
            for j in 0..6 {
                if i == j {
                    continue;
                }
                let a = degraded.perf.transfer_time(i, j, BETA_PROBE_BYTES);
                let b = truth.transfer_time(i, j, BETA_PROBE_BYTES);
                assert!(
                    a.is_finite() && a > 0.0 && (a - b).abs() / b < 0.25,
                    "({i},{j}): degraded {a} vs truth {b}"
                );
            }
        }
    }

    #[test]
    fn accept_near_tolerance_rejects_residual_above_epsilon() {
        let (tp, _) = tp_with_spike(6, 10);
        let opts = ApgOptions { max_iters: 50 };
        // An ε no starved solve can meet: the policy must refuse.
        let r = estimate_with_opts(
            &tp,
            EstimatorKind::Rpca,
            DegradedPolicy::AcceptNearTolerance(1e-300),
            &opts,
        );
        assert!(r.is_err(), "residual above epsilon must still fail");
    }

    #[test]
    fn converged_estimate_is_not_flagged_degraded() {
        let (tp, _) = tp_with_spike(6, 10);
        let est = estimate_with_opts(
            &tp,
            EstimatorKind::Rpca,
            DegradedPolicy::AcceptNearTolerance(0.5),
            &ApgOptions::default(),
        )
        .unwrap();
        assert!(!est.degraded);
    }

    #[test]
    fn masked_tp_uses_masked_norm_accounting() {
        use cloudconst_netmodel::ImputePolicy;
        let truth = PerfMatrix::from_fn(5, |i, j| {
            LinkPerf::new(1e-4 * (1 + i) as f64, 1e8 * (1 + j) as f64)
        });
        // Clean history, then a snapshot where link (0,1) went unobserved.
        let mut tp = TpMatrix::new(5);
        for k in 0..6 {
            tp.push(k as f64, &truth);
        }
        let mut observed = vec![true; 25];
        observed[1] = false; // (0,1)
        tp.push_masked(6.0, &truth, &observed, ImputePolicy::LastGood);
        assert!(tp.masked_fraction() > 0.0);
        let est = estimate(&tp, EstimatorKind::Rpca).unwrap();
        // LastGood imputation restores the constant exactly, so the error
        // stays near zero — and the masked cell cannot contribute at all.
        assert!(est.norm_ne < 0.02, "norm_ne {}", est.norm_ne);
        assert!(!est.degraded);
    }

    #[test]
    fn empty_tp_matrix_rejected() {
        let tp = TpMatrix::new(4);
        assert!(matches!(
            estimate(&tp, EstimatorKind::Rpca),
            Err(CoreError::EmptyTpMatrix)
        ));
    }

    #[test]
    #[should_panic(expected = "EWMA decay")]
    fn bad_ewma_gamma_panics() {
        let (tp, _) = tp_with_spike(3, 3);
        let _ = estimate(&tp, EstimatorKind::HeuristicEwma(0.0));
    }
}
