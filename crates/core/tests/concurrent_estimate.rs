//! The RPCA estimate solves α and 1/β side by side (`rayon::join`); these
//! tests pin it to the sequential pipeline it replaces — `apg` plus
//! `extract_constant` on `alpha_matrix()`, then on `inv_beta_matrix()` —
//! bit for bit, including which error wins and the degraded flag when the
//! solver runs out of budget. They hold for any `RAYON_NUM_THREADS`.

use cloudconst_cloud::{CloudConfig, SyntheticCloud};
use cloudconst_core::{estimate, estimate_with_opts, CoreError, DegradedPolicy, EstimatorKind};
use cloudconst_linalg::Mat;
use cloudconst_netmodel::{Calibrator, PerfMatrix, TpMatrix, BETA_PROBE_BYTES};
use cloudconst_rpca::{
    apg, constant_matrix, extract_constant, norm_ne, norm_ne_l1, ApgOptions, ConstantMethod,
    RpcaError,
};

/// A calibrated 16-VM TP-matrix: 10 snapshots of 256 links.
fn calibrated_tp() -> TpMatrix {
    let cloud = SyntheticCloud::new(CloudConfig::ec2_like(16, 11));
    Calibrator::new()
        .calibrate_tp_par(&cloud, 450.0, 1800.0, 10)
        .0
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The sequential solve of one matrix under `policy`: the low-rank part,
/// the iterations and whether a partial was accepted.
fn sequential(
    m: &Mat,
    opts: &ApgOptions,
    policy: DegradedPolicy,
) -> Result<(Mat, usize, bool), RpcaError> {
    match apg(m, opts) {
        Ok(r) => Ok((r.d, r.iters, false)),
        Err(RpcaError::NoConvergence {
            iters,
            residual,
            partial,
        }) => match policy {
            DegradedPolicy::AcceptNearTolerance(eps) if residual <= eps => {
                Ok((partial.d, iters, true))
            }
            _ => Err(RpcaError::NoConvergence {
                iters,
                residual,
                partial,
            }),
        },
        Err(e) => Err(e),
    }
}

/// `(perf, iters, degraded)` of the sequential pipeline.
fn sequential_estimate(
    tp: &TpMatrix,
    opts: &ApgOptions,
    policy: DegradedPolicy,
) -> (PerfMatrix, usize, bool) {
    let ra = sequential(tp.alpha_matrix(), opts, policy).expect("α solve");
    let rb = sequential(tp.inv_beta_matrix(), opts, policy).expect("1/β solve");
    let alpha = extract_constant(&ra.0, ConstantMethod::TopSingular).unwrap();
    let inv_beta = extract_constant(&rb.0, ConstantMethod::TopSingular).unwrap();
    (
        PerfMatrix::from_flat(tp.n(), &alpha, &inv_beta),
        ra.1 + rb.1,
        ra.2 || rb.2,
    )
}

fn assert_same_perf(got: &PerfMatrix, want: &PerfMatrix) {
    let (ga, gb) = got.flatten();
    let (wa, wb) = want.flatten();
    assert_eq!(bits(&ga), bits(&wa), "α row differs");
    assert_eq!(bits(&gb), bits(&wb), "1/β row differs");
}

#[test]
fn concurrent_estimate_is_bits_of_the_sequential_solves() {
    let tp = calibrated_tp();
    let est = estimate(&tp, EstimatorKind::Rpca).unwrap();
    let (perf, iters, degraded) =
        sequential_estimate(&tp, &ApgOptions::default(), DegradedPolicy::Fail);
    assert_same_perf(&est.perf, &perf);
    assert_eq!(est.solver_iters, iters);
    assert!(!est.degraded && !degraded);

    // Norm(N_E) from the sequential constant, as the estimator defines it.
    let (alpha, inv_beta) = perf.flatten();
    let weight: Vec<f64> = alpha
        .iter()
        .zip(&inv_beta)
        .map(|(a, ib)| a.max(0.0) + BETA_PROBE_BYTES as f64 * ib.max(0.0))
        .collect();
    let n_a = tp.weight_matrix(BETA_PROBE_BYTES);
    let n_e = n_a.sub(&constant_matrix(&weight, tp.steps())).unwrap();
    let mask = tp.mask_matrix();
    assert_eq!(est.norm_ne.to_bits(), norm_ne(&n_e, &n_a, mask).to_bits());
    assert_eq!(
        est.norm_ne_l1.to_bits(),
        norm_ne_l1(&n_e, &n_a, mask).to_bits()
    );
}

#[test]
fn alpha_error_wins_when_both_solves_run_out_of_budget() {
    let tp = calibrated_tp();
    let opts = ApgOptions { max_iters: 3 };
    let residual = |m: &Mat| match apg(m, &opts) {
        Err(RpcaError::NoConvergence { residual, .. }) => residual,
        other => panic!("a 3-iteration solve must not converge: {other:?}"),
    };
    let (ra, rb) = (residual(tp.alpha_matrix()), residual(tp.inv_beta_matrix()));
    assert_ne!(
        ra.to_bits(),
        rb.to_bits(),
        "fixture must tell the two errors apart"
    );
    match estimate_with_opts(&tp, EstimatorKind::Rpca, DegradedPolicy::Fail, &opts) {
        Err(CoreError::Rpca(RpcaError::NoConvergence {
            iters, residual, ..
        })) => {
            assert_eq!(iters, 3);
            assert_eq!(
                residual.to_bits(),
                ra.to_bits(),
                "α's error is the one returned"
            );
        }
        other => panic!("expected α's NoConvergence, got {other:?}"),
    }
}

#[test]
fn accepted_partials_keep_the_degraded_flag_and_bits() {
    let tp = calibrated_tp();
    let opts = ApgOptions { max_iters: 20 };
    let policy = DegradedPolicy::AcceptNearTolerance(1.0);
    let est = estimate_with_opts(&tp, EstimatorKind::Rpca, policy, &opts).unwrap();
    let (perf, iters, degraded) = sequential_estimate(&tp, &opts, policy);
    assert!(degraded, "fixture: a 20-iteration solve is a partial");
    assert_eq!(est.degraded, degraded);
    assert_eq!(est.solver_iters, iters);
    assert_same_perf(&est.perf, &perf);
}
