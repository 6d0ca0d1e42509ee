//! The paper's load-bearing quantitative claims, checked as tests (shape,
//! not absolute numbers — see DESIGN.md).

use cloudconst::collectives::fnf_tree;
use cloudconst::linalg::Mat;
use cloudconst_bench::campaign::{run_campaign, Campaign};
use cloudconst_bench::replay::{replay_campaign, ReplaySetup};
use cloudconst_bench::{mean, Approach};

/// §II-C / Fig. 1: the FNF example — longest path 5, and 7 after raising
/// weight(1,3) from 2 to 4.
#[test]
fn fig1_fnf_example_weights() {
    let w = Mat::from_rows(&[
        &[0.0, 3.0, 2.0, 4.0, 6.0, 7.0],
        &[3.0, 0.0, 5.0, 2.0, 6.0, 4.0],
        &[2.0, 5.0, 0.0, 5.0, 3.0, 1.0],
        &[4.0, 2.0, 5.0, 0.0, 8.0, 9.0],
        &[6.0, 6.0, 3.0, 8.0, 0.0, 5.0],
        &[7.0, 4.0, 1.0, 9.0, 5.0, 0.0],
    ]);
    assert_eq!(fnf_tree(0, &w).longest_path_weight(&w), 5.0);
    let mut rev = w.clone();
    rev[(0, 2)] = 4.0;
    rev[(2, 0)] = 4.0;
    assert_eq!(fnf_tree(0, &rev).longest_path_weight(&rev), 7.0);
}

/// §V-D1: RPCA and Heuristics both significantly beat Baseline; at this
/// (small, test-sized) scale the two guided approaches are statistically
/// close, so only "RPCA not meaningfully worse" is asserted tree-level —
/// the full 8–20% separation shows at the paper's 196-instance scale
/// (`experiments fig7 --full`). The *mechanism* — RPCA estimates the
/// constant more accurately than averaging — is asserted exactly in
/// `rpca_estimate_closer_to_ground_truth_than_mean`.
#[test]
fn campaign_ordering_rpca_heuristics_baseline() {
    let mut c = Campaign::quick(24, 3);
    c.runs = 24;
    let r = run_campaign(&c);
    let b = r.bcast.mean_of(Approach::Baseline);
    let h = r.bcast.mean_of(Approach::Heuristics);
    let p = r.bcast.mean_of(Approach::Rpca);
    assert!(p < 0.8 * b, "RPCA {p} not ≳20% better than Baseline {b}");
    assert!(h < 0.8 * b, "Heuristics {h} should beat Baseline {b}");
    assert!(
        p <= h * 1.10,
        "RPCA {p} meaningfully worse than Heuristics {h}"
    );
}

/// The mechanism behind the paper's RPCA-vs-Heuristics gap: congestion
/// spikes bias a column mean, while RPCA shunts them into N_E, so the
/// RPCA constant is closer to the hidden ground truth.
#[test]
fn rpca_estimate_closer_to_ground_truth_than_mean() {
    use cloudconst::cloud::{CloudConfig, SyntheticCloud};
    use cloudconst::core::{estimate, EstimatorKind};
    use cloudconst::netmodel::{Calibrator, BETA_PROBE_BYTES};
    use cloudconst::rpca::relative_difference;

    let err = |kind: EstimatorKind, seed: u64| {
        let mut cloud = SyntheticCloud::new(CloudConfig::ec2_like(20, seed));
        let (tp, _) = Calibrator::new().calibrate_tp(&mut cloud, 0.0, 180.0, 10);
        let est = estimate(&tp, kind).expect("estimate").perf;
        let truth = cloud.ground_truth(0);
        let w_est = est.weights(BETA_PROBE_BYTES);
        let w_truth = truth.weights(BETA_PROBE_BYTES);
        relative_difference(w_est.as_slice(), w_truth.as_slice())
    };
    let mut rpca_wins = 0;
    for seed in [3u64, 11, 19, 27] {
        let e_rpca = err(EstimatorKind::Rpca, seed);
        let e_mean = err(EstimatorKind::HeuristicMean, seed);
        if e_rpca < e_mean {
            rpca_wins += 1;
        }
    }
    assert!(
        rpca_wins >= 3,
        "RPCA estimate beat the mean on only {rpca_wins}/4 seeds"
    );
}

/// §V-D3 / Fig. 10: improvement decays as Norm(N_E) grows.
#[test]
fn improvement_decays_with_norm_ne() {
    let mut setup = ReplaySetup::quick(12, 77);
    setup.runs = 15;
    setup.time_step = 8;
    let imp = |target: f64| {
        let r = replay_campaign(&setup, target);
        (
            r.achieved_norm,
            1.0 - mean(r.bcast.get(Approach::Rpca)) / mean(r.bcast.get(Approach::Baseline)),
        )
    };
    let (n_low, imp_low) = imp(0.0);
    let (n_high, imp_high) = imp(0.45);
    assert!(n_high > n_low);
    assert!(
        imp_high < imp_low,
        "improvement did not decay: {imp_low} at {n_low} vs {imp_high} at {n_high}"
    );
}

/// §V-B: the RPCA computation itself is cheap relative to calibration —
/// sub-minute at paper scale, and here sub-5s at 64 instances in a debug
/// test build.
#[test]
fn rpca_runtime_is_small() {
    use cloudconst::cloud::{CloudConfig, SyntheticCloud};
    use cloudconst::core::{estimate, EstimatorKind};
    use cloudconst::netmodel::Calibrator;
    let mut cloud = SyntheticCloud::new(CloudConfig::ec2_like(64, 13));
    let (tp, _) = Calibrator::new().calibrate_tp(&mut cloud, 0.0, 60.0, 10);
    let t0 = std::time::Instant::now();
    estimate(&tp, EstimatorKind::Rpca).expect("estimate");
    let wall = t0.elapsed().as_secs_f64();
    assert!(
        wall < 30.0,
        "RPCA took {wall}s on 10x4096 — far off the paper's budget"
    );
}
