//! End-to-end integration: the full Algorithm-1 pipeline across crates —
//! synthetic cloud → calibration → RPCA → guided collectives/mapping →
//! maintenance.

use cloudconst::apps::CommEnv;
use cloudconst::cloud::{CloudConfig, SyntheticCloud};
use cloudconst::collectives::Collective;
use cloudconst::core::{classify, Advisor, AdvisorConfig, EffectivenessBand, MaintenanceDecision};
use cloudconst::netmodel::{PerfMatrix, BETA_PROBE_BYTES, MB};
use cloudconst::topomap::{
    evaluate_mapping, greedy_mapping, machine_graph_from_perf, random_task_graph, ring_mapping,
};

fn actual_at(cloud: &SyntheticCloud, t: f64) -> PerfMatrix {
    PerfMatrix::from_fn(cloud.config().n_vms, |i, j| cloud.instantaneous(i, j, t))
}

#[test]
fn pipeline_recovers_ground_truth_on_calm_cloud() {
    let n = 12;
    let cloud = SyntheticCloud::new(CloudConfig::calm(n, 1));
    let mut advisor = Advisor::new(AdvisorConfig::default());
    advisor.calibrate_par(&cloud, 0.0).unwrap();
    let truth = cloud.ground_truth(0);
    let est = advisor.constant().unwrap();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let a = est.transfer_time(i, j, BETA_PROBE_BYTES);
            let b = truth.transfer_time(i, j, BETA_PROBE_BYTES);
            assert!((a - b).abs() / b < 0.05, "({i},{j}): {a} vs {b}");
        }
    }
    assert!(advisor.norm_ne().unwrap() < 0.05);
    assert_eq!(
        classify(advisor.norm_ne().unwrap()),
        EffectivenessBand::HighlyEffective
    );
}

#[test]
fn guided_broadcast_beats_baseline_on_average() {
    let n = 20;
    let cloud = SyntheticCloud::new(CloudConfig::ec2_like(n, 5));
    let mut advisor = Advisor::new(AdvisorConfig::default());
    advisor.calibrate_par(&cloud, 0.0).unwrap();
    let guide = advisor.constant().unwrap().clone();

    let mut base_sum = 0.0;
    let mut rpca_sum = 0.0;
    for k in 0..15 {
        let t = 4000.0 + k as f64 * 1800.0;
        let actual = actual_at(&cloud, t);
        let root = k % n;
        base_sum += CommEnv::baseline(&actual).collective_time(Collective::Broadcast, root, 8 * MB);
        rpca_sum +=
            CommEnv::guided(&actual, &guide).collective_time(Collective::Broadcast, root, 8 * MB);
    }
    assert!(
        rpca_sum < base_sum,
        "guided {rpca_sum} should beat baseline {base_sum}"
    );
}

#[test]
fn guided_mapping_beats_ring_on_average() {
    let n = 20;
    let cloud = SyntheticCloud::new(CloudConfig::ec2_like(n, 9));
    let mut advisor = Advisor::new(AdvisorConfig::default());
    advisor.calibrate_par(&cloud, 0.0).unwrap();
    let guide = advisor.constant().unwrap().clone();
    let machines = machine_graph_from_perf(&guide);

    let mut ring_sum = 0.0;
    let mut greedy_sum = 0.0;
    for k in 0..10 {
        let t = 4000.0 + k as f64 * 1800.0;
        let actual = actual_at(&cloud, t);
        let tasks = random_task_graph(n, 2, 5e6, 10e6, k as u64);
        ring_sum += evaluate_mapping(&tasks, &ring_mapping(n), &actual);
        greedy_sum += evaluate_mapping(&tasks, &greedy_mapping(&tasks, &machines), &actual);
    }
    assert!(
        greedy_sum < ring_sum,
        "greedy {greedy_sum} should beat ring {ring_sum}"
    );
}

#[test]
fn maintenance_loop_survives_regime_shift() {
    let n = 14;
    let mut cfg = CloudConfig::ec2_like(n, 23);
    cfg.shift_times = vec![30_000.0];
    cfg.migrate_frac = 0.8;
    let cloud = SyntheticCloud::new(cfg);

    let mut advisor = Advisor::new(AdvisorConfig::default());
    advisor.calibrate_par(&cloud, 0.0).unwrap();

    let mut recalibrated = false;
    for k in 0..20 {
        let t = 4000.0 + k as f64 * 3600.0;
        let actual = actual_at(&cloud, t);
        let guide = advisor.constant().unwrap().clone();
        let root = k % n;
        let observed =
            CommEnv::guided(&actual, &guide).collective_time(Collective::Broadcast, root, 8 * MB);
        let expected =
            CommEnv::guided(&guide, &guide).collective_time(Collective::Broadcast, root, 8 * MB);
        if advisor.observe(&cloud, t, expected, observed).unwrap()
            == MaintenanceDecision::Recalibrate
            && t > 30_000.0
        {
            recalibrated = true;
        }
    }
    assert!(
        recalibrated,
        "the post-shift divergence never triggered maintenance"
    );

    // After re-calibration the model should match the *new* epoch.
    let truth = cloud.ground_truth(1);
    let est = advisor.constant().unwrap();
    let mut total_rel = 0.0;
    let mut count = 0;
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let a = est.transfer_time(i, j, BETA_PROBE_BYTES);
            let b = truth.transfer_time(i, j, BETA_PROBE_BYTES);
            total_rel += (a - b).abs() / b;
            count += 1;
        }
    }
    let avg_rel = total_rel / count as f64;
    assert!(
        avg_rel < 0.25,
        "post-shift model error too large: {avg_rel}"
    );
}
