//! End-to-end integration of the sharded calibration coordinator
//! (`cloudconst-coord`) with the rest of the stack: bit-identity against
//! both unsharded calibrators for K ∈ {1, 2, 4, 8}, replay determinism of
//! the simulated transport (including under frame loss with re-dispatch),
//! Advisor adoption of sharded runs, and a lossless JSON `NetTrace`
//! round-trip of a volatile trace.

use cloudconst::cloud::{CloudConfig, FaultPlan, FaultyCloud, FlakyLink, SyntheticCloud};
use cloudconst::coord::{
    AuthKey, Coordinator, CoordinatorConfig, LoopbackTransport, SimConfig, SimTransport,
    TcpConfig, TcpTransport, TcpWorkerServer,
};
use cloudconst::core::{Advisor, AdvisorConfig};
use cloudconst::netmodel::{
    AdaptiveRetryPolicy, Calibrator, FaultyTpRun, ImputePolicy, NetTrace, RetryPolicy, TpMatrix,
};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn assert_tp_bits_equal(a: &TpMatrix, b: &TpMatrix, what: &str) {
    assert_eq!(a.n(), b.n(), "{what}: n");
    assert_eq!(a.steps(), b.steps(), "{what}: steps");
    for (x, y) in a.times().iter().zip(b.times()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: times");
    }
    for (ma, mb, plane) in [
        (a.alpha_matrix(), b.alpha_matrix(), "alpha"),
        (a.inv_beta_matrix(), b.inv_beta_matrix(), "inv_beta"),
        (a.mask_matrix(), b.mask_matrix(), "mask"),
    ] {
        for (k, (x, y)) in ma.as_slice().iter().zip(mb.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: {plane} cell {k}");
        }
    }
}

fn assert_runs_bit_identical(sharded: &FaultyTpRun, unsharded: &FaultyTpRun, what: &str) {
    assert_tp_bits_equal(&sharded.tp, &unsharded.tp, what);
    assert_eq!(
        sharded.overhead.to_bits(),
        unsharded.overhead.to_bits(),
        "{what}: overhead"
    );
    assert_eq!(sharded.logs, unsharded.logs, "{what}: logs");
}

/// Fault-free: the bare cloud is a probe whose attempts never fail, so
/// it goes to the workers as it is, and for every shard count the merged
/// sharded matrix carries the exact bits of the parallel calibrator.
#[test]
fn sharded_matches_infallible_calibrator_for_all_k() {
    let n = 16;
    let steps = 3;
    let cloud = SyntheticCloud::new(CloudConfig::ec2_like(n, 7));
    let (tp, overhead) = Calibrator::new().calibrate_tp_par(&cloud, 0.0, 60.0, steps);

    for k in SHARD_COUNTS {
        let mut transport = LoopbackTransport::new(cloud.clone(), k);
        let sharded = Coordinator::new(CoordinatorConfig::new(k))
            .calibrate_tp(&mut transport, 0.0, 60.0, steps)
            .expect("loopback campaign cannot abort");

        assert_tp_bits_equal(&sharded.run.tp, &tp, &format!("K={k} vs infallible"));
        assert_eq!(sharded.run.overhead.to_bits(), overhead.to_bits(), "K={k}");
        assert_eq!(sharded.report.success_rate, 1.0, "K={k}");
        assert_eq!(sharded.report.redispatches, 0, "K={k}");
        assert_eq!(sharded.report.shards, k as u64);
    }
}

/// A campaign of zero snapshots still describes the probed cluster: every
/// TP driver — `&mut`, shared-reference, fault-aware, adaptive and sharded
/// — returns an empty TP-matrix over `n` instances.
#[test]
fn zero_step_campaigns_keep_the_cluster_size() {
    let n = 6;
    let cloud = SyntheticCloud::new(CloudConfig::small_test(n, 2));
    let cal = Calibrator::new();
    let retry = RetryPolicy::default();
    let impute = ImputePolicy::LastGood;
    let sharded = Coordinator::new(CoordinatorConfig::new(2))
        .calibrate_tp(&mut LoopbackTransport::new(cloud.clone(), 2), 0.0, 60.0, 0)
        .expect("an empty campaign cannot abort");
    let runs = [
        (
            "calibrate_tp",
            cal.calibrate_tp(&mut cloud.clone(), 0.0, 60.0, 0),
        ),
        (
            "calibrate_tp_par",
            cal.calibrate_tp_par(&cloud, 0.0, 60.0, 0),
        ),
        ("calibrate_tp_faulty_par", {
            let run = cal.calibrate_tp_faulty_par(&cloud, 0.0, 60.0, 0, &retry, impute);
            (run.tp, run.overhead)
        }),
        ("calibrate_tp_faulty_adaptive", {
            let adaptive = AdaptiveRetryPolicy::default();
            let run = cal.calibrate_tp_faulty_adaptive(&cloud, 0.0, 60.0, 0, &adaptive, impute);
            (run.tp, run.overhead)
        }),
        (
            "Coordinator::calibrate_tp",
            (sharded.run.tp, sharded.run.overhead),
        ),
    ];
    for (what, (tp, overhead)) in runs {
        assert_eq!(tp.n(), n, "{what}");
        assert_eq!(tp.steps(), 0, "{what}");
        assert_eq!(tp.alpha_matrix().shape(), (0, n * n), "{what}");
        assert_eq!(overhead, 0.0, "{what}");
    }
}

/// Fault-injected: for every shard count the merged run — matrix, masks,
/// overhead and per-snapshot probe logs — equals the unsharded
/// fault-aware calibrator bit for bit.
#[test]
fn sharded_matches_faulty_calibrator_for_all_k() {
    let n = 16;
    let steps = 3;
    let retry = RetryPolicy::default();
    let cloud = FaultyCloud::new(
        SyntheticCloud::new(CloudConfig::small_test(n, 9)),
        FaultPlan::uniform(17, 0.05),
    );
    let unsharded =
        Calibrator::new().calibrate_tp_faulty_par(&cloud, 0.0, 60.0, steps, &retry, ImputePolicy::LastGood);

    for k in SHARD_COUNTS {
        let mut transport = SimTransport::new(
            cloud.clone(),
            k,
            SimConfig {
                seed: 40 + k as u64,
                loss_prob: 0.0,
                latency: (0.001, 0.050),
            },
        );
        let sharded = Coordinator::new(CoordinatorConfig::new(k))
            .calibrate_tp(&mut transport, 0.0, 60.0, steps)
            .expect("loss-free campaign cannot abort");
        assert_runs_bit_identical(&sharded.run, &unsharded, &format!("K={k}"));
    }
}

/// Replay determinism: the same transport seed reproduces the campaign
/// byte for byte — merged matrix AND report — even at 10% frame loss
/// where re-dispatch engages. A different seed re-routes the wire but
/// cannot change the merged result.
#[test]
fn sim_transport_replays_byte_identically_under_loss() {
    let n = 12;
    let k = 4;
    let cloud = FaultyCloud::new(
        SyntheticCloud::new(CloudConfig::small_test(n, 3)),
        FaultPlan::uniform(5, 0.05),
    );
    let mut config = CoordinatorConfig::new(k);
    config.dispatch_attempts = 25;
    let coordinator = Coordinator::new(config);

    let run_with_seed = |seed: u64| {
        let mut transport = SimTransport::new(
            cloud.clone(),
            k,
            SimConfig {
                seed,
                loss_prob: 0.10,
                latency: (0.001, 0.050),
            },
        );
        coordinator
            .calibrate_tp(&mut transport, 0.0, 60.0, 2)
            .expect("dispatch budget is ample for 10% loss")
    };

    let (a, b) = (run_with_seed(77), run_with_seed(77));
    assert_runs_bit_identical(&a.run, &b.run, "replay");
    assert_eq!(a.report, b.report, "replayed report must be identical");
    assert_eq!(
        serde_json::to_string(&a.report).unwrap(),
        serde_json::to_string(&b.report).unwrap(),
        "replayed report must serialize byte-identically"
    );
    assert!(
        a.report.redispatches > 0,
        "10% loss must actually engage re-dispatch"
    );
    assert!(a.report.wire.frames_lost > 0);

    // A different wire seed: different weather on the wire, same merged run.
    let c = run_with_seed(78);
    assert_runs_bit_identical(&a.run, &c.run, "seed-independence");
}

/// The coordinator's merged run slots into Algorithm 1: adopting it gives
/// the Advisor the exact model, health and quarantine state an internal
/// fault-aware calibration would have produced.
#[test]
fn advisor_adopts_sharded_run() {
    let n = 10;
    let cloud = FaultyCloud::new(
        SyntheticCloud::new(CloudConfig::small_test(n, 13)),
        FaultPlan::uniform(19, 0.05),
    );
    let quick = AdvisorConfig {
        time_step: 5,
        snapshot_interval: 30.0,
        ..AdvisorConfig::default()
    };

    let mut internal = Advisor::new(quick.clone());
    internal.calibrate_par(&cloud, 0.0).unwrap();

    let mut external = Advisor::new(quick.clone());
    let mut config = CoordinatorConfig::new(4);
    config.calibration = quick.calibration.clone();
    config.retry = quick.retry.clone();
    config.impute = quick.impute;
    let mut transport = SimTransport::new(cloud.clone(), 4, SimConfig::default());
    let sharded = Coordinator::new(config)
        .calibrate_tp(&mut transport, 0.0, quick.snapshot_interval, quick.time_step)
        .expect("loss-free campaign cannot abort");
    external.adopt_faulty_run(sharded.run, 0.0).unwrap();

    let (mi, me) = (internal.model().unwrap(), external.model().unwrap());
    for i in 0..n {
        for j in 0..n {
            let a = mi.estimate.perf.link(i, j);
            let b = me.estimate.perf.link(i, j);
            assert_eq!(a.alpha.to_bits(), b.alpha.to_bits(), "alpha ({i},{j})");
            assert_eq!(a.beta.to_bits(), b.beta.to_bits(), "beta ({i},{j})");
        }
    }
    let (hi, he) = (internal.health(10.0).unwrap(), external.health(10.0).unwrap());
    assert_eq!(hi.probe_success_rate, he.probe_success_rate);
    assert_eq!(hi.attempts, he.attempts);
    assert_eq!(hi.masked_fraction, he.masked_fraction);
    assert_eq!(hi.quarantined, he.quarantined);
    assert_eq!(external.campaign_history().len(), 1);
}

/// The full distributed stack end to end: workers behind a real TCP
/// listener, sealed frames over localhost, and the merged run adopted by
/// the Advisor — model, health and campaign history all bit-identical to
/// an internal calibration of the same cloud.
#[test]
fn advisor_adopts_tcp_campaign_end_to_end() {
    let n = 10;
    let k = 4;
    let cloud = FaultyCloud::new(
        SyntheticCloud::new(CloudConfig::small_test(n, 13)),
        FaultPlan::uniform(19, 0.05),
    );
    let quick = AdvisorConfig {
        time_step: 5,
        snapshot_interval: 30.0,
        ..AdvisorConfig::default()
    };

    let mut internal = Advisor::new(quick.clone());
    internal.calibrate_par(&cloud, 0.0).unwrap();

    let key = AuthKey::from_seed(2024);
    let server = TcpWorkerServer::spawn(cloud.clone(), k, key).expect("bind localhost");
    let mut transport =
        TcpTransport::connect(&server.shard_addrs(k), TcpConfig::new(key)).expect("connect");

    let mut config = CoordinatorConfig::new(k);
    config.calibration = quick.calibration.clone();
    config.retry = quick.retry.clone();
    config.impute = quick.impute;
    let sharded = Coordinator::new(config)
        .calibrate_tp(&mut transport, 0.0, quick.snapshot_interval, quick.time_step)
        .expect("localhost campaign must complete");
    assert_eq!(sharded.report.shards_alive as usize, k);
    assert_eq!(sharded.report.failovers, 0);
    assert!(sharded.report.wire.frames_delivered > 0);

    let mut external = Advisor::new(quick);
    external.adopt_faulty_run(sharded.run, 0.0).unwrap();

    let (mi, me) = (internal.model().unwrap(), external.model().unwrap());
    for i in 0..n {
        for j in 0..n {
            let a = mi.estimate.perf.link(i, j);
            let b = me.estimate.perf.link(i, j);
            assert_eq!(a.alpha.to_bits(), b.alpha.to_bits(), "alpha ({i},{j})");
            assert_eq!(a.beta.to_bits(), b.beta.to_bits(), "beta ({i},{j})");
        }
    }
    let (hi, he) = (internal.health(10.0).unwrap(), external.health(10.0).unwrap());
    assert_eq!(hi.probe_success_rate, he.probe_success_rate);
    assert_eq!(hi.attempts, he.attempts);
    assert_eq!(hi.masked_fraction, he.masked_fraction);
    assert_eq!(hi.quarantined, he.quarantined);
    assert_eq!(external.campaign_history().len(), 1);
}

/// Quarantine survives sharding: a link dead on every snapshot ends up
/// quarantined whether the campaign ran in-process or was merged from
/// shard fragments, and the merged probe logs carry the same worst-wins
/// outcome history that drives the quarantine decision.
#[test]
fn quarantine_survives_sharded_merge() {
    let n = 8;
    let plan = FaultPlan {
        flaky_links: vec![FlakyLink {
            i: 0,
            j: 1,
            loss_prob: 1.0,
        }],
        ..FaultPlan::none(4)
    };
    let cloud = FaultyCloud::new(
        SyntheticCloud::new(CloudConfig::small_test(n, 9)),
        plan,
    );
    // time_step 5 ≥ the advisor's quarantine threshold of 3 consecutive failures.
    let quick = AdvisorConfig {
        time_step: 5,
        snapshot_interval: 30.0,
        ..AdvisorConfig::default()
    };

    let mut internal = Advisor::new(quick.clone());
    internal.calibrate_par(&cloud, 0.0).unwrap();
    assert_eq!(internal.quarantined(), &[(0, 1)]);

    for k in [2usize, 4] {
        let mut config = CoordinatorConfig::new(k);
        config.calibration = quick.calibration.clone();
        config.retry = quick.retry.clone();
        config.impute = quick.impute;
        let mut transport = SimTransport::new(cloud.clone(), k, SimConfig::default());
        let sharded = Coordinator::new(config)
            .calibrate_tp(&mut transport, 0.0, quick.snapshot_interval, quick.time_step)
            .expect("loss-free campaign cannot abort");

        let mut external = Advisor::new(quick.clone());
        external.adopt_faulty_run(sharded.run, 0.0).unwrap();
        assert_eq!(
            external.quarantined(),
            &[(0, 1)],
            "K={k}: the dead link must be quarantined after the merge"
        );
        assert!(external.is_quarantined(0, 1), "K={k}");
        assert!(!external.is_quarantined(1, 0), "K={k}");

        let (hi, he) = (internal.health(0.0).unwrap(), external.health(0.0).unwrap());
        assert_eq!(hi.quarantined, he.quarantined, "K={k}: health quarantine");
        assert_eq!(hi.probe_success_rate, he.probe_success_rate, "K={k}");
        assert_eq!(hi.masked_fraction, he.masked_fraction, "K={k}");
    }
}

/// A *volatile* trace (every sample different) round-trips bit-exactly
/// through the JSON format, down to the TP-matrix it yields.
#[test]
fn json_trace_is_lossless_on_volatile_traces() {
    let cloud = SyntheticCloud::new(CloudConfig::ec2_like(12, 29));
    let mut trace = NetTrace::new(12);
    for s in 0..6 {
        let t = s as f64 * 60.0;
        let perf = cloudconst::netmodel::PerfMatrix::from_fn(12, |i, j| {
            cloud.instantaneous(i, j, t)
        });
        trace.record(t, perf);
    }
    let mut json = Vec::new();
    trace.save(&mut json).unwrap();
    let loaded = NetTrace::load(&json[..]).unwrap();
    assert_eq!(loaded, trace);
    assert_tp_bits_equal(
        &loaded.to_tp_matrix(),
        &trace.to_tp_matrix(),
        "volatile round-trip",
    );
}
