//! End-to-end robustness: fault-injected calibration → masked RPCA →
//! FNF tree build → maintenance, swept over fault rates 0 → 20%.
//!
//! The sweep pins the two promises of the fault-aware path: at 0% faults
//! the pipeline is **bit-identical** to the infallible `&mut` calibrator
//! and reports the bare cloud's probe counters, and
//! as fault rates climb to 20% the recovered constant component stays
//! within a bounded relative error of ground truth while the
//! [`HealthReport`] tells the truth about how the model was obtained.

use cloudconst::cloud::{CloudConfig, FaultPlan, FaultyCloud, FlakyLink, SyntheticCloud};
use cloudconst::collectives::fnf_tree;
use cloudconst::core::{
    estimate_with_opts, Advisor, AdvisorConfig, DegradedPolicy, MaintenanceDecision,
};
use cloudconst::netmodel::{
    AdaptiveRetryPolicy, Calibrator, FaultyTpRun, ImputePolicy, RetryPolicy, BETA_PROBE_BYTES,
};

/// A deadline that honest probes never hit, so every deviation from the
/// infallible path is the fault plan's doing and a 0% plan changes nothing.
fn generous_retry() -> RetryPolicy {
    RetryPolicy {
        deadline: 1e9,
        ..RetryPolicy::default()
    }
}

fn faulty_advisor(retry: RetryPolicy) -> Advisor {
    Advisor::new(AdvisorConfig {
        retry,
        ..AdvisorConfig::default()
    })
}

/// Mean relative error of the advisor's constant component against the
/// epoch-0 ground truth, measured as large-transfer time.
fn mean_rel_error(advisor: &Advisor, cloud: &SyntheticCloud) -> f64 {
    let truth = cloud.ground_truth(0);
    let est = advisor.constant().unwrap();
    let n = truth.n();
    let mut total = 0.0;
    let mut count = 0usize;
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let a = est.transfer_time(i, j, BETA_PROBE_BYTES);
            let b = truth.transfer_time(i, j, BETA_PROBE_BYTES);
            total += (a - b).abs() / b;
            count += 1;
        }
    }
    total / count as f64
}

#[test]
fn zero_fault_pipeline_is_bit_identical_to_infallible_path() {
    let n = 16;
    let cloud = SyntheticCloud::new(CloudConfig::ec2_like(n, 77));
    let faulty = FaultyCloud::new(cloud.clone(), FaultPlan::none(77));

    // The infallible reference: the `&mut` calibrator, then the estimator.
    let cfg = AdvisorConfig::default();
    let (tp, overhead) = Calibrator {
        config: cfg.calibration.clone(),
    }
    .calibrate_tp(
        &mut cloud.clone(),
        0.0,
        cfg.snapshot_interval,
        cfg.time_step,
    );
    let est = estimate_with_opts(&tp, cfg.estimator, cfg.degraded, &cfg.rpca).unwrap();
    let mut robust = faulty_advisor(generous_retry());
    robust.calibrate_par(&faulty, 0.0).unwrap();

    let mr = robust.model().unwrap();
    assert_eq!(
        overhead.to_bits(),
        mr.calibration_overhead.to_bits(),
        "calibration overhead diverged"
    );
    assert_eq!(
        est.norm_ne.to_bits(),
        mr.estimate.norm_ne.to_bits(),
        "Norm(N_E) diverged"
    );
    for i in 0..n {
        for j in 0..n {
            let a = est.perf.link(i, j);
            let b = mr.estimate.perf.link(i, j);
            assert_eq!(a.alpha.to_bits(), b.alpha.to_bits(), "alpha ({i},{j})");
            assert_eq!(a.beta.to_bits(), b.beta.to_bits(), "beta ({i},{j})");
        }
    }

    // Downstream guidance is therefore identical too: the FNF broadcast
    // trees built from either constant are the same tree.
    let wp = est.perf.weights(BETA_PROBE_BYTES);
    let wr = mr.estimate.perf.weights(BETA_PROBE_BYTES);
    for root in [0, 5, n - 1] {
        let tp = fnf_tree(root, &wp);
        let tr = fnf_tree(root, &wr);
        for v in 0..n {
            assert_eq!(tp.parent(v), tr.parent(v), "FNF tree diverged at {v}");
        }
    }

    // And the health report records a perfectly clean campaign: the same
    // counters the bare cloud reports, two first-try probes per link.
    let h = robust.health(0.0).unwrap();
    let mut plain = Advisor::new(cfg.clone());
    plain.calibrate_par(&cloud, 0.0).unwrap();
    assert_eq!(h.attempts, plain.health(0.0).unwrap().attempts);
    assert_eq!(h.attempts, 2 * (n * (n - 1) * cfg.time_step) as u64);
    assert_eq!(h.probe_success_rate, 1.0);
    assert_eq!(h.retries + h.timeouts + h.losses, 0);
    assert_eq!(h.masked_fraction, 0.0);
    assert!(!h.degraded);
    assert!(h.quarantined.is_empty());
}

#[test]
fn fault_sweep_keeps_constant_error_bounded_and_health_truthful() {
    let n = 12;
    for (k, rate) in [0.0, 0.05, 0.10, 0.20].into_iter().enumerate() {
        let cloud = SyntheticCloud::new(CloudConfig::ec2_like(n, 31));
        let faulty = FaultyCloud::new(cloud.clone(), FaultPlan::uniform(900 + k as u64, rate));
        // The *default* retry policy: its 2 s per-probe deadline is the
        // designed defense against stragglers — inflated measurements are
        // clipped into timeouts and retried instead of polluting the model.
        let mut advisor = faulty_advisor(RetryPolicy::default());
        advisor
            .calibrate_par(&faulty, 0.0)
            .unwrap_or_else(|e| panic!("calibration at rate {rate} failed: {e}"));

        // Masked RPCA still finds the constant within a bounded error.
        let err = mean_rel_error(&advisor, &cloud);
        assert!(
            err < 0.10,
            "rate {rate}: constant relative error {err} out of bounds"
        );

        // The FNF tree built from the recovered constant spans all VMs.
        let tree = fnf_tree(0, &advisor.constant().unwrap().weights(BETA_PROBE_BYTES));
        assert!(tree.is_spanning(), "rate {rate}: FNF tree not spanning");

        // Truthful health accounting.
        let h = advisor.health(3600.0).unwrap();
        assert_eq!(h.model_age, 3600.0);
        assert!(h.attempts > 0);
        if rate == 0.0 {
            assert_eq!(h.probe_success_rate, 1.0, "clean campaign misreported");
            assert_eq!(h.masked_fraction, 0.0);
            assert_eq!(h.retries + h.timeouts + h.losses, 0);
        } else {
            assert!(
                h.probe_success_rate < 1.0,
                "rate {rate}: faults missing from success rate"
            );
            assert!(
                h.timeouts + h.losses > 0,
                "rate {rate}: failure counters empty"
            );
            assert!(
                h.masked_fraction < 0.5,
                "rate {rate}: masked fraction {} implausible",
                h.masked_fraction
            );
        }

        // Maintenance still works on the faulty-path model: an observation
        // matching the expectation keeps the model, a wild one does not.
        let expected = advisor.expected_transfer(0, 1, BETA_PROBE_BYTES).unwrap();
        assert_eq!(
            advisor.check_link(0, 1, expected, expected * 1.05),
            MaintenanceDecision::Keep
        );
        assert_eq!(
            advisor.check_link(0, 1, expected, expected * 10.0),
            MaintenanceDecision::Recalibrate
        );
    }
}

/// Correlated rack blackouts — every link touching the dark rack fails
/// at once for a whole snapshot — and the masked RPCA still recovers the
/// constant within the same bound as the uncorrelated sweep, while the
/// health report stays truthful about what was imputed.
#[test]
fn rack_blackout_campaign_recovers_constant_with_truthful_health() {
    let n = 12;
    let cloud = SyntheticCloud::new(CloudConfig::ec2_like(n, 31));
    // Window = snapshot interval: each snapshot rolls its own blackout,
    // at most one rack dark at a time (the builder's concurrency cap).
    let plan = FaultPlan::rack_blackouts(11, cloud.placement(0), 0.35, 1800.0);
    let faulty = FaultyCloud::new(cloud.clone(), plan);
    let mut advisor = Advisor::new(AdvisorConfig {
        impute: ImputePolicy::ModelPrediction,
        ..AdvisorConfig::default()
    });
    advisor.calibrate_par(&faulty, 0.0).unwrap();

    let err = mean_rel_error(&advisor, &cloud);
    assert!(
        err <= 0.10,
        "rack blackouts: constant relative error {err} out of bounds"
    );
    let tree = fnf_tree(0, &advisor.constant().unwrap().weights(BETA_PROBE_BYTES));
    assert!(tree.is_spanning());

    // Truthful accounting: the blacked-out snapshots must show up as
    // masked cells and lost probes, and a clean campaign's numbers must
    // not be claimed.
    let h = advisor.health(0.0).unwrap();
    assert!(
        h.masked_fraction > 0.0,
        "rack blackouts fired but nothing was reported masked"
    );
    assert!(h.masked_fraction < 0.5);
    assert!(h.losses > 0, "blackout probes must be counted as losses");
    assert!(h.probe_success_rate < 1.0);
    assert!(!h.degraded, "a converged solve must not be called degraded");
}

/// Satellite of the blackout path: a starved solver under
/// `AcceptNearTolerance`, `ModelPrediction` imputation and a masked
/// fraction beyond 10% still yields a usable, honestly-flagged model.
#[test]
fn starved_solver_with_model_imputation_survives_heavy_masking() {
    let n = 12;
    let cloud = SyntheticCloud::new(CloudConfig::ec2_like(n, 31));
    // One blackout roll per snapshot window: with this topology's few
    // racks a single dark rack masks most of a snapshot's links, so even
    // a moderate per-window probability pushes the campaign-wide masked
    // fraction far past 10%.
    let plan = FaultPlan::rack_blackouts(13, cloud.placement(0), 0.35, 1800.0);
    let faulty = FaultyCloud::new(cloud.clone(), plan);
    let mut advisor = Advisor::new(AdvisorConfig {
        impute: ImputePolicy::ModelPrediction,
        degraded: DegradedPolicy::AcceptNearTolerance(0.05),
        ..AdvisorConfig::default()
    });
    advisor.config_mut().rpca.max_iters = 40;
    advisor.calibrate_par(&faulty, 0.0).unwrap();

    let h = advisor.health(0.0).unwrap();
    assert!(
        h.masked_fraction > 0.10,
        "fixture must mask more than 10% of cells, got {}",
        h.masked_fraction
    );
    assert!(
        h.degraded,
        "the starved solver's partial acceptance must be reported"
    );
    let err = mean_rel_error(&advisor, &cloud);
    assert!(
        err < 0.30,
        "heavily-masked degraded constant error {err} out of bounds"
    );
    let tree = fnf_tree(0, &advisor.constant().unwrap().weights(BETA_PROBE_BYTES));
    assert!(tree.is_spanning());
}

fn attempt_totals(run: &FaultyTpRun) -> (u64, u64) {
    let log = run.aggregate_log();
    (log.attempts, log.successes)
}

/// The adaptive retry planner's claim: at the same fault rate it spends
/// no more probe attempts than the fixed policy while matching or beating
/// its success rate — the budget moves attempts from links with a clean
/// history (cold, 2 max) to links with a failure history (hot, 4 max).
#[test]
fn adaptive_retry_spends_fewer_attempts_at_equal_or_better_success_rate() {
    let n = 12;
    let cloud = SyntheticCloud::new(CloudConfig::small_test(n, 21));
    let plan = FaultPlan {
        flaky_links: vec![FlakyLink {
            i: 0,
            j: 1,
            loss_prob: 0.9,
        }],
        ..FaultPlan::uniform(7, 0.02)
    };
    let faulty = FaultyCloud::new(cloud, plan);
    let steps = 6;

    let fixed = Calibrator::new().calibrate_tp_faulty_par(
        &faulty,
        0.0,
        1800.0,
        steps,
        &RetryPolicy::default(),
        ImputePolicy::LastGood,
    );
    let adaptive = Calibrator::new().calibrate_tp_faulty_adaptive(
        &faulty,
        0.0,
        1800.0,
        steps,
        &AdaptiveRetryPolicy::default(),
        ImputePolicy::LastGood,
    );

    let (fixed_attempts, fixed_successes) = attempt_totals(&fixed);
    let (adaptive_attempts, adaptive_successes) = attempt_totals(&adaptive);
    assert!(
        adaptive_attempts <= fixed_attempts,
        "adaptive spent {adaptive_attempts} attempts, fixed {fixed_attempts}"
    );
    let fixed_rate = fixed_successes as f64 / fixed_attempts as f64;
    let adaptive_rate = adaptive_successes as f64 / adaptive_attempts as f64;
    assert!(
        adaptive_rate >= fixed_rate,
        "adaptive success rate {adaptive_rate} below fixed {fixed_rate}"
    );
}

#[test]
fn starved_solver_is_rescued_by_accept_near_tolerance() {
    let n = 12;
    let cloud = SyntheticCloud::new(CloudConfig::ec2_like(n, 31));
    let faulty = FaultyCloud::new(cloud.clone(), FaultPlan::uniform(905, 0.05));

    // Strict policy with a starved iteration budget: NoConvergence.
    let mut strict = faulty_advisor(RetryPolicy::default());
    strict.config_mut().rpca.max_iters = 40;
    assert!(
        strict.calibrate_par(&faulty, 0.0).is_err(),
        "budget chosen for this fixture must actually starve the solver"
    );

    // Same budget under AcceptNearTolerance: the partial decomposition is
    // consumed, the model is flagged degraded, and it is still usable.
    let mut lenient = faulty_advisor(RetryPolicy::default());
    lenient.config_mut().rpca.max_iters = 40;
    lenient.config_mut().degraded = DegradedPolicy::AcceptNearTolerance(0.05);
    lenient.calibrate_par(&faulty, 0.0).unwrap();
    let h = lenient.health(0.0).unwrap();
    assert!(h.degraded, "partial acceptance must be reported");
    let err = mean_rel_error(&lenient, &cloud);
    assert!(
        err < 0.30,
        "degraded constant relative error {err} out of bounds"
    );
    let tree = fnf_tree(0, &lenient.constant().unwrap().weights(BETA_PROBE_BYTES));
    assert!(tree.is_spanning());
}
