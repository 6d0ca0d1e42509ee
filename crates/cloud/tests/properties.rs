//! Property-based tests of the synthetic cloud's guarantees.

use cloudconst_cloud::{CloudConfig, FaultPlan, FaultyCloud, FlakyLink, SyntheticCloud};
use cloudconst_netmodel::{FallibleNetworkProbe, NetworkProbe, ProbeAttempt};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn probing_is_a_pure_function_of_time(n in 4usize..16, seed in 0u64..1000, t in 0.0f64..1e6) {
        let mut c1 = SyntheticCloud::new(CloudConfig::small_test(n, seed));
        let mut c2 = SyntheticCloud::new(CloudConfig::small_test(n, seed));
        // Probe in different orders — results must be identical.
        let mut fwd = Vec::new();
        for i in 0..n {
            for j in 0..n {
                fwd.push(c1.probe(i, j, 1 << 20, t));
            }
        }
        let mut rev = vec![0.0; n * n];
        for i in (0..n).rev() {
            for j in (0..n).rev() {
                rev[i * n + j] = c2.probe(i, j, 1 << 20, t);
            }
        }
        prop_assert_eq!(fwd, rev);
    }

    #[test]
    fn different_seeds_give_different_clouds(n in 6usize..12, seed in 0u64..1000) {
        let mut a = SyntheticCloud::new(CloudConfig::small_test(n, seed));
        let mut b = SyntheticCloud::new(CloudConfig::small_test(n, seed.wrapping_add(1)));
        let ta: Vec<f64> = (0..n).map(|j| a.probe(0, (j + 1) % n, 1 << 20, 0.0)).collect();
        let tb: Vec<f64> = (0..n).map(|j| b.probe(0, (j + 1) % n, 1 << 20, 0.0)).collect();
        prop_assert_ne!(ta, tb);
    }

    #[test]
    fn probe_times_physically_sane(n in 4usize..12, seed in 0u64..500, t in 0.0f64..1e6) {
        let mut cloud = SyntheticCloud::new(CloudConfig::small_test(n, seed));
        for i in 0..n {
            for j in 0..n {
                let small = cloud.probe(i, j, 1, t);
                let large = cloud.probe(i, j, 8 << 20, t);
                if i == j {
                    prop_assert_eq!(small, 0.0);
                    prop_assert_eq!(large, 0.0);
                } else {
                    prop_assert!(small > 0.0 && small.is_finite());
                    prop_assert!(large > small, "({i},{j}): more bytes not slower");
                    // 8 MB cannot move faster than ~4 GB/s here.
                    prop_assert!(large >= (8 << 20) as f64 / 4e9);
                }
            }
        }
    }

    #[test]
    fn ground_truth_is_within_band_of_calm_probes(n in 4usize..10, seed in 0u64..200) {
        let mut cloud = SyntheticCloud::new(CloudConfig::calm(n, seed));
        let gt = cloud.ground_truth(0).clone();
        for i in 0..n {
            for j in 0..n {
                if i == j { continue; }
                let probe = cloud.probe(i, j, 8 << 20, 42.0);
                let expect = gt.transfer_time(i, j, 8 << 20);
                prop_assert!((probe - expect).abs() <= 1e-12 * (1.0 + expect));
            }
        }
    }

    #[test]
    fn epochs_partition_time(seed in 0u64..200, shifts in proptest::collection::vec(1.0f64..1e6, 0..4)) {
        let mut sorted = shifts.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut cfg = CloudConfig::calm(4, seed);
        cfg.shift_times = sorted.clone();
        let cloud = SyntheticCloud::new(cfg);
        prop_assert_eq!(cloud.epoch_of(0.0), 0);
        for (k, &s) in sorted.iter().enumerate() {
            prop_assert!(cloud.epoch_of(s - 1e-9) <= k);
            prop_assert!(cloud.epoch_of(s) > k);
        }
        prop_assert_eq!(cloud.epoch_of(f64::MAX), sorted.len());
    }

    #[test]
    fn fault_plan_replay_is_deterministic(
        n in 4usize..12,
        seed in 0u64..500,
        fault_seed in 0u64..500,
        rate in 0.0f64..0.5,
        t0 in 0.0f64..1e5,
    ) {
        // Two independently-built FaultyClouds under the same plan must
        // produce the same attempt outcome for every (link, time, size),
        // regardless of probe order — faults are data, not RNG state.
        let mut plan = FaultPlan::uniform(fault_seed, rate);
        plan.flaky_links.push(FlakyLink { i: 1, j: 2, loss_prob: 0.5 });
        let a = FaultyCloud::new(SyntheticCloud::new(CloudConfig::small_test(n, seed)), plan.clone());
        let b = FaultyCloud::new(SyntheticCloud::new(CloudConfig::small_test(n, seed)), plan);

        let mut fwd = Vec::new();
        for k in 0..64usize {
            let (i, j) = (k % n, (k * 3 + 1) % n);
            let t = t0 + k as f64 * 0.25;
            fwd.push(a.try_probe(i, j, 1 << 20, t, 2.0));
        }
        let mut rev = vec![ProbeAttempt::Lost; 64];
        for k in (0..64usize).rev() {
            let (i, j) = (k % n, (k * 3 + 1) % n);
            let t = t0 + k as f64 * 0.25;
            rev[k] = b.try_probe(i, j, 1 << 20, t, 2.0);
        }
        prop_assert_eq!(fwd, rev);
    }

    #[test]
    fn fault_free_plan_never_fails_probes(n in 4usize..10, seed in 0u64..200, t in 0.0f64..1e6) {
        let cloud = SyntheticCloud::new(CloudConfig::small_test(n, seed));
        let faulty = FaultyCloud::new(cloud.clone(), FaultPlan::none(seed ^ 0xF));
        for i in 0..n {
            for j in 0..n {
                match faulty.try_probe(i, j, 1 << 20, t, 1e9) {
                    ProbeAttempt::Ok(s) => {
                        let truth = cloudconst_netmodel::PureNetworkProbe::probe_pure(
                            &cloud, i, j, 1 << 20, t,
                        );
                        prop_assert_eq!(s.to_bits(), truth.to_bits());
                    }
                    other => prop_assert!(false, "({i},{j}): {other:?}"),
                }
            }
        }
    }
}
