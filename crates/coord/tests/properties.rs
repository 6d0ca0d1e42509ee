//! Property tests of the sharded-calibration determinism contract: for
//! random cluster sizes, shard counts, delivery orders (via random wire
//! seeds) and fault rates, the merged sharded result `to_bits`-equals the
//! unsharded fault-aware calibrator.

use cloudconst_cloud::{CloudConfig, FaultPlan, FaultyCloud, SyntheticCloud};
use cloudconst_coord::{
    AuthKey, Body, CellResult, CoordError, Coordinator, CoordinatorConfig, Message,
    PartialTpMatrix, Phase, ShardTask, SimConfig, SimTransport,
};
use cloudconst_netmodel::{
    Calibrator, FaultyTpRun, ImputePolicy, ProbeOutcome, RetryPolicy, TpMatrix,
};
use proptest::prelude::*;

fn assert_tp_bits_equal(a: &TpMatrix, b: &TpMatrix) {
    assert_eq!(a.n(), b.n());
    assert_eq!(a.steps(), b.steps());
    for (x, y) in a.times().iter().zip(b.times()) {
        assert_eq!(x.to_bits(), y.to_bits(), "times differ");
    }
    for (ma, mb, what) in [
        (a.alpha_matrix(), b.alpha_matrix(), "alpha"),
        (a.inv_beta_matrix(), b.inv_beta_matrix(), "inv_beta"),
        (a.mask_matrix(), b.mask_matrix(), "mask"),
    ] {
        for (k, (x, y)) in ma.as_slice().iter().zip(mb.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} cell {k} differs");
        }
    }
}

fn assert_runs_bit_identical(sharded: &FaultyTpRun, unsharded: &FaultyTpRun) {
    assert_tp_bits_equal(&sharded.tp, &unsharded.tp);
    assert_eq!(
        sharded.overhead.to_bits(),
        unsharded.overhead.to_bits(),
        "overhead differs"
    );
    assert_eq!(sharded.logs, unsharded.logs, "probe logs differ");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn sharded_matches_unsharded_bit_for_bit(
        n in 8usize..=64,
        k in 1usize..=8,
        wire_seed in 0u64..1_000_000,
        fault_sel in 0u8..2,
    ) {
        // Fault rate ∈ {0, 5%}, sampled per case.
        let rate = if fault_sel == 1 { 0.05 } else { 0.0 };
        let cloud = FaultyCloud::new(
            SyntheticCloud::new(CloudConfig::small_test(n, 11)),
            FaultPlan::uniform(23, rate),
        );
        let retry = RetryPolicy::default();
        let steps = 2;

        let unsharded = Calibrator::new().calibrate_tp_faulty_par(
            &cloud, 0.0, 60.0, steps, &retry, ImputePolicy::LastGood,
        );

        // A fresh wire seed per case scrambles response delivery order;
        // loss stays off here so the run is re-dispatch-free (re-dispatch
        // determinism has its own test).
        let mut transport = SimTransport::new(
            cloud.clone(),
            k,
            SimConfig { seed: wire_seed, loss_prob: 0.0, latency: (0.001, 0.050) },
        );
        let sharded = Coordinator::new(CoordinatorConfig::new(k))
            .calibrate_tp(&mut transport, 0.0, 60.0, steps)
            .expect("loss-free campaign cannot abort");

        assert_runs_bit_identical(&sharded.run, &unsharded);
        prop_assert_eq!(sharded.report.redispatches, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn lossy_wire_still_merges_bit_identically(
        n in 8usize..=32,
        k in 2usize..=8,
        wire_seed in 0u64..1_000_000,
    ) {
        // 10% frame loss per direction: re-dispatch engages constantly,
        // and the merged result still cannot differ from unsharded.
        let cloud = FaultyCloud::new(
            SyntheticCloud::new(CloudConfig::small_test(n, 5)),
            FaultPlan::uniform(31, 0.05),
        );
        let unsharded = Calibrator::new().calibrate_tp_faulty_par(
            &cloud, 0.0, 60.0, 2, &RetryPolicy::default(), ImputePolicy::LastGood,
        );
        let mut transport = SimTransport::new(
            cloud.clone(),
            k,
            SimConfig { seed: wire_seed, loss_prob: 0.10, latency: (0.001, 0.050) },
        );
        let mut config = CoordinatorConfig::new(k);
        config.dispatch_attempts = 25;
        let sharded = Coordinator::new(config)
            .calibrate_tp(&mut transport, 0.0, 60.0, 2)
            .expect("dispatch budget is ample for 10% loss");

        assert_runs_bit_identical(&sharded.run, &unsharded);
        prop_assert!(transport_lost_frames_reflected(&sharded.report.wire.frames_lost,
                                                     sharded.report.redispatches));
    }
}

/// Re-dispatches only happen in response to losses: a lossless run has
/// zero of both, and any re-dispatch implies at least one lost frame.
fn transport_lost_frames_reflected(frames_lost: &u64, redispatches: u64) -> bool {
    (redispatches == 0) || (*frames_lost > 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn shard_death_failover_stays_bit_identical(
        n in 8usize..=32,
        k in 2usize..=6,
        victim_sel in 0usize..6,
        kill_frame in 0u64..2,
        wire_seed in 0u64..1_000_000,
    ) {
        // Kill one shard after it has answered at most one frame: every
        // shard sees at least two frames (one flush per snapshot), so the
        // death always fires, at a schedule position that varies with
        // (n, k, victim). The survivors must still merge a run that is
        // bit-identical to the unsharded calibrator.
        let victim = victim_sel % k;
        let cloud = FaultyCloud::new(
            SyntheticCloud::new(CloudConfig::small_test(n, 11)),
            FaultPlan::uniform(23, 0.02),
        );
        let unsharded = Calibrator::new().calibrate_tp_faulty_par(
            &cloud, 0.0, 60.0, 2, &RetryPolicy::default(), ImputePolicy::LastGood,
        );
        let mut transport = SimTransport::new(
            cloud.clone(),
            k,
            SimConfig { seed: wire_seed, loss_prob: 0.0, latency: (0.001, 0.050) },
        );
        transport.kill_after(victim, kill_frame);
        let mut config = CoordinatorConfig::new(k);
        config.dispatch_attempts = 3;
        config.failover_attempts = 2;
        let sharded = Coordinator::new(config)
            .calibrate_tp(&mut transport, 0.0, 60.0, 2)
            .expect("the survivors can always finish the campaign");

        assert_runs_bit_identical(&sharded.run, &unsharded);
        prop_assert!(sharded.report.failovers >= 1, "the kill must have fired");
        prop_assert_eq!(sharded.report.shards_alive as usize, k - 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn any_single_byte_flip_is_a_typed_codec_error(
        seq in 1u64..1_000_000,
        shard in 0u32..64,
        round in 0u32..100,
        snapshot in 0u32..50,
        bytes in 1u64..1_000_000,
        cells in 1usize..6,
        flip_sel in 1u32..256,
    ) {
        // One frame of every wire kind, fields drawn per case. A flipped
        // byte anywhere in any of them must decode to a typed codec error —
        // never a panic, a hang, or a silently accepted frame. (FNV-1a's
        // multiply is odd and therefore invertible, so a single-byte change
        // always lands in a different checksum.)
        let flip = flip_sel as u8;
        let frames: Vec<Vec<u8>> = [
            Body::Task(ShardTask {
                snapshot, round,
                phase: if seq % 2 == 0 { Phase::Small } else { Phase::Large },
                bytes,
                at: round as f64 * 0.5,
                retry: RetryPolicy::default(),
                pairs: (0..cells as u32).map(|c| (c, c + 1)).collect(),
            }),
            Body::Ack { max_consumed: bytes as f64 * 1e-6 },
            Body::Flush { snapshot },
            Body::Reset { snapshot },
            Body::Partial(PartialTpMatrix {
                snapshot,
                n: 8,
                attempts: bytes,
                successes: seq,
                retries: 1,
                timeouts: 2,
                losses: 3,
                cells: (0..cells as u32).map(|c| CellResult {
                    i: c,
                    j: c + 1,
                    outcome: if c % 2 == 0 { ProbeOutcome::Ok(1) } else { ProbeOutcome::Failed(2) },
                    alpha: 1e-4,
                    beta: 1e-9,
                }).collect(),
            }),
            Body::Hello,
            Body::HelloAck { n: 8 },
            Body::AuthReject,
        ]
        .into_iter()
        .map(|body| Message { seq, shard, body }.encode())
        .collect();
        for frame in &frames {
            prop_assert!(Message::decode(frame).is_ok(), "pristine frame must decode");
            for k in 0..frame.len() {
                let mut bad = frame.clone();
                bad[k] ^= flip;
                // The Err type IS CodecError — the compiler enforces the
                // "typed error" half; a flip must never decode Ok.
                prop_assert!(
                    Message::decode(&bad).is_err(),
                    "flip {flip:#04x} at byte {k} silently accepted"
                );
            }
            // The sealed (socket) form: any flip — tag or body — must be
            // the typed auth failure, since the tag binds the whole frame.
            let key = AuthKey::from_seed(seq);
            let sealed = key.seal(frame);
            for k in 0..sealed.len() {
                let mut bad = sealed.clone();
                bad[k] ^= flip;
                prop_assert!(
                    matches!(key.open(&bad), Err(CoordError::AuthFailure(_))),
                    "sealed flip at byte {k} went undetected"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn rack_blackout_replay_is_deterministic_across_shardings(
        n in 8usize..=24,
        fault_seed in 0u64..1_000_000,
        wire_seed in 0u64..1_000_000,
    ) {
        // Correlated rack-blackout campaigns replay bit-for-bit: the same
        // fault seed yields the identical FaultyTpRun on a re-run and
        // under any shard count, because every domain event is a pure
        // hash of (seed, stream, domain, window).
        let base = SyntheticCloud::new(CloudConfig::small_test(n, 7));
        let plan = FaultPlan::rack_blackouts(fault_seed, base.placement(0), 0.2, 60.0);
        let cloud = FaultyCloud::new(base, plan);
        let retry = RetryPolicy::default();

        let reference = Calibrator::new().calibrate_tp_faulty_par(
            &cloud, 0.0, 60.0, 2, &retry, ImputePolicy::LastGood,
        );
        let replay = Calibrator::new().calibrate_tp_faulty_par(
            &cloud, 0.0, 60.0, 2, &retry, ImputePolicy::LastGood,
        );
        assert_runs_bit_identical(&replay, &reference);

        for k in [1usize, 2, 4] {
            let mut transport = SimTransport::new(
                cloud.clone(),
                k,
                SimConfig { seed: wire_seed, loss_prob: 0.0, latency: (0.001, 0.050) },
            );
            let sharded = Coordinator::new(CoordinatorConfig::new(k))
                .calibrate_tp(&mut transport, 0.0, 60.0, 2)
                .expect("loss-free campaign cannot abort");
            assert_runs_bit_identical(&sharded.run, &reference);
        }
    }
}
