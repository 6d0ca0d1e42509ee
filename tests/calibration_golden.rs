//! Golden bit-identity digests for every calibration entry point.
//!
//! Each case pins FNV-1a digests of the `to_bits` of the TP-matrix's α and
//! 1/β planes, its observation mask and snapshot times, the calibration
//! overhead, and the probe logs (cell outcomes plus the five attempt
//! counters). The digests were recorded from the calibrator that wrote
//! the round loop once per entry point; any rewrite of the round kernel
//! must reproduce them exactly:
//!
//! ```sh
//! cargo test --release --test calibration_golden
//! ```
//!
//! The serial-versus-shared-reference `to_bits` tests elsewhere compare
//! entry points with each other; these digests compare them with history.

use cloudconst::cloud::{CloudConfig, FaultPlan, FaultyCloud, SyntheticCloud};
use cloudconst::coord::{Coordinator, CoordinatorConfig, LoopbackTransport};
use cloudconst::netmodel::{
    AdaptiveRetryPolicy, CalibrationConfig, CalibrationRun, Calibrator, FaultyTpRun, ImputePolicy,
    PerfMatrix, ProbeLog, ProbeOutcome, RetryPolicy, TpMatrix, MB,
};
use cloudconst::simnet::{BackgroundSpec, ClusterView, LinkSpec, Simulator, Topology};

/// `(tp or perf digest, overhead bits, log digest)`.
type Golden = (u64, u64, u64);

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        for &x in xs {
            self.u64(x.to_bits());
        }
    }
}

fn tp_digest(tp: &TpMatrix) -> u64 {
    let mut h = Fnv::new();
    h.u64(tp.n() as u64);
    h.f64s(tp.times());
    h.f64s(tp.alpha_matrix().as_slice());
    h.f64s(tp.inv_beta_matrix().as_slice());
    h.f64s(tp.mask_matrix().as_slice());
    h.0
}

fn perf_digest(perf: &PerfMatrix, rounds: usize) -> u64 {
    let mut h = Fnv::new();
    h.u64(rounds as u64);
    for i in 0..perf.n() {
        for j in 0..perf.n() {
            let l = perf.link(i, j);
            h.u64(l.alpha.to_bits());
            h.u64((1.0 / l.beta).to_bits());
        }
    }
    h.0
}

fn log_digest<'a>(logs: impl IntoIterator<Item = &'a ProbeLog>) -> u64 {
    let mut h = Fnv::new();
    for log in logs {
        h.u64(log.n() as u64);
        for i in 0..log.n() {
            for j in 0..log.n() {
                let (tag, attempts) = match log.outcome(i, j) {
                    ProbeOutcome::Unprobed => (0, 0),
                    ProbeOutcome::Ok(a) => (1, a),
                    ProbeOutcome::Failed(a) => (2, a),
                };
                h.u64(tag);
                h.u64(u64::from(attempts));
            }
        }
        for c in [
            log.attempts,
            log.successes,
            log.retries,
            log.timeouts,
            log.losses,
        ] {
            h.u64(c);
        }
    }
    h.0
}

fn faulty_digest(run: &FaultyTpRun) -> Golden {
    (
        tp_digest(&run.tp),
        run.overhead.to_bits(),
        log_digest(&run.logs),
    )
}

fn snapshot_digest(run: &CalibrationRun) -> Golden {
    (
        perf_digest(&run.perf, run.rounds),
        run.overhead.to_bits(),
        log_digest([&run.outcomes]),
    )
}

/// The infallible TP paths return no logs; their log digest is of none.
fn tp_pair_digest((tp, overhead): (TpMatrix, f64)) -> Golden {
    (tp_digest(&tp), overhead.to_bits(), log_digest([]))
}

/// Log digest of an empty log list (the infallible TP paths keep none).
const NO_LOGS: u64 = 0xcbf2_9ce4_8422_2325;

fn check(name: &str, got: Golden, want: Golden) {
    let (tp, overhead, log) = got;
    assert_eq!(
        got, want,
        "{name}: calibration output drifted from the golden digest \
         (got ({tp:#018x}, {overhead:#018x}, {log:#018x}))"
    );
}

fn one_pair_per_round() -> Calibrator {
    Calibrator {
        config: CalibrationConfig { concurrent: false },
    }
}

fn faulty_cloud(n: usize, seed: u64) -> FaultyCloud {
    FaultyCloud::new(
        SyntheticCloud::new(CloudConfig::ec2_like(n, seed)),
        FaultPlan::uniform(seed ^ 0xF1EE7, 0.05),
    )
}

const EC2_64: Golden = (0x39b7_0e17_03ea_ec52, 0x407f_55d5_4033_a45a, NO_LOGS);

#[test]
fn ec2_like_64_shared_reference() {
    let cloud = SyntheticCloud::new(CloudConfig::ec2_like(64, 11));
    let got = Calibrator::new().calibrate_tp_par(&cloud, 300.0, 60.0, 4);
    check("ec2_like(64) calibrate_tp_par", tp_pair_digest(got), EC2_64);
}

#[test]
fn ec2_like_64_mutable_reference() {
    let mut cloud = SyntheticCloud::new(CloudConfig::ec2_like(64, 11));
    let got = Calibrator::new().calibrate_tp(&mut cloud, 300.0, 60.0, 4);
    check("ec2_like(64) calibrate_tp", tp_pair_digest(got), EC2_64);
}

/// The sharded campaign must equal the unsharded one, so both share a digest.
const FAULTY_32: Golden = (
    0xde8a_6f75_2d84_5452,
    0x4090_9301_5835_1918,
    0xf826_d76e_e1e4_21ec,
);

const ONE_PAIR_7: Golden = (0x225c_4175_b785_aafc, 0x402b_3628_35c3_937d, NO_LOGS);

#[test]
fn one_pair_per_round_shared_reference() {
    let cloud = SyntheticCloud::new(CloudConfig::ec2_like(7, 5));
    let got = one_pair_per_round().calibrate_tp_par(&cloud, 10.0, 30.0, 3);
    check(
        "7-VM one pair per round, _par",
        tp_pair_digest(got),
        ONE_PAIR_7,
    );
}

#[test]
fn one_pair_per_round_mutable_reference() {
    let mut cloud = SyntheticCloud::new(CloudConfig::ec2_like(7, 5));
    let got = one_pair_per_round().calibrate_tp(&mut cloud, 10.0, 30.0, 3);
    check("7-VM one pair per round", tp_pair_digest(got), ONE_PAIR_7);
}

#[test]
fn odd_cluster_snapshot() {
    let mut cloud = SyntheticCloud::new(CloudConfig::ec2_like(7, 5));
    let run = Calibrator::new().calibrate(&mut cloud, 42.0);
    check(
        "7-VM pairing-round snapshot",
        snapshot_digest(&run),
        (
            0xea60_6d1d_93bb_82bd,
            0x4000_abe7_0504_ab10,
            0x5e59_ea48_41ee_c962,
        ),
    );
}

#[test]
fn faulty_campaign_with_model_prediction() {
    let faulty = faulty_cloud(32, 21);
    let run = Calibrator::new().calibrate_tp_faulty_par(
        &faulty,
        0.0,
        60.0,
        5,
        &RetryPolicy::default(),
        ImputePolicy::ModelPrediction,
    );
    check(
        "5% faults, 32 VMs, ModelPrediction",
        faulty_digest(&run),
        FAULTY_32,
    );
}

#[test]
fn adaptive_campaign() {
    let faulty = faulty_cloud(24, 33);
    let run = Calibrator::new().calibrate_tp_faulty_adaptive(
        &faulty,
        100.0,
        60.0,
        4,
        &AdaptiveRetryPolicy::default(),
        ImputePolicy::LastGood,
    );
    check(
        "adaptive, 24 VMs",
        faulty_digest(&run),
        (
            0xe356_46ec_3956_210c,
            0x4081_2bcf_f10e_a854,
            0xa2ed_ed1a_f8b2_a60b,
        ),
    );
}

#[test]
fn cluster_view_on_loaded_simulator() {
    let link = |gbit: f64, latency: f64| LinkSpec {
        capacity: gbit * 1e9 / 8.0,
        latency,
    };
    let topo = Topology::tree(8, 8, link(1.0, 20e-6), link(10.0, 30e-6));
    let mut sim = Simulator::new(topo, 77);
    BackgroundSpec {
        pairs: 12,
        message_bytes: 10 * MB,
        lambda: 5.0,
        churn: 0.3,
        seed: 77 ^ 0xB6,
    }
    .install(&mut sim, 0.0);
    sim.run_until(15.0);
    let hosts: Vec<usize> = (0..16).map(|k| (k * 37 + 5) % 64).collect();
    let mut view = ClusterView::new(&mut sim, hosts);
    let start = view.simulator().time();
    let got = Calibrator::new().calibrate_tp(&mut view, start, 30.0, 2);
    check(
        "16-VM ClusterView",
        tp_pair_digest(got),
        (0x7e07_d1ec_4b21_4fe9, 0x4011_41e5_835c_a3d4, NO_LOGS),
    );
}

#[test]
fn loopback_two_shard_campaign() {
    let faulty = faulty_cloud(32, 21);
    let mut transport = LoopbackTransport::new(faulty, 2);
    let sharded = Coordinator::new(CoordinatorConfig {
        impute: ImputePolicy::ModelPrediction,
        ..CoordinatorConfig::new(2)
    })
    .calibrate_tp(&mut transport, 0.0, 60.0, 5)
    .expect("loopback campaign cannot abort");
    check("K=2 loopback", faulty_digest(&sharded.run), FAULTY_32);
}
