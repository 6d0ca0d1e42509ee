//! Golden bit-identity digests for the flow-level simulator.
//!
//! Each case pins FNV-1a digests of a `ClusterView` calibration's
//! TP-matrix bits, its overhead, the simulator's `flows_completed` and,
//! for the Fig. 13 datacenter, two runs of `sim_comparison`'s op series.
//! The digests were recorded from the progressive-filling solver that
//! rescanned every link per bottleneck; the indexed solver, and any later
//! rewrite of the max-min solve or the event loop, must reproduce them
//! exactly:
//!
//! ```sh
//! cargo test --release --test simnet_golden
//! ```
//!
//! Equal host-link capacities make many links tie for the smallest fair
//! share, so these digests pin the solver's tie-breaking too.

use cloudconst::collectives::{binomial_tree, schedule, Collective};
use cloudconst::netmodel::{Calibrator, TpMatrix, MB};
use cloudconst::simnet::{run_dag, BackgroundSpec, ClusterView, LinkSpec, Simulator, Topology};
use cloudconst_bench::sim_experiments::{sim_comparison, SimSetup};
use cloudconst_bench::{Approach, OpSeries};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// `(tp digest, overhead bits, flows completed, op-series digest)`.
type Golden = (u64, u64, u64, u64);

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
        self.u64(xs.len() as u64);
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

fn check(name: &str, got: Golden, want: Golden) {
    let (tp, overhead, flows, ops) = got;
    assert_eq!(
        got, want,
        "{name}: simulator output drifted from the golden digest \
         (got ({tp:#018x}, {overhead:#018x}, {flows}, {ops:#018x}))"
    );
}

fn gbit(g: f64, latency: f64) -> LinkSpec {
    LinkSpec {
        capacity: g * 1e9 / 8.0,
        latency,
    }
}

/// The `experiments fig13` quick setup: 8 racks × 32 hosts, a 48-VM
/// cluster, 120 background pairs of 100 MB, λ = 2 s, churn 0.15.
fn fig13_quick(seed: u64) -> SimSetup {
    SimSetup {
        racks: 8,
        hosts_per_rack: 32,
        cluster_size: 48,
        bg_pairs: 120,
        bg_bytes: 100 * MB,
        bg_lambda: 2.0,
        bg_churn: 0.15,
        ..SimSetup::quick(seed)
    }
}

/// `sim_calibrate`'s datacenter, warm-up and calibration, keeping the
/// TP-matrix and overhead it folds away.
fn calibrate_like_sim_calibrate(setup: &SimSetup) -> (u64, u64, u64) {
    let topo = Topology::tree(
        setup.racks,
        setup.hosts_per_rack,
        gbit(1.0, 20e-6),
        gbit(10.0, 30e-6),
    );
    let hosts_total = topo.hosts();
    let mut sim = Simulator::new(topo, setup.seed);
    BackgroundSpec {
        pairs: setup.bg_pairs,
        message_bytes: setup.bg_bytes,
        lambda: setup.bg_lambda,
        churn: setup.bg_churn,
        seed: setup.seed ^ 0xB6,
    }
    .install(&mut sim, 0.0);
    let mut all: Vec<usize> = (0..hosts_total).collect();
    all.shuffle(&mut StdRng::seed_from_u64(setup.seed ^ 0x5E1));
    sim.run_until(3.0 * setup.bg_lambda);
    let mut view = ClusterView::new(&mut sim, all[..setup.cluster_size].to_vec());
    let start = view.simulator().time();
    let (tp, overhead) =
        Calibrator::new().calibrate_tp(&mut view, start, setup.snapshot_interval, setup.time_step);
    (tp_digest(&tp), overhead.to_bits(), sim.flows_completed())
}

fn series_digest(h: &mut Fnv, s: &OpSeries) {
    for a in [
        Approach::Baseline,
        Approach::TopoAware,
        Approach::Heuristics,
        Approach::Rpca,
    ] {
        h.f64s(s.get(a));
    }
}

#[test]
fn fig13_quick_datacenter() {
    let setup = fig13_quick(59);
    let (tp, overhead, flows) = calibrate_like_sim_calibrate(&setup);
    let r = sim_comparison(&setup, 2, 8 * MB);
    let mut h = Fnv::new();
    series_digest(&mut h, &r.bcast);
    series_digest(&mut h, &r.scatter);
    series_digest(&mut h, &r.topomap);
    h.u64(r.calibration.norm_ne.to_bits());
    check(
        "fig13 quick datacenter, seed 59",
        (tp, overhead, flows, h.0),
        (
            0xd3da_c86e_43ef_b26a,
            0x4073_74cc_e043_eedc,
            41128,
            0x87f5_8d47_5f55_6215,
        ),
    );
}

/// A three-level tree: cross-pod flows climb six hops (host, rack and pod
/// links on both sides), and pod uplinks are a second contention point.
#[test]
fn three_level_cross_pod() {
    let topo = Topology::three_level(
        3,
        4,
        8,
        gbit(1.0, 20e-6),
        gbit(4.0, 30e-6),
        gbit(10.0, 40e-6),
    );
    let mut sim = Simulator::new(topo, 31);
    BackgroundSpec {
        pairs: 40,
        message_bytes: 20 * MB,
        lambda: 1.0,
        churn: 0.3,
        seed: 31 ^ 0xB6,
    }
    .install(&mut sim, 0.0);
    sim.run_until(5.0);
    // Four VMs per pod, spread over its racks.
    let hosts: Vec<usize> = (0..12).map(|k| (k * 8 + k % 5) % 96).collect();
    let n = hosts.len();
    let mut view = ClusterView::new(&mut sim, hosts);
    let start = view.simulator().time();
    let (tp, overhead) = Calibrator::new().calibrate_tp(&mut view, start, 20.0, 3);
    let mut h = Fnv::new();
    for root in [0, 5] {
        let dag = schedule(&binomial_tree(root, n), Collective::Broadcast, 4 * MB);
        let start = view.simulator().time() + 1.0;
        h.u64(run_dag(&mut view, &dag, start).to_bits());
    }
    let flows = view.simulator().flows_completed();
    check(
        "three-level 3x4x8, seed 31",
        (tp_digest(&tp), overhead.to_bits(), flows, h.0),
        (
            0xc456_0bcb_e73e_a90e,
            0x4021_4420_a099_1cb2,
            2807,
            0x4360_3b60_567b_d458,
        ),
    );
}
