//! Integration: the advisor pipeline running end-to-end on the
//! flow-level simulator instead of the synthetic cloud — calibration
//! probes really contend with background traffic, collectives run as
//! flows.

use cloudconst::collectives::{binomial_tree, fnf_tree, schedule, Collective};
use cloudconst::core::{estimate, EstimatorKind};
use cloudconst::netmodel::{Calibrator, NetworkProbe, MB};
use cloudconst::simnet::{run_dag, BackgroundSpec, ClusterView, LinkSpec, Simulator, Topology};

fn topo() -> Topology {
    Topology::tree(
        8,
        8,
        LinkSpec {
            capacity: 1e9 / 8.0,
            latency: 20e-6,
        },
        LinkSpec {
            capacity: 10e9 / 8.0,
            latency: 30e-6,
        },
    )
}

#[test]
fn advisor_estimates_from_simulator_probes() {
    let mut sim = Simulator::new(topo(), 4);
    BackgroundSpec {
        pairs: 16,
        message_bytes: 20 * MB,
        lambda: 4.0,
        churn: 0.2,
        seed: 8,
    }
    .install(&mut sim, 0.0);
    sim.run_until(10.0);
    let mut view = ClusterView::new(&mut sim, (0..16).map(|k| k * 4).collect());
    let now = view.simulator().time();
    let (tp, _) = Calibrator::new().calibrate_tp(&mut view, now, 20.0, 5);
    let est = estimate(&tp, EstimatorKind::Rpca).expect("estimate");
    assert_eq!(est.perf.n(), 16);
    assert!(est.norm_ne.is_finite());
    // Measured bandwidths must be physically plausible: below host link
    // capacity, above a pathological floor.
    for i in 0..16 {
        for j in 0..16 {
            if i == j {
                continue;
            }
            let beta = est.perf.link(i, j).beta;
            assert!(beta <= 1.26e8, "({i},{j}): beta {beta} above capacity");
            assert!(beta > 1e5, "({i},{j}): beta {beta} implausibly low");
        }
    }
}

#[test]
fn fnf_tree_from_simulator_calibration_runs_as_flows() {
    let mut sim = Simulator::new(topo(), 6);
    BackgroundSpec {
        pairs: 10,
        message_bytes: 10 * MB,
        lambda: 5.0,
        churn: 0.2,
        seed: 2,
    }
    .install(&mut sim, 0.0);
    let mut view = ClusterView::new(&mut sim, vec![0, 3, 9, 17, 25, 33, 41, 55]);
    let now = view.simulator().time();
    let (tp, _) = Calibrator::new().calibrate_tp(&mut view, now, 15.0, 4);
    let guide = estimate(&tp, EstimatorKind::Rpca).expect("estimate").perf;

    let n = NetworkProbe::n(&view);
    let fnf = fnf_tree(0, &guide.weights(4 * MB));
    let bin = binomial_tree(0, n);
    let start = view.simulator().time() + 1.0;
    let t_fnf = run_dag(
        &mut view,
        &schedule(&fnf, Collective::Broadcast, 4 * MB),
        start,
    );
    let start = view.simulator().time() + 1.0;
    let t_bin = run_dag(
        &mut view,
        &schedule(&bin, Collective::Broadcast, 4 * MB),
        start,
    );
    assert!(t_fnf > 0.0 && t_bin > 0.0);
    // Not a strict inequality under a single noisy run, but both must be
    // in a sane band: broadcast of 4MB over >=1MB/s effective links.
    for t in [t_fnf, t_bin] {
        assert!(t < 60.0, "broadcast took {t}s — simulator misbehaving");
    }
}

#[test]
fn scatter_and_gather_complete_under_background() {
    let mut sim = Simulator::new(topo(), 11);
    BackgroundSpec {
        pairs: 8,
        message_bytes: 5 * MB,
        lambda: 3.0,
        churn: 0.2,
        seed: 4,
    }
    .install(&mut sim, 0.0);
    let mut view = ClusterView::new(&mut sim, (0..12).map(|k| k * 5).collect());
    let tree = binomial_tree(2, 12);
    for op in [Collective::Scatter, Collective::Gather] {
        let start = view.simulator().time() + 0.5;
        let t = run_dag(&mut view, &schedule(&tree, op, MB), start);
        assert!(t > 0.0 && t.is_finite(), "{op:?} returned {t}");
    }
}
