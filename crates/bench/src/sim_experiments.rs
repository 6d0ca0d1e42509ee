//! Large-scale simulator experiments (paper §V-E, Figures 12–13).

use crate::campaign::OpSeries;
use crate::Approach;
use cloudconst_collectives::{
    binomial_tree, fnf_tree, schedule, topo_aware_tree, Collective, CommTree,
};
use cloudconst_core::{estimate, EstimatorKind};
use cloudconst_netmodel::{Calibrator, PerfMatrix, MB};
use cloudconst_simnet::{run_dag, BackgroundSpec, ClusterView, Simulator, Topology};
use cloudconst_topomap::{
    greedy_mapping, machine_graph_from_perf, random_task_graph, ring_mapping, Mapping, TaskGraph,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Configuration of a simulator experiment.
#[derive(Debug, Clone)]
pub struct SimSetup {
    /// Datacenter racks (paper: 32).
    pub racks: usize,
    /// Hosts per rack (paper: 32).
    pub hosts_per_rack: usize,
    /// Machines randomly selected for the virtual cluster.
    pub cluster_size: usize,
    /// Background traffic pairs.
    pub bg_pairs: usize,
    /// Background message size in bytes (Fig. 12(b): 10–500 MB).
    pub bg_bytes: u64,
    /// Background expected waiting time λ in seconds (Fig. 12(a): 1–30 s).
    pub bg_lambda: f64,
    /// Per-message probability that a background pair re-draws its
    /// endpoints (traffic churn).
    pub bg_churn: f64,
    /// TP-matrix snapshots for calibration.
    pub time_step: usize,
    /// Seconds between snapshots.
    pub snapshot_interval: f64,
    /// Master seed.
    pub seed: u64,
}

impl SimSetup {
    /// The paper's 1024-host topology with a moderate background.
    pub fn paper(seed: u64) -> Self {
        SimSetup {
            racks: 32,
            hosts_per_rack: 32,
            cluster_size: 196,
            bg_pairs: 200,
            bg_bytes: 100 * MB,
            bg_lambda: 5.0,
            bg_churn: 0.3,
            time_step: 10,
            snapshot_interval: 60.0,
            seed,
        }
    }

    /// Scaled-down settings for tests and quick mode.
    pub fn quick(seed: u64) -> Self {
        SimSetup {
            racks: 8,
            hosts_per_rack: 8,
            cluster_size: 16,
            bg_pairs: 12,
            bg_bytes: 10 * MB,
            bg_lambda: 5.0,
            bg_churn: 0.3,
            time_step: 5,
            snapshot_interval: 30.0,
            seed,
        }
    }

    fn build(&self) -> (Simulator, Vec<usize>) {
        let topo = Topology::tree(
            self.racks,
            self.hosts_per_rack,
            cloudconst_simnet::LinkSpec {
                capacity: 1e9 / 8.0,
                latency: 20e-6,
            },
            cloudconst_simnet::LinkSpec {
                capacity: 10e9 / 8.0,
                latency: 30e-6,
            },
        );
        let hosts_total = topo.hosts();
        assert!(self.cluster_size <= hosts_total);
        let mut sim = Simulator::new(topo, self.seed);
        BackgroundSpec {
            pairs: self.bg_pairs,
            message_bytes: self.bg_bytes,
            lambda: self.bg_lambda,
            churn: self.bg_churn,
            seed: self.seed ^ 0xB6,
        }
        .install(&mut sim, 0.0);
        // Random machine selection (paper §V-E).
        let mut all: Vec<usize> = (0..hosts_total).collect();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5E1);
        all.shuffle(&mut rng);
        let hosts = all[..self.cluster_size].to_vec();
        (sim, hosts)
    }
}

/// Outcome of a calibration on the simulator.
#[derive(Debug, Clone)]
pub struct SimCalibration {
    /// Thresholded-count `Norm(N_E)`.
    pub norm_ne: f64,
    /// ℓ₁ `Norm(N_E)`.
    pub norm_ne_l1: f64,
    /// The RPCA constant estimate.
    pub rpca_guide: PerfMatrix,
    /// The Heuristics (column-mean) estimate from the same measurements.
    pub heur_guide: PerfMatrix,
    /// Rack id per cluster machine (topology knowledge for TopoAware).
    pub racks: Vec<usize>,
}

/// Calibrate a TP-matrix on the simulator under background traffic and
/// measure `Norm(N_E)` — one data point of Fig. 12.
pub fn sim_calibrate(setup: &SimSetup) -> (Simulator, Vec<usize>, SimCalibration) {
    let (mut sim, hosts) = setup.build();
    // Let the background reach steady state before measuring.
    sim.run_until(3.0 * setup.bg_lambda);
    let cal = {
        let mut view = ClusterView::new(&mut sim, hosts.clone());
        let start = view.simulator().time();
        let (tp, _) = Calibrator::new().calibrate_tp(
            &mut view,
            start,
            setup.snapshot_interval,
            setup.time_step,
        );
        let racks = view.rack_ids();
        let rpca = estimate(&tp, EstimatorKind::Rpca).expect("rpca estimate");
        let heur = estimate(&tp, EstimatorKind::HeuristicMean).expect("heuristic estimate");
        SimCalibration {
            norm_ne: rpca.norm_ne,
            norm_ne_l1: rpca.norm_ne_l1,
            rpca_guide: rpca.perf,
            heur_guide: heur.perf,
            racks,
        }
    };
    (sim, hosts, cal)
}

/// Per-approach collective/mapping results on the simulator (Fig. 13).
#[derive(Debug, Clone)]
pub struct SimComparison {
    /// Broadcast elapsed times per approach.
    pub bcast: OpSeries,
    /// Scatter elapsed times per approach.
    pub scatter: OpSeries,
    /// Topology-mapping elapsed times per approach.
    pub topomap: OpSeries,
    /// The calibration that guided the approaches.
    pub calibration: SimCalibration,
}

fn tree_for(a: Approach, root: usize, n: usize, cal: &SimCalibration, msg_bytes: u64) -> CommTree {
    match a {
        Approach::Baseline => binomial_tree(root, n),
        Approach::Heuristics => fnf_tree(root, &cal.heur_guide.weights(msg_bytes)),
        Approach::Rpca => fnf_tree(root, &cal.rpca_guide.weights(msg_bytes)),
        Approach::TopoAware => topo_aware_tree(root, &cal.racks),
    }
}

/// Execute a topology mapping's traffic on the simulator: all task edges
/// fire at once and contend; elapsed is the last arrival.
fn run_mapping(
    view: &mut ClusterView<'_>,
    tasks: &TaskGraph,
    mapping: &Mapping,
    start: f64,
) -> f64 {
    let start = start.max(view.simulator().time());
    view.simulator_mut().run_until(start);
    let mut ids = Vec::new();
    for (u, v, bytes) in tasks.edges() {
        let src = view.host_of(mapping.machine_of(u));
        let dst = view.host_of(mapping.machine_of(v));
        if src != dst {
            let id = view
                .simulator_mut()
                .submit(src, dst, bytes.round() as u64, start);
            ids.push(id);
        }
    }
    if ids.is_empty() {
        return 0.0;
    }
    let finishes = view.simulator_mut().wait_for(&ids);
    finishes.into_iter().fold(start, f64::max) - start
}

/// Run the Fig. 13 comparison: Baseline, Topology-aware, Heuristics and
/// RPCA on the simulated cluster under background traffic.
pub fn sim_comparison(setup: &SimSetup, runs: usize, msg_bytes: u64) -> SimComparison {
    let (mut sim, hosts, cal) = sim_calibrate(setup);
    let n = hosts.len();
    let mut view = ClusterView::new(&mut sim, hosts);

    let mut out = SimComparison {
        bcast: OpSeries::default(),
        scatter: OpSeries::default(),
        topomap: OpSeries::default(),
        calibration: cal,
    };
    let approaches = [
        Approach::Baseline,
        Approach::TopoAware,
        Approach::Heuristics,
        Approach::Rpca,
    ];

    for k in 0..runs {
        let root = (setup.seed as usize + k) % n;
        for a in approaches {
            let tree = tree_for(a, root, n, &out.calibration, msg_bytes);
            let start = view.simulator().time() + 1.0;
            let tb = run_dag(
                &mut view,
                &schedule(&tree, Collective::Broadcast, msg_bytes),
                start,
            );
            out.bcast.push(a, tb);
            let start = view.simulator().time() + 1.0;
            let ts = run_dag(
                &mut view,
                &schedule(&tree, Collective::Scatter, msg_bytes),
                start,
            );
            out.scatter.push(a, ts);

            // Topology mapping comparison (TopoAware uses the greedy
            // mapping over true rack-distance bandwidth classes).
            let tasks = random_task_graph(
                n,
                2,
                5.0 * MB as f64,
                10.0 * MB as f64,
                setup.seed ^ (k as u64).wrapping_mul(0x77),
            );
            let mapping = match a {
                Approach::Baseline => ring_mapping(n),
                Approach::Heuristics => greedy_mapping(
                    &tasks,
                    &machine_graph_from_perf(&out.calibration.heur_guide),
                ),
                Approach::Rpca => greedy_mapping(
                    &tasks,
                    &machine_graph_from_perf(&out.calibration.rpca_guide),
                ),
                Approach::TopoAware => {
                    // Machine graph from static topology: intra-rack links
                    // are "fast", cross-rack "slow" — classic topology
                    // knowledge with no performance measurement.
                    let mut g = TaskGraph::empty(n);
                    for x in 0..n {
                        for y in 0..n {
                            if x != y {
                                let same = out.calibration.racks[x] == out.calibration.racks[y];
                                g.set(x, y, if same { 1e9 / 8.0 } else { 1e8 / 8.0 });
                            }
                        }
                    }
                    greedy_mapping(&tasks, &g)
                }
            };
            let start = view.simulator().time() + 1.0;
            let tm = run_mapping(&mut view, &tasks, &mapping, start);
            out.topomap.push(a, tm);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_calibration_yields_finite_norm() {
        let setup = SimSetup::quick(3);
        let (_, _, cal) = sim_calibrate(&setup);
        assert!(cal.norm_ne.is_finite());
        assert!(cal.norm_ne_l1 >= 0.0);
        assert_eq!(cal.rpca_guide.n(), setup.cluster_size);
        assert_eq!(cal.racks.len(), setup.cluster_size);
    }

    #[test]
    fn heavier_background_raises_norm() {
        let mut light = SimSetup::quick(7);
        light.bg_bytes = MB;
        light.bg_lambda = 20.0;
        let mut heavy = SimSetup::quick(7);
        heavy.bg_bytes = 50 * MB;
        heavy.bg_lambda = 2.0;
        let (_, _, cl) = sim_calibrate(&light);
        let (_, _, ch) = sim_calibrate(&heavy);
        assert!(
            ch.norm_ne_l1 > cl.norm_ne_l1,
            "heavy {} <= light {}",
            ch.norm_ne_l1,
            cl.norm_ne_l1
        );
    }

    #[test]
    fn comparison_produces_all_series() {
        let setup = SimSetup::quick(5);
        let r = sim_comparison(&setup, 2, MB);
        for a in [
            Approach::Baseline,
            Approach::TopoAware,
            Approach::Heuristics,
            Approach::Rpca,
        ] {
            assert_eq!(r.bcast.get(a).len(), 2, "{a:?}");
            assert_eq!(r.scatter.get(a).len(), 2, "{a:?}");
            assert_eq!(r.topomap.get(a).len(), 2, "{a:?}");
            for &t in r.bcast.get(a) {
                assert!(t > 0.0 && t.is_finite());
            }
        }
    }
}
