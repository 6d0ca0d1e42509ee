//! `sim_datacenter`: the Fig. 13 protocol on the flow-level simulator,
//! with the `experiments fig13` quick setup.
//!
//! Set-up builds the datacenter, lets background traffic warm up, and
//! calibrates the cluster once through a `ClusterView`. One operation is
//! one run of `cloudconst_bench::sim_experiments::sim_comparison`:
//! Baseline, Topology-aware, Heuristics and RPCA each run a broadcast, a
//! scatter and a mapping on the simulator. The code below is that
//! function's body (and `sim_calibrate`'s, and the private helpers they
//! share) with the benchmark's spans and checks around the calls;
//! `tests/reproduce.rs` pins it bit-for-bit.

use crate::layers::Layers;
use crate::metrics::{self, Outcome};
use crate::probe::Counted;
use crate::procstat::ProcSnapshot;
use crate::{constant_err, is_bijection, timed, Figures, GuideUse, RunConfig};
use cloudconst_bench::sim_experiments::{SimCalibration, SimSetup};
use cloudconst_bench::{Approach, OpSeries};
use cloudconst_collectives::{
    binomial_tree, fnf_tree, schedule, topo_aware_tree, Collective, CommTree,
};
use cloudconst_core::{estimate, EstimatorKind};
use cloudconst_netmodel::{Calibrator, LinkPerf, PerfMatrix, MB};
use cloudconst_rpca::apg;
use cloudconst_simnet::{run_dag, BackgroundSpec, ClusterView, LinkSpec, Simulator, Topology};
use cloudconst_topomap::{
    greedy_mapping, machine_graph_from_perf, random_task_graph, ring_mapping, Mapping, TaskGraph,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// Collective message size (`experiments fig13`).
pub const MSG_BYTES: u64 = 8 * MB;
/// Runs per datacenter before the next one (seed `seed + 1000·j`, as
/// `experiments fig13` pools two) is set up. One calibration window
/// decides a datacenter's comparison, and a set-up's time varies by about
/// 15% from one datacenter to the next, so a run pools as many as it can.
pub const RUNS_PER_DC: usize = 1;
/// Operations whose quality figures are reported: a fixed prefix, so the
/// figures are a pure function of the seed.
pub const QUALITY_OPS: usize = 7 * RUNS_PER_DC;

/// The `experiments fig13` quick setup: 8 racks × 32 hosts, a 48-VM
/// cluster, 120 background pairs of 100 MB, λ = 2 s, churn 0.15.
pub fn fig13_setup(seed: u64) -> SimSetup {
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

/// One calibrated datacenter and its runs so far.
pub struct Datacenter {
    setup: SimSetup,
    sim: Simulator,
    hosts: Vec<usize>,
    pub calibration: SimCalibration,
    /// The cluster's unloaded α-β (path latency, bottleneck capacity):
    /// the simulator's constant component, against which `constant_err`
    /// is measured (the simulator has no hidden ground truth).
    pub unloaded: PerfMatrix,
    /// Wall seconds from calibration start to the RPCA guide.
    pub model_s: f64,
    /// Simulated seconds the calibration probes took.
    pub overhead: f64,
    k: usize,
    pub bcast: OpSeries,
    pub scatter: OpSeries,
    pub topomap: OpSeries,
}

impl Datacenter {
    /// Set-up: build, warm up, calibrate (as `sim_calibrate`).
    pub fn new(setup: &SimSetup, layers: &mut Layers) -> Result<Self, String> {
        let topo = Topology::tree(
            setup.racks,
            setup.hosts_per_rack,
            LinkSpec {
                capacity: 1e9 / 8.0,
                latency: 20e-6,
            },
            LinkSpec {
                capacity: 10e9 / 8.0,
                latency: 30e-6,
            },
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
        let mut rng = StdRng::seed_from_u64(setup.seed ^ 0x5E1);
        all.shuffle(&mut rng);
        let hosts = all[..setup.cluster_size].to_vec();

        layers.span("simnet.warmup_s", || sim.run_until(3.0 * setup.bg_lambda));

        let t0 = Instant::now();
        let mut view = Counted::new(ClusterView::new(&mut sim, hosts.clone()), layers.on());
        let start = view.inner().simulator().time();
        let (tp, overhead) = Calibrator::new().calibrate_tp(
            &mut view,
            start,
            setup.snapshot_interval,
            setup.time_step,
        );
        layers.add("netmodel.calibrate_s", t0.elapsed().as_secs_f64());
        layers.add("simnet.calibrate_s", view.inner_seconds());
        layers.add("netmodel.probes", view.probes() as f64);
        let racks = view.inner().rack_ids();
        let rpca = estimate(&tp, EstimatorKind::Rpca).map_err(|e| format!("rpca estimate: {e}"))?;
        let model_s = t0.elapsed().as_secs_f64();
        layers.add("core.model_s", model_s);
        let heur = estimate(&tp, EstimatorKind::HeuristicMean)
            .map_err(|e| format!("heuristic estimate: {e}"))?;
        if layers.on() {
            layers.replay(|l| {
                let ra = l.span("rpca.apg_s", || apg(tp.alpha_matrix(), &Default::default()));
                let rb = l.span("rpca.apg_s", || {
                    apg(tp.inv_beta_matrix(), &Default::default())
                });
                let iters =
                    ra.map_err(|e| e.to_string())?.iters + rb.map_err(|e| e.to_string())?.iters;
                if iters != rpca.solver_iters {
                    return Err("replayed RPCA differs from the estimate".to_string());
                }
                l.add("rpca.apg_iters", iters as f64);
                l.add("rpca.solves", 2.0);
                l.add("rpca.norm_ne", rpca.norm_ne);
                Ok(())
            })?;
        }

        let topo = sim.topology();
        let unloaded = PerfMatrix::from_fn(hosts.len(), |i, j| {
            if i == j {
                return LinkPerf::SELF;
            }
            let path = topo.path(hosts[i], hosts[j]);
            LinkPerf::new(topo.path_latency(&path), topo.path_capacity(&path))
        });
        Ok(Datacenter {
            setup: setup.clone(),
            sim,
            hosts,
            calibration: SimCalibration {
                norm_ne: rpca.norm_ne,
                norm_ne_l1: rpca.norm_ne_l1,
                rpca_guide: rpca.perf,
                heur_guide: heur.perf,
                racks,
            },
            unloaded,
            model_s,
            overhead,
            k: 0,
            bcast: OpSeries::default(),
            scatter: OpSeries::default(),
            topomap: OpSeries::default(),
        })
    }

    pub fn runs_done(&self) -> usize {
        self.k
    }

    /// Flows the simulator has completed, background included.
    pub fn flows(&self) -> u64 {
        self.sim.flows_completed()
    }

    /// One run: the four approaches' broadcast, scatter and mapping.
    pub fn step(&mut self, layers: &mut Layers) -> Result<GuideUse, String> {
        let k = self.k;
        self.k += 1;
        let n = self.hosts.len();
        let seed = self.setup.seed;
        let cal = &self.calibration;
        let mut view = ClusterView::new(&mut self.sim, self.hosts.clone());
        let root = (seed as usize + k) % n;
        let mut rec = GuideUse::default();
        let mut problem = None;
        for a in [
            Approach::Baseline,
            Approach::TopoAware,
            Approach::Heuristics,
            Approach::Rpca,
        ] {
            let tree = layers.span("collectives.tree_s", || {
                tree_for(a, root, n, cal, MSG_BYTES)
            });
            let start = view.simulator().time() + 1.0;
            let dag = layers.span("collectives.schedule_s", || {
                schedule(&tree, Collective::Broadcast, MSG_BYTES)
            });
            let tb = layers.span("simnet.run_dag_s", || run_dag(&mut view, &dag, start));
            self.bcast.push(a, tb);
            let start = view.simulator().time() + 1.0;
            let dag = layers.span("collectives.schedule_s", || {
                schedule(&tree, Collective::Scatter, MSG_BYTES)
            });
            let ts = layers.span("simnet.run_dag_s", || run_dag(&mut view, &dag, start));
            self.scatter.push(a, ts);

            let tasks = random_task_graph(
                n,
                2,
                5.0 * MB as f64,
                10.0 * MB as f64,
                seed ^ (k as u64).wrapping_mul(0x77),
            );
            let mapping = layers.span("topomap.greedy_s", || mapping_for(a, &tasks, cal));
            let start = view.simulator().time() + 1.0;
            let tm = layers.span("simnet.mapping_s", || {
                run_mapping(&mut view, &tasks, &mapping, start)
            });
            self.topomap.push(a, tm);

            if !tree.is_spanning() {
                problem.get_or_insert(format!("{a:?} tree does not span the cluster"));
            }
            if !is_bijection(&mapping) {
                problem.get_or_insert(format!("{a:?} mapping is not a bijection"));
            }
            if !(tb > 0.0 && ts > 0.0 && tm > 0.0 && (tb + ts + tm).is_finite()) {
                problem.get_or_insert(format!("{a:?} times not positive and finite"));
            }
            match a {
                Approach::Baseline => (rec.bcast_baseline, rec.map_baseline) = (tb, tm),
                Approach::Rpca => (rec.bcast_rpca, rec.map_rpca) = (tb, tm),
                _ => {}
            }
        }
        problem.map_or(Ok(rec), Err)
    }
}

fn tree_for(a: Approach, root: usize, n: usize, cal: &SimCalibration, msg_bytes: u64) -> CommTree {
    match a {
        Approach::Baseline => binomial_tree(root, n),
        Approach::Heuristics => fnf_tree(root, &cal.heur_guide.weights(msg_bytes)),
        Approach::Rpca => fnf_tree(root, &cal.rpca_guide.weights(msg_bytes)),
        Approach::TopoAware => topo_aware_tree(root, &cal.racks),
    }
}

fn mapping_for(a: Approach, tasks: &TaskGraph, cal: &SimCalibration) -> Mapping {
    let n = tasks.n();
    match a {
        Approach::Baseline => ring_mapping(n),
        Approach::Heuristics => greedy_mapping(tasks, &machine_graph_from_perf(&cal.heur_guide)),
        Approach::Rpca => greedy_mapping(tasks, &machine_graph_from_perf(&cal.rpca_guide)),
        Approach::TopoAware => {
            // Static topology knowledge: intra-rack "fast", cross-rack "slow".
            let mut g = TaskGraph::empty(n);
            for x in 0..n {
                for y in (0..n).filter(|&y| y != x) {
                    let same = cal.racks[x] == cal.racks[y];
                    g.set(x, y, if same { 1e9 / 8.0 } else { 1e8 / 8.0 });
                }
            }
            greedy_mapping(tasks, &g)
        }
    }
}

/// All task edges fire at once and contend; elapsed is the last arrival.
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
            ids.push(
                view.simulator_mut()
                    .submit(src, dst, bytes.round() as u64, start),
            );
        }
    }
    if ids.is_empty() {
        return 0.0;
    }
    let finishes = view.simulator_mut().wait_for(&ids);
    finishes.into_iter().fold(start, f64::max) - start
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Layers::new(cfg.trace);
    let mut f = Figures::default();
    let (mut flows, mut j) = (0u64, 0u64);
    let p0 = ProcSnapshot::now();
    let t0 = Instant::now();
    let mut dc: Option<Datacenter> = None;
    while f.ops < QUALITY_OPS || t0.elapsed().as_secs_f64() < cfg.seconds {
        let in_prefix = f.ops < QUALITY_OPS;
        if dc.as_ref().is_none_or(|d| d.runs_done() >= RUNS_PER_DC) {
            flows += dc.take().map_or(0, |d| d.flows());
            let setup = fig13_setup(cfg.seed.wrapping_add(j.wrapping_mul(1000)));
            j += 1;
            let (res, s) = timed(|| Datacenter::new(&setup, &mut layers));
            f.setups.push(s);
            match res {
                Ok(d) => {
                    f.models.push(d.model_s);
                    if in_prefix {
                        f.prefix_overhead += d.overhead;
                        f.errs
                            .push(constant_err(&d.calibration.rpca_guide, &d.unloaded));
                    }
                    dc = Some(d);
                }
                Err(e) => {
                    // A datacenter that cannot calibrate has no runs to make.
                    out.op(Some(e));
                    f.ops += 1;
                    continue;
                }
            }
        }
        let d = dc.as_mut().expect("a datacenter is set up");
        let (res, s) = timed(|| d.step(&mut layers));
        f.busy += s;
        match res {
            Ok(rec) => {
                if in_prefix {
                    f.uses.push(rec);
                }
                out.op(None);
            }
            Err(e) => out.op(Some(e)),
        }
        f.ops += 1;
    }
    flows += dc.map_or(0, |d| d.flows());
    let loop_s = t0.elapsed().as_secs_f64();
    let proc = ProcSnapshot::now().since(&p0);
    f.report(&mut out, QUALITY_OPS);

    layers.add("simnet.flows", flows as f64);
    let simnet_s: f64 = [
        "simnet.warmup_s",
        "simnet.calibrate_s",
        "simnet.run_dag_s",
        "simnet.mapping_s",
    ]
    .iter()
    .map(|m| layers.get(m))
    .sum();
    layers.set("simnet.flows_per_s", metrics::ratio(flows as f64, simnet_s));
    layers.finish(&mut out, f.ops as u64, loop_s, proc);
    out.notes.push(format!(
        "{j} datacenter(s) of {RUNS_PER_DC} runs; set-up seconds {:.3?}; flows completed {flows}",
        f.setups
    ));
    out
}
