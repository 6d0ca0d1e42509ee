//! `online_advisor`: the Fig. 7 protocol as Algorithm 1 on the synthetic
//! EC2-like cloud.
//!
//! One operation is one run of `cloudconst_bench::campaign::run_campaign`:
//! Baseline, Heuristics and RPCA each time a broadcast, a scatter and a
//! greedy mapping on the network as it is at that moment; then
//! `Advisor::check` and, on `Recalibrate`, `Advisor::calibrate_par`. The
//! loop below is that function's body with the benchmark's spans and
//! checks around the calls; `tests/reproduce.rs` pins it bit-for-bit.

use crate::layers::Layers;
use crate::metrics::Outcome;
use crate::probe::Counted;
use crate::procstat::ProcSnapshot;
use crate::{constant_err, is_bijection, same_bits, same_tp, timed, Figures, GuideUse, RunConfig};
use cloudconst_apps::CommEnv;
use cloudconst_bench::campaign::{instantaneous_perf, Campaign};
use cloudconst_bench::{Approach, OpSeries};
use cloudconst_cloud::{CloudConfig, SyntheticCloud};
use cloudconst_collectives::{evaluate_tree, Collective};
use cloudconst_core::{estimate, Advisor, AdvisorConfig, EstimatorKind, MaintenanceDecision};
use cloudconst_netmodel::{Calibrator, PerfMatrix, MB};
use cloudconst_rpca::{apg, extract_constant, ConstantMethod};
use cloudconst_topomap::{
    evaluate_mapping, greedy_mapping, machine_graph_from_perf, random_task_graph, ring_mapping,
};
use std::time::Instant;

/// Cluster size: the paper's 64 medium instances.
pub const N: usize = 64;
/// Runs per campaign; the next campaign gets a fresh cloud and advisor
/// (seeds `seed + 1000·j`, as `run_pooled` pools them). How often a
/// cloud recalibrates is a trait of the cloud, so a run pools many short
/// campaigns to keep its figures from hanging on a few clouds.
pub const RUNS_PER_CAMPAIGN: usize = 5;
/// Operations whose quality figures are reported: a fixed prefix, so the
/// figures are a pure function of the seed. Recalibration is a coin the
/// network flips each run, so the prefix must be long for the figures
/// that count it to hold still from seed to seed.
pub const QUALITY_OPS: usize = 10 * RUNS_PER_CAMPAIGN;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// `run_campaign`'s offset of calibration snapshots from the run grid.
const CAL_OFFSET: f64 = 450.0;
/// Largest constant error a fully observed calibration may show.
const MAX_ERR: f64 = 0.10;

/// One model build: `Advisor::calibrate_par` plus the Heuristics guide.
#[derive(Debug, Clone, Copy)]
pub struct Build {
    /// Wall seconds of `calibrate_par` (calibration start → N_D installed).
    pub seconds: f64,
    /// Simulated network seconds the calibration probes took.
    pub overhead: f64,
}

/// One campaign in progress.
pub struct CampaignLoop {
    c: Campaign,
    cloud: SyntheticCloud,
    advisor: Advisor,
    heur_guide: Option<PerfMatrix>,
    k: usize,
    pub bcast: OpSeries,
    pub scatter: OpSeries,
    pub topomap: OpSeries,
    pub calibrations: usize,
    pub calibration_overhead: f64,
    pub norm_ne: f64,
    /// Model builds not yet collected by the driver.
    pub builds: Vec<Build>,
}

impl CampaignLoop {
    /// Set-up: build the cloud and an empty advisor.
    pub fn new(c: &Campaign) -> Self {
        let cloud_cfg = c
            .cloud
            .clone()
            .unwrap_or_else(|| CloudConfig::ec2_like(c.n, c.seed));
        let advisor = Advisor::new(AdvisorConfig {
            time_step: c.time_step,
            snapshot_interval: c.snapshot_interval,
            threshold: c.threshold,
            estimator: EstimatorKind::Rpca,
            ..Default::default()
        });
        CampaignLoop {
            c: c.clone(),
            cloud: SyntheticCloud::new(cloud_cfg),
            advisor,
            heur_guide: None,
            k: 0,
            bcast: OpSeries::default(),
            scatter: OpSeries::default(),
            topomap: OpSeries::default(),
            calibrations: 0,
            calibration_overhead: 0.0,
            norm_ne: 0.0,
            builds: Vec::new(),
        }
    }

    /// The initial calibration, before the first run.
    pub fn start(&mut self, layers: &mut Layers) -> Result<(), String> {
        self.build_model(CAL_OFFSET, layers)
    }

    /// Runs completed.
    pub fn runs_done(&self) -> usize {
        self.k
    }

    /// True once the campaign has made all its runs.
    pub fn finished(&self) -> bool {
        self.k >= self.c.runs
    }

    /// Simulated time of the next run.
    pub fn next_time(&self) -> f64 {
        let start = self.c.time_step as f64 * self.c.snapshot_interval + self.c.run_interval / 2.0;
        start + self.k as f64 * self.c.run_interval
    }

    /// Constant error of the guide the next run will use, against the
    /// ground truth of the regime the run falls in.
    pub fn guide_err(&self) -> Option<f64> {
        let t = self.next_time();
        let truth = self.cloud.ground_truth(self.cloud.epoch_of(t));
        self.advisor.constant().ok().map(|g| constant_err(g, truth))
    }

    fn build_model(&mut self, now: f64, layers: &mut Layers) -> Result<(), String> {
        let (res, seconds) = timed(|| self.advisor.calibrate_par(&self.cloud, now).map(|_| ()));
        res.map_err(|e| format!("calibration at t={now}: {e}"))?;
        layers.add("core.model_s", seconds);
        let model = self.advisor.model().expect("a model is installed after Ok");
        let overhead = model.calibration_overhead;
        self.calibrations += 1;
        self.calibration_overhead += overhead;
        self.norm_ne = model.estimate.norm_ne;
        self.builds.push(Build { seconds, overhead });
        self.heur_guide = Some(
            estimate(&model.tp, EstimatorKind::HeuristicMean)
                .map_err(|e| format!("heuristic estimate: {e}"))?
                .perf,
        );
        let truth = self.cloud.ground_truth(self.cloud.epoch_of(now));
        let err = constant_err(&model.estimate.perf, truth);
        if err > MAX_ERR {
            return Err(format!("constant error {err:.4} > {MAX_ERR} at t={now}"));
        }
        if layers.on() {
            if self.advisor.health(now).is_ok_and(|h| h.degraded) {
                layers.add("core.degraded", 1.0);
            }
            let (cloud, advisor) = (&self.cloud, &self.advisor);
            layers.replay(|l| replay_model(cloud, advisor, now, l))?;
        }
        Ok(())
    }

    /// One run: the three approaches on the actual network, then the
    /// Algorithm 1 check and, on a deviation, recalibration.
    pub fn step(&mut self, layers: &mut Layers) -> Result<GuideUse, String> {
        let (n, seed, msg) = (self.c.n, self.c.seed, self.c.msg_bytes);
        let k = self.k;
        let t = self.next_time();
        self.k += 1;
        let actual = layers.span("cloud.actual_s", || instantaneous_perf(&self.cloud, t));
        let root = (seed as usize + k) % n;
        let rpca_guide = self
            .advisor
            .constant()
            .map_err(|e| format!("no model: {e}"))?
            .clone();
        let heur_guide = self.heur_guide.as_ref().ok_or("no heuristic guide")?;
        let approaches: [(Approach, Option<&PerfMatrix>); 3] = [
            (Approach::Baseline, None),
            (Approach::Heuristics, Some(heur_guide)),
            (Approach::Rpca, Some(&rpca_guide)),
        ];

        let mut rec = GuideUse::default();
        let mut problem = None;
        for (a, guide) in approaches {
            let env = match guide {
                None => CommEnv::baseline(&actual),
                Some(g) => CommEnv::guided(&actual, g),
            };
            let (tb, ts, spanning) = layers.span("apps.collective_s", || {
                let tree = env.tree(root, msg);
                (
                    evaluate_tree(&tree, env.actual, Collective::Broadcast, msg),
                    evaluate_tree(&tree, env.actual, Collective::Scatter, msg),
                    tree.is_spanning(),
                )
            });
            self.bcast.push(a, tb);
            self.scatter.push(a, ts);

            let tasks = random_task_graph(
                n,
                self.c.task_degree,
                5.0 * MB as f64,
                10.0 * MB as f64,
                seed ^ (k as u64).wrapping_mul(0x9E37),
            );
            let mapping = layers.span("topomap.greedy_s", || match guide {
                None => ring_mapping(n),
                Some(g) => greedy_mapping(&tasks, &machine_graph_from_perf(g)),
            });
            let tm = layers.span("topomap.evaluate_s", || {
                evaluate_mapping(&tasks, &mapping, &actual)
            });
            self.topomap.push(a, tm);

            if !spanning {
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

        // Algorithm 1, lines 4–9, driven by the broadcast the user ran.
        let expected = layers.span("apps.collective_s", || {
            CommEnv::guided(&rpca_guide, &rpca_guide).collective_time(
                Collective::Broadcast,
                root,
                msg,
            )
        });
        layers.add("core.checks", 1.0);
        if self.advisor.check(expected, rec.bcast_rpca) == MaintenanceDecision::Recalibrate {
            layers.add("core.recalibrations", 1.0);
            self.build_model(t + CAL_OFFSET, layers)?;
        }
        problem.map_or(Ok(rec), Err)
    }
}

/// Replay `Advisor::calibrate_par`'s two layers on the same inputs: the
/// calibration (counted) and the two APG solves. Each must reproduce what
/// the advisor installed, bit for bit.
fn replay_model(
    cloud: &SyntheticCloud,
    advisor: &Advisor,
    now: f64,
    l: &mut Layers,
) -> Result<(), String> {
    let cfg = advisor.config();
    let model = advisor.model().expect("replayed after an install");
    let probe = Counted::new(cloud.clone(), false);
    let calibrator = Calibrator {
        config: cfg.calibration.clone(),
    };
    let (tp, overhead) = l.span("netmodel.calibrate_s", || {
        calibrator.calibrate_tp_par(&probe, now, cfg.snapshot_interval, cfg.time_step)
    });
    l.add("netmodel.probes", probe.probes() as f64);
    if !same_tp(&tp, &model.tp) || overhead.to_bits() != model.calibration_overhead.to_bits() {
        return Err("replayed calibration differs from the advisor's".into());
    }
    let ra = l.span("rpca.apg_s", || apg(tp.alpha_matrix(), &cfg.rpca));
    let rb = l.span("rpca.apg_s", || apg(tp.inv_beta_matrix(), &cfg.rpca));
    let (ra, rb) = (
        ra.map_err(|e| e.to_string())?,
        rb.map_err(|e| e.to_string())?,
    );
    let iters = ra.iters + rb.iters;
    let alpha = extract_constant(&ra.d, ConstantMethod::TopSingular).map_err(|e| e.to_string())?;
    let inv_beta =
        extract_constant(&rb.d, ConstantMethod::TopSingular).map_err(|e| e.to_string())?;
    let replayed = PerfMatrix::from_flat(tp.n(), &alpha, &inv_beta).flatten();
    let installed = model.estimate.perf.flatten();
    if iters != model.estimate.solver_iters
        || !same_bits(&replayed.0, &installed.0)
        || !same_bits(&replayed.1, &installed.1)
    {
        return Err("replayed RPCA differs from the advisor's".into());
    }
    l.add("rpca.apg_iters", iters as f64);
    l.add("rpca.solves", 2.0);
    l.add("rpca.norm_ne", model.estimate.norm_ne);
    Ok(())
}

/// The campaign settings of the `j`-th campaign of a run.
pub fn campaign(seed: u64, j: u64) -> Campaign {
    Campaign {
        runs: RUNS_PER_CAMPAIGN,
        ..Campaign::paper_like(N, seed.wrapping_add(j.wrapping_mul(1000)))
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Layers::new(cfg.trace);

    let mut f = Figures::default();
    for _ in 0..SETUP_REPS {
        let (lp, s) = timed(|| CampaignLoop::new(&campaign(cfg.seed, 0)));
        std::hint::black_box(&lp);
        f.setups.push(s);
    }

    let mut j = 0u64;
    let p0 = ProcSnapshot::now();
    let t0 = Instant::now();
    let mut lp: Option<CampaignLoop> = None;
    while f.ops < QUALITY_OPS || t0.elapsed().as_secs_f64() < cfg.seconds {
        let in_prefix = f.ops < QUALITY_OPS;
        if lp.as_ref().is_none_or(CampaignLoop::finished) {
            let (mut cl, s) = timed(|| CampaignLoop::new(&campaign(cfg.seed, j)));
            f.setups.push(s);
            j += 1;
            let (res, s) = timed(|| cl.start(&mut layers));
            f.busy += s;
            f.models.extend(cl.builds.drain(..).map(|b| b.seconds));
            if let Err(e) = res {
                // A campaign that cannot calibrate has no runs to make.
                out.op(Some(e));
                f.ops += 1;
                lp = None;
                continue;
            }
            if in_prefix {
                f.prefix_overhead += cl.calibration_overhead;
            }
            lp = Some(cl);
        }
        let cl = lp.as_mut().expect("a campaign is in progress");
        let err = cl.guide_err();
        let (res, s) = timed(|| cl.step(&mut layers));
        f.busy += s;
        for b in cl.builds.drain(..) {
            f.models.push(b.seconds);
            if in_prefix {
                f.prefix_overhead += b.overhead;
            }
        }
        match res {
            Ok(rec) => {
                if in_prefix {
                    f.uses.push(rec);
                    f.errs.extend(err);
                }
                out.op(None);
            }
            Err(e) => out.op(Some(e)),
        }
        f.ops += 1;
    }
    let loop_s = t0.elapsed().as_secs_f64();
    let proc = ProcSnapshot::now().since(&p0);
    f.busy -= layers.replay_seconds();
    f.report(&mut out, QUALITY_OPS);
    layers.finish(&mut out, f.ops as u64, loop_s, proc);
    out.notes
        .push(format!("{j} campaign(s) of {RUNS_PER_CAMPAIGN} runs"));
    out
}
