//! EC2-style experiment campaigns on the synthetic cloud (Figures 6–9).

use crate::Approach;
use cloudconst_apps::CommEnv;
use cloudconst_cloud::{CloudConfig, SyntheticCloud};
use cloudconst_collectives::Collective;
use cloudconst_core::{estimate, Advisor, AdvisorConfig, EstimatorKind, MaintenanceDecision};
use cloudconst_netmodel::{PerfMatrix, MB};
use cloudconst_topomap::{
    evaluate_mapping, greedy_mapping, machine_graph_from_perf, random_task_graph, ring_mapping,
};
use rayon::prelude::*;

/// Parameters of one campaign (defaults follow the paper's §V-A setup,
/// scaled to a synthetic-cloud run).
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Virtual cluster size (paper: 64 or 196 medium instances).
    pub n: usize,
    /// Master seed.
    pub seed: u64,
    /// Experimental runs (paper: "more than 100 times").
    pub runs: usize,
    /// Seconds between runs (paper: one run every 30 minutes).
    pub run_interval: f64,
    /// Collective message size (paper default: 8 MB).
    pub msg_bytes: u64,
    /// TP-matrix snapshots per calibration (paper default: 10).
    pub time_step: usize,
    /// Seconds between TP snapshots.
    pub snapshot_interval: f64,
    /// Maintenance threshold (paper default: 100%).
    pub threshold: f64,
    /// Extra random chords per task-graph vertex.
    pub task_degree: usize,
    /// Cloud configuration override (`None` = `ec2_like(n, seed)`).
    pub cloud: Option<CloudConfig>,
}

impl Campaign {
    /// Paper-like defaults for a cluster of `n` instances.
    pub fn paper_like(n: usize, seed: u64) -> Self {
        Campaign {
            n,
            seed,
            runs: 100,
            run_interval: 1800.0,
            msg_bytes: 8 * MB,
            time_step: 10,
            // The paper's 30-minute run spacing: rows of the TP-matrix
            // sample independent congestion states (bursts last minutes).
            snapshot_interval: 1800.0,
            threshold: 1.0,
            task_degree: 2,
            cloud: None,
        }
    }

    /// Small fast settings for tests / quick mode.
    pub fn quick(n: usize, seed: u64) -> Self {
        let mut c = Self::paper_like(n, seed);
        c.runs = 20;
        c
    }
}

/// Per-operation elapsed-time series, one vector per approach.
#[derive(Debug, Clone, Default)]
pub struct OpSeries {
    series: Vec<(Approach, Vec<f64>)>,
}

impl OpSeries {
    /// Record one elapsed time.
    pub fn push(&mut self, a: Approach, t: f64) {
        if let Some((_, v)) = self.series.iter_mut().find(|(x, _)| *x == a) {
            v.push(t);
        } else {
            self.series.push((a, vec![t]));
        }
    }

    /// The series for an approach (empty if absent).
    pub fn get(&self, a: Approach) -> &[f64] {
        self.series
            .iter()
            .find(|(x, _)| *x == a)
            .map(|(_, v)| v.as_slice())
            .unwrap_or(&[])
    }

    /// Mean elapsed time for an approach.
    pub fn mean_of(&self, a: Approach) -> f64 {
        crate::mean(self.get(a))
    }

    /// Approaches present, in insertion order.
    pub fn approaches(&self) -> Vec<Approach> {
        self.series.iter().map(|(a, _)| *a).collect()
    }

    /// Fold another series into this one (pooling campaigns run with
    /// different seeds — one calibration window yields perfectly
    /// correlated estimation error across its runs, so approach
    /// comparisons need several windows to mean anything).
    pub fn merge(&mut self, other: &OpSeries) {
        for (a, v) in &other.series {
            for &t in v {
                self.push(*a, t);
            }
        }
    }
}

/// Everything a campaign produces.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Broadcast elapsed times per approach.
    pub bcast: OpSeries,
    /// Scatter elapsed times per approach.
    pub scatter: OpSeries,
    /// Topology-mapping elapsed times per approach.
    pub topomap: OpSeries,
    /// `Norm(N_E)` of the final RPCA model.
    pub norm_ne: f64,
    /// Total calibrations performed (1 initial + maintenance).
    pub calibrations: usize,
    /// Total calibration overhead in seconds (network occupancy).
    pub calibration_overhead: f64,
}

/// Instantaneous all-link performance of the cloud at time `t` — the
/// "actual" network a run executes against.
pub fn instantaneous_perf(cloud: &SyntheticCloud, t: f64) -> PerfMatrix {
    PerfMatrix::from_fn(cloud.config().n_vms, |i, j| cloud.instantaneous(i, j, t))
}

/// Run `pools` campaigns with consecutive seeds and pool their series —
/// the statistically meaningful way to compare guided approaches (each
/// campaign contributes an independent calibration window and cloud).
///
/// Campaigns are independent (seed `c.seed + 1000·k`), so they run on
/// worker threads; the merge happens afterwards in pool order, keeping the
/// pooled series identical to the sequential loop this replaced.
pub fn run_pooled(c: &Campaign, pools: usize) -> CampaignResult {
    assert!(pools >= 1);
    let results: Vec<CampaignResult> = (0..pools)
        .into_par_iter()
        .map(|k| {
            let mut ck = c.clone();
            ck.seed = c.seed.wrapping_add(k as u64 * 1000);
            run_campaign(&ck)
        })
        .collect();
    let mut iter = results.into_iter();
    let mut base = iter.next().expect("pools >= 1");
    let mut norm_sum = base.norm_ne;
    for r in iter {
        base.bcast.merge(&r.bcast);
        base.scatter.merge(&r.scatter);
        base.topomap.merge(&r.topomap);
        base.calibrations += r.calibrations;
        base.calibration_overhead += r.calibration_overhead;
        norm_sum += r.norm_ne;
    }
    base.norm_ne = norm_sum / pools as f64;
    base
}

/// Run a campaign comparing Baseline / Heuristics / RPCA, following the
/// paper's §V-A protocol: one run per interval, each run executing
/// broadcast, scatter and topology mapping once per approach against the
/// network as it is at that moment; RPCA additionally does Algorithm 1
/// maintenance keyed on its broadcast's observed-vs-expected time.
pub fn run_campaign(c: &Campaign) -> CampaignResult {
    let cloud_cfg = c
        .cloud
        .clone()
        .unwrap_or_else(|| CloudConfig::ec2_like(c.n, c.seed));
    let cloud = SyntheticCloud::new(cloud_cfg);

    let mut advisor = Advisor::new(AdvisorConfig {
        time_step: c.time_step,
        snapshot_interval: c.snapshot_interval,
        threshold: c.threshold,
        estimator: EstimatorKind::Rpca,
        ..Default::default()
    });

    // Calibration snapshots are offset by 1.5 congestion slots (450 s)
    // from the run grid: a snapshot falling in the same congestion slot
    // as a future run would hand estimators that keep transient events
    // (the mean) clairvoyant knowledge of that run's network state.
    const CAL_OFFSET: f64 = 450.0;

    // The synthetic cloud's probes are pure, so calibration rounds fan out
    // across threads (bit-identical to the serial path — see Advisor).
    advisor
        .calibrate_par(&cloud, CAL_OFFSET)
        .expect("initial calibration");
    let mut calibration_overhead = advisor.model().unwrap().calibration_overhead;
    let mut heur_guide = estimate(&advisor.model().unwrap().tp, EstimatorKind::HeuristicMean)
        .expect("heuristic estimate")
        .perf;

    let mut result = CampaignResult {
        bcast: OpSeries::default(),
        scatter: OpSeries::default(),
        topomap: OpSeries::default(),
        norm_ne: advisor.model().unwrap().estimate.norm_ne,
        calibrations: 1,
        calibration_overhead: 0.0,
    };

    // Offset runs by half an interval so they never coincide with the
    // instants calibration snapshots sample: otherwise an estimator that
    // *keeps* transient events (the mean) gets clairvoyant knowledge of
    // the congestion state at future run times after a re-calibration.
    let start = c.time_step as f64 * c.snapshot_interval + c.run_interval / 2.0;
    for k in 0..c.runs {
        let t = start + k as f64 * c.run_interval;
        let actual = instantaneous_perf(&cloud, t);
        let root = (c.seed as usize + k) % c.n;

        let rpca_guide = advisor.constant().expect("model present").clone();
        let approaches: [(Approach, Option<&PerfMatrix>); 3] = [
            (Approach::Baseline, None),
            (Approach::Heuristics, Some(&heur_guide)),
            (Approach::Rpca, Some(&rpca_guide)),
        ];

        let mut rpca_bcast_actual = 0.0;
        for (a, guide) in approaches {
            let env = CommEnv {
                actual: &actual,
                guide,
            };
            let tb = env.collective_time(Collective::Broadcast, root, c.msg_bytes);
            let ts = env.collective_time(Collective::Scatter, root, c.msg_bytes);
            result.bcast.push(a, tb);
            result.scatter.push(a, ts);
            if a == Approach::Rpca {
                rpca_bcast_actual = tb;
            }

            // Topology mapping: same random task graph for every approach
            // in a run; machine graph from the approach's guide.
            let tasks = random_task_graph(
                c.n,
                c.task_degree,
                5.0 * MB as f64,
                10.0 * MB as f64,
                c.seed ^ (k as u64).wrapping_mul(0x9E37),
            );
            let mapping = match guide {
                None => ring_mapping(c.n),
                Some(g) => greedy_mapping(&tasks, &machine_graph_from_perf(g)),
            };
            result
                .topomap
                .push(a, evaluate_mapping(&tasks, &mapping, &actual));
        }

        // Algorithm 1, lines 4–9 (driven by the broadcast the user ran).
        let guide_env = CommEnv::guided(&rpca_guide, &rpca_guide);
        let expected = guide_env.collective_time(Collective::Broadcast, root, c.msg_bytes);
        if advisor.check(expected, rpca_bcast_actual) == MaintenanceDecision::Recalibrate {
            advisor
                .calibrate_par(&cloud, t + CAL_OFFSET)
                .expect("re-calibration");
            calibration_overhead += advisor.model().unwrap().calibration_overhead;
            result.calibrations += 1;
            heur_guide = estimate(&advisor.model().unwrap().tp, EstimatorKind::HeuristicMean)
                .expect("heuristic estimate")
                .perf;
            result.norm_ne = advisor.model().unwrap().estimate.norm_ne;
        }
    }

    result.calibration_overhead = calibration_overhead;
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_series_accumulates() {
        let mut s = OpSeries::default();
        s.push(Approach::Rpca, 1.0);
        s.push(Approach::Rpca, 3.0);
        s.push(Approach::Baseline, 2.0);
        assert_eq!(s.get(Approach::Rpca), &[1.0, 3.0]);
        assert_eq!(s.mean_of(Approach::Rpca), 2.0);
        assert_eq!(s.approaches(), vec![Approach::Rpca, Approach::Baseline]);
        assert!(s.get(Approach::TopoAware).is_empty());
    }

    #[test]
    fn small_campaign_runs_and_rpca_wins() {
        // Big enough that a single 10× congestion spike cannot dominate
        // the sample mean; at n=16/12-runs the comparison is a coin flip.
        let mut c = Campaign::quick(24, 11);
        c.runs = 20;
        let r = run_campaign(&c);
        assert_eq!(r.bcast.get(Approach::Baseline).len(), 20);
        assert_eq!(r.scatter.get(Approach::Rpca).len(), 20);
        assert_eq!(r.topomap.get(Approach::Heuristics).len(), 20);
        assert!(r.calibrations >= 1);
        // The headline shape: RPCA meaningfully better than Baseline.
        let rb = r.bcast.mean_of(Approach::Rpca);
        let bb = r.bcast.mean_of(Approach::Baseline);
        assert!(rb < bb, "RPCA bcast mean {rb} worse than baseline {bb}");
    }

    #[test]
    fn instantaneous_perf_matches_probes() {
        use cloudconst_netmodel::NetworkProbe;
        let mut cloud = SyntheticCloud::new(CloudConfig::small_test(6, 2));
        let perf = instantaneous_perf(&cloud, 123.0);
        for i in 0..6 {
            for j in 0..6 {
                let a = perf.transfer_time(i, j, MB);
                let b = cloud.probe(i, j, MB, 123.0);
                assert!((a - b).abs() < 1e-12);
            }
        }
    }
}
