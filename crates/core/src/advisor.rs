//! Algorithm 1: the adaptive RPCA-based advisor.

use crate::estimator::{estimate_with_opts, ConstantEstimate, DegradedPolicy, EstimatorKind};
use crate::{CoreError, Result};
use cloudconst_netmodel::{
    CalibrationConfig, Calibrator, FallibleNetworkProbe, FaultyTpRun, ImputePolicy, PerfMatrix,
    ProbeLog, ProbeOutcome, RetryPolicy, TpMatrix,
};
use cloudconst_rpca::ApgOptions;

/// Quarantine a link after this many *consecutive snapshots* in which every
/// probe of the link failed. Quarantined links no longer trigger
/// maintenance re-calibration (see [`Advisor::check_link`]); a single
/// successful probe lifts the quarantine.
const QUARANTINE_AFTER: u32 = 3;

/// How many per-campaign [`HealthReport`]s a [`CampaignHistory`] retains
/// (oldest evicted first).
const HISTORY_CAPACITY: usize = 32;

/// Configuration of the advisor loop.
#[derive(Debug, Clone)]
pub struct AdvisorConfig {
    /// Number of calibration snapshots per TP-matrix — the paper's *time
    /// step* parameter (default 10, chosen in Fig. 5).
    pub time_step: usize,
    /// Seconds between consecutive snapshots of one TP-matrix.
    pub snapshot_interval: f64,
    /// Maintenance threshold on `|t − t′| / t′` (default 1.0 = 100%,
    /// chosen in Fig. 6).
    pub threshold: f64,
    /// Which estimator guides optimizations.
    pub estimator: EstimatorKind,
    /// Probe protocol parameters.
    pub calibration: CalibrationConfig,
    /// Per-probe deadline and retry/backoff of [`Advisor::calibrate_par`]
    /// (a probe that never fails never engages it).
    pub retry: RetryPolicy,
    /// How [`Advisor::calibrate_par`] fills TP-matrix cells no probe
    /// attempt observed.
    pub impute: ImputePolicy,
    /// What to do when the RPCA solver exhausts its budget. Under the
    /// default `Fail` a non-converged re-calibration returns the error and
    /// leaves the previous model (and its health counters) in force.
    pub degraded: DegradedPolicy,
    /// APG solver options (relevant to [`EstimatorKind::Rpca`] only).
    pub rpca: ApgOptions,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig {
            time_step: 10,
            // Paper protocol: calibration snapshots are the 30-minute
            // experimental runs — far apart relative to congestion-burst
            // durations, so rows sample independent network states.
            snapshot_interval: 1800.0,
            threshold: 1.0,
            estimator: EstimatorKind::Rpca,
            calibration: CalibrationConfig::default(),
            retry: RetryPolicy::default(),
            impute: ImputePolicy::LastGood,
            degraded: DegradedPolicy::Fail,
            rpca: ApgOptions::default(),
        }
    }
}

/// A truthful account of how the advisor's current model was obtained —
/// what an operator (or an optimization layer deciding how much to trust
/// the guidance) needs to know about probe health and model freshness.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Fraction of probe attempts in the model's calibration campaign that
    /// returned a measurement (1.0 for a campaign on a probe that never
    /// fails, which spends `2·N(N−1)` first-try attempts per snapshot).
    pub probe_success_rate: f64,
    /// Total probe attempts in the campaign.
    pub attempts: u64,
    /// Attempts beyond the first for any (link, phase).
    pub retries: u64,
    /// Attempts that ended in a timeout.
    pub timeouts: u64,
    /// Attempts that ended in a loss.
    pub losses: u64,
    /// Fraction of the model's TP-matrix cells that were imputed rather
    /// than measured.
    pub masked_fraction: f64,
    /// Seconds since the model in force was calibrated.
    pub model_age: f64,
    /// True when the model in force came from a non-converged partial
    /// decomposition accepted under [`DegradedPolicy::AcceptNearTolerance`].
    pub degraded: bool,
    /// Directed links currently quarantined for persistent probe failure.
    pub quarantined: Vec<(usize, usize)>,
}

/// A bounded ring of per-campaign [`HealthReport`]s, oldest first.
///
/// The advisor records one report per *successful model install* on every
/// calibration path; a failed install records nothing. When the ring holds
/// 32 reports the oldest is evicted.
#[derive(Debug, Clone, Default)]
pub struct CampaignHistory {
    reports: Vec<HealthReport>,
}

impl CampaignHistory {
    fn push(&mut self, report: HealthReport) {
        if self.reports.len() == HISTORY_CAPACITY {
            self.reports.remove(0);
        }
        self.reports.push(report);
    }

    /// Reports currently retained.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// True before the first campaign concludes.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// The retained reports, oldest first.
    pub fn reports(&self) -> &[HealthReport] {
        &self.reports
    }
}

/// The advisor's current model of the network.
#[derive(Debug, Clone)]
pub struct ModelState {
    /// The constant estimate in force (`N_D`'s row, as a matrix).
    pub estimate: ConstantEstimate,
    /// When the model was (re)built.
    pub calibrated_at: f64,
    /// Time the calibration probes occupied the network.
    pub calibration_overhead: f64,
    /// The TP-matrix the model was built from.
    pub tp: TpMatrix,
}

/// Outcome of a maintenance check (Algorithm 1 lines 6–9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceDecision {
    /// Observed performance is within the threshold — keep using `N_D`.
    Keep,
    /// Significant change detected — re-calibrate and re-run RPCA.
    Recalibrate,
}

/// The paper's Algorithm 1 as a stateful object.
///
/// ```text
/// 1  calibrate the TP-matrix N_A on virtual cluster C
/// 2  run RPCA → N_D, N_E
/// 3  use N_D to guide a network performance aware optimization
/// 4  measure the operation's real performance t
/// 5  let t′ be the expected performance (α-β model on N_D)
/// 6  if |t − t′|/t′ ≥ threshold: goto 1     (update maintenance)
/// 8  else: goto 3                            (keep the same N_D)
/// ```
#[derive(Debug)]
pub struct Advisor {
    cfg: AdvisorConfig,
    model: Option<ModelState>,
    calibrations: usize,
    /// Aggregate probe counters of the campaign that built the model in
    /// force.
    probe_stats: ProbeLog,
    /// Consecutive fully-failed snapshots per directed link (`N²`,
    /// row-major), feeding the quarantine list.
    fail_streaks: Vec<u32>,
    /// Directed links currently quarantined, sorted.
    quarantined: Vec<(usize, usize)>,
    /// Health reports of past campaigns.
    history: CampaignHistory,
}

impl Advisor {
    /// New advisor with the given configuration; no model yet.
    pub fn new(cfg: AdvisorConfig) -> Self {
        Advisor {
            cfg,
            model: None,
            calibrations: 0,
            probe_stats: ProbeLog::new(0),
            fail_streaks: Vec::new(),
            quarantined: Vec::new(),
            history: CampaignHistory::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &AdvisorConfig {
        &self.cfg
    }

    /// Mutable access to the configuration (tuning between calibrations).
    pub fn config_mut(&mut self) -> &mut AdvisorConfig {
        &mut self.cfg
    }

    /// The calibrator for the configured protocol.
    fn calibrator(&self) -> Calibrator {
        Calibrator {
            config: self.cfg.calibration.clone(),
        }
    }

    /// Lines 1–2: calibrate a fresh TP-matrix through `probe` with the
    /// configured retry/backoff, impute-and-mask unobserved cells, then
    /// adopt the run (see [`Advisor::adopt_faulty_run`]). A probe that
    /// never fails yields a fully observed TP-matrix — the same bits
    /// [`Calibrator::calibrate_tp`] measures through a `&mut` reference.
    pub fn calibrate_par<P: FallibleNetworkProbe + Sync>(
        &mut self,
        probe: &P,
        now: f64,
    ) -> Result<&ModelState> {
        let run = self.calibrator().calibrate_tp_faulty_par(
            probe,
            now,
            self.cfg.snapshot_interval,
            self.cfg.time_step,
            &self.cfg.retry,
            self.cfg.impute,
        );
        self.adopt_faulty_run(run, now)
    }

    /// Adopt a calibration run — the advisor's own
    /// [`Advisor::calibrate_par`], or one produced *outside* the advisor's
    /// probe loop, e.g. the sharded coordinator's merged `ShardedRun.run`
    /// (`cloudconst-coord`), which is bit-identical to the internal run on
    /// the same probe. Updates link-failure streaks and the quarantine
    /// list from the run's per-snapshot logs, then rebuilds the model
    /// under the configured [`DegradedPolicy`]. When the rebuild fails the
    /// previous model stays in force together with the probe counters of
    /// the campaign that built it.
    pub fn adopt_faulty_run(&mut self, run: FaultyTpRun, now: f64) -> Result<&ModelState> {
        self.update_link_health(&run.logs);
        let stats = run.aggregate_log();
        let FaultyTpRun { tp, overhead, .. } = run;
        self.install_model(tp, overhead, stats, now)
    }

    /// Walk the campaign's snapshots in time order, extending or resetting
    /// each link's consecutive-failure streak and maintaining the
    /// quarantine list.
    fn update_link_health(&mut self, logs: &[ProbeLog]) {
        let Some(first) = logs.first() else { return };
        let n = first.n();
        if self.fail_streaks.len() != n * n {
            self.fail_streaks = vec![0; n * n];
            self.quarantined.clear();
        }
        for log in logs {
            for i in 0..n {
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let k = i * n + j;
                    match log.outcome(i, j) {
                        ProbeOutcome::Failed(_) => {
                            self.fail_streaks[k] += 1;
                            if self.fail_streaks[k] >= QUARANTINE_AFTER
                                && !self.quarantined.contains(&(i, j))
                            {
                                self.quarantined.push((i, j));
                            }
                        }
                        ProbeOutcome::Ok(_) => {
                            self.fail_streaks[k] = 0;
                            self.quarantined.retain(|&l| l != (i, j));
                        }
                        ProbeOutcome::Unprobed => {}
                    }
                }
            }
        }
        self.quarantined.sort_unstable();
    }

    fn install_model(
        &mut self,
        tp: TpMatrix,
        overhead: f64,
        stats: ProbeLog,
        now: f64,
    ) -> Result<&ModelState> {
        let est = estimate_with_opts(&tp, self.cfg.estimator, self.cfg.degraded, &self.cfg.rpca)?;
        self.calibrations += 1;
        self.probe_stats = stats;
        self.model = Some(ModelState {
            estimate: est,
            calibrated_at: now,
            calibration_overhead: overhead,
            tp,
        });
        // Every successful install concludes a campaign; its health report
        // joins the bounded history.
        let report = self
            .health(now)
            .expect("a model is in force after a successful install");
        self.history.push(report);
        Ok(self.model.as_ref().unwrap())
    }

    /// A truthful summary of model provenance and probe health at time
    /// `now`. Errors with [`CoreError::NotCalibrated`] before the first
    /// model is installed.
    pub fn health(&self, now: f64) -> Result<HealthReport> {
        let model = self.model.as_ref().ok_or(CoreError::NotCalibrated)?;
        let s = &self.probe_stats;
        Ok(HealthReport {
            probe_success_rate: s.success_rate(),
            attempts: s.attempts,
            retries: s.retries,
            timeouts: s.timeouts,
            losses: s.losses,
            masked_fraction: model.tp.masked_fraction(),
            model_age: now - model.calibrated_at,
            degraded: model.estimate.degraded,
            quarantined: self.quarantined.clone(),
        })
    }

    /// The bounded ring of past campaigns' health reports, oldest first.
    pub fn campaign_history(&self) -> &CampaignHistory {
        &self.history
    }

    /// Directed links currently quarantined for persistent probe failure.
    pub fn quarantined(&self) -> &[(usize, usize)] {
        &self.quarantined
    }

    /// Is the directed link `(i, j)` quarantined?
    pub fn is_quarantined(&self, i: usize, j: usize) -> bool {
        self.quarantined.binary_search(&(i, j)).is_ok()
    }

    /// Line 6 for an observation attributable to one link: a quarantined
    /// link is *expected* to misbehave, so it never triggers
    /// re-calibration — Algorithm 1 would otherwise loop forever
    /// recalibrating a cluster whose fault is local and persistent.
    pub fn check_link(
        &self,
        i: usize,
        j: usize,
        expected: f64,
        observed: f64,
    ) -> MaintenanceDecision {
        if self.is_quarantined(i, j) {
            return MaintenanceDecision::Keep;
        }
        self.check(expected, observed)
    }

    /// The model, if calibrated.
    pub fn model(&self) -> Option<&ModelState> {
        self.model.as_ref()
    }

    /// The constant performance matrix guiding optimizations (line 3).
    pub fn constant(&self) -> Result<&PerfMatrix> {
        self.model
            .as_ref()
            .map(|m| &m.estimate.perf)
            .ok_or(CoreError::NotCalibrated)
    }

    /// `Norm(N_E)` of the current model.
    pub fn norm_ne(&self) -> Result<f64> {
        self.model
            .as_ref()
            .map(|m| m.estimate.norm_ne)
            .ok_or(CoreError::NotCalibrated)
    }

    /// Expected transfer time under the constant component (the `t′` of
    /// line 5, for a single transfer).
    pub fn expected_transfer(&self, i: usize, j: usize, bytes: u64) -> Result<f64> {
        Ok(self.constant()?.transfer_time(i, j, bytes))
    }

    /// Line 6: compare observed vs expected operation time.
    pub fn check(&self, expected: f64, observed: f64) -> MaintenanceDecision {
        let ratio = (observed - expected).abs() / expected;
        // A non-positive expectation or a non-finite ratio (NaN or infinite
        // inputs) gives no basis for comparison — be conservative and
        // re-calibrate.
        if expected <= 0.0 || !ratio.is_finite() || ratio >= self.cfg.threshold {
            MaintenanceDecision::Recalibrate
        } else {
            MaintenanceDecision::Keep
        }
    }

    /// Lines 4–9 in one call: check, and re-calibrate on demand. Returns
    /// the decision that was acted on.
    pub fn observe<P: FallibleNetworkProbe + Sync>(
        &mut self,
        probe: &P,
        now: f64,
        expected: f64,
        observed: f64,
    ) -> Result<MaintenanceDecision> {
        let d = self.check(expected, observed);
        if d == MaintenanceDecision::Recalibrate {
            self.calibrate_par(probe, now)?;
        }
        Ok(d)
    }

    /// How many times the advisor has calibrated (1 + maintenance events).
    pub fn calibrations(&self) -> usize {
        self.calibrations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudconst_cloud::{CloudConfig, FaultPlan, FaultyCloud, FlakyLink, SyntheticCloud};
    use cloudconst_netmodel::{NetworkProbe, BETA_PROBE_BYTES};
    use cloudconst_rpca::RpcaError;

    fn quick_cfg() -> AdvisorConfig {
        AdvisorConfig {
            time_step: 5,
            snapshot_interval: 30.0,
            ..Default::default()
        }
    }

    #[test]
    fn calibrate_then_guide() {
        let cloud = SyntheticCloud::new(CloudConfig::calm(8, 3));
        let mut advisor = Advisor::new(quick_cfg());
        assert!(matches!(advisor.constant(), Err(CoreError::NotCalibrated)));
        advisor.calibrate_par(&cloud, 0.0).unwrap();
        let truth = cloud.ground_truth(0);
        let est = advisor.constant().unwrap();
        for i in 0..8 {
            for j in 0..8 {
                if i == j {
                    continue;
                }
                let a = est.transfer_time(i, j, BETA_PROBE_BYTES);
                let b = truth.transfer_time(i, j, BETA_PROBE_BYTES);
                assert!((a - b).abs() / b < 0.05, "({i},{j}): {a} vs {b}");
            }
        }
        assert_eq!(advisor.calibrations(), 1);
    }

    #[test]
    fn calibrate_par_builds_the_model_of_the_mutable_reference_path() {
        let cloud = SyntheticCloud::new(CloudConfig::ec2_like(12, 6));
        let cfg = quick_cfg();
        let (tp, overhead) = Calibrator::new().calibrate_tp(
            &mut cloud.clone(),
            0.0,
            cfg.snapshot_interval,
            cfg.time_step,
        );
        let serial = estimate_with_opts(&tp, cfg.estimator, cfg.degraded, &cfg.rpca).unwrap();
        let mut par = Advisor::new(cfg);
        par.calibrate_par(&cloud, 0.0).unwrap();
        let mp = par.model().unwrap();
        assert_eq!(overhead.to_bits(), mp.calibration_overhead.to_bits());
        assert_eq!(serial.norm_ne.to_bits(), mp.estimate.norm_ne.to_bits());
        assert_eq!(
            serial.norm_ne_l1.to_bits(),
            mp.estimate.norm_ne_l1.to_bits()
        );
        for i in 0..12 {
            for j in 0..12 {
                let a = serial.perf.link(i, j);
                let b = mp.estimate.perf.link(i, j);
                assert_eq!(a.alpha.to_bits(), b.alpha.to_bits(), "alpha ({i},{j})");
                assert_eq!(a.beta.to_bits(), b.beta.to_bits(), "beta ({i},{j})");
            }
        }
    }

    #[test]
    fn calm_cloud_norm_ne_near_zero() {
        let cloud = SyntheticCloud::new(CloudConfig::calm(6, 4));
        let mut advisor = Advisor::new(quick_cfg());
        advisor.calibrate_par(&cloud, 0.0).unwrap();
        assert!(advisor.norm_ne().unwrap() < 0.05);
    }

    #[test]
    fn noisy_cloud_norm_ne_larger_than_calm() {
        let calm = SyntheticCloud::new(CloudConfig::calm(6, 4));
        let mut noisy_cfg = CloudConfig::small_test(6, 4);
        noisy_cfg.volatility_sigma = 0.3;
        noisy_cfg.spike_prob = 0.3;
        let noisy = SyntheticCloud::new(noisy_cfg);
        let mut a1 = Advisor::new(quick_cfg());
        let mut a2 = Advisor::new(quick_cfg());
        a1.calibrate_par(&calm, 0.0).unwrap();
        a2.calibrate_par(&noisy, 0.0).unwrap();
        assert!(
            a2.model().unwrap().estimate.norm_ne_l1 > a1.model().unwrap().estimate.norm_ne_l1,
            "noisy {} <= calm {}",
            a2.model().unwrap().estimate.norm_ne_l1,
            a1.model().unwrap().estimate.norm_ne_l1
        );
    }

    #[test]
    fn maintenance_decision_thresholding() {
        let advisor = Advisor::new(AdvisorConfig::default()); // threshold 100%
        assert_eq!(advisor.check(1.0, 1.5), MaintenanceDecision::Keep);
        assert_eq!(advisor.check(1.0, 2.0), MaintenanceDecision::Recalibrate);
        assert_eq!(advisor.check(1.0, 0.05), MaintenanceDecision::Keep); // 95% < 100%
        assert_eq!(advisor.check(0.0, 1.0), MaintenanceDecision::Recalibrate);
    }

    #[test]
    fn non_finite_comparison_recalibrates() {
        let advisor = Advisor::new(AdvisorConfig::default());
        for (expected, observed) in [
            (1.0, f64::NAN),
            (f64::NAN, 1.0),
            (f64::INFINITY, 1.0),
            (f64::INFINITY, f64::INFINITY),
            (1.0, f64::INFINITY),
        ] {
            assert_eq!(
                advisor.check(expected, observed),
                MaintenanceDecision::Recalibrate,
                "check({expected}, {observed})"
            );
            assert_eq!(
                advisor.check_link(0, 1, expected, observed),
                MaintenanceDecision::Recalibrate
            );
        }
    }

    #[test]
    fn observe_recalibrates_on_big_change() {
        let cloud = SyntheticCloud::new(CloudConfig::calm(6, 8));
        let mut advisor = Advisor::new(quick_cfg());
        advisor.calibrate_par(&cloud, 0.0).unwrap();
        let d = advisor.observe(&cloud, 500.0, 1.0, 5.0).unwrap();
        assert_eq!(d, MaintenanceDecision::Recalibrate);
        assert_eq!(advisor.calibrations(), 2);
        assert_eq!(advisor.model().unwrap().calibrated_at, 500.0);
        let d = advisor.observe(&cloud, 600.0, 1.0, 1.1).unwrap();
        assert_eq!(d, MaintenanceDecision::Keep);
        assert_eq!(advisor.calibrations(), 2);
    }

    #[test]
    fn expected_transfer_uses_constant() {
        let cloud = SyntheticCloud::new(CloudConfig::calm(4, 1));
        let mut advisor = Advisor::new(quick_cfg());
        advisor.calibrate_par(&cloud, 0.0).unwrap();
        let t = advisor.expected_transfer(0, 1, BETA_PROBE_BYTES).unwrap();
        let truth = cloud.ground_truth(0).transfer_time(0, 1, BETA_PROBE_BYTES);
        assert!((t - truth).abs() / truth < 0.05);
    }

    #[test]
    fn clean_calibration_reports_real_probe_counters() {
        let (n, cfg) = (12, quick_cfg());
        let steps = cfg.time_step as u64;
        let cloud = SyntheticCloud::new(CloudConfig::ec2_like(n, 6));
        let mut advisor = Advisor::new(cfg);
        advisor.calibrate_par(&cloud, 0.0).unwrap();
        let h = advisor.health(100.0).unwrap();
        // Two first-try probes (α and β) per directed link per snapshot.
        let probes = 2 * (n * (n - 1)) as u64 * steps;
        assert_eq!(h.attempts, probes);
        assert_eq!(h.probe_success_rate, 1.0, "successes = attempts");
        assert_eq!(h.retries + h.timeouts + h.losses, 0);
        assert_eq!(h.masked_fraction, 0.0);
        assert_eq!(h.model_age, 100.0);
        assert!(!h.degraded);
        assert!(h.quarantined.is_empty());
    }

    #[test]
    fn faulty_calibration_reports_truthful_health() {
        let cloud = SyntheticCloud::new(CloudConfig::small_test(10, 21));
        let faulty = FaultyCloud::new(cloud, FaultPlan::uniform(7, 0.10));
        let mut advisor = Advisor::new(AdvisorConfig {
            degraded: DegradedPolicy::AcceptNearTolerance(0.05),
            ..quick_cfg()
        });
        advisor.calibrate_par(&faulty, 0.0).unwrap();
        let h = advisor.health(50.0).unwrap();
        assert!(h.probe_success_rate < 1.0, "faults must show in the rate");
        assert!(h.probe_success_rate > 0.5, "10% faults with retries");
        assert!(h.retries > 0, "retries must be counted");
        assert!(h.timeouts + h.losses > 0);
        assert!(
            h.attempts > 2 * 10 * 9 * 5,
            "retries must inflate attempts past the fault-free floor"
        );
        assert!((0.0..0.5).contains(&h.masked_fraction));
    }

    #[test]
    fn failed_recalibration_keeps_the_previous_model_and_its_health() {
        let cloud = SyntheticCloud::new(CloudConfig::small_test(12, 5));
        let mut advisor = Advisor::new(quick_cfg());
        advisor.calibrate_par(&cloud, 0.0).unwrap();
        let before = advisor.model().unwrap().estimate.perf.clone();
        let h0 = advisor.health(1000.0).unwrap();

        // A starved solver on a lossy campaign cannot converge: under the
        // default `Fail` the call errors and nothing about the model in
        // force changes — its bits, its age, its probe counters.
        advisor.config_mut().rpca.max_iters = 2;
        let lossy = FaultyCloud::new(cloud, FaultPlan::uniform(7, 0.2));
        let r = advisor.calibrate_par(&lossy, 1000.0);
        assert!(
            matches!(r, Err(CoreError::Rpca(RpcaError::NoConvergence { .. }))),
            "expected NoConvergence, got {r:?}"
        );
        let m = advisor.model().unwrap();
        assert_eq!(m.calibrated_at, 0.0, "old model must stay in force");
        for i in 0..12 {
            for j in 0..12 {
                let (a, b) = (m.estimate.perf.link(i, j), before.link(i, j));
                assert_eq!(a.alpha.to_bits(), b.alpha.to_bits(), "alpha ({i},{j})");
                assert_eq!(a.beta.to_bits(), b.beta.to_bits(), "beta ({i},{j})");
            }
        }
        let h = advisor.health(1000.0).unwrap();
        assert_eq!(
            h.probe_success_rate, 1.0,
            "the failed campaign's rate leaked"
        );
        assert_eq!(h.attempts, h0.attempts);
        assert_eq!(h.retries + h.timeouts + h.losses, 0);
        assert_eq!(h.masked_fraction, 0.0);
        assert_eq!(h.model_age, 1000.0);
        assert!(!h.degraded);
        assert_eq!(advisor.calibrations(), 1);
        assert_eq!(
            advisor.campaign_history().len(),
            1,
            "a failed install records nothing"
        );
    }

    #[test]
    fn persistently_failing_link_is_quarantined_not_recalibrated() {
        let cloud = SyntheticCloud::new(CloudConfig::small_test(8, 9));
        let plan = FaultPlan {
            flaky_links: vec![FlakyLink {
                i: 0,
                j: 1,
                loss_prob: 1.0,
            }],
            ..FaultPlan::none(4)
        };
        let faulty = FaultyCloud::new(cloud.clone(), plan);
        let mut advisor = Advisor::new(quick_cfg()); // time_step 5 ≥ QUARANTINE_AFTER 3
        advisor.calibrate_par(&faulty, 0.0).unwrap();
        assert_eq!(advisor.quarantined(), &[(0, 1)]);
        assert!(advisor.is_quarantined(0, 1));
        assert!(!advisor.is_quarantined(1, 0));
        let h = advisor.health(0.0).unwrap();
        assert_eq!(h.quarantined, vec![(0, 1)]);

        // The quarantined link's wild observation does NOT demand
        // re-calibration; a healthy link's does.
        assert_eq!(
            advisor.check_link(0, 1, 1.0, 100.0),
            MaintenanceDecision::Keep
        );
        assert_eq!(
            advisor.check_link(2, 3, 1.0, 100.0),
            MaintenanceDecision::Recalibrate
        );

        // Once the link heals, the next campaign lifts the quarantine: a
        // clean calibration observes every link.
        advisor.calibrate_par(&cloud, 10_000.0).unwrap();
        assert!(advisor.quarantined().is_empty());
    }

    #[test]
    fn adopt_faulty_run_matches_internal_calibration() {
        let cloud = SyntheticCloud::new(CloudConfig::small_test(10, 13));
        let faulty = FaultyCloud::new(cloud, FaultPlan::uniform(3, 0.05));
        let mut internal = Advisor::new(quick_cfg());
        internal.calibrate_par(&faulty, 0.0).unwrap();

        // Reproduce the identical run externally and adopt it: same model,
        // same health, same quarantine state.
        let mut external = Advisor::new(quick_cfg());
        let cfg = external.config();
        let run = Calibrator {
            config: cfg.calibration.clone(),
        }
        .calibrate_tp_faulty_par(
            &faulty,
            0.0,
            cfg.snapshot_interval,
            cfg.time_step,
            &cfg.retry.clone(),
            cfg.impute,
        );
        external.adopt_faulty_run(run, 0.0).unwrap();

        let (mi, me) = (internal.model().unwrap(), external.model().unwrap());
        for i in 0..10 {
            for j in 0..10 {
                let a = mi.estimate.perf.link(i, j);
                let b = me.estimate.perf.link(i, j);
                assert_eq!(a.alpha.to_bits(), b.alpha.to_bits(), "alpha ({i},{j})");
                assert_eq!(a.beta.to_bits(), b.beta.to_bits(), "beta ({i},{j})");
            }
        }
        let (hi, he) = (
            internal.health(100.0).unwrap(),
            external.health(100.0).unwrap(),
        );
        assert_eq!(hi.attempts, he.attempts);
        assert_eq!(hi.retries, he.retries);
        assert_eq!(hi.quarantined, he.quarantined);
        assert_eq!(external.campaign_history().len(), 1);
    }

    #[test]
    fn campaign_history_records_every_install() {
        let cloud = SyntheticCloud::new(CloudConfig::calm(6, 2));
        let mut advisor = Advisor::new(quick_cfg());
        assert!(advisor.campaign_history().is_empty());

        for k in 0..3u32 {
            advisor
                .calibrate_par(&cloud, f64::from(k) * 1000.0)
                .unwrap();
        }
        let h = advisor.campaign_history();
        assert_eq!(h.len(), 3);
        assert_eq!(advisor.calibrations(), 3);
        // Freshly-installed models report age 0 at install time; every
        // campaign on this path is healthy.
        for r in h.reports() {
            assert_eq!(r.model_age, 0.0);
            assert_eq!(r.probe_success_rate, 1.0);
            assert_eq!(r.masked_fraction, 0.0);
            assert!(!r.degraded);
        }
    }

    /// A synthetic healthy-shape report with a chosen success rate, for
    /// driving the history ring without running campaigns.
    fn rate_report(rate: f64) -> HealthReport {
        HealthReport {
            probe_success_rate: rate,
            attempts: 10,
            retries: 0,
            timeouts: 0,
            losses: 0,
            masked_fraction: 0.0,
            model_age: 0.0,
            degraded: false,
            quarantined: Vec::new(),
        }
    }

    #[test]
    fn history_evicts_exactly_at_capacity() {
        // Filling to exactly the capacity evicts nothing; the next push
        // evicts exactly the oldest.
        let mut h = CampaignHistory::default();
        for k in 0..HISTORY_CAPACITY {
            h.push(rate_report(k as f64));
        }
        assert_eq!(
            h.len(),
            HISTORY_CAPACITY,
            "at capacity, nothing evicted yet"
        );
        assert_eq!(h.reports()[0].probe_success_rate, 0.0);
        h.push(rate_report(-1.0));
        assert_eq!(h.len(), HISTORY_CAPACITY, "one in, one out");
        assert_eq!(
            h.reports()[0].probe_success_rate,
            1.0,
            "the oldest report must be the one evicted"
        );
        assert_eq!(h.reports().last().unwrap().probe_success_rate, -1.0);
    }

    #[test]
    fn campaign_history_records_a_lossy_campaign() {
        let cloud = SyntheticCloud::new(CloudConfig::small_test(10, 21));
        let faulty = FaultyCloud::new(cloud, FaultPlan::uniform(7, 0.10));
        let mut advisor = Advisor::new(AdvisorConfig {
            degraded: DegradedPolicy::AcceptNearTolerance(0.05),
            ..quick_cfg()
        });
        advisor.calibrate_par(&faulty, 0.0).unwrap();
        let reports = advisor.campaign_history().reports();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert!(r.probe_success_rate < 1.0);
        assert!(r.retries > 0);
        assert!(r.timeouts + r.losses > 0);
        assert_eq!(
            r.probe_success_rate,
            advisor.health(0.0).unwrap().probe_success_rate
        );
    }

    #[test]
    fn regime_shift_detected_through_observation() {
        // Cloud with a migration at t = 10 000 that changes many links.
        let mut cfg = CloudConfig::calm(10, 5);
        cfg.shift_times = vec![10_000.0];
        cfg.migrate_frac = 0.9;
        let mut cloud = SyntheticCloud::new(cfg);
        let mut advisor = Advisor::new(quick_cfg());
        advisor.calibrate_par(&cloud, 0.0).unwrap();

        // Find a link whose constant changed a lot across the shift.
        let before = cloud.ground_truth(0).clone();
        let after = cloud.ground_truth(1).clone();
        let (mut bi, mut bj, mut brel) = (0, 1, 0.0);
        for i in 0..10 {
            for j in 0..10 {
                if i == j {
                    continue;
                }
                let tb = before.transfer_time(i, j, BETA_PROBE_BYTES);
                let ta = after.transfer_time(i, j, BETA_PROBE_BYTES);
                let rel = (ta - tb).abs() / tb;
                if rel > brel {
                    (bi, bj, brel) = (i, j, rel);
                }
            }
        }
        assert!(brel > 1.0, "fixture too tame: max relative change {brel}");

        let expected = advisor.expected_transfer(bi, bj, BETA_PROBE_BYTES).unwrap();
        let observed = cloud.probe(bi, bj, BETA_PROBE_BYTES, 20_000.0);
        let d = advisor
            .observe(&cloud, 20_000.0, expected, observed)
            .unwrap();
        assert_eq!(d, MaintenanceDecision::Recalibrate);
    }
}
