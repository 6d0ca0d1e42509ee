//! `tcp_fleet`: a calibration service. Back-to-back campaigns of a 32-VM
//! fault-injected cloud, each sharded over TCP on 127.0.0.1 (the loopback
//! interface, not a physical link) and adopted by an advisor.
//!
//! One operation is one campaign: spawn a fresh `TcpWorkerServer` with
//! K = 2 shards (workers serve one campaign each), connect, run
//! `Coordinator::calibrate_tp`, and adopt the merged run into the
//! `Advisor`. Outside the timed region the merged TP-matrix is checked
//! bit-identical to the unsharded `Calibrator::calibrate_tp_faulty_par`.

use crate::layers::Layers;
use crate::metrics::{self, Outcome};
use crate::procstat::ProcSnapshot;
use crate::{constant_err, same_tp, timed, Figures, RunConfig};
use cloudconst_cloud::{CloudConfig, FaultPlan, FaultyCloud, SyntheticCloud};
use cloudconst_coord::{
    AuthKey, Coordinator, CoordinatorConfig, LoopbackTransport, ShardedRun, TcpConfig,
    TcpTransport, TcpWorkerServer,
};
use cloudconst_core::{Advisor, AdvisorConfig};
use cloudconst_netmodel::{Calibrator, FaultyTpRun, ImputePolicy};
use cloudconst_rpca::apg;
use std::time::Instant;

/// Cluster size.
pub const N: usize = 32;
/// Worker shards (K), one connection each: within a 2-core budget.
pub const SHARDS: usize = 2;
/// Snapshots per campaign.
pub const STEPS: usize = 10;
/// Seconds between snapshots (the paper's 30-minute spacing).
pub const INTERVAL: f64 = 1800.0;
/// Back-to-back campaigns per cloud: 8 × 10 × 1800 s stays inside the
/// first regime. The next cloud has seed `seed + 1000·j`.
pub const FLEET_CAMPAIGNS: usize = 8;
/// Per-snapshot-window probability that a rack blacks out (at most one
/// at a time): about 15% of the TP-matrix cells end up masked.
pub const BLACKOUT_PROB: f64 = 0.1;
/// Uniform per-attempt fault rate.
pub const FAULT_RATE: f64 = 0.05;
/// Operations whose quality figures are reported: a fixed prefix, so the
/// figures are a pure function of the seed.
pub const QUALITY_OPS: usize = 8 * FLEET_CAMPAIGNS;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;

/// What one campaign measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpRecord {
    pub model_s: f64,
    pub campaign_s: f64,
    pub successes: u64,
    pub attempts: u64,
    pub overhead: f64,
    pub err: f64,
    /// Share of the adopted TP-matrix's cells that were imputed.
    pub masked: f64,
}

/// The service: its cloud, fault plan, coordinator and advisor.
pub struct Fleet {
    faulty: FaultyCloud,
    coordinator: Coordinator,
    advisor: Advisor,
    key: AuthKey,
    k: usize,
}

impl Fleet {
    /// Set-up: the cloud, its rack-correlated fault plan, the service.
    pub fn new(seed: u64) -> Self {
        let cloud = SyntheticCloud::new(CloudConfig::ec2_like(N, seed));
        let mut plan =
            FaultPlan::uniform(seed ^ 0xF1EE7, FAULT_RATE).with_rack_domains(cloud.placement(0));
        plan.domain_blackout_prob = BLACKOUT_PROB;
        plan.domain_window = INTERVAL;
        plan.max_concurrent_domain_events = 1;
        let coordinator = Coordinator::new(CoordinatorConfig {
            impute: ImputePolicy::ModelPrediction,
            ..CoordinatorConfig::new(SHARDS)
        });
        let advisor = Advisor::new(AdvisorConfig {
            time_step: STEPS,
            snapshot_interval: INTERVAL,
            impute: ImputePolicy::ModelPrediction,
            ..AdvisorConfig::default()
        });
        Fleet {
            faulty: FaultyCloud::new(cloud, plan),
            coordinator,
            advisor,
            key: AuthKey::from_seed(seed),
            k: 0,
        }
    }

    /// Start time of campaign `k`.
    pub fn start_of(k: usize) -> f64 {
        k as f64 * STEPS as f64 * INTERVAL
    }

    /// The unsharded reference: what the merged run must equal.
    pub fn reference(&self, t: f64) -> FaultyTpRun {
        let c = &self.coordinator.config;
        Calibrator {
            config: c.calibration.clone(),
        }
        .calibrate_tp_faulty_par(&self.faulty, t, INTERVAL, STEPS, &c.retry, c.impute)
    }

    /// One campaign over TCP, adopted by the advisor.
    pub fn step(&mut self, layers: &mut Layers) -> Result<OpRecord, String> {
        let t = Self::start_of(self.k);
        self.k += 1;
        let t0 = Instant::now();
        let mut server = layers
            .span("coord.spawn_s", || {
                TcpWorkerServer::spawn(self.faulty.clone(), SHARDS, self.key)
            })
            .map_err(|e| format!("spawn workers: {e}"))?;
        let (ShardedRun { run, report }, campaign_s) = {
            let mut transport = layers
                .span("coord.connect_s", || {
                    TcpTransport::connect(&server.shard_addrs(SHARDS), TcpConfig::new(self.key))
                })
                .map_err(|e| format!("connect: {e}"))?;
            let (res, s) = timed(|| {
                self.coordinator
                    .calibrate_tp(&mut transport, t, INTERVAL, STEPS)
            });
            layers.add("coord.campaign_s", s);
            (res.map_err(|e| format!("campaign at t={t}: {e}"))?, s)
        };
        let (res, adopt_s) = timed(|| self.advisor.adopt_faulty_run(run, t).map(|_| ()));
        res.map_err(|e| format!("adopt at t={t}: {e}"))?;
        let model_s = t0.elapsed().as_secs_f64();
        layers.add("core.model_s", adopt_s);
        server.shutdown();

        let model = self.advisor.model().expect("adopted above");
        let masked = model.tp.masked_fraction();
        layers.add("netmodel.attempts", report.probe_attempts as f64);
        layers.add("netmodel.retries", report.probe_retries as f64);
        layers.add("netmodel.timeouts", report.probe_timeouts as f64);
        layers.add("netmodel.losses", report.probe_losses as f64);
        layers.add(
            "coord.frames",
            (report.wire.frames_sent + report.wire.frames_delivered) as f64,
        );
        layers.add(
            "coord.bytes",
            (report.wire.bytes_sent + report.wire.bytes_delivered) as f64,
        );
        layers.add("coord.frames_lost", report.wire.frames_lost as f64);
        layers.add("coord.redispatches", report.redispatches as f64);
        layers.add("coord.failovers", report.failovers as f64);
        if layers.on() && self.advisor.health(t).is_ok_and(|h| h.degraded) {
            layers.add("core.degraded", 1.0);
        }

        let err = constant_err(
            &model.estimate.perf,
            self.faulty
                .inner()
                .ground_truth(self.faulty.inner().epoch_of(t)),
        );
        let max_err = if masked > 0.10 { 0.30 } else { 0.10 };
        if err > max_err {
            return Err(format!(
                "constant error {err:.4} > {max_err} at {masked:.3} masked"
            ));
        }
        Ok(OpRecord {
            model_s,
            campaign_s,
            successes: report.probe_successes,
            attempts: report.probe_attempts,
            overhead: report.overhead,
            err,
            masked,
        })
    }

    /// Check the adopted run of campaign `k` against the unsharded
    /// calibrator. When tracing, replay the campaign on the loopback
    /// transport and the model's two APG solves on the same inputs.
    pub fn check(&self, k: usize, layers: &mut Layers) -> Result<(), String> {
        let t = Self::start_of(k);
        let model = self.advisor.model().ok_or("no model adopted")?;
        let want = layers.aside(|l| l.span("coord.unsharded_s", || self.reference(t)));
        if !same_tp(&model.tp, &want.tp)
            || model.calibration_overhead.to_bits() != want.overhead.to_bits()
        {
            return Err(format!(
                "campaign at t={t} differs from the unsharded calibrator"
            ));
        }
        if !layers.on() {
            return Ok(());
        }
        layers.replay(|l| {
            let mut lt = LoopbackTransport::new(self.faulty.clone(), SHARDS);
            let looped = l
                .span("coord.loopback_s", || {
                    self.coordinator.calibrate_tp(&mut lt, t, INTERVAL, STEPS)
                })
                .map_err(|e| format!("loopback campaign: {e}"))?;
            if !same_tp(&looped.run.tp, &want.tp) {
                return Err("loopback campaign differs from the unsharded calibrator".to_string());
            }
            let cfg = self.advisor.config();
            let ra = l.span("rpca.apg_s", || apg(want.tp.alpha_matrix(), &cfg.rpca));
            let rb = l.span("rpca.apg_s", || apg(want.tp.inv_beta_matrix(), &cfg.rpca));
            let (ra, rb) = (
                ra.map_err(|e| e.to_string())?,
                rb.map_err(|e| e.to_string())?,
            );
            if ra.iters + rb.iters != model.estimate.solver_iters {
                return Err("replayed RPCA differs from the adopted model".to_string());
            }
            l.add("rpca.apg_iters", (ra.iters + rb.iters) as f64);
            l.add("rpca.solves", 2.0);
            l.add("rpca.norm_ne", model.estimate.norm_ne);
            Ok(())
        })
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Layers::new(cfg.trace);
    let mut f = Figures::default();
    for _ in 0..SETUP_REPS {
        let (fleet, s) = timed(|| Fleet::new(cfg.seed));
        std::hint::black_box(&fleet);
        f.setups.push(s);
    }

    let mut campaigns = Vec::new();
    let (mut successes, mut attempts, mut masked, mut quarantined) = (0u64, 0u64, 0.0, 0usize);
    let mut j = 0u64;
    let p0 = ProcSnapshot::now();
    let t0 = Instant::now();
    let mut fleet: Option<Fleet> = None;
    while f.ops < QUALITY_OPS || t0.elapsed().as_secs_f64() < cfg.seconds {
        if fleet.as_ref().is_none_or(|fl| fl.k >= FLEET_CAMPAIGNS) {
            quarantined += fleet
                .as_ref()
                .map_or(0, |fl| fl.advisor.quarantined().len());
            let (fl, s) = timed(|| Fleet::new(cfg.seed.wrapping_add(j.wrapping_mul(1000))));
            f.setups.push(s);
            fleet = Some(fl);
            j += 1;
        }
        let fleet = fleet.as_mut().expect("a fleet is set up");
        let k = fleet.k;
        let (res, s) = timed(|| fleet.step(&mut layers));
        f.busy += s;
        let res = res.and_then(|rec| fleet.check(k, &mut layers).map(|()| rec));
        match res {
            Ok(rec) => {
                if f.ops < QUALITY_OPS {
                    f.prefix_overhead += rec.overhead;
                    f.errs.push(rec.err);
                }
                f.models.push(rec.model_s);
                campaigns.push(rec.campaign_s);
                successes += rec.successes;
                attempts += rec.attempts;
                masked += rec.masked;
                out.op(None);
            }
            Err(e) => out.op(Some(e)),
        }
        f.ops += 1;
    }
    let loop_s = t0.elapsed().as_secs_f64();
    let proc = ProcSnapshot::now().since(&p0);
    f.report(&mut out, QUALITY_OPS);

    layers.set(
        "netmodel.success_rate",
        metrics::ratio(successes as f64, attempts as f64),
    );
    layers.set(
        "netmodel.masked_frac",
        metrics::ratio(masked, f.models.len() as f64),
    );
    quarantined += fleet.map_or(0, |fl| fl.advisor.quarantined().len());
    layers.set("core.quarantined", quarantined as f64);
    let (tcp, looped) = (
        layers.get("coord.campaign_s"),
        layers.get("coord.loopback_s"),
    );
    layers.set("coord.socket_share", metrics::ratio(tcp - looped, tcp));
    layers.set(
        "coord.loopback_ratio",
        metrics::ratio(layers.get("coord.unsharded_s"), looped),
    );
    layers.set(
        "coord.frames_per_s",
        metrics::ratio(layers.get("coord.frames"), tcp),
    );
    layers.finish(&mut out, f.ops as u64, loop_s, proc);

    out.notes.push(format!(
        "{j} cloud(s) of {FLEET_CAMPAIGNS} campaigns over TCP on 127.0.0.1 (loopback interface, no physical link), K = {SHARDS}"
    ));
    if !campaigns.is_empty() {
        let mut line = format!(
            "campaign_s p50 = {:.4} s over {} campaigns",
            metrics::median(&campaigns),
            campaigns.len()
        );
        if let Some(v) = metrics::p90(&campaigns) {
            line += &format!(", p90 = {v:.4} s");
        }
        out.notes.push(line);
    }
    out
}
