//! The cloudconst benchmark: three closed-loop workloads that drive the
//! paper's pipeline from one process and report end-to-end metrics (with
//! tracing off) or per-layer metrics (with tracing on).
//!
//! * [`online_advisor`] — Algorithm 1 on the synthetic EC2-like cloud (the
//!   Fig. 7 protocol): calibrate, RPCA, guide broadcast/scatter/mapping,
//!   check, recalibrate.
//! * [`sim_datacenter`] — the Fig. 13 protocol on the flow-level simulator.
//! * [`tcp_fleet`] — back-to-back sharded calibration campaigns over TCP on
//!   the loopback interface, each adopted by an advisor.
//!
//! Every workload is a closed loop with one client: the next operation
//! starts when the previous one has finished. Each takes its seed and
//! hands the system only the inputs generated from it. Per-layer numbers
//! come from spans the benchmark records around its own calls into each
//! crate's public functions; calls that cover two layers are replayed on
//! the same inputs, checked bit-identical, and timed part by part.

pub mod compare;
pub mod env;
pub mod layers;
pub mod metrics;
pub mod online_advisor;
pub mod probe;
pub mod procstat;
pub mod sim_datacenter;
pub mod tcp_fleet;

use crate::metrics::Outcome;
use cloudconst_netmodel::{PerfMatrix, TpMatrix, BETA_PROBE_BYTES};
use cloudconst_topomap::Mapping;
use std::time::Instant;

/// What one benchmark invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Minimum measured wall seconds.
    pub seconds: f64,
    /// Record per-layer spans (and replay two-layer calls).
    pub trace: bool,
}

/// One operation's use of the guides: the Baseline and RPCA times of its
/// broadcasts and of its mapped traffic on the actual network.
#[derive(Debug, Clone, Copy, Default)]
pub struct GuideUse {
    pub bcast_baseline: f64,
    pub bcast_rpca: f64,
    pub map_baseline: f64,
    pub map_rpca: f64,
}

/// What a workload's measured loop produced, for the end-to-end metrics.
/// The quality figures cover a fixed prefix of operations, so they are a
/// pure function of the seed.
#[derive(Debug, Default)]
pub struct Figures {
    /// Wall seconds of each set-up.
    pub setups: Vec<f64>,
    /// Wall seconds of each model build (calibration start → N_D installed).
    pub models: Vec<f64>,
    pub ops: usize,
    /// Wall seconds of the operations, replays excluded.
    pub busy: f64,
    /// Simulated probe seconds of the calibrations serving the prefix.
    pub prefix_overhead: f64,
    /// Constant error of each guide serving the prefix.
    pub errs: Vec<f64>,
    /// The prefix's guide uses.
    pub uses: Vec<GuideUse>,
}

impl Figures {
    /// Set the end-to-end metrics and the gains; `quality_ops` is the
    /// length of the prefix.
    pub fn report(&self, out: &mut Outcome, quality_ops: usize) {
        let col = |f: fn(&GuideUse) -> f64| self.uses.iter().map(f).collect::<Vec<f64>>();
        let median = |xs: &[f64]| {
            if xs.is_empty() {
                0.0
            } else {
                metrics::median(xs)
            }
        };
        out.set("setup_s", median(&self.setups));
        out.set("ops_per_s", metrics::ratio(self.ops as f64, self.busy));
        out.set("model_s_p50", median(&self.models));
        out.set(
            "probe_overhead_s",
            self.prefix_overhead / quality_ops as f64,
        );
        out.set("constant_err", cloudconst_bench::mean(&self.errs));
        out.set("peak_rss_mb", procstat::peak_rss_mb());
        out.set(
            "bench.bcast_gain",
            metrics::gain(&col(|u| u.bcast_rpca), &col(|u| u.bcast_baseline)),
        );
        out.set(
            "bench.mapping_gain",
            metrics::gain(&col(|u| u.map_rpca), &col(|u| u.map_baseline)),
        );
        let mut line = format!(
            "{} operations, {} model builds, {} set-ups",
            self.ops,
            self.models.len(),
            self.setups.len()
        );
        if let Some(v) = metrics::p90(&self.models) {
            line += &format!("; model_s p90 = {v:.4} s");
        }
        out.notes.push(line);
        if !self.uses.is_empty() {
            out.notes.push(format!(
                "bcast_gain = {:.4}, mapping_gain = {:.4} over the {} prefix operations",
                out.values["bench.bcast_gain"],
                out.values["bench.mapping_gain"],
                self.uses.len()
            ));
        }
    }
}

/// Wall seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Do two float slices hold the same bits?
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Are two TP-matrices bit-identical (times, α, 1/β and mask)?
pub fn same_tp(a: &TpMatrix, b: &TpMatrix) -> bool {
    a.n() == b.n()
        && same_bits(a.times(), b.times())
        && same_bits(a.alpha_matrix().as_slice(), b.alpha_matrix().as_slice())
        && same_bits(
            a.inv_beta_matrix().as_slice(),
            b.inv_beta_matrix().as_slice(),
        )
        && same_bits(a.mask_matrix().as_slice(), b.mask_matrix().as_slice())
}

/// Does `m` place every task on a distinct machine of its cluster?
pub fn is_bijection(m: &Mapping) -> bool {
    let mut seen = vec![false; m.n()];
    m.as_slice()
        .iter()
        .all(|&x| x < seen.len() && !std::mem::replace(&mut seen[x], true))
}

/// Mean relative error of `est`'s 8 MB transfer time against `truth`
/// over every directed link.
pub fn constant_err(est: &PerfMatrix, truth: &PerfMatrix) -> f64 {
    let n = truth.n();
    let mut total = 0.0;
    for i in 0..n {
        for j in (0..n).filter(|&j| j != i) {
            let a = est.transfer_time(i, j, BETA_PROBE_BYTES);
            let b = truth.transfer_time(i, j, BETA_PROBE_BYTES);
            total += (a - b).abs() / b;
        }
    }
    total / (n * (n - 1)) as f64
}
