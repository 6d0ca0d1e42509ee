//! Metric declarations, the arithmetic behind them, and the result line.
//!
//! [`DECLS`] is the single list of metrics the benchmark emits. It mirrors
//! `BENCHMARK.json` (a test keeps the two in step) and adds, for each
//! per-layer metric, the end-to-end metric it should move and where.

use serde::Value;
use std::collections::BTreeMap;

/// Which run prints a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Printed with tracing off; gated by its bound.
    EndToEnd,
    /// Printed with tracing on; never gated.
    PerLayer,
}

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// For a per-layer metric: the end-to-end metric it should move, on
    /// which workload. For an end-to-end metric: what it measures.
    pub meaning: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    meaning: &'static str,
) -> Decl {
    Decl {
        name,
        unit,
        better,
        kind: Kind::EndToEnd,
        meaning,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    meaning: &'static str,
) -> Decl {
    Decl {
        name,
        unit,
        better,
        kind: Kind::PerLayer,
        meaning,
    }
}

use Better::{Higher, Lower};

const RPCA: &str = "model_s_p50 and ops_per_s on online_advisor; model_s_p50 on tcp_fleet; nothing on sim_datacenter";
const PROC: &str = "ops_per_s on online_advisor";
const FAULTS: &str = "model_s_p50 and constant_err on tcp_fleet";
const CORE: &str =
    "probe_overhead_s, ops_per_s and bench.bcast_gain on online_advisor; constant_err on tcp_fleet";
const SMALL: &str = "ops_per_s on online_advisor (small share)";
const SIMNET: &str = "ops_per_s on sim_datacenter";
const COORD: &str = "model_s_p50 and ops_per_s on tcp_fleet";

/// Every metric the benchmark emits, end-to-end first.
pub const DECLS: &[Decl] = &[
    e2e("setup_s", "s", Lower, "median wall seconds of one set-up: cloud or simulator build, background warm-up, reference computation"),
    e2e("ops_per_s", "1/s", Higher, "operations completed per busy wall second"),
    e2e("model_s_p50", "s", Lower, "median wall seconds from calibration start to N_D installed"),
    e2e("probe_overhead_s", "sim_s/op", Lower, "simulated network seconds of calibration probes per operation"),
    e2e("constant_err", "frac", Lower, "mean relative error of N_D's 8 MB transfer time against the reference constant"),
    e2e("peak_rss_mb", "MB", Lower, "peak resident set of the workload process"),
    layer("rpca.apg_s", "s", Lower, RPCA),
    layer("rpca.apg_iters", "iters/solve", Lower, RPCA),
    layer("rpca.solves", "count", Lower, RPCA),
    layer("rpca.norm_ne", "frac", Lower, "diagnostic: mean Norm(N_E) of the installed models"),
    layer("proc.cpu_user_s", "s/op", Lower, PROC),
    layer("proc.cpu_sys_s", "s/op", Lower, PROC),
    layer("proc.minor_faults", "1/op", Lower, PROC),
    layer("proc.vol_ctx_switches", "1/op", Lower, PROC),
    layer("proc.invol_ctx_switches", "1/op", Lower, PROC),
    layer("netmodel.calibrate_s", "s", Lower, "model_s_p50 on online_advisor; setup_s and model_s_p50 on sim_datacenter"),
    layer("netmodel.probes", "count", Lower, "model_s_p50 on online_advisor; setup_s on sim_datacenter"),
    layer("netmodel.attempts", "count", Lower, FAULTS),
    layer("netmodel.retries", "count", Lower, FAULTS),
    layer("netmodel.timeouts", "count", Lower, FAULTS),
    layer("netmodel.losses", "count", Lower, FAULTS),
    layer("netmodel.success_rate", "frac", Higher, FAULTS),
    layer("netmodel.masked_frac", "frac", Lower, FAULTS),
    layer("core.model_s", "s", Lower, CORE),
    layer("core.checks", "count", Higher, CORE),
    layer("core.recalibrations", "count", Lower, CORE),
    layer("core.recal_ratio", "frac", Lower, CORE),
    layer("core.degraded", "count", Lower, CORE),
    layer("core.quarantined", "count", Lower, CORE),
    layer("cloud.actual_s", "s", Lower, SMALL),
    layer("apps.collective_s", "s", Lower, SMALL),
    layer("topomap.greedy_s", "s", Lower, "ops_per_s on online_advisor (small share) and sim_datacenter"),
    layer("topomap.evaluate_s", "s", Lower, SMALL),
    layer("simnet.warmup_s", "s", Lower, "setup_s on sim_datacenter"),
    layer("simnet.calibrate_s", "s", Lower, "setup_s and model_s_p50 on sim_datacenter"),
    layer("simnet.run_dag_s", "s", Lower, SIMNET),
    layer("simnet.mapping_s", "s", Lower, SIMNET),
    layer("simnet.flows", "count", Higher, SIMNET),
    layer("simnet.flows_per_s", "1/s", Higher, SIMNET),
    layer("collectives.tree_s", "s", Lower, SIMNET),
    layer("collectives.schedule_s", "s", Lower, SIMNET),
    layer("coord.spawn_s", "s", Lower, COORD),
    layer("coord.connect_s", "s", Lower, COORD),
    layer("coord.campaign_s", "s", Lower, COORD),
    layer("coord.loopback_s", "s", Lower, "base of coord.socket_share and coord.loopback_ratio on tcp_fleet"),
    layer("coord.unsharded_s", "s", Lower, "base of coord.loopback_ratio on tcp_fleet"),
    layer("coord.socket_share", "frac", Lower, COORD),
    layer("coord.loopback_ratio", "frac", Higher, COORD),
    layer("coord.frames", "count", Lower, COORD),
    layer("coord.bytes", "bytes", Lower, COORD),
    layer("coord.frames_lost", "count", Lower, COORD),
    layer("coord.redispatches", "count", Lower, COORD),
    layer("coord.failovers", "count", Lower, COORD),
    layer("coord.frames_per_s", "1/s", Higher, COORD),
    layer("bench.bcast_gain", "frac", Higher, "1 - mean(RPCA)/mean(Baseline) broadcast time over the quality prefix (deterministic per seed)"),
    layer("bench.mapping_gain", "frac", Higher, "1 - mean(RPCA)/mean(Baseline) mapped-traffic time over the quality prefix (deterministic per seed)"),
    layer("bench.ops", "count", Higher, "base of every per-op and total per-layer figure"),
    layer("bench.error_rate", "frac", Lower, "failed / attempted operations (every workload)"),
    layer("bench.trace_overhead", "frac", Lower, "extra wall time of a traced run: replay seconds / the measured loop's other seconds (spans' own cost not included)"),
];

/// The declaration of `name`, if any.
pub fn decl(name: &str) -> Option<&'static Decl> {
    DECLS.iter().find(|d| d.name == name)
}

/// Nearest-rank quantile, the repository's own definition.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    cloudconst_bench::quantile(xs, q)
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The p90, when at least ten samples lie above its nearest-rank position.
pub fn p90(xs: &[f64]) -> Option<f64> {
    let n = xs.len();
    (n > 0 && n - 1 - (0.9 * (n - 1) as f64).round() as usize >= 10).then(|| quantile(xs, 0.9))
}

/// `1 − mean(guided)/mean(baseline)`: the share of the baseline's time a
/// guided approach saves. Zero when either side is empty.
pub fn gain(guided: &[f64], baseline: &[f64]) -> f64 {
    let b = cloudconst_bench::mean(baseline);
    if guided.is_empty() || b == 0.0 {
        return 0.0;
    }
    1.0 - cloudconst_bench::mean(guided) / b
}

/// `num / den`, zero when the base is zero (nothing happened).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Failed over attempted operations.
pub fn error_rate(attempted: u64, failed: u64) -> f64 {
    ratio(failed as f64, attempted as f64)
}

/// What one workload run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every metric measured, end-to-end and per-layer.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines for the summary on standard error.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record one operation's verdict; `problem` is why it failed.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            // Keep the first few reasons; the count is in `failed`.
            if self.failed <= 5 {
                self.notes
                    .push(format!("failed op {}: {p}", self.attempted));
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(decl(name).is_some(), "undeclared metric {name}");
        self.values.insert(name, value);
    }
}

/// The parsed last line of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in emission order.
    pub metrics: Vec<(String, f64, String)>,
}

impl ResultLine {
    /// The result a run prints: every declared metric of the requested
    /// kind, with its unit. Errors name a declared metric the run did not
    /// measure or measured as a non-finite number.
    pub fn from_outcome(out: &Outcome, trace: bool) -> Result<Self, String> {
        let kind = if trace {
            Kind::PerLayer
        } else {
            Kind::EndToEnd
        };
        let mut metrics = Vec::new();
        for d in DECLS.iter().filter(|d| d.kind == kind) {
            let v = *out
                .values
                .get(d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite: {v}", d.name));
            }
            metrics.push((d.name.to_string(), v, d.unit.to_string()));
        }
        Ok(ResultLine {
            correct: out.failed == 0 && out.attempted > 0,
            attempted: out.attempted,
            failed: out.failed,
            metrics,
        })
    }

    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(*value)),
                        ("unit".into(), Value::Str(unit.clone())),
                    ]),
                )
            })
            .collect();
        let v = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&v).expect("a Value always serializes")
    }

    pub fn parse(line: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(line.trim()).map_err(|e| e.to_string())?;
        let uint = |name: &str| match v.field(name) {
            Ok(Value::UInt(u)) => Ok(*u),
            _ => Err(format!("`{name}` is not a whole number")),
        };
        let correct = match v.field("correct") {
            Ok(Value::Bool(b)) => *b,
            _ => return Err("`correct` is not a bool".into()),
        };
        let mut metrics = Vec::new();
        match v.field("metrics") {
            Ok(Value::Object(entries)) => {
                for (name, m) in entries {
                    let value = match m.field("value") {
                        Ok(Value::Float(f)) => *f,
                        Ok(Value::UInt(u)) => *u as f64,
                        Ok(Value::Int(i)) => *i as f64,
                        _ => return Err(format!("metric {name} has no numeric value")),
                    };
                    let unit = m
                        .field("unit")
                        .and_then(Value::as_str)
                        .map_err(|e| e.to_string())?;
                    metrics.push((name.clone(), value, unit.to_string()));
                }
            }
            _ => return Err("`metrics` is not an object".into()),
        }
        Ok(ResultLine {
            correct,
            attempted: uint("attempted")?,
            failed: uint("failed")?,
            metrics,
        })
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}
