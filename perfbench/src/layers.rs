//! Per-layer spans and counters, recorded by the benchmark around its own
//! calls into each crate. Off by default: then a span is just the call.

use crate::metrics::{self, Kind, Outcome, DECLS};
use crate::procstat::ProcSnapshot;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Default)]
pub struct Layers {
    on: bool,
    values: BTreeMap<&'static str, f64>,
    /// Wall seconds spent in replays, which untraced runs do not make.
    replay_s: f64,
    /// Process counters consumed by replays and checks.
    replay_proc: ProcSnapshot,
}

impl Layers {
    pub fn new(on: bool) -> Self {
        Layers {
            on,
            ..Layers::default()
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f`, adding its wall seconds to `name` when tracing.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.add(name, t0.elapsed().as_secs_f64());
        out
    }

    /// Add `v` to the counter or time `name` when tracing.
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.on {
            debug_assert!(metrics::decl(name).is_some(), "undeclared metric {name}");
            *self.values.entry(name).or_insert(0.0) += v;
        }
    }

    /// Set `name` outright (ratios and diagnostics) when tracing.
    pub fn set(&mut self, name: &'static str, v: f64) {
        if self.on {
            self.values.insert(name, v);
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Wall seconds spent in replays so far.
    pub fn replay_seconds(&self) -> f64 {
        self.replay_s
    }

    /// Run a replay: extra work only a traced run does, whose wall time
    /// and process counters are kept out of the operation figures.
    pub fn replay<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let t0 = Instant::now();
        let out = self.aside(f);
        self.replay_s += t0.elapsed().as_secs_f64();
        out
    }

    /// Run work outside the operations (output checks), keeping its
    /// process counters out of the per-operation figures when tracing.
    pub fn aside<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let p0 = ProcSnapshot::now();
        let out = f(self);
        self.replay_proc.add(&ProcSnapshot::now().since(&p0));
        out
    }

    /// Copy the per-layer figures into `out`. `loop_s` is the wall time of
    /// the measured loop and `proc` its counter growth, replays included
    /// in both (they are taken out here). A layer the workload never
    /// calls reads 0.
    pub fn finish(&self, out: &mut Outcome, ops: u64, loop_s: f64, proc: ProcSnapshot) {
        if !self.on {
            return;
        }
        let per_op = |v: f64| metrics::ratio(v, ops as f64);
        let p = proc.since(&self.replay_proc);
        out.set("proc.cpu_user_s", per_op(p.cpu_user_s.max(0.0)));
        out.set("proc.cpu_sys_s", per_op(p.cpu_sys_s.max(0.0)));
        out.set("proc.minor_faults", per_op(p.minor_faults.max(0.0)));
        out.set("proc.vol_ctx_switches", per_op(p.vol_ctx_switches.max(0.0)));
        out.set(
            "proc.invol_ctx_switches",
            per_op(p.invol_ctx_switches.max(0.0)),
        );
        out.set("bench.ops", ops as f64);
        out.set(
            "bench.error_rate",
            metrics::error_rate(out.attempted, out.failed),
        );
        // The loop less its replays is what an untraced run does.
        out.set(
            "bench.trace_overhead",
            metrics::ratio(self.replay_s, loop_s - self.replay_s),
        );
        for (&name, &v) in &self.values {
            out.set(name, v);
        }
        // Totals become the per-solve and per-model figures declared.
        let solves = self.get("rpca.solves");
        out.set(
            "rpca.apg_iters",
            metrics::ratio(self.get("rpca.apg_iters"), solves),
        );
        out.set(
            "rpca.norm_ne",
            metrics::ratio(self.get("rpca.norm_ne"), solves / 2.0),
        );
        out.set(
            "core.recal_ratio",
            metrics::ratio(self.get("core.recalibrations"), self.get("core.checks")),
        );
        for d in DECLS.iter().filter(|d| d.kind == Kind::PerLayer) {
            out.values.entry(d.name).or_insert(0.0);
        }
    }
}
