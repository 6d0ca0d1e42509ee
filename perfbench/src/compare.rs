//! Compare two saved runs of the benchmark.
//!
//! A saved run is the standard output of one invocation: the environment
//! line and, last, the result line. Results are comparable only at the
//! same cluster size (fixed per workload) and the same thread count, so a
//! comparison across workloads, modes, processor counts or rayon thread
//! counts is refused.

use crate::env::RunEnv;
use crate::metrics::ResultLine;

/// One saved run.
#[derive(Debug, Clone)]
pub struct Saved {
    pub env: RunEnv,
    pub result: ResultLine,
}

impl Saved {
    pub fn parse(text: &str) -> Result<Self, String> {
        let env_line = text
            .lines()
            .find(|l| l.contains("\"perfbench_env\""))
            .ok_or("no environment line")?;
        let last = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or("no result line")?;
        Ok(Saved {
            env: RunEnv::parse(env_line)?,
            result: ResultLine::parse(last)?,
        })
    }
}

/// `(name, old, new, unit)` for every metric both runs report, or why
/// the runs may not be compared.
pub fn compare(old: &Saved, new: &Saved) -> Result<Vec<(String, f64, f64, String)>, String> {
    let (a, b) = (&old.env, &new.env);
    if a.workload != b.workload {
        return Err(format!(
            "different workloads: {} vs {}",
            a.workload, b.workload
        ));
    }
    if a.trace != b.trace {
        return Err("one run is traced and the other is not".into());
    }
    if a.rayon_threads != b.rayon_threads {
        return Err(format!(
            "different rayon thread counts: {} vs {}",
            a.rayon_threads, b.rayon_threads
        ));
    }
    if a.nproc != b.nproc {
        return Err(format!(
            "different processor counts: {} vs {}",
            a.nproc, b.nproc
        ));
    }
    Ok(old
        .result
        .metrics
        .iter()
        .filter_map(|(name, v, unit)| {
            new.result
                .value(name)
                .map(|w| (name.clone(), *v, w, unit.clone()))
        })
        .collect())
}

/// A table of the rows with each metric's relative change.
pub fn render(rows: &[(String, f64, f64, String)]) -> String {
    let mut s = format!(
        "{:<28} {:>14} {:>14} {:>9}  unit\n",
        "metric", "old", "new", "change"
    );
    for (name, old, new, unit) in rows {
        let change = if *old == 0.0 {
            "-".to_string()
        } else {
            format!("{:+.1}%", (new - old) / old.abs() * 100.0)
        };
        s += &format!("{name:<28} {old:>14.6} {new:>14.6} {change:>9}  {unit}\n");
    }
    s
}
