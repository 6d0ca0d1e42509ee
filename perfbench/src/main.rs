//! The benchmark binary.
//!
//! ```text
//! perfbench --workload <online_advisor|sim_datacenter|tcp_fleet>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <old-output> <new-output>
//! perfbench metrics
//! ```
//!
//! A run prints its environment as one JSON line, then, as the last line,
//! the result: `correct`, `attempted`, `failed` and the end-to-end metrics
//! (`--trace 0`) or per-layer metrics (`--trace 1`). A summary with units
//! goes to standard error. `metrics` lists every metric with its unit,
//! direction and, for a per-layer metric, the end-to-end metric it should
//! move and where.

use perfbench::compare::{compare, render, Saved};
use perfbench::env::{self, RunEnv};
use perfbench::metrics::{self, Kind, ResultLine, DECLS};
use perfbench::{online_advisor, sim_datacenter, tcp_fleet, RunConfig};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <online_advisor|sim_datacenter|tcp_fleet> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench compare <old-output> <new-output>\n       perfbench metrics";

fn main() -> ExitCode {
    env::pin_threads();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => return run_compare(&args[1..]),
        Some("metrics") => {
            for d in DECLS {
                let kind = match d.kind {
                    Kind::EndToEnd => "end-to-end",
                    Kind::PerLayer => "per-layer",
                };
                println!(
                    "{:<26} {:<11} {:<12} {:<7} {}",
                    d.name,
                    kind,
                    d.unit,
                    d.better.as_str(),
                    d.meaning
                );
            }
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let (workload, cfg) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&RunConfig) -> metrics::Outcome = match workload.as_str() {
        "online_advisor" => online_advisor::run,
        "sim_datacenter" => sim_datacenter::run,
        "tcp_fleet" => tcp_fleet::run,
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let env = RunEnv::capture(&workload, cfg.seed, cfg.seconds, cfg.trace);
    let outcome = run(&cfg);
    let line = match ResultLine::from_outcome(&outcome, cfg.trace) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!(
        "{workload} seed={} seconds={} trace={} nproc={} rayon_threads={} rustc=\"{}\" commit={} network={}",
        env.seed, env.seconds, env.trace, env.nproc, env.rayon_threads, env.rustc, env.git_commit, env.network
    );
    for (name, value, unit) in &line.metrics {
        eprintln!("  {name:<26} {value:>14.6} {unit}");
    }
    eprintln!(
        "  {:<26} {:>14.6} frac ({} of {} operations failed)",
        "error_rate",
        metrics::error_rate(line.attempted, line.failed),
        line.failed,
        line.attempted
    );
    for note in &outcome.notes {
        eprintln!("  {note}");
    }
    println!("{}", env.to_json());
    println!("{}", line.to_json());
    ExitCode::SUCCESS
}

fn parse(args: &[String]) -> Result<(String, RunConfig), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    ))
}

fn run_compare(paths: &[String]) -> ExitCode {
    let [old, new] = paths else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let load = |p: &str| -> Result<Saved, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Saved::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    match load(old)
        .and_then(|o| Ok((o, load(new)?)))
        .and_then(|(o, n)| compare(&o, &n))
    {
        Ok(rows) => {
            print!("{}", render(&rows));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("refusing to compare: {e}");
            ExitCode::from(3)
        }
    }
}
