//! Perf-regression runner: times the RPCA / simulator / calibration hot
//! paths and writes `BENCH_<date>.json` at the repository root.
//!
//! ```text
//! regress [--quick] [--out DIR]
//!     --quick   drop the N = 196 sweep point (seconds instead of minutes)
//!     --out     directory for the report (default: the workspace root)
//! ```
//!
//! Run it under `RAYON_NUM_THREADS=1` for the serial figure of every
//! record; the report's `threads` field says which pool size it timed.

use cloudconst_bench::regress::{civil_date, run_suite, SIZES};
use std::path::PathBuf;
use std::time::{SystemTime, UNIX_EPOCH};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_pos = args.iter().position(|a| a == "--out");
    if out_pos.is_some_and(|i| args.get(i + 1).is_none_or(|v| v.starts_with("--"))) {
        eprintln!("error: --out requires a directory argument");
        std::process::exit(2);
    }
    for (i, a) in args.iter().enumerate() {
        let is_out_value = out_pos.is_some_and(|p| i == p + 1);
        if !is_out_value && a != "--quick" && a != "--out" {
            eprintln!("error: unknown argument `{a}` (expected --quick / --out DIR)");
            std::process::exit(2);
        }
    }
    let out_dir = out_pos
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        // The bench crate lives at <root>/crates/bench.
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."));

    let sizes: Vec<usize> = if quick {
        SIZES.iter().copied().filter(|&n| n < 128).collect()
    } else {
        SIZES.to_vec()
    };

    eprintln!("running suite at N = {sizes:?}...");
    let date = civil_date(
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .expect("clock before 1970")
            .as_secs(),
    );
    let report = run_suite(&sizes, date);

    for r in &report.records {
        if r.metric != 0.0 {
            eprintln!(
                "  {:28} n={:3}  {:>11.6}s  metric={:.2}",
                r.name, r.n, r.seconds, r.metric
            );
        } else {
            eprintln!("  {:28} n={:3}  {:>11.6}s", r.name, r.n, r.seconds);
        }
    }

    let path = out_dir.join(report.file_name());
    if let Err(e) = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&path, report.to_json() + "\n"))
    {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());
}
