//! Perf-regression runner: times the RPCA / simulator / calibration hot
//! paths and writes `BENCH_<date>.json` at the repository root.
//!
//! ```text
//! regress [--quick] [--out DIR]
//!     --quick   drop the N = 196 sweep point (seconds instead of minutes)
//!     --out     directory for the report (default: the workspace root)
//! ```
//!
//! Invoked with `--serial-rpca-probe` the binary only measures the
//! paper-scale `10 × 4096` RPCA solve and prints the seconds — the parent
//! process launches that mode under `RAYON_NUM_THREADS=1` to obtain the
//! serial leg of the parallel-vs-serial comparison without contaminating
//! its own (already initialized) thread pool.

use cloudconst_bench::regress::{civil_date, rpca_hot_seconds, run_suite, SIZES};
use std::path::PathBuf;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--serial-rpca-probe") {
        println!("{}", rpca_hot_seconds());
        return;
    }
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

    eprintln!("measuring serial 10x4096 RPCA (RAYON_NUM_THREADS=1 subprocess)...");
    let serial = serial_rpca_via_subprocess();
    if serial.is_none() {
        eprintln!("  subprocess probe failed; report will omit the serial leg");
    }

    eprintln!("running suite at N = {sizes:?}...");
    let date = civil_date(
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .expect("clock before 1970")
            .as_secs(),
    );
    let report = run_suite(&sizes, serial, date);

    if report.threads <= 1 {
        eprintln!(
            "  note: the rayon pool has a single thread on this machine; \
             the parallel/serial comparison reflects process warm-up, not \
             parallelism"
        );
    }
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

fn serial_rpca_via_subprocess() -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .arg("--serial-rpca-probe")
        .env("RAYON_NUM_THREADS", "1")
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()?.trim().parse().ok()
}
