//! MPI broadcast/scatter on a synthetic EC2, paper §V-D style.
//!
//! Runs a small campaign comparing Baseline (MPICH binomial), Heuristics
//! (column-mean of the calibration), and RPCA (constant component) on a
//! virtual cluster — the experiment behind Fig. 7 — and prints the
//! normalized means plus a broadcast CDF.
//!
//! ```sh
//! cargo run --release --example mpi_broadcast_ec2 [n_instances] [runs]
//! ```

use cloudconst_bench::campaign::{run_campaign, Campaign};
use cloudconst_bench::{cdf_points, Approach};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(48);
    let runs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(40);

    println!("campaign: {n} instances, {runs} runs, 8MB messages\n");
    let mut c = Campaign::paper_like(n, 7);
    c.runs = runs;
    let r = run_campaign(&c);

    println!(
        "Norm(N_E) = {:.3}  (calibrations: {})\n",
        r.norm_ne, r.calibrations
    );
    println!(
        "{:<12} {:>14} {:>14} {:>14}",
        "approach", "bcast", "scatter", "topomap"
    );
    let base = (
        r.bcast.mean_of(Approach::Baseline),
        r.scatter.mean_of(Approach::Baseline),
        r.topomap.mean_of(Approach::Baseline),
    );
    for a in [Approach::Baseline, Approach::Heuristics, Approach::Rpca] {
        println!(
            "{:<12} {:>13.1}% {:>13.1}% {:>13.1}%",
            a.label(),
            100.0 * r.bcast.mean_of(a) / base.0,
            100.0 * r.scatter.mean_of(a) / base.1,
            100.0 * r.topomap.mean_of(a) / base.2,
        );
    }

    println!("\nbroadcast CDF (seconds):");
    println!(
        "{:>9} {:>10} {:>11} {:>8}",
        "quantile", "Baseline", "Heuristics", "RPCA"
    );
    let q = 5;
    let cdfs: Vec<Vec<(f64, f64)>> = [Approach::Baseline, Approach::Heuristics, Approach::Rpca]
        .iter()
        .map(|&a| cdf_points(r.bcast.get(a), q))
        .collect();
    for ((b, h), r) in cdfs[0].iter().zip(&cdfs[1]).zip(&cdfs[2]) {
        println!("{:>9.2} {:>10.3} {:>11.3} {:>8.3}", b.1, b.0, h.0, r.0);
    }
}
