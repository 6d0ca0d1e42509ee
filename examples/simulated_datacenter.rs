//! Collectives on the flow-level datacenter simulator (paper §V-E).
//!
//! Builds the paper's tree topology (scaled down by default), installs
//! Poisson background traffic, calibrates through the contended network,
//! and races Baseline / Topology-aware / Heuristics / RPCA broadcast
//! trees as real flows that share links with the background.
//!
//! ```sh
//! cargo run --release --example simulated_datacenter [runs]
//! ```

use cloudconst::netmodel::MB;
use cloudconst_bench::sim_experiments::{sim_comparison, SimSetup};
use cloudconst_bench::Approach;

fn main() {
    let runs: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(6);

    let mut setup = SimSetup::quick(17);
    setup.racks = 16;
    setup.hosts_per_rack = 16;
    setup.cluster_size = 32;
    setup.bg_pairs = 48;
    setup.bg_bytes = 100 * MB;
    setup.bg_lambda = 5.0;

    println!(
        "simulated datacenter: {} hosts, cluster {}, background {} pairs x {}MB / lambda {}s, {} runs\n",
        setup.racks * setup.hosts_per_rack,
        setup.cluster_size,
        setup.bg_pairs,
        setup.bg_bytes / MB,
        setup.bg_lambda,
        runs
    );

    let r = sim_comparison(&setup, runs, 8 * MB);
    println!(
        "Norm(N_E) measured on the simulator: {:.3}\n",
        r.calibration.norm_ne
    );
    let base = r.bcast.mean_of(Approach::Baseline);
    println!(
        "{:<16} {:>12} {:>12}",
        "approach", "bcast (s)", "normalized"
    );
    for a in [
        Approach::Baseline,
        Approach::TopoAware,
        Approach::Heuristics,
        Approach::Rpca,
    ] {
        let m = r.bcast.mean_of(a);
        println!("{:<16} {:>12.4} {:>11.1}%", a.label(), m, 100.0 * m / base);
    }
}
