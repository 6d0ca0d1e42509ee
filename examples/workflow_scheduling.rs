//! Scientific-workflow scheduling — the paper's stated future work.
//!
//! Generates a layered (Montage-style) task DAG, schedules it with a
//! network-aware balanced-EFT scheduler guided by the RPCA constant
//! component, and compares against a network-oblivious round-robin
//! placement, executing both against the cloud's instantaneous network.
//!
//! ```sh
//! cargo run --release --example workflow_scheduling [width] [depth]
//! ```

use cloudconst::apps::{balanced_eft_schedule, execute_workflow, round_robin_schedule, Workflow};
use cloudconst::cloud::{CloudConfig, SyntheticCloud};
use cloudconst::core::{Advisor, AdvisorConfig};
use cloudconst::netmodel::{PerfMatrix, MB};

fn main() {
    let mut args = std::env::args().skip(1);
    let width: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(24);
    let depth: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let n = width; // one machine per pipeline lane

    let cloud = SyntheticCloud::new(CloudConfig::ec2_like(n, 2718));
    let mut advisor = Advisor::new(AdvisorConfig::default());
    advisor.calibrate_par(&cloud, 0.0).expect("calibration");
    let guide = advisor.constant().expect("model").clone();
    let actual = PerfMatrix::from_fn(n, |i, j| cloud.instantaneous(i, j, 30_000.0));

    let wf = Workflow::layered(width, depth, 3, 16 * MB, 64 * MB, 0.1, 42);
    println!(
        "workflow: {} tasks in {depth} layers of {width}, data-heavy edges (16-64 MB)\n",
        wf.len()
    );

    let flops = 1e9;
    let rr = execute_workflow(&wf, &round_robin_schedule(&wf, n), &actual, flops);
    let eft = execute_workflow(
        &wf,
        &balanced_eft_schedule(&wf, &guide, flops),
        &actual,
        flops,
    );

    println!(
        "{:<24} {:>10} {:>14} {:>12}",
        "scheduler", "makespan", "network bytes", "comm total"
    );
    for (name, r) in [
        ("round-robin (oblivious)", &rr),
        ("balanced EFT + RPCA", &eft),
    ] {
        println!(
            "{name:<24} {:>9.2}s {:>13}M {:>11.1}s",
            r.makespan,
            r.network_bytes / (1 << 20),
            r.comm_time_total
        );
    }
    println!(
        "\nmakespan improvement: {:.1}%",
        (1.0 - eft.makespan / rr.makespan) * 100.0
    );
}
