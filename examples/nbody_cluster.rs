//! Distributed N-body on a guided virtual cluster (paper Fig. 9(b)/(c)).
//!
//! Real O(n²) gravity with leapfrog integration; the per-step all-to-all
//! (gather + broadcast, as in the paper and MPICH2) is timed against the
//! cloud's instantaneous network, with trees guided by either nothing
//! (Baseline) or the RPCA constant component.
//!
//! ```sh
//! cargo run --release --example nbody_cluster [bodies] [steps]
//! ```

use cloudconst::apps::{nbody, CommEnv, NBodyConfig};
use cloudconst::cloud::{CloudConfig, SyntheticCloud};
use cloudconst::core::{Advisor, AdvisorConfig};
use cloudconst::netmodel::PerfMatrix;

fn main() {
    let mut args = std::env::args().skip(1);
    let bodies: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(512);
    let steps: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(100);
    let n = 24;

    let cloud = SyntheticCloud::new(CloudConfig::ec2_like(n, 99));
    let mut advisor = Advisor::new(AdvisorConfig::default());
    advisor.calibrate_par(&cloud, 0.0).expect("calibration");
    let guide = advisor.constant().expect("model").clone();

    let t = 7200.0;
    let actual = PerfMatrix::from_fn(n, |i, j| cloud.instantaneous(i, j, t));

    let mut cfg = NBodyConfig::small(n);
    cfg.bodies = bodies;
    cfg.steps = steps;
    cfg.dt = 1e-5; // close encounters among hundreds of bodies need a fine step

    println!("N-body: {bodies} bodies, {steps} steps, {n} processes\n");
    for (label, env) in [
        ("Baseline", CommEnv::baseline(&actual)),
        ("RPCA", CommEnv::guided(&actual, &guide)),
    ] {
        let rep = nbody::run(&cfg, &env);
        println!(
            "{label:<9} compute {:>8.2}s  comm {:>8.2}s  total {:>8.2}s  (energy drift {:.2e})",
            rep.breakdown.compute,
            rep.breakdown.comm,
            rep.breakdown.total(),
            rep.energy_drift
        );
    }
}
