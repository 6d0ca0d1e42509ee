//! Monitoring cloud network dynamics with Norm(N_E) (paper §IV-A).
//!
//! Walks a virtual cluster through a multi-day period containing a VM
//! migration event, running Algorithm 1's maintenance loop: the advisor
//! keeps using its constant component until the observed broadcast time
//! diverges, then re-calibrates. Also prints the effectiveness band —
//! the paper's answer to "is network-aware optimization worth it here?"
//!
//! ```sh
//! cargo run --release --example dynamics_monitor
//! ```

use cloudconst::apps::CommEnv;
use cloudconst::cloud::{CloudConfig, SyntheticCloud};
use cloudconst::collectives::Collective;
use cloudconst::core::{classify, Advisor, AdvisorConfig, MaintenanceDecision};
use cloudconst::netmodel::{PerfMatrix, MB};

fn main() {
    let n = 24;
    let mut cfg = CloudConfig::ec2_like(n, 314);
    // One strong migration event mid-horizon; congestion kept mild so the
    // demo's single-broadcast observations don't trip maintenance on
    // transient spikes (see Fig. 6 for the threshold trade-off).
    cfg.shift_times = vec![12.0 * 3600.0];
    cfg.migrate_frac = 0.6;
    cfg.spike_prob = 0.005;
    cfg.lull_prob = 0.005;
    cfg.volatility_sigma = 0.03;
    let cloud = SyntheticCloud::new(cfg);

    let mut advisor = Advisor::new(AdvisorConfig::default());
    advisor.calibrate_par(&cloud, 0.0).expect("calibration");
    println!(
        "t=0h: calibrated. Norm(N_E) = {:.3} -> {:?}\n",
        advisor.norm_ne().unwrap(),
        classify(advisor.norm_ne().unwrap())
    );

    let msg = 8 * MB;
    for hour in (1..=24).step_by(1) {
        let t = hour as f64 * 3600.0;
        let actual = PerfMatrix::from_fn(n, |i, j| cloud.instantaneous(i, j, t));
        let guide = advisor.constant().unwrap().clone();
        let env = CommEnv::guided(&actual, &guide);
        let observed = env.collective_time(Collective::Broadcast, hour % n, msg);
        let expect_env = CommEnv::guided(&guide, &guide);
        let expected = expect_env.collective_time(Collective::Broadcast, hour % n, msg);
        let decision = advisor.observe(&cloud, t, expected, observed).unwrap();
        let marker = if decision == MaintenanceDecision::Recalibrate {
            "  << RE-CALIBRATED"
        } else {
            ""
        };
        println!(
            "t={hour:>2}h  expected {expected:>7.3}s  observed {observed:>7.3}s  |d|/t' = {:>5.1}%{marker}",
            100.0 * (observed - expected).abs() / expected
        );
    }
    println!(
        "\ntotal calibrations over 24h: {} (the migration at t=12h should account for one)",
        advisor.calibrations()
    );
}
