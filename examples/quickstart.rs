//! Quickstart: find the constant from change, then use it.
//!
//! Spins up a synthetic 16-instance virtual cluster, runs the paper's
//! Algorithm 1 (calibrate → RPCA → guide), and shows the payoff: an
//! FNF broadcast tree built from the RPCA constant component beats the
//! network-oblivious binomial tree.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cloudconst::apps::CommEnv;
use cloudconst::cloud::{CloudConfig, SyntheticCloud};
use cloudconst::collectives::Collective;
use cloudconst::core::{classify, Advisor, AdvisorConfig};
use cloudconst::netmodel::{PerfMatrix, MB};

fn main() {
    // 1. A virtual cluster on the (synthetic) cloud. On real
    //    infrastructure this would be your N instances; here the cloud is
    //    simulated, which also gives us ground truth to compare against.
    let n = 24;
    let cloud = SyntheticCloud::new(CloudConfig::ec2_like(n, 2025));

    // 2. Algorithm 1: calibrate a temporal performance matrix and extract
    //    the constant component with RPCA.
    let mut advisor = Advisor::new(AdvisorConfig::default());
    let state = advisor.calibrate_par(&cloud, 0.0).expect("calibration");
    println!(
        "calibrated {} snapshots, Norm(N_E) = {:.3} -> {:?}",
        state.tp.steps(),
        state.estimate.norm_ne,
        classify(state.estimate.norm_ne),
    );

    // 3. Use the constant component to guide a broadcast an hour later,
    //    when the network has wobbled but the constant still holds.
    let t = 3600.0;
    let actual = PerfMatrix::from_fn(n, |i, j| cloud.instantaneous(i, j, t));
    let guide = advisor.constant().expect("model").clone();

    let baseline = CommEnv::baseline(&actual);
    let guided = CommEnv::guided(&actual, &guide);
    let msg = 8 * MB;
    let t_base = baseline.collective_time(Collective::Broadcast, 0, msg);
    let t_rpca = guided.collective_time(Collective::Broadcast, 0, msg);
    println!("binomial broadcast (baseline): {t_base:.3} s");
    println!("FNF broadcast (RPCA-guided):   {t_rpca:.3} s");
    println!("improvement: {:.1}%", (1.0 - t_rpca / t_base) * 100.0);

    // 4. Maintenance: report the observation back; the advisor
    //    re-calibrates only when reality diverges from the model.
    let expected = guided.collective_time(Collective::Broadcast, 0, msg);
    let decision = advisor
        .observe(&cloud, t, expected, t_rpca)
        .expect("observe");
    println!(
        "maintenance decision: {decision:?} (calibrations so far: {})",
        advisor.calibrations()
    );
}
