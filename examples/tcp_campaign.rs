//! Distributed calibration campaign over real sockets: the coordinator
//! half of the README walkthrough. Start one or more worker shards first,
//! then point this example at them:
//!
//! ```sh
//! cargo run --release -p cloudconst-apps --bin coord-worker -- \
//!     --bind 127.0.0.1:7401 --shards 4 --n 16 --key-seed 42 &
//! cargo run --release --example tcp_campaign -- 127.0.0.1:7401 4 42
//! ```
//!
//! Arguments: `ADDR [SHARDS] [KEY_SEED]` (defaults `127.0.0.1:7401 4 42`).
//! The key seed must match the worker's `--key-seed`; a mismatch is
//! rejected at the handshake with a typed `AuthFailure`. Workers are
//! single-campaign (seq-keyed idempotency caches), so restart the
//! `coord-worker` process between runs.

use std::net::SocketAddr;

use cloudconst::coord::{AuthKey, Coordinator, CoordinatorConfig, TcpConfig, TcpTransport};
use cloudconst::core::{classify, Advisor, AdvisorConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let addr: SocketAddr = args
        .next()
        .unwrap_or_else(|| "127.0.0.1:7401".into())
        .parse()
        .expect("ADDR must be host:port");
    let shards: usize = args.next().map_or(4, |s| s.parse().expect("SHARDS"));
    let key_seed: u64 = args.next().map_or(42, |s| s.parse().expect("KEY_SEED"));

    // One listener can host every shard; frames carry their shard id.
    let addrs = vec![addr; shards];
    let key = AuthKey::from_seed(key_seed);
    let mut transport = TcpTransport::connect(&addrs, TcpConfig::new(key))
        .expect("connect + handshake (is coord-worker running with the same key?)");

    let quick = AdvisorConfig {
        time_step: 5,
        snapshot_interval: 30.0,
        ..AdvisorConfig::default()
    };
    let mut config = CoordinatorConfig::new(shards);
    config.calibration = quick.calibration.clone();
    config.retry = quick.retry.clone();
    config.impute = quick.impute;
    let campaign = Coordinator::new(config)
        .calibrate_tp(
            &mut transport,
            0.0,
            quick.snapshot_interval,
            quick.time_step,
        )
        .expect("campaign");

    println!(
        "campaign over {} shard(s): {} frames delivered, {} redispatched, {} failover(s), {}/{} shards alive",
        campaign.report.shards,
        campaign.report.wire.frames_delivered,
        campaign.report.redispatches,
        campaign.report.failovers,
        campaign.report.shards_alive,
        campaign.report.shards,
    );

    // The merged run slots into Algorithm 1 exactly like a local one.
    let mut advisor = Advisor::new(quick);
    advisor
        .adopt_faulty_run(campaign.run, 0.0)
        .expect("RPCA on the merged matrix");
    let model = advisor.model().expect("model");
    println!(
        "Norm(N_E) = {:.3} -> {:?}",
        model.estimate.norm_ne,
        classify(model.estimate.norm_ne),
    );
}
