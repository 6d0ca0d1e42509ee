//! Standalone worker host for a distributed calibration campaign.
//!
//! Binds a [`TcpWorkerServer`] hosting `--shards` [`ShardWorker`]s over a
//! synthetic cloud, then serves until killed. The coordinator side connects
//! with [`TcpTransport::connect`] using the same key; see the README's
//! "Running a distributed campaign" walkthrough.
//!
//! ```text
//! coord-worker --bind 127.0.0.1:7401 --shards 4 --n 16 \
//!              --cloud-seed 7 --key-seed 42 [--fault-loss 0.05 --fault-seed 17]
//! ```
//!
//! One campaign per incarnation: worker response caches are keyed by
//! campaign-local seqs, so restart the process between campaigns.
//!
//! [`ShardWorker`]: cloudconst_coord::ShardWorker
//! [`TcpTransport::connect`]: cloudconst_coord::TcpTransport::connect

use cloudconst_cloud::{CloudConfig, FaultPlan, FaultyCloud, SyntheticCloud};
use cloudconst_coord::{AuthKey, TcpWorkerServer};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
usage: coord-worker [options]
  --bind ADDR        listen address            (default 127.0.0.1:0 = ephemeral)
  --shards K         worker shards to host     (default 1)
  --n N              cluster size to model     (default 16)
  --profile NAME     cloud profile: ec2 | calm | small  (default ec2)
  --cloud-seed S     synthetic-cloud seed      (default 7)
  --key HEX          32-hex-digit campaign key (or use --key-seed)
  --key-seed S       derive the campaign key from a seed (default 1)
  --fault-loss P     uniform probe-loss probability (default 0 = fault-free)
  --fault-seed S     fault-plan seed           (default 17)
";

struct Opts {
    bind: String,
    shards: usize,
    n: usize,
    profile: String,
    cloud_seed: u64,
    key: AuthKey,
    fault_loss: f64,
    fault_seed: u64,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        bind: "127.0.0.1:0".into(),
        shards: 1,
        n: 16,
        profile: "ec2".into(),
        cloud_seed: 7,
        key: AuthKey::from_seed(1),
        fault_loss: 0.0,
        fault_seed: 17,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--bind" => opts.bind = value()?,
            "--shards" => opts.shards = value()?.parse().map_err(|e| format!("--shards: {e}"))?,
            "--n" => opts.n = value()?.parse().map_err(|e| format!("--n: {e}"))?,
            "--profile" => opts.profile = value()?,
            "--cloud-seed" => {
                opts.cloud_seed = value()?.parse().map_err(|e| format!("--cloud-seed: {e}"))?
            }
            "--key" => {
                let hex = value()?;
                opts.key = AuthKey::from_hex(&hex)
                    .ok_or_else(|| format!("--key wants 32 hex digits, got {hex:?}"))?;
            }
            "--key-seed" => {
                opts.key =
                    AuthKey::from_seed(value()?.parse().map_err(|e| format!("--key-seed: {e}"))?)
            }
            "--fault-loss" => {
                opts.fault_loss = value()?.parse().map_err(|e| format!("--fault-loss: {e}"))?
            }
            "--fault-seed" => {
                opts.fault_seed = value()?.parse().map_err(|e| format!("--fault-seed: {e}"))?
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    if !(0.0..1.0).contains(&opts.fault_loss) {
        return Err("--fault-loss must be in [0, 1)".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("coord-worker: {msg}");
            }
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let config = match opts.profile.as_str() {
        "ec2" => CloudConfig::ec2_like(opts.n, opts.cloud_seed),
        "calm" => CloudConfig::calm(opts.n, opts.cloud_seed),
        "small" => CloudConfig::small_test(opts.n, opts.cloud_seed),
        other => {
            eprintln!("coord-worker: unknown profile {other} (ec2 | calm | small)");
            return ExitCode::FAILURE;
        }
    };
    let plan = if opts.fault_loss > 0.0 {
        FaultPlan::uniform(opts.fault_seed, opts.fault_loss)
    } else {
        FaultPlan::none(opts.fault_seed)
    };
    let probe = FaultyCloud::new(SyntheticCloud::new(config), plan);

    let server = match TcpWorkerServer::spawn_on(&*opts.bind, probe, opts.shards, opts.key) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("coord-worker: bind {}: {e}", opts.bind);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "coord-worker: {} shard(s) over an n={} {} cloud on {} (key {})",
        opts.shards,
        opts.n,
        opts.profile,
        server.addr(),
        opts.key.to_hex()
    );
    // Serve until killed; the accept loop and connection handlers run on
    // their own threads.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
