//! Performance-regression harness (the `regress` binary).
//!
//! Times the pipeline's hot paths — RPCA solves and their kernels, the
//! flow-level simulator, full TP-matrix calibration, the advisor model
//! build that runs the two together and the FNF broadcast tree — at the
//! cluster sizes the paper evaluates (`N ∈ {16, 64, 196}`), and writes the
//! measurements to `BENCH_<date>.json` at the repository root. Successive
//! changes diff these files to catch performance regressions. The report
//! records the rayon pool's thread count; running the harness under
//! `RAYON_NUM_THREADS=1` gives the serial figure of every record.

use cloudconst_cloud::{CloudConfig, FaultPlan, FaultyCloud, SyntheticCloud};
use cloudconst_collectives::{evaluate_tree, fnf_tree, Collective};
use cloudconst_coord::{
    AuthKey, Coordinator, CoordinatorConfig, LoopbackTransport, TcpConfig, TcpTransport,
    TcpWorkerServer,
};
use cloudconst_core::{Advisor, AdvisorConfig};
use cloudconst_linalg::{eigh, svd_jacobi, svd_thin, Mat};
use cloudconst_netmodel::{
    AdaptiveRetryPolicy, Calibrator, ImputePolicy, LinkPerf, PerfMatrix, RetryPolicy, MB,
};
use cloudconst_rpca::{apg, ApgOptions};
use cloudconst_simnet::{BackgroundSpec, ClusterView, LinkSpec, Simulator, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Value;
use std::time::Instant;

/// Cluster sizes the harness sweeps (the paper's 16/64/196 instances).
pub const SIZES: &[usize] = &[16, 64, 196];

/// One timed workload.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Workload identifier, e.g. `rpca_apg` or `calibration_tp`.
    pub name: String,
    /// Cluster size the workload ran at (0 when not size-parameterized).
    pub n: u64,
    /// Best-of-`reps` wall time in seconds.
    pub seconds: f64,
    /// Workload-specific throughput/quality figure (0 when unused).
    pub metric: f64,
}

/// The full report serialized to `BENCH_<date>.json`.
#[derive(Debug, Clone)]
pub struct RegressReport {
    /// UTC date the harness ran (`YYYY-MM-DD`).
    pub date: String,
    /// Worker threads the rayon pool used.
    pub threads: u64,
    /// All timed workloads.
    pub records: Vec<BenchRecord>,
}

impl RegressReport {
    /// File name the report is written under at the repo root.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.date)
    }

    /// The report as pretty-printed JSON, the contents of its file
    /// without the trailing newline: `{"date", "threads", "records":
    /// [{"name", "n", "seconds", "metric"}]}`.
    pub fn to_json(&self) -> String {
        let record = |r: &BenchRecord| {
            Value::Object(vec![
                ("name".into(), Value::Str(r.name.clone())),
                ("n".into(), Value::UInt(r.n)),
                ("seconds".into(), Value::Float(r.seconds)),
                ("metric".into(), Value::Float(r.metric)),
            ])
        };
        let report = Value::Object(vec![
            ("date".into(), Value::Str(self.date.clone())),
            ("threads".into(), Value::UInt(self.threads)),
            (
                "records".into(),
                Value::Array(self.records.iter().map(record).collect()),
            ),
        ]);
        serde_json::to_string_pretty(&report).expect("a Value always prints")
    }
}

/// A TP-matrix-shaped input (`steps × N²`): constant columns plus sparse
/// spikes, the structure RPCA sees in production.
pub fn tp_like(steps: usize, n_instances: usize) -> Mat {
    let cols = n_instances * n_instances;
    let base: Vec<f64> = (0..cols)
        .map(|j| 1.0 + ((j * 31) % 17) as f64 * 0.1)
        .collect();
    let mut data = Vec::with_capacity(steps * cols);
    for r in 0..steps {
        for (j, b) in base.iter().enumerate() {
            let spike = if (r * 7919 + j) % 997 == 0 { 5.0 } else { 0.0 };
            data.push(b + spike);
        }
    }
    Mat::from_vec(steps, cols, data)
}

/// Best-of-`reps` wall time of `f`, seconds. The minimum is the standard
/// regression statistic: it is the least noisy under scheduler jitter.
pub fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    assert!(reps >= 1);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = f();
        best = best.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }
    best
}

/// Time one RPCA (APG) solve on a `10 × N²` TP-matrix.
pub fn bench_rpca(n: usize, reps: usize) -> BenchRecord {
    let a = tp_like(10, n);
    let seconds = best_of(reps, || {
        apg(&a, &ApgOptions::default()).expect("apg converges")
    });
    BenchRecord {
        name: "rpca_apg_10xN2".into(),
        n: n as u64,
        seconds,
        metric: 0.0,
    }
}

/// Time the row Gram of a `10 × N²` TP-matrix: the first step of every
/// APG iteration's singular-value thresholding. One Gram takes tens of
/// microseconds, so the record is the best of many single calls.
pub fn bench_gram(n: usize, reps: usize) -> BenchRecord {
    let a = tp_like(10, n);
    BenchRecord {
        name: "gram_rows_10xN2".into(),
        n: n as u64,
        seconds: best_of(reps, || a.gram_rows()),
        metric: 0.0,
    }
}

/// Time the Jacobi eigensolver on the `10 × 10` row Gram of a `10 × N²`
/// TP-matrix, the other half of each APG iteration's small-side work.
pub fn bench_eigh(n: usize, reps: usize) -> BenchRecord {
    let g = tp_like(10, n).gram_rows();
    BenchRecord {
        name: "eigh_10x10".into(),
        n: n as u64,
        seconds: best_of(reps, || eigh(&g).expect("a finite Gram factors")),
        metric: 0.0,
    }
}

/// Time the one-sided Jacobi SVD on a `10 × 1024` TP-matrix (`N = 32`),
/// the design ablation behind `svd_thin`'s Gram trick (DESIGN.md §5 item
/// 2). The metric is the Jacobi time over `svd_thin`'s on the same input.
pub fn bench_svd_jacobi(reps: usize) -> BenchRecord {
    let a = tp_like(10, 32);
    let jacobi = best_of(reps, || svd_jacobi(&a).expect("svd"));
    let thin = best_of(reps, || svd_thin(&a).expect("svd"));
    BenchRecord {
        name: "svd_jacobi_10x1024".into(),
        n: 32,
        seconds: jacobi,
        metric: if thin > 0.0 { jacobi / thin } else { 0.0 },
    }
}

/// Time an FNF broadcast tree at `N = 196`: its build from the 8 MB
/// transfer-time weights plus the broadcast's evaluation, the per-run
/// cost every campaign figure pays per approach. The metric is the
/// modelled broadcast time in seconds, which a change that keeps the tree
/// bit-identical cannot move.
pub fn bench_fnf_tree(reps: usize) -> BenchRecord {
    let n = 196;
    let perf = PerfMatrix::from_fn(n, |i, j| {
        LinkPerf::new(
            1e-4 * (1 + (i + j) % 5) as f64,
            1e8 / (1.0 + ((i * 31 + j) % 7) as f64),
        )
    });
    let weights = perf.weights(8 * MB);
    let mut bcast = 0.0;
    let seconds = best_of(reps, || {
        bcast = evaluate_tree(&fnf_tree(0, &weights), &perf, Collective::Broadcast, 8 * MB);
    });
    BenchRecord {
        name: "fnf_tree_196".into(),
        n: n as u64,
        seconds,
        metric: bcast,
    }
}

/// Time a full 10-snapshot TP-matrix calibration on the synthetic cloud.
pub fn bench_calibration(n: usize, reps: usize) -> BenchRecord {
    let cloud = SyntheticCloud::new(CloudConfig::ec2_like(n, 7));
    let seconds = best_of(reps, || {
        Calibrator::new().calibrate_tp_par(&cloud, 0.0, 60.0, 10)
    });
    BenchRecord {
        name: "calibration_tp".into(),
        n: n as u64,
        seconds,
        metric: 0.0,
    }
}

/// Time one advisor model build, `Advisor::calibrate_par` on the
/// synthetic cloud with the default configuration: the 10-snapshot
/// calibration (snapshots in parallel) and the α and 1/β APG solves (side
/// by side). The metric records the build's total APG iterations, which a
/// change that keeps the model bit-identical cannot move.
pub fn bench_model_build(n: usize, reps: usize) -> BenchRecord {
    let cloud = SyntheticCloud::new(CloudConfig::ec2_like(n, 7));
    let mut iters = 0;
    let seconds = best_of(reps, || {
        let mut advisor = Advisor::new(AdvisorConfig::default());
        let model = advisor.calibrate_par(&cloud, 450.0).expect("model builds");
        iters = model.estimate.solver_iters;
    });
    BenchRecord {
        name: "advisor_model_build".into(),
        n: n as u64,
        seconds,
        metric: iters as f64,
    }
}

/// Time a full 10-snapshot TP-matrix calibration through the fault-aware
/// path at a 5% uniform fault rate (loss/timeouts/stragglers with
/// retry + backoff + imputation). The metric records the campaign's probe
/// success rate so throughput regressions and fault-handling regressions
/// are distinguishable.
pub fn bench_calibration_faulty(n: usize, reps: usize) -> BenchRecord {
    let cloud = FaultyCloud::new(
        SyntheticCloud::new(CloudConfig::ec2_like(n, 7)),
        FaultPlan::uniform(7, 0.05),
    );
    let retry = RetryPolicy::default();
    let mut success_rate = 0.0;
    let seconds = best_of(reps, || {
        let run = Calibrator::new().calibrate_tp_faulty_par(
            &cloud,
            0.0,
            60.0,
            10,
            &retry,
            ImputePolicy::LastGood,
        );
        success_rate = run.aggregate_log().success_rate();
        run
    });
    BenchRecord {
        name: "calibration_tp_faulty_5pct".into(),
        n: n as u64,
        seconds,
        metric: success_rate,
    }
}

/// Time a 10-snapshot calibration under correlated rack-blackout faults
/// with model-based imputation: whole racks go dark per snapshot window
/// and the masked cells are filled from the rank-one `N_D` prediction.
/// The metric records the campaign's masked fraction so a change in the
/// fault-domain machinery (more or fewer cells lost) is visible next to
/// the wall time of the extra RPCA solves the imputation performs.
pub fn bench_calibration_rack_blackout(n: usize, reps: usize) -> BenchRecord {
    let base = SyntheticCloud::new(CloudConfig::ec2_like(n, 7));
    let plan = FaultPlan::rack_blackouts(11, base.placement(0), 0.35, 60.0);
    let cloud = FaultyCloud::new(base, plan);
    let retry = RetryPolicy::default();
    let mut masked = 0.0;
    let seconds = best_of(reps, || {
        let run = Calibrator::new().calibrate_tp_faulty_par(
            &cloud,
            0.0,
            60.0,
            10,
            &retry,
            ImputePolicy::ModelPrediction,
        );
        masked = run.tp.masked_fraction();
        run
    });
    BenchRecord {
        name: "calibration_tp_rack_blackout".into(),
        n: n as u64,
        seconds,
        metric: masked,
    }
}

/// Time a 10-snapshot calibration through the history-driven adaptive
/// retry path at a 5% uniform fault rate. The metric records the probe
/// success rate, directly comparable to `calibration_tp_faulty_5pct`'s:
/// the adaptive planner must hold the rate while re-budgeting attempts,
/// and the wall-time delta is the cost of the per-campaign planning pass.
pub fn bench_calibration_adaptive_retry(n: usize, reps: usize) -> BenchRecord {
    let cloud = FaultyCloud::new(
        SyntheticCloud::new(CloudConfig::ec2_like(n, 7)),
        FaultPlan::uniform(7, 0.05),
    );
    let adaptive = AdaptiveRetryPolicy::default();
    let mut success_rate = 0.0;
    let seconds = best_of(reps, || {
        let run = Calibrator::new().calibrate_tp_faulty_adaptive(
            &cloud,
            0.0,
            60.0,
            10,
            &adaptive,
            ImputePolicy::LastGood,
        );
        success_rate = run.aggregate_log().success_rate();
        run
    });
    BenchRecord {
        name: "calibration_adaptive_retry".into(),
        n: n as u64,
        seconds,
        metric: success_rate,
    }
}

/// Time the sharded calibration coordinator against the unsharded
/// fault-aware calibrator on the same (fault-free) cloud: two records,
/// `calibration_tp_unsharded` and `calibration_sharded`, the latter's
/// metric being the unsharded/sharded wall-time ratio (> 1 means sharding
/// plus the wire codec is cheaper than the monolithic path, < 1 is its
/// overhead). Both paths produce bit-identical TP-matrices, so the pair
/// isolates pure coordination + serialization cost.
pub fn bench_calibration_sharded(n: usize, shards: usize, reps: usize) -> Vec<BenchRecord> {
    let cloud = FaultyCloud::new(
        SyntheticCloud::new(CloudConfig::ec2_like(n, 7)),
        FaultPlan::none(7),
    );
    let retry = RetryPolicy::default();
    let unsharded = best_of(reps, || {
        Calibrator::new().calibrate_tp_faulty_par(
            &cloud,
            0.0,
            60.0,
            10,
            &retry,
            ImputePolicy::LastGood,
        )
    });
    let coordinator = Coordinator::new(CoordinatorConfig::new(shards));
    let sharded = best_of(reps, || {
        let mut transport = LoopbackTransport::new(cloud.clone(), shards);
        coordinator
            .calibrate_tp(&mut transport, 0.0, 60.0, 10)
            .expect("loopback campaign cannot abort")
    });
    vec![
        BenchRecord {
            name: "calibration_tp_unsharded".into(),
            n: n as u64,
            seconds: unsharded,
            metric: 0.0,
        },
        BenchRecord {
            name: "calibration_sharded".into(),
            n: n as u64,
            seconds: sharded,
            metric: if sharded > 0.0 {
                unsharded / sharded
            } else {
                0.0
            },
        },
    ]
}

/// Time the same 10-snapshot sharded calibration over the real TCP
/// transport on localhost: sealed length-prefixed frames, a live
/// [`TcpWorkerServer`], one connection per shard. Directly comparable to
/// `calibration_sharded` (same cloud, same shard count) — the delta is the
/// cost of sockets + sealing over the in-process wire. The metric records
/// frames delivered per wall second.
pub fn bench_calibration_tcp_localhost(n: usize, shards: usize, reps: usize) -> BenchRecord {
    let cloud = FaultyCloud::new(
        SyntheticCloud::new(CloudConfig::ec2_like(n, 7)),
        FaultPlan::none(7),
    );
    let key = AuthKey::from_seed(7);
    let coordinator = Coordinator::new(CoordinatorConfig::new(shards));
    let mut frames = 0u64;
    let seconds = best_of(reps, || {
        // One campaign per server incarnation (worker response caches are
        // campaign-scoped), so each rep spawns a fresh server; its setup
        // is part of the distributed path being timed.
        let server = TcpWorkerServer::spawn(cloud.clone(), shards, key).expect("bind localhost");
        let mut transport = TcpTransport::connect(&server.shard_addrs(shards), TcpConfig::new(key))
            .expect("connect over localhost");
        let run = coordinator
            .calibrate_tp(&mut transport, 0.0, 60.0, 10)
            .expect("localhost campaign cannot abort");
        frames = run.report.wire.frames_delivered;
        run
    });
    BenchRecord {
        name: "calibration_tcp_localhost".into(),
        n: n as u64,
        seconds,
        metric: if seconds > 0.0 {
            frames as f64 / seconds
        } else {
            0.0
        },
    }
}

/// Time 60 simulated seconds of background traffic on the paper's
/// 1024-host tree; the metric is flows completed per wall second.
pub fn bench_simnet(reps: usize) -> BenchRecord {
    let mut flows = 0u64;
    let seconds = best_of(reps, || {
        let mut sim = Simulator::new(Topology::paper_tree(), 1);
        BackgroundSpec {
            pairs: 100,
            message_bytes: 10 << 20,
            lambda: 2.0,
            churn: 0.2,
            seed: 5,
        }
        .install(&mut sim, 0.0);
        sim.run_until(60.0);
        flows = sim.flows_completed();
        flows
    });
    BenchRecord {
        name: "simnet_background_60s".into(),
        n: 0,
        seconds,
        metric: if seconds > 0.0 {
            flows as f64 / seconds
        } else {
            0.0
        },
    }
}

/// Time the Fig. 13 calibration on the flow simulator: the `experiments
/// fig13` quick datacenter (8 racks × 32 hosts at 1 and 10 Gb/s, 120
/// background pairs of 100 MB, λ = 2 s, churn 0.15, seed 59) and its
/// 48-VM cluster, warmed up for 3λ, then `ClusterView` calibration of 5
/// snapshots 30 s apart. Only the calibration is timed; each rep builds
/// and warms up a fresh datacenter. The metric is flows completed
/// (background included) per wall second of the calibration.
pub fn bench_simnet_calibrate_fig13(reps: usize) -> BenchRecord {
    let seed = 59;
    let spec = |gbit: f64, latency| LinkSpec {
        capacity: gbit * 1e9 / 8.0,
        latency,
    };
    let mut seconds = f64::INFINITY;
    let mut flows = 0;
    for _ in 0..reps {
        let topo = Topology::tree(8, 32, spec(1.0, 20e-6), spec(10.0, 30e-6));
        let mut hosts: Vec<usize> = (0..topo.hosts()).collect();
        hosts.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5E1));
        hosts.truncate(48);
        let mut sim = Simulator::new(topo, seed);
        BackgroundSpec {
            pairs: 120,
            message_bytes: 100 * MB,
            lambda: 2.0,
            churn: 0.15,
            seed: seed ^ 0xB6,
        }
        .install(&mut sim, 0.0);
        sim.run_until(6.0);
        let before = sim.flows_completed();
        let mut view = ClusterView::new(&mut sim, hosts);
        let start = view.simulator().time();
        let t0 = Instant::now();
        let run = Calibrator::new().calibrate_tp(&mut view, start, 30.0, 5);
        seconds = seconds.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(run);
        flows = sim.flows_completed() - before;
    }
    BenchRecord {
        name: "simnet_calibrate_fig13".into(),
        n: 48,
        seconds,
        metric: if seconds > 0.0 {
            flows as f64 / seconds
        } else {
            0.0
        },
    }
}

/// Run the whole suite.
pub fn run_suite(sizes: &[usize], date: String) -> RegressReport {
    let mut records = Vec::new();
    for &n in sizes {
        // One rep at paper scale (tens of seconds), three below it.
        let reps = if n >= 128 { 1 } else { 3 };
        records.push(bench_rpca(n, reps));
    }
    // The two small-side kernels of every APG iteration.
    for &n in sizes {
        records.push(bench_gram(n, 300));
    }
    for &n in sizes {
        let reps = if n >= 128 { 1 } else { 3 };
        records.push(bench_calibration(n, reps));
    }
    // Fault-handling overhead is size-independent in shape; one
    // representative size (the paper's N = 64 when in range) suffices.
    if let Some(&n) = sizes.iter().find(|&&n| n >= 64).or(sizes.last()) {
        let reps = if n >= 128 { 1 } else { 3 };
        records.push(bench_eigh(n, 1000));
        records.push(bench_model_build(n, reps));
        records.push(bench_calibration_faulty(n, reps));
        records.push(bench_calibration_rack_blackout(n, reps));
        records.push(bench_calibration_adaptive_retry(n, reps));
    }
    // Sharded coordinator vs unsharded at service scale (N = 256) on full
    // runs; the quick run keeps the record at its largest sweep size so CI
    // still exercises the sharded path every time.
    let sharded_n = if sizes.iter().any(|&n| n >= 128) {
        256
    } else {
        sizes.last().copied().unwrap_or(64).max(32)
    };
    records.extend(bench_calibration_sharded(sharded_n, 4, 1));
    records.push(bench_calibration_tcp_localhost(sharded_n, 4, 1));
    records.push(bench_simnet(2));
    records.push(bench_simnet_calibrate_fig13(3));
    records.push(bench_svd_jacobi(30));
    records.push(bench_fnf_tree(100));

    RegressReport {
        date,
        threads: rayon::current_num_threads() as u64,
        records,
    }
}

/// `YYYY-MM-DD` (UTC) from seconds since the Unix epoch (civil-from-days,
/// Howard Hinnant's algorithm) — keeps the harness free of a date crate.
pub fn civil_date(unix_seconds: u64) -> String {
    let z = (unix_seconds / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_date_known_values() {
        assert_eq!(civil_date(0), "1970-01-01");
        assert_eq!(civil_date(86_399), "1970-01-01");
        assert_eq!(civil_date(86_400), "1970-01-02");
        // 2026-08-07 00:00:00 UTC = 20672 days after the epoch.
        assert_eq!(civil_date(20_672 * 86_400), "2026-08-07");
    }

    #[test]
    fn suite_produces_json_roundtrip() {
        // Tiny sizes so the test stays fast; the shape is what matters.
        let report = run_suite(&[8], "2026-08-07".into());
        assert_eq!(report.file_name(), "BENCH_2026-08-07.json");
        assert!(report.threads >= 1);
        let names: Vec<&str> = report.records.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"rpca_apg_10xN2"));
        assert!(names.contains(&"gram_rows_10xN2"));
        assert!(names.contains(&"eigh_10x10"));
        assert!(names.contains(&"calibration_tp"));
        assert!(names.contains(&"calibration_tp_faulty_5pct"));
        let build = report
            .records
            .iter()
            .find(|r| r.name == "advisor_model_build")
            .unwrap();
        assert!(
            build.metric > 0.0,
            "the build's APG iterations are recorded"
        );
        assert!(names.contains(&"simnet_background_60s"));
        let calibrate = report
            .records
            .iter()
            .find(|r| r.name == "simnet_calibrate_fig13")
            .unwrap();
        assert!(
            calibrate.metric > 0.0,
            "flows-per-second metric must be recorded: {}",
            calibrate.metric
        );
        let faulty = report
            .records
            .iter()
            .find(|r| r.name == "calibration_tp_faulty_5pct")
            .unwrap();
        assert!(
            faulty.metric > 0.5 && faulty.metric < 1.0,
            "5% faults must show in the success rate: {}",
            faulty.metric
        );
        let blackout = report
            .records
            .iter()
            .find(|r| r.name == "calibration_tp_rack_blackout")
            .unwrap();
        assert!(
            blackout.metric > 0.0 && blackout.metric < 1.0,
            "rack blackouts must mask some but not all cells: {}",
            blackout.metric
        );
        let adaptive = report
            .records
            .iter()
            .find(|r| r.name == "calibration_adaptive_retry")
            .unwrap();
        assert!(
            adaptive.metric > 0.5 && adaptive.metric <= 1.0,
            "adaptive retry must hold the success rate: {}",
            adaptive.metric
        );
        assert!(names.contains(&"calibration_tp_unsharded"));
        assert!(names.contains(&"calibration_sharded"));
        let sharded = report
            .records
            .iter()
            .find(|r| r.name == "calibration_sharded")
            .unwrap();
        assert!(sharded.metric > 0.0, "ratio metric must be recorded");
        assert_eq!(sharded.n, 32, "quick/test runs bench sharding at N >= 32");
        let tcp = report
            .records
            .iter()
            .find(|r| r.name == "calibration_tcp_localhost")
            .unwrap();
        assert_eq!(
            tcp.n, 32,
            "TCP leg runs at the same size as the sharded one"
        );
        assert!(
            tcp.metric > 0.0,
            "frames-per-second metric must be recorded: {}",
            tcp.metric
        );
        let jacobi = report
            .records
            .iter()
            .find(|r| r.name == "svd_jacobi_10x1024")
            .unwrap();
        assert!(
            jacobi.metric > 0.0,
            "the Jacobi/Gram-trick ratio is recorded"
        );
        assert!(names.contains(&"fnf_tree_196"));
        for r in &report.records {
            assert!(r.seconds.is_finite() && r.seconds >= 0.0, "{}", r.name);
        }
        let back = serde_json::from_str(&report.to_json()).expect("parse");
        assert_eq!(back.field("date").unwrap().as_str().unwrap(), report.date);
        match back.field("records").unwrap() {
            Value::Array(records) => assert_eq!(records.len(), report.records.len()),
            other => panic!("records is not an array: {other:?}"),
        }
    }

    #[test]
    fn tp_like_has_paper_shape() {
        let a = tp_like(10, 16);
        assert_eq!(a.shape(), (10, 256));
    }
}
