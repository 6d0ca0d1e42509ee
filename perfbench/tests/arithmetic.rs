//! The benchmark's own arithmetic and output format.

use cloudconst_collectives::CommTree;
use perfbench::compare::{compare, Saved};
use perfbench::env::RunEnv;
use perfbench::metrics::{self, Better, Kind, Outcome, ResultLine, DECLS};
use serde::Value;

#[test]
fn quantiles_are_the_repository_nearest_rank() {
    let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
    assert_eq!(metrics::quantile(&xs, 0.0), 1.0);
    assert_eq!(metrics::median(&xs), 3.0);
    assert_eq!(metrics::quantile(&xs, 1.0), 5.0);
    assert_eq!(
        metrics::median(&[2.0, 1.0]),
        2.0,
        "nearest rank rounds up at .5"
    );
}

#[test]
fn p90_needs_ten_samples_beyond_it() {
    let xs = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
    assert_eq!(metrics::p90(&[]), None);
    assert_eq!(metrics::p90(&xs(90)), None);
    assert_eq!(
        metrics::p90(&xs(100)),
        Some(metrics::quantile(&xs(100), 0.9))
    );
    assert_eq!(metrics::p90(&xs(100)), Some(89.0));
}

#[test]
fn a_failing_check_counts_in_error_rate_not_as_a_crash() {
    let mut out = Outcome::default();
    for _ in 0..3 {
        out.op(None);
    }
    // A tree that spans nothing but its root: the check every guided
    // broadcast tree must pass.
    let tree = CommTree::singleton(0, 4);
    out.op((!tree.is_spanning()).then(|| "tree does not span the cluster".to_string()));
    assert_eq!((out.attempted, out.failed), (4, 1));
    assert_eq!(metrics::error_rate(out.attempted, out.failed), 0.25);
    assert!(out.notes[0].contains("does not span"));
    for d in DECLS {
        out.set(d.name, 1.0);
    }
    let line = ResultLine::from_outcome(&out, false).expect("all metrics measured");
    assert!(!line.correct, "a failed check makes the run incorrect");
    assert_eq!(metrics::error_rate(0, 0), 0.0);
}

#[test]
fn gains_and_ratios() {
    // RPCA takes 60% of the baseline's time: a 40% gain.
    assert!((metrics::gain(&[3.0, 3.0], &[4.0, 6.0]) - 0.4).abs() < 1e-15);
    assert!(
        (metrics::gain(&[6.0], &[4.0]) + 0.5).abs() < 1e-15,
        "a loss is a negative gain"
    );
    assert_eq!(metrics::gain(&[], &[1.0]), 0.0);
    assert_eq!(metrics::gain(&[1.0], &[0.0]), 0.0);
    // The coordinator ratios: socket share (tcp − loopback)/tcp and
    // loopback ratio unsharded/loopback, each zero without a base.
    let (tcp, looped, unsharded) = (0.12, 0.06, 0.054);
    assert!((metrics::ratio(tcp - looped, tcp) - 0.5).abs() < 1e-12);
    assert!((metrics::ratio(unsharded, looped) - 0.9).abs() < 1e-12);
    assert_eq!(metrics::ratio(1.0, 0.0), 0.0);
}

#[test]
fn result_line_round_trips_and_names_every_metric_of_its_kind() {
    let mut out = Outcome::default();
    out.op(None);
    for (k, d) in DECLS.iter().enumerate() {
        out.set(d.name, 0.1 + k as f64 / 7.0);
    }
    for trace in [false, true] {
        let kind = if trace {
            Kind::PerLayer
        } else {
            Kind::EndToEnd
        };
        let line = ResultLine::from_outcome(&out, trace).expect("all measured");
        assert!(line.correct);
        let names: Vec<&str> = line.metrics.iter().map(|m| m.0.as_str()).collect();
        let want: Vec<&str> = DECLS
            .iter()
            .filter(|d| d.kind == kind)
            .map(|d| d.name)
            .collect();
        assert_eq!(names, want);
        let json = line.to_json();
        assert!(!json.contains('\n'));
        let back = ResultLine::parse(&json).expect("parses");
        assert_eq!(back, line);
        for ((_, a, _), (_, b, _)) in back.metrics.iter().zip(&line.metrics) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
    out.values.remove("setup_s");
    assert!(
        ResultLine::from_outcome(&out, false).is_err(),
        "a missing metric is an error"
    );
    out.set("setup_s", f64::NAN);
    assert!(
        ResultLine::from_outcome(&out, false).is_err(),
        "a NaN metric is an error"
    );
}

#[test]
fn benchmark_json_declares_exactly_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let v: Value = serde_json::from_str(&text).expect("valid JSON");
    for (key, kind) in [
        ("end_to_end", Kind::EndToEnd),
        ("per_layer", Kind::PerLayer),
    ] {
        let Ok(Value::Array(entries)) = v.field(key) else {
            panic!("{key} is not a list");
        };
        let declared: Vec<(String, String, String)> = entries
            .iter()
            .map(|e| {
                let s = |k: &str| e.field(k).and_then(Value::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect();
        let emitted: Vec<(String, String, String)> = DECLS
            .iter()
            .filter(|d| d.kind == kind)
            .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
            .collect();
        assert_eq!(declared, emitted, "{key} differs from the emitted metrics");
    }
    let Ok(Value::Array(workloads)) = v.field("workloads") else {
        panic!("workloads is not a list");
    };
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.field("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(names, ["online_advisor", "sim_datacenter", "tcp_fleet"]);
    assert!(DECLS
        .iter()
        .any(|d| d.name == "setup_s" && d.better == Better::Lower && d.unit == "s"));
}

fn saved(threads: usize, nproc: usize, setup_s: f64) -> Saved {
    let env = RunEnv {
        workload: "tcp_fleet".into(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        nproc,
        rayon_threads: threads,
        git_commit: "unknown".into(),
        rustc: "rustc 1.0".into(),
        network: "loopback".into(),
    };
    let mut out = Outcome::default();
    out.op(None);
    for d in DECLS {
        out.set(d.name, setup_s);
    }
    let line = ResultLine::from_outcome(&out, false).expect("all measured");
    let text = format!("{}\n{}\n", env.to_json(), line.to_json());
    Saved::parse(&text).expect("a saved run parses")
}

#[test]
fn compare_refuses_different_thread_counts() {
    let rows = compare(&saved(2, 2, 1.0), &saved(2, 2, 1.5)).expect("comparable");
    let setup = rows.iter().find(|r| r.0 == "setup_s").expect("setup_s row");
    assert_eq!((setup.1, setup.2), (1.0, 1.5));
    assert!(compare(&saved(2, 2, 1.0), &saved(1, 2, 1.0))
        .unwrap_err()
        .contains("thread"));
    assert!(compare(&saved(2, 2, 1.0), &saved(2, 4, 1.0))
        .unwrap_err()
        .contains("processor"));
}

#[test]
fn env_line_round_trips() {
    let env = RunEnv::capture("online_advisor", 7, 20.0, true);
    assert!(env.rayon_threads >= 1 && env.nproc >= 1);
    assert_eq!(RunEnv::parse(&env.to_json()).expect("parses"), env);
    assert_eq!(
        RunEnv::capture("tcp_fleet", 7, 20.0, false).network,
        "loopback"
    );
}
