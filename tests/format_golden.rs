//! The two formats that leave a process, pinned byte for byte: the JSON
//! `NetTrace` file of the paper's record/replay methodology (§V-D3) and
//! the `regress` report written to `BENCH_<date>.json`.
//!
//! A change to either string here is a change to the file format: traces
//! and reports written before it would no longer compare or load the
//! same.

use cloudconst::netmodel::{LinkPerf, NetTrace, PerfMatrix};
use cloudconst_bench::regress::{BenchRecord, RegressReport};

/// A two-instance trace whose values stress the float printer: awkward
/// decimals, `-0.0`, a NaN latency, infinite latency and inverse
/// bandwidth, and a time large enough to print in exponent form.
fn trace() -> NetTrace {
    let mut t = NetTrace::new(2);
    let mut pm = PerfMatrix::ideal(2);
    pm.set(0, 1, LinkPerf::new(1e-4 / 3.0, 1e8 / 7.0));
    // Bandwidth 0 stores an infinite inverse bandwidth.
    pm.set(
        1,
        0,
        LinkPerf {
            alpha: f64::NAN,
            beta: 0.0,
        },
    );
    t.record(0.0, pm);

    let mut pm = PerfMatrix::ideal(2);
    pm.set(
        0,
        1,
        LinkPerf {
            alpha: f64::INFINITY,
            beta: f64::INFINITY,
        },
    );
    pm.set(1, 0, LinkPerf::new(-0.0, 3.0));
    t.record(30.125, pm);

    t.record(1.5e16, PerfMatrix::ideal(2));
    t
}

const TRACE_JSON: &str = concat!(
    r#"{"n":2,"samples":["#,
    r#"{"time":0.0,"perf":{"n":2,"#,
    r#""alpha":{"rows":2,"cols":2,"data":[0.0,3.3333333333333335e-5,null,0.0]},"#,
    r#""inv_beta":{"rows":2,"cols":2,"data":[0.0,7e-8,1e999,0.0]}}},"#,
    r#"{"time":30.125,"perf":{"n":2,"#,
    r#""alpha":{"rows":2,"cols":2,"data":[0.0,1e999,-0.0,0.0]},"#,
    r#""inv_beta":{"rows":2,"cols":2,"data":[0.0,0.0,0.3333333333333333,0.0]}}},"#,
    r#"{"time":1.5e16,"perf":{"n":2,"#,
    r#""alpha":{"rows":2,"cols":2,"data":[0.0,0.0,0.0,0.0]},"#,
    r#""inv_beta":{"rows":2,"cols":2,"data":[0.0,0.0,0.0,0.0]}}}"#,
    r#"]}"#,
);

#[test]
fn net_trace_bytes_are_pinned() {
    let mut buf = Vec::new();
    trace().save(&mut buf).unwrap();
    assert_eq!(String::from_utf8(buf).unwrap(), TRACE_JSON);

    // The pinned bytes load, and save back unchanged (NaN included).
    let mut again = Vec::new();
    NetTrace::load(TRACE_JSON.as_bytes())
        .unwrap()
        .save(&mut again)
        .unwrap();
    assert_eq!(String::from_utf8(again).unwrap(), TRACE_JSON);
}

/// A two-record report in the layout of the committed `BENCH_*.json`.
fn report() -> RegressReport {
    RegressReport {
        date: "2026-10-18".into(),
        threads: 2,
        records: vec![
            BenchRecord {
                name: "rpca_apg_10xN2".into(),
                n: 16,
                seconds: 0.004559891,
                metric: 0.0,
            },
            BenchRecord {
                name: "advisor_model_build".into(),
                n: 64,
                seconds: 0.1 + 0.2,
                metric: 208.0,
            },
        ],
    }
}

const BENCH_JSON: &str = r#"{
  "date": "2026-10-18",
  "threads": 2,
  "records": [
    {
      "name": "rpca_apg_10xN2",
      "n": 16,
      "seconds": 0.004559891,
      "metric": 0.0
    },
    {
      "name": "advisor_model_build",
      "n": 64,
      "seconds": 0.30000000000000004,
      "metric": 208.0
    }
  ]
}"#;

#[test]
fn regress_report_bytes_are_pinned() {
    assert_eq!(report().to_json(), BENCH_JSON);
}
