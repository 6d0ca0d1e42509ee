//! The one format that leaves a process, pinned byte for byte: the
//! `regress` report written to `BENCH_<date>.json`.
//!
//! A change to the string here is a change to the file format: reports
//! written before it would no longer compare the same.

use cloudconst_bench::regress::{BenchRecord, RegressReport};

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
