//! Recorded network-performance traces and trace replay (paper §V-D3).
//!
//! The paper's repeatable-experiment methodology records week-long
//! calibration traces from EC2 and replays them to estimate application
//! performance under controlled settings. [`NetTrace`] is that artifact:
//! timestamped [`PerfMatrix`] samples, saved to and loaded from JSON, with
//! nearest-sample replay.

use crate::perf_matrix::PerfMatrix;
use crate::tp_matrix::TpMatrix;
use cloudconst_linalg::Mat;
use serde::{DeError, Value};
use std::io::{Error, ErrorKind, Read, Write};

/// One timestamped all-link measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSample {
    /// Measurement time in seconds since the trace epoch.
    pub time: f64,
    /// The all-link snapshot.
    pub perf: PerfMatrix,
}

/// A time-ordered sequence of all-link measurements for one virtual
/// cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct NetTrace {
    n: usize,
    samples: Vec<TraceSample>,
}

impl NetTrace {
    /// Empty trace for a cluster of `n` instances.
    pub fn new(n: usize) -> Self {
        NetTrace {
            n,
            samples: Vec::new(),
        }
    }

    /// Cluster size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// All samples in time order.
    pub fn samples(&self) -> &[TraceSample] {
        &self.samples
    }

    /// Append a sample; panics if out of time order (a NaN time included)
    /// or of the wrong cluster size.
    pub fn record(&mut self, time: f64, perf: PerfMatrix) {
        assert_eq!(perf.n(), self.n, "sample size mismatch");
        assert!(self.may_follow(time), "samples must be time-ordered");
        self.samples.push(TraceSample { time, perf });
    }

    /// May a sample at `time` come next: not NaN, and not before the last?
    fn may_follow(&self, time: f64) -> bool {
        !time.is_nan() && self.samples.last().is_none_or(|last| time >= last.time)
    }

    /// Replay: the sample nearest to `time` (ties resolve to the earlier
    /// one). Returns `None` on an empty trace.
    pub fn at(&self, time: f64) -> Option<&PerfMatrix> {
        if self.samples.is_empty() {
            return None;
        }
        let idx = match self
            .samples
            .binary_search_by(|s| s.time.partial_cmp(&time).unwrap())
        {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) if i == self.samples.len() => i - 1,
            Err(i) => {
                let before = time - self.samples[i - 1].time;
                let after = self.samples[i].time - time;
                if after < before {
                    i
                } else {
                    i - 1
                }
            }
        };
        Some(&self.samples[idx].perf)
    }

    /// Samples within `[t0, t1]`, as a [`TpMatrix`] (the paper's
    /// `N_A[T₀, T₁]`).
    pub fn window(&self, t0: f64, t1: f64) -> TpMatrix {
        let mut tp = TpMatrix::new(self.n);
        for s in &self.samples {
            if s.time >= t0 && s.time <= t1 {
                tp.push(s.time, &s.perf);
            }
        }
        tp
    }

    /// Whole trace as a [`TpMatrix`].
    pub fn to_tp_matrix(&self) -> TpMatrix {
        self.window(f64::NEG_INFINITY, f64::INFINITY)
    }

    /// Write as JSON to any writer: `{"n", "samples": [{"time", "perf":
    /// {"n", "alpha", "inv_beta"}}]}`, each plane `{"rows", "cols",
    /// "data"}` in row order. Floats print in their shortest round-trip
    /// form, ±∞ as `±1e999` and NaN as `null`, so a loaded trace is
    /// bit-identical to the saved one.
    pub fn save<W: Write>(&self, w: W) -> std::io::Result<()> {
        let samples = self.samples.iter().map(|s| {
            let [alpha, inv_beta] = s.perf.planes();
            let perf = object([
                ("n", Value::UInt(s.perf.n() as u64)),
                ("alpha", plane_to_value(alpha)),
                ("inv_beta", plane_to_value(inv_beta)),
            ]);
            object([("time", Value::Float(s.time)), ("perf", perf)])
        });
        let trace = object([
            ("n", Value::UInt(self.n as u64)),
            ("samples", Value::Array(samples.collect())),
        ]);
        serde_json::to_writer(w, &trace).map_err(Error::other)
    }

    /// Read a trace [`NetTrace::save`] wrote. The trace must hold what
    /// [`NetTrace::record`] enforces — every sample two `n × n` planes,
    /// times that are not NaN and never decrease — or loading fails with
    /// [`ErrorKind::InvalidData`], as it does on text that is not JSON or
    /// a missing or mistyped field. A failed read keeps its own kind.
    pub fn load<R: Read>(mut r: R) -> std::io::Result<Self> {
        let mut text = String::new();
        r.read_to_string(&mut text)?;
        let v = serde_json::from_str(&text).map_err(|e| Error::new(ErrorKind::InvalidData, e))?;
        Self::from_value(&v).map_err(|e| Error::new(ErrorKind::InvalidData, e))
    }

    fn from_value(v: &Value) -> Result<Self, DeError> {
        let n = count(v.field("n")?)?;
        let mut trace = NetTrace::new(n);
        for s in array(v.field("samples")?)? {
            let time = number(s.field("time")?)?;
            if !trace.may_follow(time) {
                return Err(DeError("trace samples must be time-ordered".into()));
            }
            let perf = s.field("perf")?;
            if count(perf.field("n")?)? != n {
                return Err(size_mismatch());
            }
            let alpha = plane_from_value(perf.field("alpha")?, n)?;
            let inv_beta = plane_from_value(perf.field("inv_beta")?, n)?;
            let perf = PerfMatrix::from_planes(n, alpha, inv_beta);
            trace.samples.push(TraceSample { time, perf });
        }
        Ok(trace)
    }
}

fn object<const K: usize>(fields: [(&str, Value); K]) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn plane_to_value(m: &Mat) -> Value {
    let data = m.as_slice().iter().map(|&x| Value::Float(x)).collect();
    object([
        ("rows", Value::UInt(m.rows() as u64)),
        ("cols", Value::UInt(m.cols() as u64)),
        ("data", Value::Array(data)),
    ])
}

/// An `n × n` plane, checked before [`Mat::from_vec`] (which panics on a
/// bad shape). `n * n` is checked too: it can overflow.
fn plane_from_value(v: &Value, n: usize) -> Result<Mat, DeError> {
    let data = array(v.field("data")?)?;
    if count(v.field("rows")?)? != n
        || count(v.field("cols")?)? != n
        || n.checked_mul(n) != Some(data.len())
    {
        return Err(size_mismatch());
    }
    let data = data.iter().map(number).collect::<Result<_, _>>()?;
    Ok(Mat::from_vec(n, n, data))
}

fn size_mismatch() -> DeError {
    DeError("trace sample size mismatch".into())
}

fn array(v: &Value) -> Result<&[Value], DeError> {
    match v {
        Value::Array(items) => Ok(items),
        _ => Err(DeError("expected an array".into())),
    }
}

fn count(v: &Value) -> Result<usize, DeError> {
    match *v {
        Value::UInt(u) => usize::try_from(u).map_err(|_| DeError(format!("{u} is too large"))),
        _ => Err(DeError("expected an unsigned integer".into())),
    }
}

/// A float as [`NetTrace::save`] writes it: `null` stands for NaN.
fn number(v: &Value) -> Result<f64, DeError> {
    match *v {
        Value::Float(f) => Ok(f),
        Value::UInt(u) => Ok(u as f64),
        Value::Int(i) => Ok(i as f64),
        Value::Null => Ok(f64::NAN),
        _ => Err(DeError("expected a number".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alpha_beta::LinkPerf;

    fn pm(n: usize, alpha: f64) -> PerfMatrix {
        PerfMatrix::from_fn(n, |_, _| LinkPerf::new(alpha, 1e8))
    }

    fn sample_trace() -> NetTrace {
        let mut t = NetTrace::new(2);
        t.record(0.0, pm(2, 0.001));
        t.record(10.0, pm(2, 0.002));
        t.record(20.0, pm(2, 0.003));
        t
    }

    #[test]
    fn replay_nearest() {
        let t = sample_trace();
        assert!((t.at(0.0).unwrap().link(0, 1).alpha - 0.001).abs() < 1e-12);
        assert!((t.at(4.0).unwrap().link(0, 1).alpha - 0.001).abs() < 1e-12);
        assert!((t.at(6.0).unwrap().link(0, 1).alpha - 0.002).abs() < 1e-12);
        assert!((t.at(999.0).unwrap().link(0, 1).alpha - 0.003).abs() < 1e-12);
        assert!((t.at(-5.0).unwrap().link(0, 1).alpha - 0.001).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_has_no_samples() {
        let t = NetTrace::new(4);
        assert!(t.is_empty());
        assert!(t.at(0.0).is_none());
    }

    #[test]
    fn window_selects_range() {
        let t = sample_trace();
        let tp = t.window(5.0, 20.0);
        assert_eq!(tp.steps(), 2);
        assert_eq!(tp.times(), &[10.0, 20.0]);
        assert_eq!(t.to_tp_matrix().steps(), 3);
    }

    #[test]
    fn json_roundtrip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        let t2 = NetTrace::load(buf.as_slice()).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn record_save_load_replay_gives_identical_tp_matrix() {
        // Full artifact cycle for the paper's repeatable-experiment
        // methodology (§V-D3): record a volatile trace, serialize to JSON,
        // load it back, and derive the TP-matrix from the replayed trace.
        // JSON float formatting must be exact for this to hold bitwise.
        let n = 6;
        let mut t = NetTrace::new(n);
        for step in 0..12 {
            let time = step as f64 * 30.0 + 0.125;
            let pm = PerfMatrix::from_fn(n, |i, j| {
                // Awkward, non-representable-in-decimal values so the
                // round-trip actually exercises float printing.
                let h = (i * 131 + j * 17 + step * 7919) % 1009;
                LinkPerf::new(1e-4 + h as f64 / 3.0 * 1e-6, 1e8 / (1.0 + h as f64 / 7.0))
            });
            t.record(time, pm);
        }

        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        let t2 = NetTrace::load(buf.as_slice()).unwrap();
        assert_eq!(t, t2);

        let (tp, tp2) = (t.to_tp_matrix(), t2.to_tp_matrix());
        assert_eq!(tp.steps(), tp2.steps());
        for (a, b) in tp.times().iter().zip(tp2.times()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (m, m2) in [
            (tp.alpha_matrix(), tp2.alpha_matrix()),
            (tp.inv_beta_matrix(), tp2.inv_beta_matrix()),
        ] {
            for (a, b) in m.as_slice().iter().zip(m2.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// Save `t` as is — `save` checks nothing — and load it back.
    fn reload(t: &NetTrace) -> std::io::Result<NetTrace> {
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        NetTrace::load(buf.as_slice())
    }

    fn assert_invalid(r: std::io::Result<NetTrace>) {
        assert_eq!(r.unwrap_err().kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn load_rejects_text_that_is_not_json() {
        let mut buf = Vec::new();
        sample_trace().save(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let edit = |from: &str, to: &str| {
            assert!(text.contains(from), "{from} in {text}");
            NetTrace::load(text.replacen(from, to, 1).as_bytes())
        };
        // A valid escape and exponent load: only the invalid forms fail.
        assert!(edit(r#"{"n":"#, r#"{"\u006e":"#).is_ok());
        assert!(edit(r#""time":10.0"#, r#""time":1.0e1"#).is_ok());
        assert_invalid(edit(r#"{"n":"#, r#"{"\u+06e":"#));
        assert_invalid(edit(r#""time":10.0"#, r#""time":010.0"#));
        assert_invalid(edit(r#""time":10.0"#, r#""time":10."#));
        assert_invalid(edit(r#""time":10.0"#, r#""time":1.e1"#));
    }

    #[test]
    fn load_rejects_out_of_order_samples() {
        let mut t = sample_trace();
        t.samples.swap(0, 1);
        assert_invalid(reload(&t));
    }

    #[test]
    fn load_rejects_samples_of_the_wrong_size() {
        let mut t = sample_trace();
        t.n = 3;
        assert_invalid(reload(&t));

        // A sample whose planes disagree with its own size.
        let mut buf = Vec::new();
        sample_trace().save(&mut buf).unwrap();
        let json = String::from_utf8(buf).unwrap();
        let bad = json.replacen("\"rows\":2", "\"rows\":1", 1);
        assert_ne!(bad, json, "the fixture must contain a plane's row count");
        assert_invalid(NetTrace::load(bad.as_bytes()));

        // A plane whose data is one value short of `n × n`.
        let bad = json.replacen("\"data\":[0.0,", "\"data\":[", 1);
        assert_ne!(bad, json, "the fixture must start a plane with 0.0");
        assert_invalid(NetTrace::load(bad.as_bytes()));

        // `n = 2^32`: `n * n` wraps to 0 in 64 bits, matching empty planes.
        let huge = 1u64 << 32;
        let plane = format!(r#"{{"rows":{huge},"cols":{huge},"data":[]}}"#);
        let json = format!(
            r#"{{"n":{huge},"samples":[{{"time":0.0,"perf":{{"n":{huge},"alpha":{plane},"inv_beta":{plane}}}}}]}}"#
        );
        assert_invalid(NetTrace::load(json.as_bytes()));
    }

    #[test]
    fn load_rejects_deep_nesting() {
        assert_invalid(NetTrace::load("[".repeat(100_000).as_bytes()));
    }

    #[test]
    fn load_rejects_nan_times() {
        let mut t = sample_trace();
        t.samples[1].time = f64::NAN;
        assert_invalid(reload(&t));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_record_panics() {
        let mut t = sample_trace();
        t.record(5.0, pm(2, 0.001));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn nan_first_record_panics() {
        NetTrace::new(2).record(f64::NAN, pm(2, 0.001));
    }
}
