//! The run environment recorded with every result, and the thread pin.

use serde::Value;

/// Processors this process may run on (cgroup and affinity aware).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Keep the rayon pool within `nproc`: an unset or larger
/// `RAYON_NUM_THREADS` is replaced by `nproc`. Must run before the first
/// parallel region, because the pool reads the variable once.
pub fn pin_threads() {
    let cap = nproc();
    let asked = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1);
    let threads = asked.map_or(cap, |n| n.min(cap));
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
}

/// Everything needed to decide whether two results may be compared.
#[derive(Debug, Clone, PartialEq)]
pub struct RunEnv {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    pub rayon_threads: usize,
    pub git_commit: String,
    pub rustc: String,
    /// How `tcp_fleet` reaches its workers: `loopback` (127.0.0.1, no
    /// physical link) or `none` for workloads without sockets.
    pub network: String,
}

impl RunEnv {
    pub fn capture(workload: &str, seed: u64, seconds: f64, trace: bool) -> Self {
        let from_env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        RunEnv {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            nproc: nproc(),
            rayon_threads: rayon::current_num_threads(),
            git_commit: from_env("PERFBENCH_GIT_COMMIT"),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            network: if workload == "tcp_fleet" {
                "loopback"
            } else {
                "none"
            }
            .to_string(),
        }
    }

    /// One JSON line, tagged so it can be found in a saved output.
    pub fn to_json(&self) -> String {
        let v = Value::Object(vec![(
            "perfbench_env".into(),
            Value::Object(vec![
                ("workload".into(), Value::Str(self.workload.clone())),
                ("seed".into(), Value::UInt(self.seed)),
                ("seconds".into(), Value::Float(self.seconds)),
                ("trace".into(), Value::Bool(self.trace)),
                ("nproc".into(), Value::UInt(self.nproc as u64)),
                (
                    "rayon_threads".into(),
                    Value::UInt(self.rayon_threads as u64),
                ),
                ("git_commit".into(), Value::Str(self.git_commit.clone())),
                ("rustc".into(), Value::Str(self.rustc.clone())),
                ("network".into(), Value::Str(self.network.clone())),
            ]),
        )]);
        serde_json::to_string(&v).expect("a Value always serializes")
    }

    pub fn parse(line: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(line.trim()).map_err(|e| e.to_string())?;
        let e = v.field("perfbench_env").map_err(|e| e.to_string())?;
        let s = |k: &str| -> Result<String, String> {
            e.field(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .map_err(|e| e.to_string())
        };
        let u = |k: &str| match e.field(k) {
            Ok(Value::UInt(x)) => Ok(*x),
            _ => Err(format!("env `{k}` is not a whole number")),
        };
        Ok(RunEnv {
            workload: s("workload")?,
            seed: u("seed")?,
            seconds: match e.field("seconds") {
                Ok(Value::Float(f)) => *f,
                Ok(Value::UInt(x)) => *x as f64,
                _ => return Err("env `seconds` is not a number".into()),
            },
            trace: matches!(e.field("trace"), Ok(Value::Bool(true))),
            nproc: u("nproc")? as usize,
            rayon_threads: u("rayon_threads")? as usize,
            git_commit: s("git_commit")?,
            rustc: s("rustc")?,
            network: s("network")?,
        })
    }
}
