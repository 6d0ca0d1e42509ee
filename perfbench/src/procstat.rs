//! Process counters read from `/proc/self`.

use std::fs;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, 100 per second on
/// every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// A snapshot of the process's resource counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSnapshot {
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    pub minor_faults: f64,
    /// Summed over the threads alive at the snapshot.
    pub vol_ctx_switches: f64,
    pub invol_ctx_switches: f64,
}

impl ProcSnapshot {
    /// Read the counters now; zeros where `/proc` is unavailable.
    pub fn now() -> Self {
        let mut s = ProcSnapshot::default();
        if let Ok(stat) = fs::read_to_string("/proc/self/stat") {
            // Fields after the parenthesised command name, which may hold
            // spaces: state is field 3, minflt 10, utime 14, stime 15.
            if let Some(rest) = stat.rfind(')').map(|p| &stat[p + 1..]) {
                let f: Vec<&str> = rest.split_whitespace().collect();
                let num = |i: usize| {
                    f.get(i - 3)
                        .and_then(|v| v.parse::<f64>().ok())
                        .unwrap_or(0.0)
                };
                s.minor_faults = num(10);
                s.cpu_user_s = num(14) / USER_HZ;
                s.cpu_sys_s = num(15) / USER_HZ;
            }
        }
        if let Ok(tasks) = fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let Ok(status) = fs::read_to_string(task.path().join("status")) else {
                    continue;
                };
                s.vol_ctx_switches += status_field(&status, "voluntary_ctxt_switches:");
                s.invol_ctx_switches += status_field(&status, "nonvoluntary_ctxt_switches:");
            }
        }
        s
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &ProcSnapshot) -> ProcSnapshot {
        ProcSnapshot {
            cpu_user_s: self.cpu_user_s - earlier.cpu_user_s,
            cpu_sys_s: self.cpu_sys_s - earlier.cpu_sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
            vol_ctx_switches: self.vol_ctx_switches - earlier.vol_ctx_switches,
            invol_ctx_switches: self.invol_ctx_switches - earlier.invol_ctx_switches,
        }
    }

    pub fn add(&mut self, other: &ProcSnapshot) {
        self.cpu_user_s += other.cpu_user_s;
        self.cpu_sys_s += other.cpu_sys_s;
        self.minor_faults += other.minor_faults;
        self.vol_ctx_switches += other.vol_ctx_switches;
        self.invol_ctx_switches += other.invol_ctx_switches;
    }
}

fn status_field(status: &str, key: &str) -> f64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .map(|s| status_field(&s, "VmHWM:") / 1024.0)
        .unwrap_or(0.0)
}
