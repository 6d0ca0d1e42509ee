//! Network performance modeling for `cloudconst`.
//!
//! Everything the paper's §III defines lives here:
//!
//! * [`alpha_beta`] — the α-β link model: transfer time of `n` bytes over a
//!   link is `α + n/β` (latency plus size over bandwidth).
//! * [`perf_matrix`] — [`PerfMatrix`], a snapshot of all-link (pair-wise)
//!   performance for an `N`-instance virtual cluster: two `N × N` matrices
//!   (latency and inverse bandwidth).
//! * [`tp_matrix`] — [`TpMatrix`], the temporal performance matrix: `n`
//!   calibration snapshots flattened row-wise into an `n × N²` matrix, the
//!   direct input to RPCA and the one container of recorded snapshots (the
//!   record/replay method of §V-D3 replays a `TpMatrix` in memory).
//! * [`calibrate`] — the SKaMPI-style ping-pong calibration protocol with
//!   the paper's `N/2`-concurrent-pairs round schedule (§IV-B), expressed
//!   against two backend-agnostic probe traits: [`NetworkProbe`] through a
//!   `&mut` reference, for backends whose probes change their own state,
//!   and [`FallibleNetworkProbe`] through a shared one, for everything
//!   else.
//! * [`fallible`] — attempt outcomes, retry/backoff and probe logs. A
//!   [`PureNetworkProbe`] is a fallible probe whose attempts never fail, so
//!   a clean calibration is the fault-aware one with every cell observed:
//!   one calibration path, not a clean twin and a faulty twin.
//!
//! Conventions: time is `f64` seconds, sizes are `u64` bytes, bandwidth is
//! bytes/second. Internally the *inverse* bandwidth (seconds/byte) is
//! stored so that averaging and RPCA operate in the same linear domain as
//! transfer time; self-links have zero latency and zero inverse bandwidth.

pub mod alpha_beta;
pub mod calibrate;
pub mod coords;
pub mod fallible;
pub mod perf_matrix;
pub mod tp_matrix;

pub use alpha_beta::LinkPerf;
pub use calibrate::{
    fold_round, pairing_rounds, CalibrationConfig, CalibrationRun, Calibrator, FaultyTpRun,
};
pub use coords::{triangle_violation_rate, vivaldi, VivaldiModel};
pub use fallible::{
    run_attempt_series, AdaptiveRetryPolicy, AttemptSeries, FallibleNetworkProbe, ProbeAttempt,
    ProbeLog, ProbeOutcome, RetryPlan, RetryPolicy,
};
pub use perf_matrix::PerfMatrix;
pub use tp_matrix::{ImputePolicy, TpMatrix};

/// One megabyte, in bytes.
pub const MB: u64 = 1 << 20;

/// The paper's calibration probe sizes: α from a 1-byte message, β from an
/// 8 MB message (results stable above 8 MB on EC2, §IV-B).
pub const ALPHA_PROBE_BYTES: u64 = 1;
/// See [`ALPHA_PROBE_BYTES`].
pub const BETA_PROBE_BYTES: u64 = 8 * MB;

/// Backend-agnostic interface to something that can carry a measured
/// message: the synthetic cloud or the discrete-event simulator.
///
/// `now` is the simulated time at which the transfer starts; implementors
/// may use it to sample time-varying link state. The returned value is the
/// elapsed transfer time in seconds.
pub trait NetworkProbe {
    /// Number of endpoints (virtual machines) reachable through this probe.
    fn n(&self) -> usize;

    /// Elapsed time to move `bytes` from instance `i` to instance `j`
    /// starting at time `now`. `i == j` must return 0.
    fn probe(&mut self, i: usize, j: usize, bytes: u64, now: f64) -> f64;

    /// Measure several transfers that start simultaneously. The default
    /// implementation measures them independently (no interference);
    /// backends that model contention override it.
    fn probe_concurrent(&mut self, pairs: &[(usize, usize)], bytes: u64, now: f64) -> Vec<f64> {
        pairs
            .iter()
            .map(|&(i, j)| self.probe(i, j, bytes, now))
            .collect()
    }
}

/// A probe whose measurements are pure functions of `(i, j, bytes, now)`:
/// probing mutates no state, so it can be calibrated through a shared
/// reference. The synthetic cloud qualifies (its link state is
/// hash-derived from `(seed, stream, i, j, t)`); the discrete-event
/// simulator does not (probes advance its event queue).
///
/// Implementors must satisfy `probe_pure(i, j, b, t) ==`
/// [`NetworkProbe::probe`]`(i, j, b, t)` for every input. Every pure probe
/// is also a [`FallibleNetworkProbe`] whose attempts always succeed.
pub trait PureNetworkProbe: NetworkProbe {
    /// [`NetworkProbe::probe`] through a shared reference.
    fn probe_pure(&self, i: usize, j: usize, bytes: u64, now: f64) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(f64, usize);
    impl NetworkProbe for Fixed {
        fn n(&self) -> usize {
            self.1
        }
        fn probe(&mut self, i: usize, j: usize, _bytes: u64, _now: f64) -> f64 {
            if i == j {
                0.0
            } else {
                self.0
            }
        }
    }

    #[test]
    fn default_concurrent_probe_matches_sequential() {
        let mut p = Fixed(0.25, 4);
        let times = p.probe_concurrent(&[(0, 1), (2, 3)], 100, 0.0);
        assert_eq!(times, vec![0.25, 0.25]);
    }
}
