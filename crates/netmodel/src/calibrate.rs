//! The calibration protocol (paper §IV-B).
//!
//! Calibrating each of the `N(N−1)` directed links one by one costs too
//! much; the paper instead schedules rounds of `N/2` disjoint pairs so the
//! whole matrix is covered in `≈ 2N` rounds. The schedule is the classic
//! round-robin tournament (circle method): `N−1` rounds cover all unordered
//! pairs once with every instance busy in every round; each unordered round
//! is played twice — once per direction — giving `2(N−1)` rounds.
//!
//! Each pair is probed with a 1-byte message (latency α) and an 8 MB
//! message (bandwidth β), exactly the SKaMPI `Pingpong_Send_Recv` recipe
//! the paper uses.
//!
//! Every calibration path runs one serial round kernel: the schedule comes
//! from [`CalibrationConfig::schedule`], each round probes its α then its β
//! phase with the clock advancing by the slowest pair of each, and
//! [`fold_round`] turns the two phases into probe-log counters and fitted
//! cells. The entry points differ only in how one phase is measured:
//! [`Calibrator::calibrate`] through a `&mut` [`NetworkProbe`] (the
//! simulator models contention between a round's transfers), everything
//! else through a shared-reference [`FallibleNetworkProbe`] — which every
//! [`PureNetworkProbe`] is, with attempts that never fail. Every TP-matrix
//! path stacks its snapshots through [`FaultyTpRun::push`], and the
//! sharded workers of `cloudconst-coord` call the same [`fold_round`].

use crate::alpha_beta::LinkPerf;
use crate::fallible::{
    run_attempt_series, AdaptiveRetryPolicy, AttemptSeries, FallibleNetworkProbe, ProbeLog,
    ProbeOutcome, RetryPolicy,
};
use crate::perf_matrix::PerfMatrix;
use crate::tp_matrix::{ImputePolicy, TpMatrix};
use crate::{NetworkProbe, PureNetworkProbe, ALPHA_PROBE_BYTES, BETA_PROBE_BYTES};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Round-robin (circle method) schedule of directed probe rounds.
///
/// Returns `2(N−1)` rounds for even `N` (`2N` for odd `N`, one instance
/// idle per round); every round holds `⌊N/2⌋` disjoint `(sender, receiver)`
/// pairs and the union over rounds is every ordered pair exactly once.
pub fn pairing_rounds(n: usize) -> Vec<Vec<(usize, usize)>> {
    if n < 2 {
        return Vec::new();
    }
    // Circle method on m slots (m even); slot m-1 is a bye when n is odd.
    let m = if n.is_multiple_of(2) { n } else { n + 1 };
    let mut ring: Vec<usize> = (0..m).collect();
    let mut rounds = Vec::with_capacity(2 * (m - 1));
    for _ in 0..(m - 1) {
        let mut fwd = Vec::with_capacity(n / 2);
        let mut rev = Vec::with_capacity(n / 2);
        for k in 0..m / 2 {
            let a = ring[k];
            let b = ring[m - 1 - k];
            if a < n && b < n {
                fwd.push((a, b));
                rev.push((b, a));
            }
        }
        rounds.push(fwd);
        rounds.push(rev);
        // Rotate all but the first element.
        ring[1..].rotate_right(1);
    }
    rounds
}

/// Configuration of the calibration protocol.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CalibrationConfig {
    /// Probe size for latency (paper: 1 byte).
    pub small_bytes: u64,
    /// Probe size for bandwidth (paper: 8 MB).
    pub large_bytes: u64,
    /// When true, use the `N/2`-concurrent-pairs schedule; when false,
    /// probe links one at a time (the ablation baseline with `O(N²)` cost).
    pub concurrent: bool,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            small_bytes: ALPHA_PROBE_BYTES,
            large_bytes: BETA_PROBE_BYTES,
            concurrent: true,
        }
    }
}

impl CalibrationConfig {
    /// The probe rounds of one `n`-instance snapshot: the
    /// [`pairing_rounds`], or one directed pair per round in `(i, j)` order
    /// when `concurrent` is false.
    pub fn schedule(&self, n: usize) -> Vec<Vec<(usize, usize)>> {
        if self.concurrent {
            pairing_rounds(n)
        } else {
            (0..n)
                .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| vec![(i, j)]))
                .collect()
        }
    }
}

/// Fold one round's two phases into `log`: the attempt counters of both
/// phases accumulate, and each pair's cell ends `Ok` with the α-β fit of
/// its two measurements, or `Failed` when either phase measured nothing —
/// either way with `attempts = max(small, large)`. `cell` receives every
/// pair's final outcome and, for measured cells, the fitted link.
///
/// `small` and `large` hold the phases' probe sizes and per-pair series in
/// `pairs` order.
pub fn fold_round(
    log: &mut ProbeLog,
    pairs: &[(usize, usize)],
    (small_bytes, small): (u64, &[AttemptSeries]),
    (large_bytes, large): (u64, &[AttemptSeries]),
    mut cell: impl FnMut(usize, usize, ProbeOutcome, Option<LinkPerf>),
) {
    for (k, &(i, j)) in pairs.iter().enumerate() {
        let (s, l) = (small[k], large[k]);
        for ph in [s, l] {
            log.attempts += ph.attempts as u64;
            log.retries += (ph.attempts - 1) as u64;
            log.timeouts += ph.timeouts as u64;
            log.losses += ph.losses as u64;
            if ph.measured.is_some() {
                log.successes += 1;
            }
        }
        let attempts = s.attempts.max(l.attempts);
        let (outcome, link) = match (s.measured, l.measured) {
            (Some(ts), Some(tl)) => (
                ProbeOutcome::Ok(attempts),
                Some(LinkPerf::fit(small_bytes, ts, large_bytes, tl)),
            ),
            _ => (ProbeOutcome::Failed(attempts), None),
        };
        log.set_outcome(i, j, outcome);
        cell(i, j, outcome, link);
    }
}

/// Outcome of one all-link calibration.
#[derive(Debug, Clone)]
pub struct CalibrationRun {
    /// The measured all-link snapshot. Cells whose outcome is
    /// [`ProbeOutcome::Failed`] hold the `PerfMatrix::ideal` placeholder —
    /// consumers must consult [`CalibrationRun::outcomes`] (or build the
    /// TP-matrix through `push_masked`) rather than trust them.
    pub perf: PerfMatrix,
    /// Wall time the calibration occupied on the (simulated) network: the
    /// per-round maxima summed over rounds, including retry backoff and
    /// timed-out deadlines on the fallible paths.
    pub overhead: f64,
    /// Number of probe rounds executed.
    pub rounds: usize,
    /// Per-cell probe outcomes and aggregate attempt counters. A probe
    /// that cannot fail records every link as measured first try.
    pub outcomes: ProbeLog,
}

/// Drives a probe through the calibration protocol.
#[derive(Debug, Clone, Default)]
pub struct Calibrator {
    /// Protocol parameters.
    pub config: CalibrationConfig,
}

impl Calibrator {
    /// Calibrator with the paper's defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Measure the full all-link performance matrix starting at `now`.
    /// Each phase of a round goes through
    /// [`NetworkProbe::probe_concurrent`], so backends that model
    /// contention between simultaneous transfers see the whole round.
    pub fn calibrate<P: NetworkProbe>(&self, probe: &mut P, now: f64) -> CalibrationRun {
        let n = probe.n();
        self.drive(n, now, |pairs, bytes, at| {
            let times = probe.probe_concurrent(pairs, bytes, at);
            times.into_iter().map(AttemptSeries::ok).collect()
        })
    }

    /// Measure the all-link matrix through a shared reference: every
    /// (pair, phase) gets a per-attempt deadline and the bounded
    /// retry/backoff of `retry`; cells whose attempts all fail are recorded
    /// as [`ProbeOutcome::Failed`] instead of fabricating a value.
    ///
    /// A probe that never fails (every [`PureNetworkProbe`]) measures each
    /// pair first try and backoff never engages, so the result — matrix,
    /// overhead, round count and log — is bit-identical to
    /// [`Calibrator::calibrate`] on the same probe (pinned by tests).
    pub fn calibrate_par<P: FallibleNetworkProbe>(
        &self,
        probe: &P,
        now: f64,
        retry: &RetryPolicy,
    ) -> CalibrationRun {
        self.calibrate_planned(probe, now, |_, _| retry.clone())
    }

    /// One fallible snapshot in which directed link `(i, j)` runs the retry
    /// policy `policy_for(i, j)`. The policies are fixed before the
    /// snapshot starts, so every attempt series stays a pure function of
    /// `(pair, bytes, time)`.
    fn calibrate_planned<P: FallibleNetworkProbe>(
        &self,
        probe: &P,
        now: f64,
        policy_for: impl Fn(usize, usize) -> RetryPolicy,
    ) -> CalibrationRun {
        self.drive(probe.n(), now, |pairs, bytes, at| {
            pairs
                .iter()
                .map(|&(i, j)| {
                    let retry = policy_for(i, j);
                    run_attempt_series(
                        |t| probe.try_probe(i, j, bytes, t, retry.deadline),
                        at,
                        &retry,
                    )
                })
                .collect()
        })
    }

    /// The round kernel every calibration path runs. `phase` measures one
    /// round's pairs at one probe size starting at an absolute time,
    /// returning the per-pair attempt series in pair order; the clock
    /// advances by the slowest series of each phase — retries and burnt
    /// deadlines included, so faults honestly inflate the overhead.
    fn drive(
        &self,
        n: usize,
        now: f64,
        mut phase: impl FnMut(&[(usize, usize)], u64, f64) -> Vec<AttemptSeries>,
    ) -> CalibrationRun {
        let (small_bytes, large_bytes) = (self.config.small_bytes, self.config.large_bytes);
        let mut perf = PerfMatrix::ideal(n);
        let mut log = ProbeLog::new(n);
        let mut clock = now;
        let schedule = self.config.schedule(n);
        for pairs in &schedule {
            let small = phase(pairs, small_bytes, clock);
            clock += small.iter().map(|s| s.consumed).fold(0.0, f64::max);
            let large = phase(pairs, large_bytes, clock);
            clock += large.iter().map(|s| s.consumed).fold(0.0, f64::max);
            fold_round(
                &mut log,
                pairs,
                (small_bytes, &small),
                (large_bytes, &large),
                |i, j, _, link| {
                    if let Some(link) = link {
                        perf.set(i, j, link);
                    }
                },
            );
        }
        CalibrationRun {
            perf,
            overhead: clock - now,
            rounds: schedule.len(),
            outcomes: log,
        }
    }

    /// Build a TP-matrix of `steps` snapshots, one every `interval` seconds
    /// starting at `start`, through [`Calibrator::calibrate`]. Returns the
    /// TP-matrix and the total calibration overhead (time the probes
    /// occupied the network).
    pub fn calibrate_tp<P: NetworkProbe>(
        &self,
        probe: &mut P,
        start: f64,
        interval: f64,
        steps: usize,
    ) -> (TpMatrix, f64) {
        let mut run = FaultyTpRun::new(probe.n(), steps);
        for k in 0..steps {
            let t = snapshot_time(start, interval, k);
            let snapshot = self.calibrate(probe, t);
            // Every cell is observed: nothing to impute.
            run.push(t, snapshot, ImputePolicy::LastGood);
        }
        (run.tp, run.overhead)
    }

    /// [`Calibrator::calibrate_tp_faulty_par`] on a probe that never fails,
    /// projected to the TP-matrix and the overhead: the bits of
    /// [`Calibrator::calibrate_tp`] on the same probe.
    pub fn calibrate_tp_par<P: PureNetworkProbe + Sync>(
        &self,
        probe: &P,
        start: f64,
        interval: f64,
        steps: usize,
    ) -> (TpMatrix, f64) {
        let run = self.calibrate_tp_faulty_par(
            probe,
            start,
            interval,
            steps,
            &RetryPolicy::default(),
            ImputePolicy::LastGood,
        );
        (run.tp, run.overhead)
    }

    /// Build a TP-matrix of `steps` snapshots, each through
    /// [`Calibrator::calibrate_par`]; unobserved cells are imputed per
    /// `impute` and recorded in the TP-matrix's observation mask, and the
    /// per-snapshot probe logs are returned for health reporting. Each
    /// snapshot is a function of its start time alone, so the snapshots
    /// run as one ordered parallel map — each still through the serial
    /// round kernel — and stack in time order: the result is the bits of
    /// the serial loop.
    pub fn calibrate_tp_faulty_par<P: FallibleNetworkProbe + Sync>(
        &self,
        probe: &P,
        start: f64,
        interval: f64,
        steps: usize,
        retry: &RetryPolicy,
        impute: ImputePolicy,
    ) -> FaultyTpRun {
        let snapshots: Vec<(f64, CalibrationRun)> = (0..steps)
            .into_par_iter()
            .map(|k| {
                let t = snapshot_time(start, interval, k);
                (t, self.calibrate_par(probe, t, retry))
            })
            .collect();
        let mut run = FaultyTpRun::new(probe.n(), steps);
        for (t, snapshot) in snapshots {
            run.push(t, snapshot, impute);
        }
        run
    }

    /// The adaptive recovery loop over a whole campaign: each snapshot's
    /// retry budget is planned by `adaptive` from the worst-wins merge of
    /// every earlier snapshot's probe log, so extra attempts concentrate
    /// on the links that have actually been failing while clean links run
    /// the lean cold schedule. The first snapshot has no history and runs
    /// all-cold. Each plan reads the earlier logs, so the snapshots run
    /// one after the other.
    pub fn calibrate_tp_faulty_adaptive<P: FallibleNetworkProbe>(
        &self,
        probe: &P,
        start: f64,
        interval: f64,
        steps: usize,
        adaptive: &AdaptiveRetryPolicy,
        impute: ImputePolicy,
    ) -> FaultyTpRun {
        let n = probe.n();
        let mut history: Option<ProbeLog> = None;
        let mut run = FaultyTpRun::new(n, steps);
        for k in 0..steps {
            let t = snapshot_time(start, interval, k);
            let plan = adaptive.plan(n, history.as_ref(), &[]);
            let snapshot = self.calibrate_planned(probe, t, |i, j| plan.policy_for(i, j));
            match &mut history {
                Some(h) => h.absorb(&snapshot.outcomes),
                None => history = Some(snapshot.outcomes.clone()),
            }
            run.push(t, snapshot, impute);
        }
        run
    }
}

/// Start time of snapshot `k` of a campaign.
fn snapshot_time(start: f64, interval: f64, k: usize) -> f64 {
    start + k as f64 * interval
}

/// Result of a TP-matrix calibration campaign.
#[derive(Debug, Clone)]
pub struct FaultyTpRun {
    /// The (masked, imputed) temporal performance matrix.
    pub tp: TpMatrix,
    /// Total simulated time the probes (and their retries) occupied the
    /// network.
    pub overhead: f64,
    /// One probe log per snapshot, in time order.
    pub logs: Vec<ProbeLog>,
}

impl FaultyTpRun {
    /// A campaign of no snapshots over an `n`-instance cluster, with room
    /// for the `steps` snapshots it will push reserved up front.
    pub fn new(n: usize, steps: usize) -> Self {
        let mut tp = TpMatrix::new(n);
        tp.reserve(steps);
        FaultyTpRun {
            tp,
            overhead: 0.0,
            logs: Vec::with_capacity(steps),
        }
    }

    /// Append `snapshot`, taken at `time`, to the campaign: its cells join
    /// the TP-matrix under its own observation mask (unobserved cells
    /// filled per `impute`), its overhead adds to the total and its log is
    /// kept. Every TP calibration path, sharded or not, stacks its
    /// snapshots through here in time order.
    pub fn push(&mut self, time: f64, snapshot: CalibrationRun, impute: ImputePolicy) {
        let observed = snapshot.outcomes.observed_mask();
        self.tp.push_masked(time, &snapshot.perf, &observed, impute);
        self.overhead += snapshot.overhead;
        self.logs.push(snapshot.outcomes);
    }

    /// Aggregate counters across every snapshot of the campaign.
    pub fn aggregate_log(&self) -> ProbeLog {
        let n = self.tp.n();
        let mut total = ProbeLog::new(n);
        for log in &self.logs {
            total.absorb_counters(log);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fallible::ProbeAttempt;
    use std::collections::HashSet;

    #[test]
    fn rounds_cover_all_ordered_pairs_exactly_once() {
        for n in [2usize, 3, 4, 5, 8, 9, 16] {
            let rounds = pairing_rounds(n);
            let mut seen = HashSet::new();
            for round in &rounds {
                let mut busy = HashSet::new();
                for &(a, b) in round {
                    assert_ne!(a, b);
                    assert!(a < n && b < n);
                    // Disjointness within a round.
                    assert!(busy.insert(a), "n={n}: {a} busy twice in a round");
                    assert!(busy.insert(b), "n={n}: {b} busy twice in a round");
                    assert!(seen.insert((a, b)), "n={n}: pair ({a},{b}) repeated");
                }
            }
            assert_eq!(seen.len(), n * (n - 1), "n={n}: missing pairs");
        }
    }

    #[test]
    fn round_count_is_linear() {
        assert_eq!(pairing_rounds(8).len(), 14); // 2(N-1)
        assert_eq!(pairing_rounds(9).len(), 18); // odd: 2N
        assert!(pairing_rounds(1).is_empty());
        assert!(pairing_rounds(0).is_empty());
    }

    #[test]
    fn rounds_are_half_n_wide() {
        let rounds = pairing_rounds(8);
        for r in &rounds {
            assert_eq!(r.len(), 4);
        }
    }

    /// A probe with known α-β parameters per link.
    struct ModelProbe(PerfMatrix);
    impl NetworkProbe for ModelProbe {
        fn n(&self) -> usize {
            self.0.n()
        }
        fn probe(&mut self, i: usize, j: usize, bytes: u64, _now: f64) -> f64 {
            self.0.transfer_time(i, j, bytes)
        }
    }

    #[test]
    fn calibration_recovers_model() {
        let truth = PerfMatrix::from_fn(6, |i, j| {
            LinkPerf::new(1e-4 * (1 + i) as f64, 1e8 * (1 + j) as f64)
        });
        let mut probe = ModelProbe(truth.clone());
        let run = Calibrator::new().calibrate(&mut probe, 0.0);
        for i in 0..6 {
            for j in 0..6 {
                if i == j {
                    continue;
                }
                let a = truth.link(i, j);
                let b = run.perf.link(i, j);
                assert!((a.alpha - b.alpha).abs() / a.alpha < 1e-3);
                assert!((a.beta - b.beta).abs() / a.beta < 1e-3, "({i},{j})");
            }
        }
        assert!(run.overhead > 0.0);
        assert_eq!(run.rounds, 10); // 2(6-1)
    }

    #[test]
    fn sequential_mode_probes_one_by_one() {
        let truth = PerfMatrix::from_fn(4, |_, _| LinkPerf::new(1e-4, 1e9));
        let mut probe = ModelProbe(truth);
        let cal = Calibrator {
            config: CalibrationConfig {
                concurrent: false,
                ..Default::default()
            },
        };
        let run = cal.calibrate(&mut probe, 0.0);
        assert_eq!(run.rounds, 12); // N(N-1)
    }

    #[test]
    fn sequential_overhead_exceeds_concurrent() {
        let truth = PerfMatrix::from_fn(8, |_, _| LinkPerf::new(1e-3, 1e8));
        let concurrent = Calibrator::new().calibrate(&mut ModelProbe(truth.clone()), 0.0);
        let sequential = Calibrator {
            config: CalibrationConfig {
                concurrent: false,
                ..Default::default()
            },
        }
        .calibrate(&mut ModelProbe(truth), 0.0);
        assert!(sequential.overhead > concurrent.overhead);
    }

    #[test]
    fn calibrate_tp_stacks_snapshots() {
        let truth = PerfMatrix::from_fn(4, |_, _| LinkPerf::new(1e-4, 1e9));
        let mut probe = ModelProbe(truth);
        let (tp, total) = Calibrator::new().calibrate_tp(&mut probe, 100.0, 60.0, 5);
        assert_eq!(tp.steps(), 5);
        assert_eq!(tp.times(), &[100.0, 160.0, 220.0, 280.0, 340.0]);
        assert!(total > 0.0);
    }

    impl PureNetworkProbe for ModelProbe {
        fn probe_pure(&self, i: usize, j: usize, bytes: u64, _now: f64) -> f64 {
            self.0.transfer_time(i, j, bytes)
        }
    }

    #[test]
    fn parallel_calibration_is_bit_identical() {
        // 24 VMs → 12-pair rounds.
        let truth = PerfMatrix::from_fn(24, |i, j| {
            LinkPerf::new(1e-4 * (1 + (i * 7 + j) % 5) as f64, 1e8 * (1 + (i + j) % 3) as f64)
        });
        let serial = Calibrator::new().calibrate(&mut ModelProbe(truth.clone()), 10.0);
        let par =
            Calibrator::new().calibrate_par(&ModelProbe(truth), 10.0, &RetryPolicy::default());
        assert_eq!(par.rounds, serial.rounds);
        assert_eq!(par.overhead.to_bits(), serial.overhead.to_bits());
        for i in 0..24 {
            for j in 0..24 {
                let a = serial.perf.link(i, j);
                let b = par.perf.link(i, j);
                assert_eq!(a.alpha.to_bits(), b.alpha.to_bits(), "alpha ({i},{j})");
                assert_eq!(a.beta.to_bits(), b.beta.to_bits(), "beta ({i},{j})");
            }
        }
    }

    /// Fallible wrapper over a model probe: links in `dead` always lose
    /// their probes; every attempt before `flaky_until` is lost (a
    /// transient episode that retries can outlast); everything else
    /// succeeds with the model's time.
    struct FlakyProbe {
        truth: PerfMatrix,
        dead: Vec<(usize, usize)>,
        flaky_until: f64,
    }

    impl FlakyProbe {
        fn reliable(truth: PerfMatrix) -> Self {
            FlakyProbe {
                truth,
                dead: Vec::new(),
                flaky_until: f64::NEG_INFINITY,
            }
        }

        fn attempt(&self, i: usize, j: usize, bytes: u64, now: f64) -> ProbeAttempt {
            if self.dead.contains(&(i, j)) || now < self.flaky_until {
                ProbeAttempt::Lost
            } else {
                ProbeAttempt::Ok(self.truth.transfer_time(i, j, bytes))
            }
        }
    }

    impl FallibleNetworkProbe for FlakyProbe {
        fn n(&self) -> usize {
            self.truth.n()
        }
        fn try_probe(
            &self,
            i: usize,
            j: usize,
            bytes: u64,
            now: f64,
            _deadline: f64,
        ) -> ProbeAttempt {
            self.attempt(i, j, bytes, now)
        }
    }

    fn truth6() -> PerfMatrix {
        PerfMatrix::from_fn(6, |i, j| {
            LinkPerf::new(1e-4 * (1 + i) as f64, 1e8 * (1 + j) as f64)
        })
    }

    #[test]
    fn fault_free_fallible_path_is_bit_identical() {
        let plain = Calibrator::new().calibrate(&mut ModelProbe(truth6()), 50.0);
        let faulty = Calibrator::new().calibrate_par(
            &FlakyProbe::reliable(truth6()),
            50.0,
            &RetryPolicy::default(),
        );
        assert_eq!(faulty.rounds, plain.rounds);
        assert_eq!(faulty.overhead.to_bits(), plain.overhead.to_bits());
        assert_eq!(faulty.outcomes, plain.outcomes);
        for i in 0..6 {
            for j in 0..6 {
                let a = plain.perf.link(i, j);
                let b = faulty.perf.link(i, j);
                assert_eq!(a.alpha.to_bits(), b.alpha.to_bits(), "alpha ({i},{j})");
                assert_eq!(a.beta.to_bits(), b.beta.to_bits(), "beta ({i},{j})");
            }
        }
    }

    #[test]
    fn dead_link_exhausts_retries_and_is_masked() {
        let probe = FlakyProbe {
            truth: truth6(),
            dead: vec![(0, 1)],
            flaky_until: f64::NEG_INFINITY,
        };
        let retry = RetryPolicy::default();
        let run = Calibrator::new().calibrate_par(&probe, 0.0, &retry);
        assert_eq!(
            run.outcomes.outcome(0, 1),
            ProbeOutcome::Failed(retry.max_attempts)
        );
        assert!(!run.outcomes.observed(0, 1));
        assert_eq!(run.outcomes.failed_links(), vec![(0, 1)]);
        // Other links measured normally.
        assert_eq!(run.outcomes.outcome(1, 0), ProbeOutcome::Ok(1));
        // The dead link burnt deadlines + backoff, so the campaign is
        // slower than the clean one.
        let clean = Calibrator::new().calibrate(&mut ModelProbe(truth6()), 0.0);
        assert!(run.overhead > clean.overhead);
        assert!(run.outcomes.losses >= retry.max_attempts as u64);
    }

    #[test]
    fn transient_fault_cleared_by_retry() {
        // Every attempt in the first second is lost; the retry (deadline
        // 2 s + backoff 0.5 s later) lands after the episode.
        let probe = FlakyProbe {
            truth: truth6(),
            dead: Vec::new(),
            flaky_until: 1.0,
        };
        let run = Calibrator::new().calibrate_par(&probe, 0.0, &RetryPolicy::default());
        assert_eq!(run.outcomes.failed_links().len(), 0, "retries should recover");
        assert!(run.outcomes.retries > 0);
        assert!(run.outcomes.losses > 0);
        // The recovered cells are marked as retried.
        let retried = (0..6)
            .flat_map(|i| (0..6).map(move |j| (i, j)))
            .filter(|&(i, j)| matches!(run.outcomes.outcome(i, j), ProbeOutcome::Ok(a) if a > 1))
            .count();
        assert!(retried > 0);
    }

    #[test]
    fn calibrate_tp_faulty_masks_and_imputes() {
        let probe = FlakyProbe {
            truth: truth6(),
            dead: vec![(2, 4)],
            flaky_until: f64::NEG_INFINITY,
        };
        let run = Calibrator::new().calibrate_tp_faulty_par(
            &probe,
            0.0,
            500.0,
            4,
            &RetryPolicy::default(),
            ImputePolicy::LastGood,
        );
        assert_eq!(run.tp.steps(), 4);
        assert_eq!(run.logs.len(), 4);
        for k in 0..4 {
            assert!(!run.tp.observed(k, 2, 4));
            assert!(run.tp.observed(k, 4, 2));
        }
        assert!(run.tp.masked_fraction() > 0.0);
        // The imputed cell holds the snapshot median (no history ever
        // observed it), which is a plausible — finite, positive — value.
        let cell = 2 * 6 + 4;
        let v = run.tp.inv_beta_matrix()[(0, cell)];
        assert!(v.is_finite() && v > 0.0, "imputed inv_beta {v}");
        let agg = run.aggregate_log();
        assert!(agg.losses >= 4 * RetryPolicy::default().max_attempts as u64);
        assert!(agg.success_rate() < 1.0);
    }

    #[test]
    fn adaptive_campaign_upgrades_failing_links_over_time() {
        // (0,1) is permanently dead. Snapshot 0 runs all-cold (no
        // history); every later snapshot must grant the dead link the hot
        // attempt cap while clean links stay cold.
        let probe = FlakyProbe {
            truth: truth6(),
            dead: vec![(0, 1)],
            flaky_until: f64::NEG_INFINITY,
        };
        let adaptive = AdaptiveRetryPolicy::default(); // cold 2, hot 4
        let run = Calibrator::new().calibrate_tp_faulty_adaptive(
            &probe,
            0.0,
            500.0,
            3,
            &adaptive,
            ImputePolicy::LastGood,
        );
        assert_eq!(run.logs.len(), 3);
        assert_eq!(
            run.logs[0].outcome(0, 1),
            ProbeOutcome::Failed(adaptive.cold_attempts),
            "first snapshot has no history to react to"
        );
        for k in 1..3 {
            assert_eq!(
                run.logs[k].outcome(0, 1),
                ProbeOutcome::Failed(adaptive.hot_attempts),
                "snapshot {k} should spend its budget on the dead link"
            );
            // A clean link never earns extra attempts.
            assert_eq!(run.logs[k].outcome(1, 0), ProbeOutcome::Ok(1));
        }
        // The dead cell stays masked throughout.
        for k in 0..3 {
            assert!(!run.tp.observed(k, 0, 1));
        }
    }

    #[test]
    fn planned_calibration_matches_fixed_policy_when_uniform() {
        // A plan that grants every link the same cap must reproduce the
        // fixed-policy path bit for bit.
        let probe = FlakyProbe {
            truth: truth6(),
            dead: vec![(2, 4)],
            flaky_until: 1.0,
        };
        let fixed = RetryPolicy::default();
        let adaptive = AdaptiveRetryPolicy {
            base: fixed.clone(),
            cold_attempts: fixed.max_attempts,
            hot_attempts: fixed.max_attempts,
            budget: 0,
        };
        let plan = adaptive.plan(6, None, &[]);
        let a = Calibrator::new().calibrate_planned(&probe, 7.0, |i, j| plan.policy_for(i, j));
        let b = Calibrator::new().calibrate_par(&probe, 7.0, &fixed);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.overhead.to_bits(), b.overhead.to_bits());
    }

    #[test]
    fn parallel_tp_matches_serial() {
        let truth = PerfMatrix::from_fn(16, |i, j| {
            LinkPerf::new(2e-4 + 1e-5 * i as f64, 5e7 + 1e6 * j as f64)
        });
        let (tp_s, total_s) =
            Calibrator::new().calibrate_tp(&mut ModelProbe(truth.clone()), 0.0, 30.0, 4);
        let (tp_p, total_p) = Calibrator::new().calibrate_tp_par(&ModelProbe(truth), 0.0, 30.0, 4);
        assert_eq!(total_p.to_bits(), total_s.to_bits());
        assert_eq!(tp_p.times(), tp_s.times());
        for (ms, mp) in [
            (tp_s.alpha_matrix(), tp_p.alpha_matrix()),
            (tp_s.inv_beta_matrix(), tp_p.inv_beta_matrix()),
        ] {
            assert_eq!(ms.shape(), mp.shape());
            for (a, b) in ms.as_slice().iter().zip(mp.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn infallible_log_counts_two_first_try_probes_per_link() {
        let run = Calibrator::new().calibrate(&mut ModelProbe(truth6()), 0.0);
        let log = &run.outcomes;
        assert_eq!(log.attempts, 60); // 2 × 6·5
        assert_eq!(log.successes, 60);
        assert_eq!(log.retries + log.timeouts + log.losses, 0);
        assert!(log.failed_links().is_empty());
        assert_eq!(log.outcome(1, 2), ProbeOutcome::Ok(1));
        assert_eq!(log.outcome(2, 2), ProbeOutcome::Unprobed);
    }

    #[test]
    fn degenerate_clusters_calibrate_to_empty_runs() {
        for n in [0usize, 1] {
            let truth = PerfMatrix::from_fn(n, |_, _| LinkPerf::new(1e-4, 1e9));
            let flaky = FlakyProbe::reliable(truth.clone());
            let retry = RetryPolicy::default();
            let cal = Calibrator::new();
            let snapshots = [
                (
                    "calibrate",
                    cal.calibrate(&mut ModelProbe(truth.clone()), 5.0),
                ),
                (
                    "calibrate_par",
                    cal.calibrate_par(&ModelProbe(truth.clone()), 5.0, &retry),
                ),
                (
                    "calibrate_par (fallible)",
                    cal.calibrate_par(&flaky, 5.0, &retry),
                ),
            ];
            for (name, run) in snapshots {
                assert_eq!(run.rounds, 0, "{name} n={n}");
                assert_eq!(run.overhead, 0.0, "{name} n={n}");
                assert_eq!(run.outcomes.attempts, 0, "{name} n={n}");
                assert_eq!(run.perf.n(), n, "{name} n={n}");
            }
            let tps = [
                (
                    "calibrate_tp",
                    cal.calibrate_tp(&mut ModelProbe(truth.clone()), 5.0, 60.0, 3),
                ),
                (
                    "calibrate_tp_par",
                    cal.calibrate_tp_par(&ModelProbe(truth.clone()), 5.0, 60.0, 3),
                ),
            ];
            for (name, (tp, overhead)) in tps {
                assert_eq!(overhead, 0.0, "{name} n={n}");
                assert_eq!(tp.steps(), 3, "{name} n={n}");
            }
            let faulty = [
                (
                    "calibrate_tp_faulty_par",
                    cal.calibrate_tp_faulty_par(
                        &flaky,
                        5.0,
                        60.0,
                        3,
                        &retry,
                        ImputePolicy::LastGood,
                    ),
                ),
                (
                    "calibrate_tp_faulty_adaptive",
                    cal.calibrate_tp_faulty_adaptive(
                        &flaky,
                        5.0,
                        60.0,
                        3,
                        &AdaptiveRetryPolicy::default(),
                        ImputePolicy::LastGood,
                    ),
                ),
            ];
            for (name, run) in faulty {
                assert_eq!(run.overhead, 0.0, "{name} n={n}");
                assert_eq!(run.logs.len(), 3, "{name} n={n}");
                assert_eq!(run.aggregate_log().attempts, 0, "{name} n={n}");
            }
        }
    }
}
