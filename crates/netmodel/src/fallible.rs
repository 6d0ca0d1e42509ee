//! Fault-aware probing: attempt outcomes, retry/backoff policy, and the
//! fallible probe traits.
//!
//! A week-long calibration campaign on a real IaaS cloud loses probes —
//! SKaMPI-style ping-pong rounds hit timeouts, stragglers and transient
//! blackouts. The plain [`crate::NetworkProbe`] cannot express that (a
//! probe always returns a time), so calibration either panics or silently
//! fabricates values. This module adds the honest path:
//!
//! * [`ProbeAttempt`] — what one ping-pong attempt did: completed, timed
//!   out (a straggler outlived the deadline), or was lost in flight.
//! * [`RetryPolicy`] — per-attempt deadline plus bounded retry with
//!   deterministic exponential backoff. No jitter: calibration must be
//!   replayable bit for bit from a seed.
//! * [`ProbeOutcome`] / [`ProbeLog`] — per-link bookkeeping of how each
//!   cell of the measurement matrix was (or was not) observed, plus the
//!   aggregate counters a health report needs.
//! * [`FallibleNetworkProbe`] — the one probe interface the shared-reference
//!   calibration paths consume. Every [`PureNetworkProbe`] is one whose
//!   attempts always succeed, so a clean probe and a faulty one run the
//!   same calibration; the synthetic cloud's fault wrapper lives in
//!   `cloudconst-cloud`.

use crate::PureNetworkProbe;

/// Result of a single probe attempt against a fallible backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeAttempt {
    /// The transfer completed in the given number of seconds (≤ deadline).
    Ok(f64),
    /// The transfer was still running at the deadline (straggler); the
    /// prober gave up and charged the full deadline.
    TimedOut,
    /// The probe vanished in flight (packet loss, VM blackout); detected
    /// only by waiting out the full deadline.
    Lost,
}

/// Per-attempt deadline and bounded retry with deterministic exponential
/// backoff.
///
/// Attempt `k` (1-based) starts `backoff(k)` seconds after the previous
/// attempt's deadline expired, where `backoff(1) = 0` and
/// `backoff(k) = backoff_base · backoff_mult^(k−2)` for `k ≥ 2`. All
/// delays are simulated seconds charged to the calibration overhead —
/// never wall-clock sleeps.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Seconds a single attempt may run before it is declared dead. Must
    /// comfortably exceed an honest worst-case probe (an 8 MB transfer
    /// over a congested cross-rack link is ~1.5 s on the EC2-like cloud).
    pub deadline: f64,
    /// Maximum attempts per probe, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt, in seconds.
    pub backoff_base: f64,
    /// Geometric growth of the backoff per further attempt.
    pub backoff_mult: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            deadline: 2.0,
            max_attempts: 3,
            backoff_base: 0.5,
            backoff_mult: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Deterministic wait before attempt `k` (1-based). Zero for the first
    /// attempt, `backoff_base · backoff_mult^(k−2)` afterwards.
    pub fn backoff(&self, attempt: u32) -> f64 {
        if attempt <= 1 {
            0.0
        } else {
            self.backoff_base * self.backoff_mult.powi(attempt as i32 - 2)
        }
    }
}

/// What happened to one (pair, phase) across its retry budget: the
/// bookkeeping unit shared by the in-process calibrator and the sharded
/// coordinator/worker subsystem (`cloudconst-coord`), which must reproduce
/// the exact same retry accounting on remote shards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttemptSeries {
    /// The measurement, if any attempt completed.
    pub measured: Option<f64>,
    /// Total simulated seconds the pair spent on this phase: backoff waits,
    /// burnt deadlines, and the successful attempt's own time.
    pub consumed: f64,
    /// Attempts issued (≥ 1).
    pub attempts: u32,
    /// Attempts that ended in a timeout.
    pub timeouts: u32,
    /// Attempts that ended in a loss.
    pub losses: u32,
}

impl AttemptSeries {
    /// A first-try measurement of `secs`: what a probe that cannot fail
    /// reports.
    pub fn ok(secs: f64) -> Self {
        AttemptSeries {
            measured: Some(secs),
            consumed: secs,
            attempts: 1,
            timeouts: 0,
            losses: 0,
        }
    }
}

/// Drive one (pair, phase) through the retry policy. `try_at` attempts the
/// probe at an absolute time and is called with strictly increasing times
/// as deadlines burn and backoff accumulates — each retry sees the network
/// as of its own start instant, so a transient fault can clear.
pub fn run_attempt_series(
    mut try_at: impl FnMut(f64) -> ProbeAttempt,
    start: f64,
    retry: &RetryPolicy,
) -> AttemptSeries {
    let mut consumed = 0.0;
    let mut timeouts = 0;
    let mut losses = 0;
    let max_attempts = retry.max_attempts.max(1);
    for k in 1..=max_attempts {
        consumed += retry.backoff(k);
        match try_at(start + consumed) {
            ProbeAttempt::Ok(secs) => {
                return AttemptSeries {
                    measured: Some(secs),
                    consumed: consumed + secs,
                    attempts: k,
                    timeouts,
                    losses,
                }
            }
            ProbeAttempt::TimedOut => {
                timeouts += 1;
                consumed += retry.deadline;
            }
            ProbeAttempt::Lost => {
                losses += 1;
                consumed += retry.deadline;
            }
        }
    }
    AttemptSeries {
        measured: None,
        consumed,
        attempts: max_attempts,
        timeouts,
        losses,
    }
}

/// How one cell of the measurement matrix ended up after retries. The
/// payload is the number of attempts consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// Never scheduled (self-links).
    Unprobed,
    /// Measured successfully; payload is attempts consumed including the
    /// successful one (1 = first try, > 1 means the cell was retried).
    Ok(u32),
    /// Every attempt failed — the cell is unobserved and must be imputed
    /// (and masked) downstream. Payload is the attempts consumed (= the
    /// policy's `max_attempts`).
    Failed(u32),
}

/// Per-calibration record of probe outcomes: an `N × N` grid of
/// [`ProbeOutcome`] (the *worse* of the latency and bandwidth phases per
/// link) plus aggregate attempt counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeLog {
    n: usize,
    outcomes: Vec<ProbeOutcome>,
    /// Total probe attempts issued (latency and bandwidth phases both
    /// count; retries count individually).
    pub attempts: u64,
    /// Attempts that returned a measurement.
    pub successes: u64,
    /// Attempts beyond the first for any (link, phase).
    pub retries: u64,
    /// Attempts that ended in a timeout.
    pub timeouts: u64,
    /// Attempts that ended in a loss.
    pub losses: u64,
}

impl ProbeLog {
    /// Empty log for an `n`-instance cluster (all cells [`Unprobed`]).
    ///
    /// [`Unprobed`]: ProbeOutcome::Unprobed
    pub fn new(n: usize) -> Self {
        ProbeLog {
            n,
            outcomes: vec![ProbeOutcome::Unprobed; n * n],
            attempts: 0,
            successes: 0,
            retries: 0,
            timeouts: 0,
            losses: 0,
        }
    }

    /// Cluster size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Outcome for directed link `(i, j)`.
    pub fn outcome(&self, i: usize, j: usize) -> ProbeOutcome {
        self.outcomes[i * self.n + j]
    }

    /// Record the final outcome for link `(i, j)`.
    pub fn set_outcome(&mut self, i: usize, j: usize, o: ProbeOutcome) {
        self.outcomes[i * self.n + j] = o;
    }

    /// Was link `(i, j)` actually measured? Self-links count as observed
    /// (their cost is structurally zero).
    pub fn observed(&self, i: usize, j: usize) -> bool {
        i == j || matches!(self.outcome(i, j), ProbeOutcome::Ok(_))
    }

    /// Row-major `N²` observation mask (diagonal entries are `true`).
    pub fn observed_mask(&self) -> Vec<bool> {
        let mut m = vec![false; self.n * self.n];
        for i in 0..self.n {
            for j in 0..self.n {
                m[i * self.n + j] = self.observed(i, j);
            }
        }
        m
    }

    /// Fraction of attempts that measured something (1.0 when no attempts
    /// were made — an empty calibration has nothing to complain about).
    pub fn success_rate(&self) -> f64 {
        if self.attempts == 0 {
            1.0
        } else {
            self.successes as f64 / self.attempts as f64
        }
    }

    /// Directed links whose cells ended [`ProbeOutcome::Failed`].
    pub fn failed_links(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for i in 0..self.n {
            for j in 0..self.n {
                if matches!(self.outcome(i, j), ProbeOutcome::Failed(_)) {
                    out.push((i, j));
                }
            }
        }
        out
    }

    /// Fold another calibration's counters into this one (grid outcomes are
    /// kept per-snapshot by callers; only the aggregates accumulate).
    ///
    /// When merging *partial* logs that cover disjoint cells of the same
    /// snapshot (shard fragments), use [`ProbeLog::absorb`] instead: this
    /// method drops the other log's grid, so a link that ended
    /// [`ProbeOutcome::Failed`] in one partial would silently read
    /// [`ProbeOutcome::Unprobed`] after the merge — and a quarantine
    /// decision based on the merged log would wrongly lift.
    pub fn absorb_counters(&mut self, other: &ProbeLog) {
        self.attempts += other.attempts;
        self.successes += other.successes;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.losses += other.losses;
    }

    /// Fold a partial log covering the same snapshot into this one:
    /// counters accumulate *and* grid outcomes merge cell-wise,
    /// worst-wins — `Failed` beats `Ok` beats `Unprobed`, attempts take the
    /// max. A link quarantined from one shard's partial stays failed in
    /// the merged log no matter the merge order.
    ///
    /// Panics if the cluster sizes differ.
    pub fn absorb(&mut self, other: &ProbeLog) {
        assert_eq!(self.n, other.n, "cannot merge logs of different sizes");
        self.absorb_counters(other);
        for (mine, theirs) in self.outcomes.iter_mut().zip(&other.outcomes) {
            *mine = merge_outcome(*mine, *theirs);
        }
    }
}

/// Worst-wins cell merge used by [`ProbeLog::absorb`].
fn merge_outcome(a: ProbeOutcome, b: ProbeOutcome) -> ProbeOutcome {
    use ProbeOutcome::*;
    match (a, b) {
        (Unprobed, x) | (x, Unprobed) => x,
        (Failed(x), Failed(y)) => Failed(x.max(y)),
        (Failed(x), Ok(y)) | (Ok(y), Failed(x)) => Failed(x.max(y)),
        (Ok(x), Ok(y)) => Ok(x.max(y)),
    }
}

/// History-driven retry budgeting: a bounded pool of extra attempts is
/// spent preferentially on the links whose probe history shows failures,
/// while clean links run a leaner schedule than the fixed [`RetryPolicy`].
///
/// The allocation happens *before* a calibration starts (see
/// [`AdaptiveRetryPolicy::plan`]), so every (pair, phase) still runs a
/// fixed per-link policy and attempt series stay pure functions of
/// `(pair, bytes, time)`.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveRetryPolicy {
    /// Deadline and backoff shape every attempt runs under.
    pub base: RetryPolicy,
    /// Attempts granted to links with a clean history (≥ 1).
    pub cold_attempts: u32,
    /// Attempts granted to links whose history shows failures
    /// (≥ `cold_attempts`).
    pub hot_attempts: u32,
    /// Global budget of extra attempts per calibration. Upgrading one
    /// directed link from cold to hot costs
    /// `2 · (hot_attempts − cold_attempts)` budget units (both probe
    /// phases may spend the extra attempts); worst-history links are
    /// upgraded first until the budget runs out.
    pub budget: u64,
}

impl Default for AdaptiveRetryPolicy {
    fn default() -> Self {
        let base = RetryPolicy::default();
        AdaptiveRetryPolicy {
            base,
            cold_attempts: 2,
            hot_attempts: 4,
            budget: 64,
        }
    }
}

impl AdaptiveRetryPolicy {
    /// Allocate per-link attempt counts for an `n`-instance calibration.
    ///
    /// A directed link is *hot* when `history` recorded a `Failed` outcome
    /// or a retried success for it. Hot links are ranked worst-first
    /// (`Failed` beats retried-`Ok`, ties broken by `(i, j)` order) and
    /// upgraded to `hot_attempts` while the budget lasts; everything else
    /// gets `cold_attempts`.
    pub fn plan(&self, n: usize, history: Option<&ProbeLog>) -> RetryPlan {
        let cold = self.cold_attempts.max(1);
        let hot = self.hot_attempts.max(cold);
        let mut max_attempts = vec![cold; n * n];
        let upgrade_cost = 2 * (hot - cold) as u64;
        if upgrade_cost > 0 {
            // Score every directed link from the history grid.
            let mut scored: Vec<(u64, usize, usize)> = Vec::new();
            for i in 0..n {
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let score = match history.filter(|h| h.n() == n).map(|h| h.outcome(i, j)) {
                        Some(ProbeOutcome::Failed(a)) => 1_000 + a as u64,
                        Some(ProbeOutcome::Ok(a)) if a > 1 => a as u64,
                        _ => 0,
                    };
                    if score > 0 {
                        scored.push((score, i, j));
                    }
                }
            }
            scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
            let mut budget = self.budget;
            for (_, i, j) in scored {
                if budget < upgrade_cost {
                    break;
                }
                budget -= upgrade_cost;
                max_attempts[i * n + j] = hot;
            }
        }
        RetryPlan {
            n,
            base: self.base.clone(),
            cold,
            max_attempts,
        }
    }
}

/// Per-link retry allocation produced by [`AdaptiveRetryPolicy::plan`]:
/// the base deadline/backoff shape plus a per-directed-link attempt cap.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPlan {
    n: usize,
    base: RetryPolicy,
    cold: u32,
    max_attempts: Vec<u32>,
}

impl RetryPlan {
    /// The concrete policy link `(i, j)` runs under.
    pub fn policy_for(&self, i: usize, j: usize) -> RetryPolicy {
        RetryPolicy {
            max_attempts: self.max_attempts[i * self.n + j],
            ..self.base.clone()
        }
    }

    /// Number of directed links granted more than the cold attempt count.
    pub fn hot_links(&self) -> usize {
        self.max_attempts.iter().filter(|&&a| a > self.cold).count()
    }
}

/// A probe that can fail: each attempt observes a per-attempt deadline and
/// reports honestly what happened instead of fabricating a number.
///
/// Attempts must be pure functions of `(i, j, bytes, now, deadline)` given
/// the implementation's configuration — calibration replays, sharded
/// re-execution and failover restarts all rely on re-deriving the same
/// outcome.
pub trait FallibleNetworkProbe {
    /// Number of endpoints reachable through this probe.
    fn n(&self) -> usize;

    /// Attempt to move `bytes` from `i` to `j` starting at `now`, giving
    /// up at `now + deadline`. `i == j` must return `ProbeAttempt::Ok(0.0)`.
    fn try_probe(&self, i: usize, j: usize, bytes: u64, now: f64, deadline: f64) -> ProbeAttempt;
}

/// A pure probe never fails: every attempt completes with the probe's own
/// measurement, whatever the deadline, so calibrating it through the
/// fallible path yields a fully observed run.
impl<P: PureNetworkProbe> FallibleNetworkProbe for P {
    fn n(&self) -> usize {
        crate::NetworkProbe::n(self)
    }

    fn try_probe(&self, i: usize, j: usize, bytes: u64, now: f64, _deadline: f64) -> ProbeAttempt {
        ProbeAttempt::Ok(self.probe_pure(i, j, bytes, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Log of a calibration that observed every directed link first try.
    fn clean_log(n: usize) -> ProbeLog {
        let mut log = ProbeLog::new(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    log.set_outcome(i, j, ProbeOutcome::Ok(1));
                }
            }
        }
        let probes = 2 * (n * (n - 1)) as u64;
        log.attempts = probes;
        log.successes = probes;
        log
    }

    #[test]
    fn backoff_schedule_is_geometric() {
        let p = RetryPolicy::default(); // base 0.5, mult 2
        assert_eq!(p.backoff(1), 0.0);
        assert_eq!(p.backoff(2), 0.5);
        assert_eq!(p.backoff(3), 1.0);
        assert_eq!(p.backoff(4), 2.0);
    }

    #[test]
    fn failed_cells_tracked_and_masked() {
        let mut log = clean_log(3);
        log.set_outcome(0, 1, ProbeOutcome::Failed(3));
        assert!(!log.observed(0, 1));
        assert_eq!(log.failed_links(), vec![(0, 1)]);
        let mask = log.observed_mask();
        assert!(!mask[1]); // (0,1)
        assert!(mask[0]); // diagonal
    }

    #[test]
    fn empty_log_success_rate_is_one() {
        let log = ProbeLog::new(5);
        assert_eq!(log.success_rate(), 1.0);
    }

    #[test]
    fn absorb_counters_accumulates() {
        let mut a = clean_log(3);
        let mut b = clean_log(3);
        b.retries = 2;
        b.timeouts = 1;
        b.losses = 1;
        a.absorb_counters(&b);
        assert_eq!(a.attempts, 24);
        assert_eq!(a.retries, 2);
        assert_eq!(a.timeouts, 1);
        assert_eq!(a.losses, 1);
    }

    #[test]
    fn absorb_merges_outcome_grids_worst_wins() {
        // Two shard partials of one snapshot: shard A saw (0,1) fail every
        // attempt, shard B measured its own disjoint cells.
        let mut a = ProbeLog::new(3);
        a.set_outcome(0, 1, ProbeOutcome::Failed(3));
        a.attempts = 4;
        a.losses = 3;
        a.successes = 1;
        let mut b = ProbeLog::new(3);
        b.set_outcome(1, 0, ProbeOutcome::Ok(2));
        b.set_outcome(2, 0, ProbeOutcome::Ok(1));
        b.attempts = 5;
        b.retries = 1;
        b.successes = 4;

        let mut merged = a.clone();
        merged.absorb(&b);
        // The failure survives the merge — this is the quarantine contract.
        assert_eq!(merged.outcome(0, 1), ProbeOutcome::Failed(3));
        assert_eq!(merged.outcome(1, 0), ProbeOutcome::Ok(2));
        assert_eq!(merged.outcome(2, 0), ProbeOutcome::Ok(1));
        assert_eq!(merged.attempts, 9);
        assert_eq!(merged.successes, 5);
        assert_eq!(merged.retries, 1);
        assert_eq!(merged.losses, 3);

        // Merge order does not matter.
        let mut flipped = b.clone();
        flipped.absorb(&a);
        assert_eq!(flipped, merged);

        // Failed beats Ok even when both shards touched the cell.
        let mut c = ProbeLog::new(3);
        c.set_outcome(0, 1, ProbeOutcome::Ok(1));
        c.absorb(&a);
        assert_eq!(c.outcome(0, 1), ProbeOutcome::Failed(3));
    }

    #[test]
    fn adaptive_plan_spends_budget_on_failure_history() {
        let mut history = ProbeLog::new(4);
        history.set_outcome(0, 1, ProbeOutcome::Failed(3));
        history.set_outcome(2, 3, ProbeOutcome::Ok(2)); // retried success
        history.set_outcome(1, 0, ProbeOutcome::Ok(1)); // clean

        let adaptive = AdaptiveRetryPolicy::default(); // cold 2, hot 4
        let plan = adaptive.plan(4, Some(&history));
        assert_eq!(plan.policy_for(0, 1).max_attempts, 4, "failed link is hot");
        assert_eq!(plan.policy_for(2, 3).max_attempts, 4, "retried link is hot");
        assert_eq!(plan.policy_for(1, 0).max_attempts, 2, "clean link is cold");
        assert_eq!(plan.policy_for(3, 2).max_attempts, 2, "unseen link is cold");
        assert_eq!(plan.hot_links(), 2);
        // Shape (deadline/backoff) comes from the base policy.
        assert_eq!(plan.policy_for(0, 1).deadline, adaptive.base.deadline);
    }

    #[test]
    fn adaptive_plan_budget_is_a_hard_cap() {
        let mut history = ProbeLog::new(4);
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    history.set_outcome(i, j, ProbeOutcome::Failed(3));
                }
            }
        }
        // Upgrades cost 2·(4−2) = 4 units; a budget of 10 affords 2 links.
        let adaptive = AdaptiveRetryPolicy {
            budget: 10,
            ..AdaptiveRetryPolicy::default()
        };
        let plan = adaptive.plan(4, Some(&history));
        assert_eq!(plan.hot_links(), 2);
    }

    #[test]
    fn adaptive_plan_without_history_is_all_cold() {
        let plan = AdaptiveRetryPolicy::default().plan(5, None);
        assert_eq!(plan.hot_links(), 0);
        assert_eq!(plan.policy_for(0, 4).max_attempts, 2);
    }
}
