//! The coordinator: owns the calibration clock, dispatches shard tasks,
//! re-dispatches lost ones, and merges fragments into the TP-matrix.
//!
//! ## Determinism contract
//!
//! For any shard count `K` and any frame delivery order, the merged
//! [`FaultyTpRun`] is bit-identical to the unsharded
//! [`Calibrator::calibrate_tp_faulty_par`](cloudconst_netmodel::Calibrator::calibrate_tp_faulty_par)
//! on the same probe. The argument, piece by piece:
//!
//! * **Clock** — each `(round, phase)` is one barrier for every snapshot
//!   of the campaign (snapshots do not chain, so they run as one wave),
//!   and each snapshot keeps its own clock. The coordinator advances a
//!   snapshot's clock by the `max` of that snapshot's shard maxima, and
//!   `f64::max` is exact, associative and commutative, so the advance
//!   equals the unsharded fold over all pairs, in the same round order.
//! * **Values** — every pair's retry series is a pure function of
//!   `(pair, bytes, at, retry)` and each cell is written by exactly one
//!   shard, so the merged matrix cannot depend on who probed what when.
//! * **Counters** — integer sums over disjoint contributions.
//!
//! Lost frames are handled by re-dispatch with a bounded budget
//! ([`CoordinatorConfig::dispatch_attempts`], the wire-level analogue of
//! the probe-level [`RetryPolicy`]); workers answer duplicates from a
//! response cache, so re-dispatch cannot double-count.

use crate::shard::ShardPlan;
use crate::transport::{Transport, WireStats};
use crate::wire::{Body, Message, PartialTpMatrix, Phase, ShardTask};
use crate::CoordError;
use cloudconst_netmodel::{
    CalibrationConfig, CalibrationRun, FaultyTpRun, ImputePolicy, LinkPerf, PerfMatrix, ProbeLog,
    ProbeOutcome, RetryPolicy, ALPHA_PROBE_BYTES, BETA_PROBE_BYTES,
};
use std::collections::BTreeMap;
use std::ops::Range;

/// Knobs of a sharded calibration campaign.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Number of worker shards `K` (must match the transport's).
    pub shards: usize,
    /// The calibration protocol (probe sizes, schedule shape).
    pub calibration: CalibrationConfig,
    /// Probe-level retry policy, shipped to workers inside each task.
    pub retry: RetryPolicy,
    /// Fill policy for cells no shard could measure.
    pub impute: ImputePolicy,
    /// Maximum sends per task/flush frame before the campaign aborts with
    /// [`CoordError::ShardLost`] (1 = never re-dispatch).
    pub dispatch_attempts: u32,
    /// Shard-death failovers allowed per campaign. When a barrier exhausts
    /// its dispatch budget, the shards still owing responses are declared
    /// dead. The campaign's snapshots run as one wave, so every snapshot
    /// not yet merged is reset on the survivors and restarted with its
    /// pairs re-partitioned across them; every merged snapshot is kept
    /// as-is. `0` (the default) disables failover and reproduces the
    /// historic abort-with-[`CoordError::ShardLost`] behaviour exactly.
    pub failover_attempts: u32,
}

impl CoordinatorConfig {
    /// Defaults for `shards` workers: paper probe sizes, default retry,
    /// `LastGood` imputation, a dispatch budget of 5, failover disabled.
    pub fn new(shards: usize) -> Self {
        CoordinatorConfig {
            shards,
            calibration: CalibrationConfig::default(),
            retry: RetryPolicy::default(),
            impute: ImputePolicy::LastGood,
            dispatch_attempts: 5,
            failover_attempts: 0,
        }
    }
}

/// Operator-facing summary of one sharded campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Cluster size.
    pub n: u64,
    /// Worker shards used.
    pub shards: u64,
    /// Snapshots calibrated.
    pub steps: u64,
    /// Rounds per snapshot.
    pub rounds: u64,
    /// Total simulated seconds the probes occupied the network.
    pub overhead: f64,
    /// Probe attempts across the campaign.
    pub probe_attempts: u64,
    /// Attempts that returned a measurement.
    pub probe_successes: u64,
    /// Attempts beyond the first for any (pair, phase).
    pub probe_retries: u64,
    /// Attempts that timed out.
    pub probe_timeouts: u64,
    /// Attempts lost in flight.
    pub probe_losses: u64,
    /// `probe_successes / probe_attempts` (1.0 when nothing was attempted).
    pub success_rate: f64,
    /// Task/flush frames re-sent after the wire dropped them (or their
    /// responses).
    pub redispatches: u64,
    /// Shard deaths survived: snapshot restarts that re-partitioned the
    /// dead shard's pairs across the survivors.
    pub failovers: u64,
    /// Shards still alive when the campaign finished.
    pub shards_alive: u64,
    /// Transport-level frame accounting.
    pub wire: WireStats,
}

/// A finished sharded campaign: the merged run plus its report.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// The merged TP-matrix, overhead and per-snapshot logs — the same
    /// shape (and bits) the unsharded fault-aware calibrator returns.
    pub run: FaultyTpRun,
    /// The campaign summary.
    pub report: CampaignReport,
}

/// Drives a whole calibration campaign over a [`Transport`].
#[derive(Debug, Clone)]
pub struct Coordinator {
    /// Campaign configuration.
    pub config: CoordinatorConfig,
}

impl Coordinator {
    /// A coordinator with the given configuration.
    pub fn new(config: CoordinatorConfig) -> Self {
        Coordinator { config }
    }

    /// Calibrate `steps` snapshots (one every `interval` seconds starting
    /// at `start`) across the transport's shards and merge the results.
    pub fn calibrate_tp<T: Transport>(
        &self,
        transport: &mut T,
        start: f64,
        interval: f64,
        steps: usize,
    ) -> Result<ShardedRun, CoordError> {
        if transport.shards() != self.config.shards {
            return Err(CoordError::Config("transport shard count != config.shards"));
        }
        if self.config.dispatch_attempts == 0 {
            return Err(CoordError::Config("dispatch_attempts must be >= 1"));
        }
        let n = transport.n();
        let mut d = Dispatch {
            alive: (0..self.config.shards).collect(),
            plan: ShardPlan::new(n, self.config.shards, &self.config.calibration),
            seq: 0,
            redispatches: 0,
            failovers: 0,
        };

        let mut run = FaultyTpRun::new(n, steps);
        // A shard death resets the survivors' unmerged snapshots and
        // restarts them with a re-partitioned plan. Merged snapshots are
        // never revisited.
        while run.tp.steps() < steps {
            match self.wave(transport, &mut d, &mut run, start, interval, steps) {
                Ok(()) => {}
                Err(Barrier::Dead { shards, missing }) => {
                    let unmerged = run.tp.steps() as u32..steps as u32;
                    self.failover(transport, &mut d, shards, missing, unmerged)?
                }
                Err(Barrier::Failed(e)) => return Err(e),
            }
        }

        let total = run.aggregate_log();
        let report = CampaignReport {
            n: n as u64,
            shards: self.config.shards as u64,
            steps: steps as u64,
            rounds: d.plan.rounds() as u64,
            overhead: run.overhead,
            probe_attempts: total.attempts,
            probe_successes: total.successes,
            probe_retries: total.retries,
            probe_timeouts: total.timeouts,
            probe_losses: total.losses,
            success_rate: total.success_rate(),
            redispatches: d.redispatches,
            failovers: d.failovers,
            shards_alive: d.alive.len() as u64,
            wire: transport.stats(),
        };
        Ok(ShardedRun { run, report })
    }

    /// One attempt at every snapshot not yet in `run`, as one wave: each
    /// `(round, phase)` barrier carries the tasks of all of them, each
    /// snapshot on its own clock, then one flush barrier per snapshot, in
    /// time order, merges it into `run` as soon as it lands.
    fn wave<T: Transport>(
        &self,
        transport: &mut T,
        d: &mut Dispatch,
        run: &mut FaultyTpRun,
        start: f64,
        interval: f64,
        steps: usize,
    ) -> Result<(), Barrier> {
        let first = run.tp.steps();
        let times: Vec<f64> = (first..steps)
            .map(|k| start + k as f64 * interval)
            .collect();
        let mut clocks = times.clone();
        for r in 0..d.plan.rounds() {
            let chunks: Vec<(usize, Vec<(u32, u32)>)> = d
                .plan
                .chunks(r)
                .into_iter()
                .map(|(slot, pairs)| {
                    let pairs = pairs.iter().map(|&(i, j)| (i as u32, j as u32)).collect();
                    (d.alive[slot], pairs)
                })
                .collect();
            for (phase, bytes) in [
                (Phase::Small, ALPHA_PROBE_BYTES),
                (Phase::Large, BETA_PROBE_BYTES),
            ] {
                // Snapshot-major: request `s · chunks + c` is chunk `c` of
                // snapshot `first + s`.
                let mut tasks = Vec::with_capacity(clocks.len() * chunks.len());
                for (k, &at) in (first..).zip(&clocks) {
                    for (shard, pairs) in &chunks {
                        let task = ShardTask {
                            snapshot: k as u32,
                            round: r as u32,
                            phase,
                            bytes,
                            at,
                            retry: self.config.retry.clone(),
                            pairs: pairs.clone(),
                        };
                        tasks.push((*shard, Body::Task(task)));
                    }
                }
                let maxima = self.run_barrier(transport, d, tasks, |body| match body {
                    Body::Ack { max_consumed }
                        if max_consumed.is_finite() && max_consumed >= 0.0 =>
                    {
                        Ok(max_consumed)
                    }
                    Body::Ack { .. } => Err(CoordError::Protocol("phase ack with an invalid time")),
                    _ => Err(CoordError::Protocol("expected a phase ack")),
                })?;
                let per = chunks.len();
                for (s, clock) in clocks.iter_mut().enumerate() {
                    *clock += maxima[s * per..(s + 1) * per]
                        .iter()
                        .copied()
                        .fold(0.0, f64::max);
                }
            }
        }

        // Snapshot barriers: collect every live shard's fragment.
        for ((k, t), clock) in (first..).zip(times).zip(clocks) {
            let flushes: Vec<(usize, Body)> = d
                .alive
                .iter()
                .map(|&s| (s, Body::Flush { snapshot: k as u32 }))
                .collect();
            let partials = self.run_barrier(transport, d, flushes, |body| match body {
                Body::Partial(p) => Ok(p),
                _ => Err(CoordError::Protocol("expected a partial TP-matrix")),
            })?;
            let (perf, outcomes) = merge_partials(d.plan.n(), k as u32, &partials)?;
            let snapshot = CalibrationRun {
                perf,
                overhead: clock - t,
                rounds: d.plan.rounds(),
                outcomes,
            };
            run.push(t, snapshot, self.config.impute);
        }
        Ok(())
    }

    /// Number `requests` with fresh seqs, send them, and pump the wire
    /// until every one is answered, re-sending unanswered frames each time
    /// the wire stalls (drained in-process, receive-timeout on a socket),
    /// up to the dispatch budget. Returns the accepted response bodies in
    /// request order — each response is matched to its request by seq,
    /// whatever order the wire delivered them in — or the shards owing
    /// responses once they are declared dead: either observed dead by the
    /// transport's [`Transport::shard_dead`] probe, or silent past the
    /// whole budget.
    ///
    /// The barrier may return with stragglers still in flight (a socket
    /// cannot be "drained"); every campaign seq is globally unique, so a
    /// late response simply fails the `pending` lookup of whatever barrier
    /// finally delivers it and is dropped.
    fn run_barrier<T: Transport, R>(
        &self,
        transport: &mut T,
        d: &mut Dispatch,
        requests: Vec<(usize, Body)>,
        mut accept: impl FnMut(Body) -> Result<R, CoordError>,
    ) -> Result<Vec<R>, Barrier> {
        // seq → (shard, request index, frame)
        let mut pending: BTreeMap<u64, (usize, usize, Vec<u8>)> = BTreeMap::new();
        for (index, (shard, body)) in requests.into_iter().enumerate() {
            d.seq += 1;
            let frame = Message {
                seq: d.seq,
                shard: shard as u32,
                body,
            }
            .encode();
            transport.send(shard, frame.clone())?;
            pending.insert(d.seq, (shard, index, frame));
        }
        let mut out: Vec<Option<R>> = (0..pending.len()).map(|_| None).collect();
        let mut sends = 1u32;
        loop {
            while !pending.is_empty() {
                let Some(frame) = transport.deliver_next()? else {
                    break;
                };
                let msg = Message::decode(&frame).map_err(CoordError::from)?;
                // A worker that rejects our tag can never answer: the
                // campaign is misconfigured, not unlucky.
                if matches!(msg.body, Body::AuthReject) {
                    return Err(CoordError::AuthFailure("a worker rejected a frame tag").into());
                }
                // A response to an already-satisfied (or foreign) seq is a
                // duplicate from an earlier re-dispatch race, or a
                // straggler from an aborted barrier; drop it unseen.
                let Some((_, index, _)) = pending.remove(&msg.seq) else {
                    continue;
                };
                out[index] = Some(accept(msg.body)?);
            }
            if pending.is_empty() {
                return Ok(out.into_iter().flatten().collect());
            }
            // Deadness probe first: an observed death (swallowed frame,
            // failed write, closed connection) needs no budget burn.
            let owing = || pending.values().map(|&(s, _, _)| s);
            let mut shards: Vec<usize> = owing().filter(|&s| transport.shard_dead(s)).collect();
            if shards.is_empty() && sends >= self.config.dispatch_attempts {
                shards = owing().collect();
            }
            shards.sort_unstable();
            shards.dedup();
            if !shards.is_empty() {
                return Err(Barrier::Dead {
                    shards,
                    missing: pending.len(),
                });
            }
            sends += 1;
            d.redispatches += pending.len() as u64;
            for (shard, _, frame) in pending.values() {
                transport.send(*shard, frame.clone())?;
            }
        }
    }

    /// Handle a barrier's dead shards: spend one failover, drop them from
    /// the alive set, reset the survivors' state for every `unmerged`
    /// snapshot (one barrier for all of them) and re-plan, so the caller
    /// can restart those snapshots. Loops if survivors die during the
    /// reset barrier itself; errors with [`CoordError::ShardLost`] once the
    /// failover budget (or the cluster) is exhausted.
    fn failover<T: Transport>(
        &self,
        transport: &mut T,
        d: &mut Dispatch,
        mut dead: Vec<usize>,
        mut missing: usize,
        unmerged: Range<u32>,
    ) -> Result<(), CoordError> {
        loop {
            if d.failovers >= u64::from(self.config.failover_attempts) {
                return Err(CoordError::ShardLost { missing });
            }
            d.failovers += 1;
            d.alive.retain(|s| !dead.contains(s));
            if d.alive.is_empty() {
                return Err(CoordError::ShardLost { missing });
            }
            let resets: Vec<(usize, Body)> = d
                .alive
                .iter()
                .flat_map(|&s| {
                    unmerged
                        .clone()
                        .map(move |snapshot| (s, Body::Reset { snapshot }))
                })
                .collect();
            match self.run_barrier(transport, d, resets, |body| match body {
                Body::Ack { .. } => Ok(()),
                _ => Err(CoordError::Protocol("expected a reset ack")),
            }) {
                Ok(_) => {
                    d.plan = ShardPlan::new(d.plan.n(), d.alive.len(), &self.config.calibration);
                    return Ok(());
                }
                Err(Barrier::Dead { shards, missing: m }) => {
                    dead = shards;
                    missing = m;
                }
                Err(Barrier::Failed(e)) => return Err(e),
            }
        }
    }
}

/// Per-campaign dispatch state, threaded through every barrier.
struct Dispatch {
    /// Shards still alive, in id order; plan slot `s` runs on `alive[s]`.
    alive: Vec<usize>,
    /// The schedule partitioned across the alive shards.
    plan: ShardPlan,
    /// Last seq handed out (campaign seqs start at 1).
    seq: u64,
    /// Frames re-sent after the wire dropped them or their responses.
    redispatches: u64,
    /// Shard deaths survived.
    failovers: u64,
}

/// Why a barrier did not complete.
enum Barrier {
    /// Shards owing responses were declared dead.
    Dead {
        /// Shards owing at least one response, sorted and deduplicated.
        shards: Vec<usize>,
        /// Frames still unanswered.
        missing: usize,
    },
    /// The campaign cannot continue.
    Failed(CoordError),
}

impl From<CoordError> for Barrier {
    fn from(e: CoordError) -> Self {
        Barrier::Failed(e)
    }
}

/// Merge per-shard fragments into one snapshot's measurement matrix and
/// probe log. Cells are disjoint and counters are sums, so any fragment
/// order yields identical bits. Fragments come from outside the program:
/// a wrong cluster size or snapshot, an out-of-range or twice-reported
/// cell, a measured cell whose α is not finite and `≥ 0` or whose β is not
/// finite and `> 0`, and a scheduled cell nobody reported are each a
/// [`CoordError::Protocol`].
fn merge_partials(
    n: usize,
    snapshot: u32,
    partials: &[PartialTpMatrix],
) -> Result<(PerfMatrix, ProbeLog), CoordError> {
    let mut perf = PerfMatrix::ideal(n);
    let mut log = ProbeLog::new(n);
    for p in partials {
        if p.n as usize != n {
            return Err(CoordError::Protocol("fragment cluster size mismatch"));
        }
        if p.snapshot != snapshot {
            return Err(CoordError::Protocol("fragment from the wrong snapshot"));
        }
        log.attempts += p.attempts;
        log.successes += p.successes;
        log.retries += p.retries;
        log.timeouts += p.timeouts;
        log.losses += p.losses;
        for c in &p.cells {
            let (i, j) = (c.i as usize, c.j as usize);
            if i >= n || j >= n {
                return Err(CoordError::Protocol("cell index out of range"));
            }
            if !matches!(log.outcome(i, j), ProbeOutcome::Unprobed) {
                return Err(CoordError::Protocol("two shards reported one cell"));
            }
            if let ProbeOutcome::Ok(_) = c.outcome {
                let alpha_ok = c.alpha.is_finite() && c.alpha >= 0.0;
                let beta_ok = c.beta.is_finite() && c.beta > 0.0;
                if !(alpha_ok && beta_ok) {
                    return Err(CoordError::Protocol("measured cell with an invalid α or β"));
                }
                perf.set(
                    i,
                    j,
                    LinkPerf {
                        alpha: c.alpha,
                        beta: c.beta,
                    },
                );
            }
            log.set_outcome(i, j, c.outcome);
        }
    }
    // Every schedule covers every ordered pair, so an off-diagonal cell
    // still unprobed was scheduled on some shard that never reported it.
    let unreported = (0..n)
        .any(|i| (0..n).any(|j| i != j && matches!(log.outcome(i, j), ProbeOutcome::Unprobed)));
    if unreported {
        return Err(CoordError::Protocol(
            "fragments left a scheduled cell unreported",
        ));
    }
    Ok((perf, log))
}
