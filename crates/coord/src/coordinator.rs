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
//! * **Clock** — each `(round, phase)` is a barrier; the coordinator
//!   advances its clock by the `max` of the shard maxima, and `f64::max`
//!   is exact, associative and commutative, so the advance equals the
//!   unsharded fold over all pairs, in the same round order.
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
use crate::wire::{FlushRequest, Message, PartialTpMatrix, Phase, ShardTask};
use crate::CoordError;
use cloudconst_netmodel::{
    CalibrationConfig, FaultyTpRun, ImputePolicy, LinkPerf, PerfMatrix, ProbeLog, ProbeOutcome,
    RetryPolicy, TpMatrix,
};
use serde::Serialize;
use std::collections::BTreeMap;

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
    /// dead: the current snapshot is reset on the survivors and restarted
    /// with its pairs re-partitioned across them — every completed
    /// snapshot is kept as-is. `0` (the default) disables failover and
    /// reproduces the historic abort-with-[`CoordError::ShardLost`]
    /// behaviour exactly.
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
#[derive(Debug, Clone, PartialEq, Serialize)]
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
        let mut alive: Vec<usize> = (0..self.config.shards).collect();
        let mut plan = ShardPlan::new(n, alive.len(), &self.config.calibration);

        let mut tp = TpMatrix::new(n);
        let mut overhead = 0.0;
        let mut logs: Vec<ProbeLog> = Vec::with_capacity(steps);
        let mut seq = 0u64;
        let mut redispatches = 0u64;
        let mut failovers = 0u64;

        for k in 0..steps {
            let t = start + k as f64 * interval;
            // One snapshot attempt per iteration; a shard death resets the
            // survivors and restarts the snapshot with a re-partitioned
            // plan. Completed snapshots are never revisited.
            let (perf, log, clock) = 'snapshot: loop {
                let mut clock = t;
                for r in 0..plan.rounds() {
                    for (phase, bytes) in [
                        (Phase::Small, self.config.calibration.small_bytes),
                        (Phase::Large, self.config.calibration.large_bytes),
                    ] {
                        let tasks: Vec<(usize, u64, Vec<u8>)> = plan
                            .chunks(r)
                            .into_iter()
                            .map(|(slot, pairs)| {
                                let shard = alive[slot];
                                seq += 1;
                                let frame = Message::Task(ShardTask {
                                    seq,
                                    shard: shard as u32,
                                    snapshot: k as u32,
                                    round: r as u32,
                                    phase,
                                    bytes,
                                    at: clock,
                                    retry: self.config.retry.clone(),
                                    pairs: pairs
                                        .iter()
                                        .map(|&(i, j)| (i as u32, j as u32))
                                        .collect(),
                                })
                                .encode();
                                (shard, seq, frame)
                            })
                            .collect();
                        let maxima = match self.run_barrier(
                            transport,
                            tasks,
                            &mut redispatches,
                            |msg| match msg {
                                Message::Ack(a) => Ok((a.seq, a.max_consumed)),
                                _ => Err(CoordError::Protocol("expected a phase ack")),
                            },
                        )? {
                            Barrier::Done(maxima) => maxima,
                            Barrier::Dead { shards, missing } => {
                                self.failover(
                                    transport, &mut alive, shards, missing, &mut failovers,
                                    &mut seq, k as u32, &mut redispatches,
                                )?;
                                plan = ShardPlan::new(n, alive.len(), &self.config.calibration);
                                continue 'snapshot;
                            }
                        };
                        clock += maxima.into_iter().fold(0.0, f64::max);
                    }
                }

                // Snapshot barrier: collect every live shard's fragment.
                let flushes: Vec<(usize, u64, Vec<u8>)> = alive
                    .iter()
                    .map(|&shard| {
                        seq += 1;
                        let frame = Message::Flush(FlushRequest {
                            seq,
                            shard: shard as u32,
                            snapshot: k as u32,
                        })
                        .encode();
                        (shard, seq, frame)
                    })
                    .collect();
                let partials = match self.run_barrier(
                    transport,
                    flushes,
                    &mut redispatches,
                    |msg| match msg {
                        Message::Partial(p) => Ok((p.seq, p)),
                        _ => Err(CoordError::Protocol("expected a partial TP-matrix")),
                    },
                )? {
                    Barrier::Done(partials) => partials,
                    Barrier::Dead { shards, missing } => {
                        self.failover(
                            transport, &mut alive, shards, missing, &mut failovers, &mut seq,
                            k as u32, &mut redispatches,
                        )?;
                        plan = ShardPlan::new(n, alive.len(), &self.config.calibration);
                        continue 'snapshot;
                    }
                };

                let (perf, log) = merge_partials(n, k as u32, &partials)?;
                break (perf, log, clock);
            };
            overhead += clock - t;
            tp.push_masked(t, &perf, &log.observed_mask(), self.config.impute);
            logs.push(log);
        }

        let run = FaultyTpRun { tp, overhead, logs };
        let total = run.aggregate_log();
        let report = CampaignReport {
            n: n as u64,
            shards: self.config.shards as u64,
            steps: steps as u64,
            rounds: plan.rounds() as u64,
            overhead,
            probe_attempts: total.attempts,
            probe_successes: total.successes,
            probe_retries: total.retries,
            probe_timeouts: total.timeouts,
            probe_losses: total.losses,
            success_rate: total.success_rate(),
            redispatches,
            failovers,
            shards_alive: alive.len() as u64,
            wire: transport.stats(),
        };
        Ok(ShardedRun { run, report })
    }

    /// Send `tasks`, pump the wire until every one is answered, re-sending
    /// unanswered frames each time the wire stalls (drained in-process,
    /// receive-timeout on a socket), up to the dispatch budget. Returns
    /// the accepted responses in delivery order (callers must only fold
    /// them order-independently), or the shards owing responses once they
    /// are declared dead — either observed dead by the transport's
    /// [`Transport::shard_dead`] probe, or silent past the whole budget.
    ///
    /// The barrier may return with stragglers still in flight (a socket
    /// cannot be "drained"); every campaign seq is globally unique, so a
    /// late response simply fails the `pending` lookup of whatever barrier
    /// finally delivers it and is dropped.
    fn run_barrier<T: Transport, R>(
        &self,
        transport: &mut T,
        tasks: Vec<(usize, u64, Vec<u8>)>,
        redispatches: &mut u64,
        mut accept: impl FnMut(Message) -> Result<(u64, R), CoordError>,
    ) -> Result<Barrier<R>, CoordError> {
        let mut pending: BTreeMap<u64, (usize, Vec<u8>)> = BTreeMap::new();
        for (shard, seq, frame) in tasks {
            transport.send(shard, frame.clone())?;
            pending.insert(seq, (shard, frame));
        }
        let mut out = Vec::with_capacity(pending.len());
        let mut sends = 1u32;
        loop {
            while !pending.is_empty() {
                let Some(frame) = transport.deliver_next()? else {
                    break;
                };
                let msg = Message::decode(&frame)?;
                // A worker that rejects our tag can never answer: the
                // campaign is misconfigured, not unlucky.
                if let Message::AuthReject(_) = msg {
                    return Err(CoordError::AuthFailure("a worker rejected a frame tag"));
                }
                // A response to an already-satisfied (or foreign) seq is a
                // duplicate from an earlier re-dispatch race, or a
                // straggler from an aborted barrier; drop it unseen.
                if !pending.contains_key(&msg.seq()) {
                    continue;
                }
                let (seq, r) = accept(msg)?;
                pending.remove(&seq);
                out.push(r);
            }
            if pending.is_empty() {
                return Ok(Barrier::Done(out));
            }
            // Deadness probe first: an observed death (swallowed frame,
            // failed write, closed connection) needs no budget burn.
            let mut dead: Vec<usize> = pending
                .values()
                .map(|&(s, _)| s)
                .filter(|&s| transport.shard_dead(s))
                .collect();
            dead.sort_unstable();
            dead.dedup();
            if !dead.is_empty() {
                return Ok(Barrier::Dead {
                    shards: dead,
                    missing: pending.len(),
                });
            }
            if sends >= self.config.dispatch_attempts {
                let mut shards: Vec<usize> = pending.values().map(|&(s, _)| s).collect();
                shards.sort_unstable();
                shards.dedup();
                return Ok(Barrier::Dead {
                    shards,
                    missing: pending.len(),
                });
            }
            sends += 1;
            *redispatches += pending.len() as u64;
            for (shard, frame) in pending.values() {
                transport.send(*shard, frame.clone())?;
            }
        }
    }

    /// Handle a barrier's dead shards: spend one failover, drop them from
    /// the alive set, and reset the survivors' snapshot state so the
    /// caller can restart the snapshot. Loops if survivors die during the
    /// reset barrier itself; errors with [`CoordError::ShardLost`] once
    /// the failover budget (or the cluster) is exhausted.
    #[allow(clippy::too_many_arguments)]
    fn failover<T: Transport>(
        &self,
        transport: &mut T,
        alive: &mut Vec<usize>,
        mut dead: Vec<usize>,
        mut missing: usize,
        failovers: &mut u64,
        seq: &mut u64,
        snapshot: u32,
        redispatches: &mut u64,
    ) -> Result<(), CoordError> {
        loop {
            if *failovers >= u64::from(self.config.failover_attempts) {
                return Err(CoordError::ShardLost { missing });
            }
            *failovers += 1;
            alive.retain(|s| !dead.contains(s));
            if alive.is_empty() {
                return Err(CoordError::ShardLost { missing });
            }
            let resets: Vec<(usize, u64, Vec<u8>)> = alive
                .iter()
                .map(|&shard| {
                    *seq += 1;
                    let frame = Message::Reset(FlushRequest {
                        seq: *seq,
                        shard: shard as u32,
                        snapshot,
                    })
                    .encode();
                    (shard, *seq, frame)
                })
                .collect();
            match self.run_barrier(transport, resets, redispatches, |msg| match msg {
                Message::Ack(a) => Ok((a.seq, ())),
                _ => Err(CoordError::Protocol("expected a reset ack")),
            })? {
                Barrier::Done(_) => return Ok(()),
                Barrier::Dead { shards, missing: m } => {
                    dead = shards;
                    missing = m;
                }
            }
        }
    }
}

/// Outcome of one dispatch barrier.
enum Barrier<R> {
    /// Every frame was answered; the responses, in delivery order.
    Done(Vec<R>),
    /// The dispatch budget ran out with frames still unanswered.
    Dead {
        /// Shards owing at least one response, sorted and deduplicated.
        shards: Vec<usize>,
        /// Frames still unanswered.
        missing: usize,
    },
}

/// Merge per-shard fragments into one snapshot's measurement matrix and
/// probe log. Cells are disjoint and counters are sums, so any fragment
/// order yields identical bits.
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
    Ok((perf, log))
}
