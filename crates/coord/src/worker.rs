//! The shard-side half of the protocol.
//!
//! A [`ShardWorker`] executes [`ShardTask`]s against its own probe
//! backend, accumulates measured cells across a snapshot, and ships them
//! as a [`PartialTpMatrix`] when the coordinator flushes. Each pair's
//! phase is one [`run_attempt_series`], and each round's two phases are
//! folded by the unsharded calibrator's own kernel step, [`fold_round`],
//! which is what makes the merged result bit-identical.
//!
//! Task frames come from outside the program, so every task is checked
//! before it is probed: pairs must name two distinct instances of the
//! cluster, and a round's large phase must carry exactly the pairs of its
//! small phase. A violation is a [`CoordError::Protocol`], never a panic.
//!
//! Workers are idempotent: [`ShardWorker::handle`] caches every response
//! frame under its request's header `seq`, so a re-dispatched duplicate
//! (its response was lost on the wire) returns the cached bytes without
//! re-probing or double-counting, whatever its kind.

use crate::wire::{Body, CellResult, Message, PartialTpMatrix, Phase, ShardTask};
use crate::CoordError;
use cloudconst_netmodel::{
    fold_round, run_attempt_series, AttemptSeries, FallibleNetworkProbe, ProbeLog,
};
use std::collections::BTreeMap;

/// A round's small phase awaiting its large phase: probe size, pairs and
/// per-pair series.
type SmallPhase = (u64, Vec<(usize, usize)>, Vec<AttemptSeries>);

/// One worker shard: a probe backend plus per-snapshot accumulation state.
pub struct ShardWorker<P> {
    probe: P,
    shard: usize,
    /// Small-phase results awaiting their round's large phase, by round.
    small: BTreeMap<u32, SmallPhase>,
    /// Cells finished this snapshot, in schedule order.
    cells: Vec<CellResult>,
    /// Probe counters (and cell outcomes) of this snapshot.
    log: ProbeLog,
    /// Response cache for idempotent re-dispatch: `seq → (snapshot, frame)`.
    seen: BTreeMap<u64, (u32, Vec<u8>)>,
    cur_snapshot: u32,
}

impl<P: FallibleNetworkProbe> ShardWorker<P> {
    /// A worker for shard `shard` probing through `probe`.
    pub fn new(probe: P, shard: usize) -> Self {
        let log = ProbeLog::new(probe.n());
        ShardWorker {
            probe,
            shard,
            small: BTreeMap::new(),
            cells: Vec::new(),
            log,
            seen: BTreeMap::new(),
            cur_snapshot: 0,
        }
    }

    /// Cluster size of the probe backend.
    pub fn n(&self) -> usize {
        self.probe.n()
    }

    /// Handle one coordinator frame, returning the response frame.
    pub fn handle(&mut self, frame: &[u8]) -> Result<Vec<u8>, CoordError> {
        let Message { seq, body, .. } = Message::decode(frame)?;
        let snapshot = match &body {
            Body::Task(t) => t.snapshot,
            Body::Flush { snapshot } | Body::Reset { snapshot } => *snapshot,
            // Handshake frames are the server's business, not the worker's:
            // a bare `ShardWorker` has no connection to greet.
            Body::Hello => return Err(CoordError::Protocol("hello outside a connection handshake")),
            Body::Ack { .. } | Body::Partial(_) | Body::HelloAck { .. } | Body::AuthReject => {
                return Err(CoordError::Protocol("worker received a coordinator-bound frame"))
            }
        };
        if let Some((_, cached)) = self.seen.get(&seq) {
            return Ok(cached.clone());
        }
        let body = match body {
            Body::Task(t) => self.handle_task(t)?,
            Body::Flush { .. } => self.handle_flush(snapshot)?,
            Body::Reset { .. } => self.handle_reset(),
            _ => unreachable!("coordinator-bound kinds are rejected above"),
        };
        let response = Message {
            seq,
            shard: self.shard as u32,
            body,
        }
        .encode();
        self.seen.insert(seq, (snapshot, response.clone()));
        Ok(response)
    }

    fn handle_task(&mut self, t: ShardTask) -> Result<Body, CoordError> {
        let pairs = self.checked_pairs(&t)?;
        if t.snapshot != self.cur_snapshot {
            // A new snapshot implies every barrier of the previous one
            // completed; its cached responses can never be re-requested.
            self.seen.retain(|_, (snap, _)| *snap >= t.snapshot);
            self.cur_snapshot = t.snapshot;
        }

        // The whole retry series per pair is a pure function of
        // `(pair, bytes, at, retry)`, so how the round is chunked across
        // shards cannot affect the values.
        let series: Vec<AttemptSeries> = pairs
            .iter()
            .map(|&(i, j)| {
                run_attempt_series(
                    |at| self.probe.try_probe(i, j, t.bytes, at, t.retry.deadline),
                    t.at,
                    &t.retry,
                )
            })
            .collect();
        let max_consumed = series.iter().map(|s| s.consumed).fold(0.0, f64::max);

        match t.phase {
            Phase::Small => {
                self.small.insert(t.round, (t.bytes, pairs, series));
            }
            Phase::Large => {
                let (small_bytes, _, small) = self
                    .small
                    .remove(&t.round)
                    .expect("checked_pairs found the small phase");
                let cells = &mut self.cells;
                fold_round(
                    &mut self.log,
                    &pairs,
                    (small_bytes, &small),
                    (t.bytes, &series),
                    |i, j, outcome, link| {
                        cells.push(CellResult {
                            i: i as u32,
                            j: j as u32,
                            outcome,
                            alpha: link.map_or(0.0, |l| l.alpha),
                            beta: link.map_or(0.0, |l| l.beta),
                        })
                    },
                );
            }
        }
        Ok(Body::Ack { max_consumed })
    }

    /// The task's pairs, once they are known to be well formed: every
    /// pair joins two distinct instances of the cluster, and a large
    /// phase follows its round's small phase with the same pairs.
    fn checked_pairs(&self, t: &ShardTask) -> Result<Vec<(usize, usize)>, CoordError> {
        let n = self.n();
        let pairs: Vec<(usize, usize)> = t
            .pairs
            .iter()
            .map(|&(i, j)| (i as usize, j as usize))
            .collect();
        if pairs.iter().any(|&(i, j)| i >= n || j >= n || i == j) {
            return Err(CoordError::Protocol(
                "task pair outside the cluster or a self-link",
            ));
        }
        if t.phase == Phase::Large {
            let (_, small_pairs, _) = self
                .small
                .get(&t.round)
                .ok_or(CoordError::Protocol("large phase before small"))?;
            if *small_pairs != pairs {
                return Err(CoordError::Protocol("phase pair lists disagree"));
            }
        }
        Ok(pairs)
    }

    /// Shard failover: a peer died mid-snapshot and the coordinator is
    /// restarting the snapshot across the survivors. Discard everything
    /// accumulated for it — the restarted schedule re-derives every value
    /// from scratch (each retry series is pure, so the re-execution is
    /// bit-identical to a first execution). Clearing is idempotent, so a
    /// re-dispatched duplicate that misses the response cache is harmless.
    fn handle_reset(&mut self) -> Body {
        self.small.clear();
        self.cells.clear();
        self.log = ProbeLog::new(self.n());
        Body::Ack { max_consumed: 0.0 }
    }

    fn handle_flush(&mut self, snapshot: u32) -> Result<Body, CoordError> {
        if !self.small.is_empty() {
            return Err(CoordError::Protocol("flush with a round's large phase missing"));
        }
        let n = self.n();
        let log = std::mem::replace(&mut self.log, ProbeLog::new(n));
        Ok(Body::Partial(PartialTpMatrix {
            snapshot,
            n: n as u32,
            attempts: log.attempts,
            successes: log.successes,
            retries: log.retries,
            timeouts: log.timeouts,
            losses: log.losses,
            cells: std::mem::take(&mut self.cells),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Body, Message, Phase, ShardTask};
    use cloudconst_netmodel::{ProbeAttempt, RetryPolicy};

    /// Every probe takes a fixed time; 8 endpoints.
    struct Fixed;
    impl FallibleNetworkProbe for Fixed {
        fn n(&self) -> usize {
            8
        }
        fn try_probe(&self, i: usize, j: usize, _b: u64, _t: f64, _d: f64) -> ProbeAttempt {
            ProbeAttempt::Ok(if i == j { 0.0 } else { 0.25 })
        }
    }

    fn task_with(seq: u64, phase: Phase, pairs: Vec<(u32, u32)>) -> Vec<u8> {
        Message {
            seq,
            shard: 0,
            body: Body::Task(ShardTask {
                snapshot: 0,
                round: 0,
                phase,
                bytes: if phase == Phase::Small { 1 } else { 64 },
                at: 0.0,
                retry: RetryPolicy::default(),
                pairs,
            }),
        }
        .encode()
    }

    fn task(seq: u64, phase: Phase) -> Vec<u8> {
        task_with(seq, phase, vec![(0, 1)])
    }

    fn assert_protocol_error(got: Result<Vec<u8>, CoordError>, what: &str) {
        assert!(
            matches!(got, Err(CoordError::Protocol(_))),
            "{what}: got {got:?}"
        );
    }

    #[test]
    fn large_phase_with_other_pairs_than_its_small_phase_is_rejected() {
        let mut w = ShardWorker::new(Fixed, 0);
        w.handle(&task_with(1, Phase::Small, vec![(0, 1)])).unwrap();
        // Fitting (2,3) from (0,1)'s latency would be a silent wrong answer.
        assert_protocol_error(
            w.handle(&task_with(2, Phase::Large, vec![(2, 3)])),
            "(2,3) after (0,1)",
        );
        // The round's small phase survives the rejected frame.
        w.handle(&task_with(3, Phase::Large, vec![(0, 1)])).unwrap();
    }

    #[test]
    fn pair_outside_the_cluster_is_rejected() {
        let mut w = ShardWorker::new(Fixed, 0);
        assert_protocol_error(
            w.handle(&task_with(1, Phase::Small, vec![(0, 9)])),
            "(0,9) at n=8",
        );
        assert_protocol_error(
            w.handle(&task_with(2, Phase::Small, vec![(0, 200)])),
            "(0,200) at n=8",
        );
        assert_protocol_error(
            w.handle(&task_with(3, Phase::Small, vec![(5, 5)])),
            "self-link",
        );
        // Nothing was accepted, so a flush ships an empty fragment.
        let flush = Message {
            seq: 4,
            shard: 0,
            body: Body::Flush { snapshot: 0 },
        }
        .encode();
        match Message::decode(&w.handle(&flush).unwrap()).unwrap().body {
            Body::Partial(p) => assert!(p.cells.is_empty() && p.attempts == 0),
            other => panic!("flush must ship a partial, got {other:?}"),
        }
    }

    #[test]
    fn large_phase_before_small_is_rejected() {
        let mut w = ShardWorker::new(Fixed, 0);
        assert_protocol_error(w.handle(&task(1, Phase::Large)), "large before small");
    }

    #[test]
    fn reset_discards_the_snapshot_in_progress() {
        let mut w = ShardWorker::new(Fixed, 0);
        w.handle(&task(1, Phase::Small)).unwrap();
        w.handle(&task(2, Phase::Large)).unwrap();
        // Leave a dangling small phase too — the aborted barrier's shape.
        w.handle(&task(3, Phase::Small)).unwrap();

        let reset = Message { seq: 4, shard: 0, body: Body::Reset { snapshot: 0 } }.encode();
        match Message::decode(&w.handle(&reset).unwrap()).unwrap() {
            Message { seq, body: Body::Ack { max_consumed }, .. } => {
                assert_eq!(seq, 4);
                assert_eq!(max_consumed, 0.0);
            }
            other => panic!("reset must be acked, got {other:?}"),
        }
        // Re-dispatch of the reset returns the cached ack.
        let again = w.handle(&reset).unwrap();
        assert_eq!(Message::decode(&again).unwrap(), Message::decode(&w.handle(&reset).unwrap()).unwrap());

        // A flush right after the reset ships an empty, zero-counter
        // fragment — nothing of the aborted work survives.
        let flush = Message { seq: 5, shard: 0, body: Body::Flush { snapshot: 0 } }.encode();
        match Message::decode(&w.handle(&flush).unwrap()).unwrap().body {
            Body::Partial(p) => {
                assert!(p.cells.is_empty());
                assert_eq!(p.attempts + p.successes + p.retries + p.timeouts + p.losses, 0);
            }
            other => panic!("flush must ship a partial, got {other:?}"),
        }
    }
}
