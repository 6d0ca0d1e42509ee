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
//! A coordinator runs a campaign's snapshots as one wave, so a worker
//! keeps its accumulation state per snapshot: tasks of several snapshots
//! interleave, a `Reset` clears only the snapshot it names, and a `Flush`
//! ships the snapshot's fragment and forgets it.
//!
//! Workers are idempotent: [`ShardWorker::handle`] caches every response
//! frame under its request's header `seq`, so a re-dispatched duplicate
//! (its response was lost on the wire) returns the cached bytes without
//! re-probing or double-counting, whatever its kind. A duplicate can only
//! arrive within its own barrier, and every frame of one barrier is of one
//! stage, so the cache keeps only the responses of the latest stage.

use crate::wire::{Body, CellResult, Message, PartialTpMatrix, Phase, ShardTask};
use crate::CoordError;
use cloudconst_netmodel::{
    fold_round, run_attempt_series, AttemptSeries, FallibleNetworkProbe, ProbeLog,
};
use std::collections::BTreeMap;

/// A round's small phase awaiting its large phase: probe size, pairs and
/// per-pair series.
type SmallPhase = (u64, Vec<(usize, usize)>, Vec<AttemptSeries>);

/// What one snapshot has accumulated on this shard so far.
struct SnapshotState {
    /// Small-phase results awaiting their round's large phase, by round.
    small: BTreeMap<u32, SmallPhase>,
    /// Cells finished this snapshot, in schedule order.
    cells: Vec<CellResult>,
    /// Probe counters (and cell outcomes) of this snapshot.
    log: ProbeLog,
}

impl SnapshotState {
    fn new(n: usize) -> Self {
        SnapshotState {
            small: BTreeMap::new(),
            cells: Vec::new(),
            log: ProbeLog::new(n),
        }
    }
}

/// The barrier a request belongs to, as far as the worker can tell: every
/// task of one barrier shares its `(round, phase)`, and flush and reset
/// barriers carry nothing else. Two barriers in a row never share a stage,
/// except two reset barriers.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    Task(u32, Phase),
    Flush(u32),
    Reset,
}

/// One worker shard: a probe backend plus per-snapshot accumulation state.
pub struct ShardWorker<P> {
    probe: P,
    shard: usize,
    /// Snapshots in progress, by snapshot index.
    snapshots: BTreeMap<u32, SnapshotState>,
    /// Response cache for idempotent re-dispatch, holding the latest
    /// stage's responses: `seq → frame`.
    seen: BTreeMap<u64, Vec<u8>>,
    /// The stage of every response in `seen`.
    stage: Option<Stage>,
}

impl<P: FallibleNetworkProbe> ShardWorker<P> {
    /// A worker for shard `shard` probing through `probe`.
    pub fn new(probe: P, shard: usize) -> Self {
        ShardWorker {
            probe,
            shard,
            snapshots: BTreeMap::new(),
            seen: BTreeMap::new(),
            stage: None,
        }
    }

    /// Cluster size of the probe backend.
    pub fn n(&self) -> usize {
        self.probe.n()
    }

    /// Handle one coordinator frame, returning the response frame.
    pub fn handle(&mut self, frame: &[u8]) -> Result<Vec<u8>, CoordError> {
        self.handle_message(Message::decode(frame)?)
    }

    /// Handle one decoded coordinator message, returning the response
    /// frame: [`ShardWorker::handle`] for a transport that has already
    /// decoded the frame to route it.
    pub fn handle_message(&mut self, msg: Message) -> Result<Vec<u8>, CoordError> {
        let Message { seq, body, .. } = msg;
        let stage = match &body {
            Body::Task(t) => Stage::Task(t.round, t.phase),
            Body::Flush { snapshot } => Stage::Flush(*snapshot),
            Body::Reset { .. } => Stage::Reset,
            // Handshake frames are the server's business, not the worker's:
            // a bare `ShardWorker` has no connection to greet.
            Body::Hello => {
                return Err(CoordError::Protocol("hello outside a connection handshake"))
            }
            Body::Ack { .. } | Body::Partial(_) | Body::HelloAck { .. } | Body::AuthReject => {
                return Err(CoordError::Protocol(
                    "worker received a coordinator-bound frame",
                ))
            }
        };
        if let Some(cached) = self.seen.get(&seq) {
            return Ok(cached.clone());
        }
        let body = match body {
            Body::Task(t) => self.handle_task(t)?,
            Body::Flush { snapshot } => self.handle_flush(snapshot)?,
            Body::Reset { snapshot } => self.handle_reset(snapshot),
            _ => unreachable!("coordinator-bound kinds are rejected above"),
        };
        let response = Message {
            seq,
            shard: self.shard as u32,
            body,
        }
        .encode();
        // A request of a new stage means every earlier barrier completed:
        // none of their responses can be re-requested.
        if self.stage != Some(stage) {
            self.seen.clear();
            self.stage = Some(stage);
        }
        self.seen.insert(seq, response.clone());
        Ok(response)
    }

    fn handle_task(&mut self, t: ShardTask) -> Result<Body, CoordError> {
        let pairs = self.checked_pairs(&t)?;

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

        let n = self.n();
        let state = self
            .snapshots
            .entry(t.snapshot)
            .or_insert_with(|| SnapshotState::new(n));
        match t.phase {
            Phase::Small => {
                state.small.insert(t.round, (t.bytes, pairs, series));
            }
            Phase::Large => {
                let (small_bytes, _, small) = state
                    .small
                    .remove(&t.round)
                    .expect("checked_pairs found the small phase");
                let cells = &mut state.cells;
                fold_round(
                    &mut state.log,
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
    /// phase follows its round's small phase, in the same snapshot, with
    /// the same pairs.
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
                .snapshots
                .get(&t.snapshot)
                .and_then(|s| s.small.get(&t.round))
                .ok_or(CoordError::Protocol("large phase before small"))?;
            if *small_pairs != pairs {
                return Err(CoordError::Protocol("phase pair lists disagree"));
            }
        }
        Ok(pairs)
    }

    /// Shard failover: a peer died and the coordinator is restarting
    /// `snapshot` across the survivors. Discard everything accumulated for
    /// it — the restarted schedule re-derives every value from scratch
    /// (each retry series is pure, so the re-execution is bit-identical to
    /// a first execution). Other snapshots are untouched. Clearing is
    /// idempotent, so a re-dispatched duplicate that misses the response
    /// cache is harmless.
    fn handle_reset(&mut self, snapshot: u32) -> Body {
        self.snapshots.remove(&snapshot);
        Body::Ack { max_consumed: 0.0 }
    }

    /// Ship `snapshot`'s fragment and forget the snapshot. A snapshot this
    /// shard never probed ships an empty fragment.
    fn handle_flush(&mut self, snapshot: u32) -> Result<Body, CoordError> {
        if self
            .snapshots
            .get(&snapshot)
            .is_some_and(|s| !s.small.is_empty())
        {
            return Err(CoordError::Protocol(
                "flush with a round's large phase missing",
            ));
        }
        let n = self.n();
        let SnapshotState { cells, log, .. } = self
            .snapshots
            .remove(&snapshot)
            .unwrap_or_else(|| SnapshotState::new(n));
        Ok(Body::Partial(PartialTpMatrix {
            snapshot,
            n: n as u32,
            attempts: log.attempts,
            successes: log.successes,
            retries: log.retries,
            timeouts: log.timeouts,
            losses: log.losses,
            cells,
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

        let reset = Message {
            seq: 4,
            shard: 0,
            body: Body::Reset { snapshot: 0 },
        }
        .encode();
        match Message::decode(&w.handle(&reset).unwrap()).unwrap() {
            Message {
                seq,
                body: Body::Ack { max_consumed },
                ..
            } => {
                assert_eq!(seq, 4);
                assert_eq!(max_consumed, 0.0);
            }
            other => panic!("reset must be acked, got {other:?}"),
        }
        // Re-dispatch of the reset returns the cached ack.
        let again = w.handle(&reset).unwrap();
        assert_eq!(
            Message::decode(&again).unwrap(),
            Message::decode(&w.handle(&reset).unwrap()).unwrap()
        );

        // A flush right after the reset ships an empty, zero-counter
        // fragment — nothing of the aborted work survives.
        let flush = Message {
            seq: 5,
            shard: 0,
            body: Body::Flush { snapshot: 0 },
        }
        .encode();
        match Message::decode(&w.handle(&flush).unwrap()).unwrap().body {
            Body::Partial(p) => {
                assert!(p.cells.is_empty());
                assert_eq!(
                    p.attempts + p.successes + p.retries + p.timeouts + p.losses,
                    0
                );
            }
            other => panic!("flush must ship a partial, got {other:?}"),
        }
    }

    /// A probe whose times depend on the pair, the size and the start
    /// time, so two snapshots of one exchange measure different values.
    struct Clocked;
    impl FallibleNetworkProbe for Clocked {
        fn n(&self) -> usize {
            4
        }
        fn try_probe(&self, i: usize, j: usize, bytes: u64, at: f64, _d: f64) -> ProbeAttempt {
            ProbeAttempt::Ok(1e-4 * (1 + i + 2 * j) as f64 + bytes as f64 * 1e-9 + at * 1e-7)
        }
    }

    /// Frames of a one-round snapshot `s` starting at `100·s` seconds: its
    /// small task, large task and flush, with seqs `10·s + 1..=3`.
    fn snapshot_frames(s: u32) -> [Vec<u8>; 3] {
        let task = |seq, phase, bytes| {
            let body = Body::Task(ShardTask {
                snapshot: s,
                round: 0,
                phase,
                bytes,
                at: 100.0 * s as f64,
                retry: RetryPolicy::default(),
                pairs: vec![(0, 1), (2, 3)],
            });
            Message {
                seq,
                shard: 0,
                body,
            }
            .encode()
        };
        let seq = 10 * u64::from(s);
        [
            task(seq + 1, Phase::Small, 1),
            task(seq + 2, Phase::Large, 64),
            Message {
                seq: seq + 3,
                shard: 0,
                body: Body::Flush { snapshot: s },
            }
            .encode(),
        ]
    }

    fn reset_frame(seq: u64, snapshot: u32) -> Vec<u8> {
        Message {
            seq,
            shard: 0,
            body: Body::Reset { snapshot },
        }
        .encode()
    }

    fn partial(frame: &[u8]) -> PartialTpMatrix {
        match Message::decode(frame).unwrap().body {
            Body::Partial(p) => p,
            other => panic!("expected a partial, got {other:?}"),
        }
    }

    #[test]
    fn interleaved_snapshots_ship_the_sequential_fragments() {
        let ([s0, l0, f0], [s1, l1, f1]) = (snapshot_frames(0), snapshot_frames(1));
        let mut seq = ShardWorker::new(Clocked, 0);
        let want: Vec<Vec<u8>> = [&s0, &l0, &f0, &s1, &l1, &f1]
            .into_iter()
            .map(|f| seq.handle(f).unwrap())
            .collect();
        // The wave's order: both small phases, both large phases (the
        // second snapshot first), then the flushes in time order.
        let mut wave = ShardWorker::new(Clocked, 0);
        let got: Vec<Vec<u8>> = [&s0, &s1, &l1, &l0, &f0, &f1]
            .into_iter()
            .map(|f| wave.handle(f).unwrap())
            .collect();
        for (what, w, g) in [
            ("small ack s0", &want[0], &got[0]),
            ("small ack s1", &want[3], &got[1]),
            ("large ack s1", &want[4], &got[2]),
            ("large ack s0", &want[1], &got[3]),
            ("partial s0", &want[2], &got[4]),
            ("partial s1", &want[5], &got[5]),
        ] {
            assert_eq!(w, g, "{what}");
        }
        assert_ne!(partial(&got[4]).cells, partial(&got[5]).cells);
    }

    #[test]
    fn reset_of_one_snapshot_leaves_the_others_intact() {
        let ([s0, l0, f0], [s1, l1, f1]) = (snapshot_frames(0), snapshot_frames(1));
        let mut alone = ShardWorker::new(Clocked, 0);
        for f in [&s0, &l0] {
            alone.handle(f).unwrap();
        }
        let want = alone.handle(&f0).unwrap();

        let mut w = ShardWorker::new(Clocked, 0);
        for f in [&s0, &s1, &l1, &l0] {
            w.handle(f).unwrap();
        }
        w.handle(&reset_frame(30, 1)).unwrap();
        assert_eq!(w.handle(&f0).unwrap(), want, "s0 survives the reset of s1");
        let p = partial(&w.handle(&f1).unwrap());
        assert!(p.cells.is_empty() && p.attempts == 0, "s1 was discarded");
    }

    #[test]
    fn redispatched_flush_returns_the_cached_fragment() {
        let [s0, l0, f0] = snapshot_frames(0);
        let mut w = ShardWorker::new(Clocked, 0);
        w.handle(&s0).unwrap();
        w.handle(&l0).unwrap();
        let first = w.handle(&f0).unwrap();
        assert!(!partial(&first).cells.is_empty());
        // The snapshot is gone, so only the cache can answer with its cells.
        assert_eq!(w.handle(&f0).unwrap(), first);
    }

    #[test]
    fn a_flushed_snapshot_leaves_no_state_behind() {
        let ([s0, l0, f0], [s1, l1, f1]) = (snapshot_frames(0), snapshot_frames(1));
        let mut w = ShardWorker::new(Clocked, 0);
        for f in [&s0, &s1, &l0, &l1] {
            w.handle(f).unwrap();
        }
        assert_eq!(w.snapshots.len(), 2);
        w.handle(&f0).unwrap();
        assert!(!w.snapshots.contains_key(&0));
        assert_eq!(
            w.seen.len(),
            1,
            "only the fragment of the latest flush is cached"
        );
        w.handle(&f1).unwrap();
        assert!(w.snapshots.is_empty());
        assert_eq!(w.seen.keys().copied().collect::<Vec<_>>(), [13]);
    }
}
