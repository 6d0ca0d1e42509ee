//! Pluggable frame transports between the coordinator and its shards.
//!
//! The coordinator only ever sees opaque frames; `Transport` hides where
//! the workers live. Two in-process implementations ship here:
//!
//! * [`LoopbackTransport`] — zero-latency, zero-loss, FIFO delivery. The
//!   reference transport for bit-identity tests and benchmarks.
//! * [`SimTransport`] — deterministic adversity: seeded per-frame loss and
//!   latency drawn from the same SplitMix64 hash machinery as the cloud's
//!   own noise ([`cloudconst_cloud::hash`]), so every drop and every
//!   reordering replays bit-for-bit from the seed. Frame decisions are
//!   keyed by a monotonically increasing wire sequence number, so a
//!   re-dispatched frame re-rolls its fate — exactly how the probe-level
//!   [`RetryPolicy`](cloudconst_netmodel::RetryPolicy) treats retries.
//!
//! Wire hash streams are `0xFA` (loss) and `0xFB` (latency) — disjoint
//! from the cloud's `0xA1–0xE8` noise streams and the fault plan's
//! `0xF1–0xF6`.

use crate::worker::ShardWorker;
use crate::CoordError;
use cloudconst_cloud::hash;
use cloudconst_netmodel::FallibleNetworkProbe;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Index of a worker shard.
pub type ShardId = usize;

/// Wire-level loss decisions.
const STREAM_WIRE_LOSS: u64 = 0xFA;
/// Wire-level latency draws.
const STREAM_WIRE_LAT: u64 = 0xFB;

/// Frame-level accounting a transport exposes for the campaign report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Frames handed to `send` (re-dispatches included).
    pub frames_sent: u64,
    /// Frames delivered back to the coordinator.
    pub frames_delivered: u64,
    /// Frames dropped by the wire (either direction).
    pub frames_lost: u64,
    /// Bytes handed to `send`.
    pub bytes_sent: u64,
    /// Bytes delivered back to the coordinator.
    pub bytes_delivered: u64,
}

/// A bidirectional frame channel to a fixed set of worker shards.
pub trait Transport {
    /// Cluster size the shards probe.
    fn n(&self) -> usize;

    /// Number of shards reachable.
    fn shards(&self) -> usize;

    /// Ship one frame to a shard. A lossy transport may silently drop it —
    /// that is not an error; the coordinator re-dispatches. A frame may be
    /// buffered until the next [`deliver_next`](Transport::deliver_next),
    /// so a batch of sends can leave together.
    fn send(&mut self, shard: ShardId, frame: Vec<u8>) -> Result<(), CoordError>;

    /// Next worker frame ready for the coordinator, or `None` when no
    /// frame will arrive without further action — for in-process wires
    /// that means the wire is drained; for a socket it means nothing
    /// arrived within the receive budget. Either way, anything still
    /// unacknowledged needs re-dispatch.
    fn deliver_next(&mut self) -> Result<Option<Vec<u8>>, CoordError>;

    /// Accounting snapshot.
    fn stats(&self) -> WireStats;

    /// Deadness probe: has the transport *observed* `shard` die — a
    /// swallowed frame on a simulated kill, a failed write or a closed
    /// connection on a socket? Silence alone is not deadness (a real
    /// socket cannot distinguish a slow peer from a dead one); silent
    /// shards are declared dead by the coordinator's dispatch budget
    /// instead. The default is an immortal transport: in-process loopback
    /// workers cannot die.
    fn shard_dead(&self, shard: ShardId) -> bool {
        let _ = shard;
        false
    }
}

/// Perfect in-process transport: every frame is handled synchronously and
/// responses are delivered FIFO.
pub struct LoopbackTransport<P> {
    workers: Vec<ShardWorker<P>>,
    inbox: VecDeque<Vec<u8>>,
    stats: WireStats,
}

impl<P: FallibleNetworkProbe + Clone> LoopbackTransport<P> {
    /// Spin up `shards` workers, each owning a clone of `probe`.
    pub fn new(probe: P, shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard required");
        let workers = (0..shards)
            .map(|s| ShardWorker::new(probe.clone(), s))
            .collect();
        LoopbackTransport {
            workers,
            inbox: VecDeque::new(),
            stats: WireStats::default(),
        }
    }
}

impl<P: FallibleNetworkProbe> Transport for LoopbackTransport<P> {
    fn n(&self) -> usize {
        self.workers[0].n()
    }

    fn shards(&self) -> usize {
        self.workers.len()
    }

    fn send(&mut self, shard: ShardId, frame: Vec<u8>) -> Result<(), CoordError> {
        if shard >= self.workers.len() {
            return Err(CoordError::Protocol("send to unknown shard"));
        }
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += frame.len() as u64;
        let response = self.workers[shard].handle(&frame)?;
        self.inbox.push_back(response);
        Ok(())
    }

    fn deliver_next(&mut self) -> Result<Option<Vec<u8>>, CoordError> {
        Ok(self.inbox.pop_front().inspect(|f| {
            self.stats.frames_delivered += 1;
            self.stats.bytes_delivered += f.len() as u64;
        }))
    }

    fn stats(&self) -> WireStats {
        self.stats
    }

    // `shard_dead` stays the default `false`: loopback workers live in
    // this process and are immortal by construction.
}

/// Adversity knobs for [`SimTransport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Seed of the wire's hash streams.
    pub seed: u64,
    /// Per-frame loss probability, applied independently to each direction.
    pub loss_prob: f64,
    /// `[lo, hi)` response latency in seconds; draws differ per frame, so
    /// responses overtake each other and delivery order is scrambled.
    pub latency: (f64, f64),
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            loss_prob: 0.0,
            latency: (0.001, 0.050),
        }
    }
}

/// Deterministic lossy/reordering transport over in-process workers.
pub struct SimTransport<P> {
    workers: Vec<ShardWorker<P>>,
    cfg: SimConfig,
    /// Min-heap on `(delivery_time_bits, wire_seq)`; latencies are
    /// positive, so the bit order equals the numeric order, and the unique
    /// sequence number breaks ties deterministically.
    heap: BinaryHeap<Reverse<(u64, u64, Vec<u8>)>>,
    wire_seq: u64,
    stats: WireStats,
    /// Per-shard kill schedule: `Some(f)` means the shard answers its
    /// first `f` frames and silently swallows everything after — the
    /// wire-level model of a worker host dying mid-campaign.
    kill_after: Vec<Option<u64>>,
    /// Frames handed to each shard so far (kill accounting).
    shard_sends: Vec<u64>,
}

impl<P: FallibleNetworkProbe + Clone> SimTransport<P> {
    /// Spin up `shards` workers behind a simulated wire.
    pub fn new(probe: P, shards: usize, cfg: SimConfig) -> Self {
        assert!(shards >= 1, "at least one shard required");
        assert!(cfg.latency.0 > 0.0 && cfg.latency.1 >= cfg.latency.0);
        let workers = (0..shards)
            .map(|s| ShardWorker::new(probe.clone(), s))
            .collect();
        SimTransport {
            workers,
            cfg,
            heap: BinaryHeap::new(),
            wire_seq: 0,
            stats: WireStats::default(),
            kill_after: vec![None; shards],
            shard_sends: vec![0; shards],
        }
    }

    /// Kill `shard` after it has been handed `frames` more frames: every
    /// later frame to it is silently swallowed, exactly like a crashed
    /// worker host. `frames` counts from the shard's current send total,
    /// so `kill_after(s, 0)` kills it immediately.
    pub fn kill_after(&mut self, shard: ShardId, frames: u64) {
        assert!(shard < self.workers.len(), "unknown shard");
        self.kill_after[shard] = Some(self.shard_sends[shard] + frames);
    }
}

impl<P: FallibleNetworkProbe> SimTransport<P> {
    /// Draw whether wire frame `seq` is lost.
    fn lost(&self, seq: u64) -> bool {
        self.cfg.loss_prob > 0.0
            && hash::unit(hash::mix_all(&[self.cfg.seed, STREAM_WIRE_LOSS, seq]))
                < self.cfg.loss_prob
    }
}

impl<P: FallibleNetworkProbe> Transport for SimTransport<P> {
    fn n(&self) -> usize {
        self.workers[0].n()
    }

    fn shards(&self) -> usize {
        self.workers.len()
    }

    fn send(&mut self, shard: ShardId, frame: Vec<u8>) -> Result<(), CoordError> {
        if shard >= self.workers.len() {
            return Err(CoordError::Protocol("send to unknown shard"));
        }
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += frame.len() as u64;
        // A killed shard swallows the frame before any wire roll — its
        // host is gone, not merely lossy.
        self.shard_sends[shard] += 1;
        if let Some(limit) = self.kill_after[shard] {
            if self.shard_sends[shard] > limit {
                self.stats.frames_lost += 1;
                return Ok(());
            }
        }
        // Request leg.
        self.wire_seq += 1;
        if self.lost(self.wire_seq) {
            self.stats.frames_lost += 1;
            return Ok(());
        }
        let response = self.workers[shard].handle(&frame)?;
        // Response leg: its own loss roll and latency draw.
        self.wire_seq += 1;
        if self.lost(self.wire_seq) {
            self.stats.frames_lost += 1;
            return Ok(());
        }
        let (lo, hi) = self.cfg.latency;
        let latency = hash::uniform(&[self.cfg.seed, STREAM_WIRE_LAT, self.wire_seq], lo, hi);
        self.heap
            .push(Reverse((latency.to_bits(), self.wire_seq, response)));
        Ok(())
    }

    fn deliver_next(&mut self) -> Result<Option<Vec<u8>>, CoordError> {
        Ok(self.heap.pop().map(|Reverse((_, _, f))| {
            self.stats.frames_delivered += 1;
            self.stats.bytes_delivered += f.len() as u64;
            f
        }))
    }

    fn stats(&self) -> WireStats {
        self.stats
    }

    /// A killed shard is *observably* dead once it has swallowed a frame —
    /// the wire-level analogue of a socket transport's failed write.
    fn shard_dead(&self, shard: ShardId) -> bool {
        self.kill_after[shard].is_some_and(|limit| self.shard_sends[shard] > limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudconst_netmodel::ProbeAttempt;

    #[derive(Clone)]
    struct Fixed;
    impl FallibleNetworkProbe for Fixed {
        fn n(&self) -> usize {
            4
        }
        fn try_probe(&self, i: usize, j: usize, _b: u64, _t: f64, _d: f64) -> ProbeAttempt {
            ProbeAttempt::Ok(if i == j { 0.0 } else { 0.25 })
        }
    }

    fn flush_frame(seq: u64, shard: u32) -> Vec<u8> {
        crate::wire::Message {
            seq,
            shard,
            body: crate::wire::Body::Flush { snapshot: 0 },
        }
        .encode()
    }

    #[test]
    fn loopback_shards_are_immortal() {
        let mut t = LoopbackTransport::new(Fixed, 2);
        assert!(!t.shard_dead(0) && !t.shard_dead(1));
        t.send(0, flush_frame(1, 0)).unwrap();
        while t.deliver_next().unwrap().is_some() {}
        assert!(!t.shard_dead(0) && !t.shard_dead(1));
    }

    #[test]
    fn sim_kill_becomes_observable_after_a_swallowed_frame() {
        let mut t = SimTransport::new(Fixed, 2, SimConfig::default());
        t.kill_after(1, 1);
        assert!(!t.shard_dead(1), "no frame swallowed yet");
        t.send(1, flush_frame(1, 1)).unwrap();
        assert!(!t.shard_dead(1), "first frame is still answered");
        t.send(1, flush_frame(2, 1)).unwrap();
        assert!(t.shard_dead(1), "the swallowed frame must surface death");
        assert!(!t.shard_dead(0), "the other shard is untouched");
        assert_eq!(t.stats().frames_lost, 1);
    }
}
