//! Typed wire messages of the coordinator/worker protocol, carried in
//! [`crate::codec`] frames.
//!
//! Every frame's payload is one header followed by the body of its kind:
//!
//! ```text
//! [seq: u64 LE] [shard: u32 LE] [body]
//! ```
//!
//! `seq` is the exchange id: a request's response echoes it, re-dispatch
//! keeps it, and it is unique within a campaign, so it is the one key
//! barriers match responses on and workers cache responses under.
//! Handshake frames use 0, which campaign seqs never do. `shard` is the
//! destination of a coordinator → worker frame and the origin of a
//! worker → coordinator one; a multi-shard host routes on it.
//!
//! | Kind | [`Body`] | Direction | Body fields |
//! |---|---|---|---|
//! | 1 | [`Body::Task`] | → worker | a [`ShardTask`]: probe one chunk of one `(round, phase)` |
//! | 2 | [`Body::Ack`] | → coordinator | `max_consumed` |
//! | 3 | [`Body::Flush`] | → worker | `snapshot` |
//! | 4 | [`Body::Partial`] | → coordinator | a [`PartialTpMatrix`] |
//! | 6 | [`Body::Reset`] | → worker | `snapshot` |
//! | 7 | [`Body::AuthReject`] | → coordinator | — |
//! | 8 | [`Body::Hello`] | → worker | — |
//! | 9 | [`Body::HelloAck`] | → coordinator | `n` |
//!
//! Kind 5 is retired (it framed a binary on-disk trace format) and stays
//! reserved; decoding it is `CodecError::UnknownKind(5)`.
//!
//! Tasks, flushes and resets are idempotent: workers answer a
//! re-dispatched duplicate from their response cache. An ack carries the
//! chunk's slowest pair's consumed time — the only value the coordinator
//! needs to advance the shared calibration clock, because `max` over shard
//! maxima equals the unsharded `max` over all pairs exactly. A fragment's
//! cells are disjoint across shards, so merging is order-independent by
//! construction.

use crate::codec::{
    decode_frame, encode_frame, put_f64, put_u32, put_u64, CodecError, Reader, KIND_AUTH_REJECT,
    KIND_FLUSH_REQUEST, KIND_HELLO, KIND_HELLO_ACK, KIND_PARTIAL_TP, KIND_PHASE_ACK, KIND_RESET,
    KIND_SHARD_TASK,
};
use cloudconst_netmodel::{ProbeOutcome, RetryPolicy};

/// Which half of a calibration round a task covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The 1-byte latency (α) probes.
    Small,
    /// The 8 MB bandwidth (β) probes.
    Large,
}

/// One chunk of one calibration `(round, phase)`, assigned to one shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardTask {
    /// Snapshot index within the campaign.
    pub snapshot: u32,
    /// Round index within the snapshot's schedule.
    pub round: u32,
    /// Latency or bandwidth phase.
    pub phase: Phase,
    /// Probe message size for this phase.
    pub bytes: u64,
    /// Absolute start time of the phase (the coordinator's clock).
    pub at: f64,
    /// Retry/backoff policy every pair of the chunk runs under.
    pub retry: RetryPolicy,
    /// The `(sender, receiver)` pairs of this chunk, in schedule order.
    pub pairs: Vec<(u32, u32)>,
}

/// One measured (or exhausted) cell of a shard's fragment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellResult {
    /// Sender index.
    pub i: u32,
    /// Receiver index.
    pub j: u32,
    /// How the cell ended after both phases' retries.
    pub outcome: ProbeOutcome,
    /// Fitted latency (seconds); meaningful only for `Ok` outcomes.
    pub alpha: f64,
    /// Fitted bandwidth (bytes/second); meaningful only for `Ok` outcomes.
    pub beta: f64,
}

/// A shard's contribution to one snapshot: disjoint cells plus the shard's
/// share of the probe counters.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialTpMatrix {
    /// The snapshot this fragment belongs to.
    pub snapshot: u32,
    /// Cluster size (coordinator cross-checks it).
    pub n: u32,
    /// Probe attempts issued by this shard this snapshot.
    pub attempts: u64,
    /// Attempts that returned a measurement.
    pub successes: u64,
    /// Attempts beyond the first for any (pair, phase).
    pub retries: u64,
    /// Attempts that timed out.
    pub timeouts: u64,
    /// Attempts lost in flight.
    pub losses: u64,
    /// The shard's cells, in schedule order.
    pub cells: Vec<CellResult>,
}

/// One protocol message: the shared header plus a kind-specific body.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Exchange id (see the module docs).
    pub seq: u64,
    /// Destination shard of a worker-bound frame, origin of a
    /// coordinator-bound one.
    pub shard: u32,
    /// What the frame says.
    pub body: Body,
}

/// The kind-specific part of a [`Message`].
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// Coordinator → worker probe task.
    Task(ShardTask),
    /// Worker → coordinator acknowledgement of a task or a reset.
    Ack {
        /// `max` over the chunk's pairs of the seconds each consumed
        /// (backoff + burnt deadlines + the successful attempt); 0.0 for
        /// a reset.
        max_consumed: f64,
    },
    /// Coordinator → worker: a snapshot ended; ship its fragment.
    Flush {
        /// The snapshot being closed.
        snapshot: u32,
    },
    /// Coordinator → worker: a shard died mid-snapshot and the snapshot is
    /// restarting across the survivors; discard everything accumulated
    /// for it. Clearing a clean snapshot is a no-op, so re-dispatch needs
    /// no special casing.
    Reset {
        /// The snapshot being restarted.
        snapshot: u32,
    },
    /// Worker → coordinator snapshot fragment.
    Partial(PartialTpMatrix),
    /// Coordinator → worker socket handshake: binds the connection to the
    /// header's shard and proves the campaign key before any task flows.
    /// In-process transports never send one.
    Hello,
    /// Worker → coordinator handshake acknowledgement.
    HelloAck {
        /// Cluster size the shard's probe backend covers, so the
        /// coordinator can check every worker probes the same cloud.
        n: u32,
    },
    /// Worker → coordinator: a received frame's keyed tag did not verify
    /// (see [`crate::auth`]). Nothing inside the rejected frame can be
    /// trusted, so the header's seq is 0 and its shard is `u32::MAX`. The
    /// coordinator maps this to
    /// [`CoordError::AuthFailure`](crate::CoordError::AuthFailure).
    AuthReject,
}

fn put_retry(buf: &mut Vec<u8>, r: &RetryPolicy) {
    put_f64(buf, r.deadline);
    put_u32(buf, r.max_attempts);
    put_f64(buf, r.backoff_base);
    put_f64(buf, r.backoff_mult);
}

fn read_retry(r: &mut Reader<'_>) -> Result<RetryPolicy, CodecError> {
    Ok(RetryPolicy {
        deadline: r.f64()?,
        max_attempts: r.u32()?,
        backoff_base: r.f64()?,
        backoff_mult: r.f64()?,
    })
}

fn put_task(p: &mut Vec<u8>, t: &ShardTask) {
    put_u32(p, t.snapshot);
    put_u32(p, t.round);
    p.push(match t.phase {
        Phase::Small => 0,
        Phase::Large => 1,
    });
    put_u64(p, t.bytes);
    put_f64(p, t.at);
    put_retry(p, &t.retry);
    put_u32(p, t.pairs.len() as u32);
    for &(i, j) in &t.pairs {
        put_u32(p, i);
        put_u32(p, j);
    }
}

fn read_task(r: &mut Reader<'_>) -> Result<Body, CodecError> {
    let snapshot = r.u32()?;
    let round = r.u32()?;
    let phase = match r.u8()? {
        0 => Phase::Small,
        1 => Phase::Large,
        _ => return Err(CodecError::Malformed("bad phase tag")),
    };
    let bytes = r.u64()?;
    let at = r.f64()?;
    let retry = read_retry(r)?;
    let count = r.u32()? as usize;
    let mut pairs = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        pairs.push((r.u32()?, r.u32()?));
    }
    Ok(Body::Task(ShardTask {
        snapshot,
        round,
        phase,
        bytes,
        at,
        retry,
        pairs,
    }))
}

fn put_partial(p: &mut Vec<u8>, m: &PartialTpMatrix) {
    put_u32(p, m.snapshot);
    put_u32(p, m.n);
    for c in [m.attempts, m.successes, m.retries, m.timeouts, m.losses] {
        put_u64(p, c);
    }
    put_u32(p, m.cells.len() as u32);
    for c in &m.cells {
        put_u32(p, c.i);
        put_u32(p, c.j);
        match c.outcome {
            ProbeOutcome::Ok(k) => {
                p.push(1);
                put_u32(p, k);
                put_f64(p, c.alpha);
                put_f64(p, c.beta);
            }
            ProbeOutcome::Failed(k) => {
                p.push(2);
                put_u32(p, k);
            }
            ProbeOutcome::Unprobed => p.push(0),
        }
    }
}

fn read_partial(r: &mut Reader<'_>) -> Result<Body, CodecError> {
    let snapshot = r.u32()?;
    let n = r.u32()?;
    let attempts = r.u64()?;
    let successes = r.u64()?;
    let retries = r.u64()?;
    let timeouts = r.u64()?;
    let losses = r.u64()?;
    let count = r.u32()? as usize;
    let mut cells = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let i = r.u32()?;
        let j = r.u32()?;
        let (outcome, alpha, beta) = match r.u8()? {
            0 => (ProbeOutcome::Unprobed, 0.0, 0.0),
            1 => (ProbeOutcome::Ok(r.u32()?), r.f64()?, r.f64()?),
            2 => (ProbeOutcome::Failed(r.u32()?), 0.0, 0.0),
            _ => return Err(CodecError::Malformed("bad outcome tag")),
        };
        cells.push(CellResult {
            i,
            j,
            outcome,
            alpha,
            beta,
        });
    }
    Ok(Body::Partial(PartialTpMatrix {
        snapshot,
        n,
        attempts,
        successes,
        retries,
        timeouts,
        losses,
        cells,
    }))
}

/// Reads one kind's body from the payload past the header.
type BodyReader = fn(&mut Reader<'_>) -> Result<Body, CodecError>;

impl Message {
    /// Encode into one checksummed frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        put_u64(&mut p, self.seq);
        put_u32(&mut p, self.shard);
        let kind = match &self.body {
            Body::Task(t) => {
                put_task(&mut p, t);
                KIND_SHARD_TASK
            }
            Body::Ack { max_consumed } => {
                put_f64(&mut p, *max_consumed);
                KIND_PHASE_ACK
            }
            Body::Flush { snapshot } => {
                put_u32(&mut p, *snapshot);
                KIND_FLUSH_REQUEST
            }
            Body::Reset { snapshot } => {
                put_u32(&mut p, *snapshot);
                KIND_RESET
            }
            Body::Partial(m) => {
                put_partial(&mut p, m);
                KIND_PARTIAL_TP
            }
            Body::Hello => KIND_HELLO,
            Body::HelloAck { n } => {
                put_u32(&mut p, *n);
                KIND_HELLO_ACK
            }
            Body::AuthReject => KIND_AUTH_REJECT,
        };
        encode_frame(kind, &p)
    }

    /// Decode one frame into its typed message. The kind is checked before
    /// the header is read, so a frame of any other kind is
    /// [`CodecError::UnknownKind`] however short its payload.
    pub fn decode(buf: &[u8]) -> Result<Message, CodecError> {
        let frame = decode_frame(buf)?;
        let read_body: BodyReader = match frame.kind {
            KIND_SHARD_TASK => read_task,
            KIND_PHASE_ACK => |r| {
                Ok(Body::Ack {
                    max_consumed: r.f64()?,
                })
            },
            KIND_FLUSH_REQUEST => |r| Ok(Body::Flush { snapshot: r.u32()? }),
            KIND_RESET => |r| Ok(Body::Reset { snapshot: r.u32()? }),
            KIND_PARTIAL_TP => read_partial,
            KIND_HELLO => |_| Ok(Body::Hello),
            KIND_HELLO_ACK => |r| Ok(Body::HelloAck { n: r.u32()? }),
            KIND_AUTH_REJECT => |_| Ok(Body::AuthReject),
            other => return Err(CodecError::UnknownKind(other)),
        };
        let mut r = Reader::new(&frame.payload);
        let seq = r.u64()?;
        let shard = r.u32()?;
        let body = read_body(&mut r)?;
        r.finish()?;
        Ok(Message { seq, shard, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_task() -> Message {
        Message {
            seq: 42,
            shard: 3,
            body: Body::Task(ShardTask {
                snapshot: 2,
                round: 17,
                phase: Phase::Large,
                bytes: 8 << 20,
                at: 123.456789,
                retry: RetryPolicy::default(),
                pairs: vec![(0, 5), (1, 4), (2, 3)],
            }),
        }
    }

    #[test]
    fn task_roundtrip() {
        let msg = sample_task();
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn ack_roundtrip() {
        let msg = Message {
            seq: 7,
            shard: 1,
            body: Body::Ack {
                max_consumed: 0.125 + 1e-13,
            },
        };
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn flush_roundtrip() {
        let msg = Message {
            seq: 9,
            shard: 0,
            body: Body::Flush { snapshot: 4 },
        };
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn reset_roundtrip() {
        let msg = Message {
            seq: 13,
            shard: 2,
            body: Body::Reset { snapshot: 1 },
        };
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
        // A reset must never decode as a flush (their payloads coincide).
        assert!(!matches!(
            Message::decode(&msg.encode()).unwrap().body,
            Body::Flush { .. }
        ));
    }

    #[test]
    fn handshake_and_reject_roundtrips() {
        for (shard, body) in [
            (3, Body::Hello),
            (3, Body::HelloAck { n: 64 }),
            (u32::MAX, Body::AuthReject),
        ] {
            let msg = Message {
                seq: 0,
                shard,
                body,
            };
            assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn partial_roundtrip_with_mixed_outcomes() {
        let msg = Message {
            seq: 11,
            shard: 2,
            body: Body::Partial(PartialTpMatrix {
                snapshot: 0,
                n: 8,
                attempts: 40,
                successes: 36,
                retries: 4,
                timeouts: 2,
                losses: 2,
                cells: vec![
                    CellResult {
                        i: 0,
                        j: 1,
                        outcome: ProbeOutcome::Ok(1),
                        alpha: 2.5e-4,
                        beta: 9.87e7,
                    },
                    CellResult {
                        i: 1,
                        j: 0,
                        outcome: ProbeOutcome::Failed(3),
                        alpha: 0.0,
                        beta: 0.0,
                    },
                ],
            }),
        };
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn corrupted_message_is_typed_error() {
        let mut buf = sample_task().encode();
        let mid = buf.len() / 2;
        buf[mid] ^= 0xFF;
        assert!(matches!(
            Message::decode(&buf),
            Err(CodecError::ChecksumMismatch)
        ));
    }
}
