//! Golden frame bytes of the coordinator protocol.
//!
//! Every frame kind is built byte by byte from the documented layout — the
//! `seq: u64, shard: u32` header, then the kind's body — and must decode
//! with `Message::decode` and re-encode with `Message::encode` to exactly
//! the same bytes. An FNV-1a digest of each encoded frame is pinned, and so
//! are the response frames a `ShardWorker` produces for a fixed exchange.
//! The test touches no message constructor, so it holds across any
//! refactor of the typed messages; a digest that moves means the bytes on
//! the wire (or on disk) changed.

use cloudconst_coord::codec::{
    encode_frame, KIND_AUTH_REJECT, KIND_FLUSH_REQUEST, KIND_HELLO, KIND_HELLO_ACK,
    KIND_PARTIAL_TP, KIND_PHASE_ACK, KIND_RESET, KIND_SHARD_TASK,
};
use cloudconst_coord::{CodecError, Message, ShardWorker};
use cloudconst_netmodel::{FallibleNetworkProbe, ProbeAttempt};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Little-endian payload builder.
#[derive(Default)]
struct Payload(Vec<u8>);

impl Payload {
    /// A payload starting with the shared `seq, shard` header.
    fn header(seq: u64, shard: u32) -> Self {
        Payload::default().u64(seq).u32(shard)
    }
    fn u8(mut self, v: u8) -> Self {
        self.0.push(v);
        self
    }
    fn u32(mut self, v: u32) -> Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    fn u64(mut self, v: u64) -> Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }
    /// The retry policy block: deadline, max attempts, backoff base, mult.
    fn retry(self) -> Self {
        self.f64(2.0).u32(4).f64(0.01).f64(2.0)
    }
    fn pairs(self, pairs: &[(u32, u32)]) -> Self {
        pairs
            .iter()
            .fold(self.u32(pairs.len() as u32), |p, &(i, j)| p.u32(i).u32(j))
    }
    fn frame(self, kind: u16) -> Vec<u8> {
        encode_frame(kind, &self.0)
    }
}

/// `(name, hand-built frame, pinned digest of its encoding)` for every kind.
fn golden_frames() -> Vec<(&'static str, Vec<u8>, u64)> {
    let pairs = [(0, 5), (1, 4), (2, 3)];
    vec![
        (
            "task, small phase",
            Payload::header(42, 3)
                .u32(2) // snapshot
                .u32(17) // round
                .u8(0) // small phase
                .u64(1) // bytes
                .f64(123.456789) // at
                .retry()
                .pairs(&pairs)
                .frame(KIND_SHARD_TASK),
            0x8dc5adadeb9fe21a,
        ),
        (
            "task, large phase",
            Payload::header(43, 3)
                .u32(2)
                .u32(17)
                .u8(1) // large phase
                .u64(8 << 20)
                .f64(124.000125)
                .retry()
                .pairs(&pairs)
                .frame(KIND_SHARD_TASK),
            0x8e21732a917055b3,
        ),
        (
            "ack",
            Payload::header(7, 1)
                .f64(0.125 + 1e-13) // max consumed
                .frame(KIND_PHASE_ACK),
            0x62c49b38f1617273,
        ),
        (
            "flush",
            Payload::header(9, 0).u32(4).frame(KIND_FLUSH_REQUEST),
            0xf22e0859ec0718ca,
        ),
        (
            "partial with ok, failed and unprobed cells",
            Payload::header(11, 2)
                .u32(0) // snapshot
                .u32(8) // n
                .u64(40) // attempts
                .u64(36) // successes
                .u64(4) // retries
                .u64(2) // timeouts
                .u64(2) // losses
                .u32(3) // cells
                .u32(0)
                .u32(1)
                .u8(1)
                .u32(1)
                .f64(2.5e-4)
                .f64(9.87e7)
                .u32(1)
                .u32(0)
                .u8(2)
                .u32(3)
                .u32(2)
                .u32(3)
                .u8(0)
                .frame(KIND_PARTIAL_TP),
            0x67580b783dfbc5c4,
        ),
        (
            "reset",
            Payload::header(13, 2).u32(1).frame(KIND_RESET),
            0x1c805696fb01ab2d,
        ),
        (
            "auth reject from an unknown shard",
            Payload::header(0, u32::MAX).frame(KIND_AUTH_REJECT),
            0xa19f19dad13451e3,
        ),
        (
            "hello",
            Payload::header(0, 3).frame(KIND_HELLO),
            0x3c88091a4d321eca,
        ),
        (
            "hello ack",
            Payload::header(0, 3).u32(64).frame(KIND_HELLO_ACK),
            0xd3e6bdbaf8c59ac0,
        ),
    ]
}

#[test]
fn every_kind_encodes_to_its_golden_bytes() {
    let mut moved = Vec::new();
    for (name, frame, digest) in golden_frames() {
        let msg = Message::decode(&frame).unwrap_or_else(|e| panic!("{name}: {e}"));
        let encoded = msg.encode();
        assert_eq!(encoded, frame, "{name}: encode must reproduce the layout");
        if fnv1a(&encoded) != digest {
            moved.push(format!("{name}: {:#018x}", fnv1a(&encoded)));
        }
    }
    assert!(moved.is_empty(), "digests moved:\n{}", moved.join("\n"));
}

/// Every probe between distinct instances takes a size-dependent time.
struct Fixed;

impl FallibleNetworkProbe for Fixed {
    fn n(&self) -> usize {
        4
    }
    fn try_probe(&self, i: usize, j: usize, bytes: u64, _at: f64, _deadline: f64) -> ProbeAttempt {
        ProbeAttempt::Ok(1e-4 * (1 + i + 2 * j) as f64 + bytes as f64 * 1e-9)
    }
}

#[test]
fn worker_responses_have_golden_bytes() {
    let pairs = [(0, 1), (2, 3)];
    let task = |seq: u64, phase: u8, bytes: u64, at: f64| {
        Payload::header(seq, 1)
            .u32(0)
            .u32(0)
            .u8(phase)
            .u64(bytes)
            .f64(at)
            .retry()
            .pairs(&pairs)
            .frame(KIND_SHARD_TASK)
    };
    let exchange = [
        ("small-phase ack", task(1, 0, 1, 0.0), 0x5dd25200d4603c65),
        (
            "large-phase ack",
            task(2, 1, 8 << 20, 0.5),
            0x384254edc3c71d7f,
        ),
        (
            "flushed fragment",
            Payload::header(3, 1).u32(0).frame(KIND_FLUSH_REQUEST),
            0x6c4ea9d2778adee6,
        ),
        (
            "reset ack",
            Payload::header(4, 1).u32(0).frame(KIND_RESET),
            0x3c1453b1719dde97,
        ),
    ];
    let mut worker = ShardWorker::new(Fixed, 1);
    let mut moved = Vec::new();
    for (name, request, digest) in exchange {
        let response = worker
            .handle(&request)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        // Every response echoes the request's seq and names the worker's
        // shard in the header that leads the payload.
        assert_eq!(response[12..20], request[12..20], "{name}: seq");
        assert_eq!(response[20..24], 1u32.to_le_bytes(), "{name}: shard");
        assert_eq!(worker.handle(&request).unwrap(), response, "{name}: replay");
        if fnv1a(&response) != digest {
            moved.push(format!("{name}: {:#018x}", fnv1a(&response)));
        }
    }
    assert!(moved.is_empty(), "digests moved:\n{}", moved.join("\n"));
}

#[test]
fn net_trace_frame_is_an_unknown_kind() {
    // Kind 5 once framed a binary trace; it is retired and stays reserved.
    // A payload longer than the message header still decodes as unknown.
    let frame = encode_frame(5, &[0u8; 24]);
    assert_eq!(Message::decode(&frame), Err(CodecError::UnknownKind(5)));
}

#[test]
fn unknown_kind_is_reported_before_the_header_is_read() {
    // Three payload bytes: shorter than the 12-byte header.
    let frame = encode_frame(0x77, &[1, 2, 3]);
    assert_eq!(Message::decode(&frame), Err(CodecError::UnknownKind(0x77)));
}
