//! Compact binary framing and the on-disk binary [`NetTrace`] format.
//!
//! Every message of the sharded-calibration wire protocol — and the binary
//! trace artifact — travels as one *frame*:
//!
//! ```text
//! ┌───────────┬─────────┬───────┬────────┬──────────┬─────────────┐
//! │ magic     │ version │ kind  │ len    │ payload  │ checksum    │
//! │ "CCF1" ×4 │ u16 LE  │ u16 LE│ u32 LE │ len bytes│ FNV-1a u64  │
//! └───────────┴─────────┴───────┴────────┴──────────┴─────────────┘
//! ```
//!
//! The checksum covers `version ‖ kind ‖ len ‖ payload`, so any flipped bit
//! in the header-after-magic or the body is caught before a single payload
//! byte is interpreted. Decoding never panics: every malformed input maps
//! to a typed [`CodecError`].
//!
//! The [`NetTrace`] payload (frame kind [`KIND_NET_TRACE`]) compresses each
//! latency / inverse-bandwidth plane with a Gorilla-style XOR delta against
//! the previous sample's same cell: the paper's central observation — link
//! performance is a constant plus sparse change — means consecutive samples
//! share their sign, exponent and high mantissa bits, so the XOR is mostly
//! (often entirely) zero and each cell costs 1–9 bytes instead of the
//! ~20-character decimal a JSON float needs. The encoding is exactly
//! lossless: `f64` bit patterns round-trip unchanged.

use cloudconst_netmodel::{NetTrace, PerfMatrix};
use std::fmt;

/// Leading frame magic (`"CCF1"`): cloudconst frame, family 1.
pub const MAGIC: [u8; 4] = *b"CCF1";

/// Current wire/disk format version.
pub const VERSION: u16 = 1;

/// Frame kind: a coordinator → worker shard task ([`crate::wire::ShardTask`]).
pub const KIND_SHARD_TASK: u16 = 1;
/// Frame kind: a worker → coordinator phase acknowledgement.
pub const KIND_PHASE_ACK: u16 = 2;
/// Frame kind: a coordinator → worker end-of-snapshot flush request.
pub const KIND_FLUSH_REQUEST: u16 = 3;
/// Frame kind: a worker → coordinator partial TP-matrix fragment.
pub const KIND_PARTIAL_TP: u16 = 4;
/// Frame kind: an on-disk binary [`NetTrace`].
pub const KIND_NET_TRACE: u16 = 5;
/// Frame kind: a coordinator → worker snapshot reset (shard failover).
pub const KIND_RESET: u16 = 6;
/// Frame kind: a worker → coordinator authentication rejection (the frame's
/// keyed tag did not verify; see [`crate::auth`]).
pub const KIND_AUTH_REJECT: u16 = 7;
/// Frame kind: a coordinator → worker connection hello (socket transports
/// bind a connection to a shard and validate the campaign key eagerly).
pub const KIND_HELLO: u16 = 8;
/// Frame kind: a worker → coordinator hello acknowledgement carrying the
/// cluster size the hosted shards probe.
pub const KIND_HELLO_ACK: u16 = 9;

/// Typed decode failure. Corruption is detected, never panicked on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the structure it promised.
    Truncated,
    /// The frame does not start with [`MAGIC`].
    BadMagic,
    /// The frame's version is not one this build understands.
    UnsupportedVersion(u16),
    /// The FNV-1a checksum does not match the frame body.
    ChecksumMismatch,
    /// The frame kind is not one this decoder handles.
    UnknownKind(u16),
    /// Structurally invalid payload (with a short reason).
    Malformed(&'static str),
    /// Valid frame followed by unexpected extra bytes.
    TrailingBytes,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::BadMagic => write!(f, "bad frame magic"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported frame version {v}"),
            CodecError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            CodecError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            CodecError::Malformed(why) => write!(f, "malformed payload: {why}"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after frame"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A decoded frame: its kind tag and verified payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// One of the `KIND_*` constants.
    pub kind: u16,
    /// The checksum-verified payload bytes.
    pub payload: Vec<u8>,
}

/// FNV-1a 64-bit hash — tiny, dependency-free, and plenty for detecting
/// accidental corruption (this is an integrity check, not authentication).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Wrap a payload in a checksummed frame.
pub fn encode_frame(kind: u16, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + 2 + 2 + 4 + payload.len() + 8);
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&kind.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    let sum = fnv1a(&buf[4..]);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// Verify and unwrap one frame occupying the whole buffer.
pub fn decode_frame(buf: &[u8]) -> Result<Frame, CodecError> {
    if buf.len() < 4 + 2 + 2 + 4 + 8 {
        return Err(CodecError::Truncated);
    }
    if buf[..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    if version != VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let kind = u16::from_le_bytes([buf[6], buf[7]]);
    let len = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]) as usize;
    let body_end = 12usize.checked_add(len).ok_or(CodecError::Truncated)?;
    if buf.len() < body_end + 8 {
        return Err(CodecError::Truncated);
    }
    if buf.len() > body_end + 8 {
        return Err(CodecError::TrailingBytes);
    }
    let mut sum = [0u8; 8];
    sum.copy_from_slice(&buf[body_end..body_end + 8]);
    if fnv1a(&buf[4..body_end]) != u64::from_le_bytes(sum) {
        return Err(CodecError::ChecksumMismatch);
    }
    Ok(Frame {
        kind,
        payload: buf[12..body_end].to_vec(),
    })
}

/// Cursor over a verified payload; every read is bounds-checked into
/// [`CodecError::Truncated`] rather than a slice panic.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Next byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Next `f64`, carried as its little-endian bit pattern (exact).
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Error unless the payload was consumed exactly.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }
}

/// Append a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its exact little-endian bit pattern.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// XOR-delta-encode one flattened plane against the previous sample's bit
/// patterns (updated in place). Per cell: a control byte holding the number
/// of significant low-order bytes of `bits ^ prev` (0–8), then exactly
/// those bytes. Identical cells cost one byte.
fn encode_plane(out: &mut Vec<u8>, vals: &[f64], prev: &mut [u64]) {
    for (k, &v) in vals.iter().enumerate() {
        let bits = v.to_bits();
        let x = bits ^ prev[k];
        prev[k] = bits;
        let sig = (64 - x.leading_zeros() as usize).div_ceil(8);
        out.push(sig as u8);
        out.extend_from_slice(&x.to_le_bytes()[..sig]);
    }
}

/// Inverse of [`encode_plane`].
fn decode_plane(r: &mut Reader<'_>, cells: usize, prev: &mut [u64]) -> Result<Vec<f64>, CodecError> {
    let mut out = Vec::with_capacity(cells);
    for p in prev.iter_mut().take(cells) {
        let sig = r.u8()? as usize;
        if sig > 8 {
            return Err(CodecError::Malformed("xor-delta control byte > 8"));
        }
        let mut b = [0u8; 8];
        b[..sig].copy_from_slice(r.bytes(sig)?);
        let bits = *p ^ u64::from_le_bytes(b);
        *p = bits;
        out.push(f64::from_bits(bits));
    }
    Ok(out)
}

/// Serialize a [`NetTrace`] to the binary on-disk format (one frame).
pub fn encode_net_trace(trace: &NetTrace) -> Vec<u8> {
    let n = trace.n();
    let cells = n * n;
    let mut p = Vec::new();
    put_u32(&mut p, n as u32);
    put_u32(&mut p, trace.len() as u32);
    let mut prev_a = vec![0u64; cells];
    let mut prev_b = vec![0u64; cells];
    for s in trace.samples() {
        put_f64(&mut p, s.time);
        let (af, bf) = s.perf.flatten();
        encode_plane(&mut p, &af, &mut prev_a);
        encode_plane(&mut p, &bf, &mut prev_b);
    }
    encode_frame(KIND_NET_TRACE, &p)
}

/// Deserialize a binary [`NetTrace`]; exact inverse of
/// [`encode_net_trace`] for any trace that format can hold.
pub fn decode_net_trace(buf: &[u8]) -> Result<NetTrace, CodecError> {
    let frame = decode_frame(buf)?;
    if frame.kind != KIND_NET_TRACE {
        return Err(CodecError::UnknownKind(frame.kind));
    }
    let mut r = Reader::new(&frame.payload);
    let n = r.u32()? as usize;
    let count = r.u32()? as usize;
    let cells = n * n;
    let mut prev_a = vec![0u64; cells];
    let mut prev_b = vec![0u64; cells];
    let mut trace = NetTrace::new(n);
    let mut last_time = f64::NEG_INFINITY;
    for _ in 0..count {
        let time = r.f64()?;
        // NaN must be rejected here too — `NetTrace::record` would panic.
        if time.is_nan() || time < last_time {
            return Err(CodecError::Malformed("trace samples out of time order"));
        }
        last_time = time;
        let af = decode_plane(&mut r, cells, &mut prev_a)?;
        let bf = decode_plane(&mut r, cells, &mut prev_b)?;
        trace.record(time, PerfMatrix::from_flat(n, &af, &bf));
    }
    r.finish()?;
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudconst_netmodel::LinkPerf;

    #[test]
    fn frame_roundtrip() {
        let payload = b"hello frames".to_vec();
        let buf = encode_frame(KIND_PHASE_ACK, &payload);
        let frame = decode_frame(&buf).unwrap();
        assert_eq!(frame.kind, KIND_PHASE_ACK);
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let buf = encode_frame(KIND_FLUSH_REQUEST, &[]);
        let frame = decode_frame(&buf).unwrap();
        assert!(frame.payload.is_empty());
    }

    #[test]
    fn every_corrupted_byte_is_detected() {
        let buf = encode_frame(KIND_SHARD_TASK, b"payload under test");
        for k in 0..buf.len() {
            let mut bad = buf.clone();
            bad[k] ^= 0x40;
            assert!(
                decode_frame(&bad).is_err(),
                "flip at byte {k} went undetected"
            );
        }
    }

    #[test]
    fn truncation_and_trailing_are_typed() {
        let buf = encode_frame(KIND_SHARD_TASK, b"abc");
        assert_eq!(decode_frame(&buf[..5]), Err(CodecError::Truncated));
        let mut long = buf.clone();
        long.push(0);
        assert_eq!(decode_frame(&long), Err(CodecError::TrailingBytes));
        let mut wrong_magic = buf.clone();
        wrong_magic[0] = b'X';
        assert_eq!(decode_frame(&wrong_magic), Err(CodecError::BadMagic));
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut buf = encode_frame(KIND_SHARD_TASK, b"abc");
        // Bump the version and re-checksum so only the version is wrong.
        buf[4] = 9;
        let end = buf.len() - 8;
        let sum = fnv1a(&buf[4..end]);
        let last = buf.len();
        buf[last - 8..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(decode_frame(&buf), Err(CodecError::UnsupportedVersion(9)));
    }

    #[test]
    fn xor_delta_plane_roundtrip_exact() {
        let vals = [0.0, -0.0, 1.5, 1.5 + 1e-13, f64::INFINITY, 3.7e-9];
        let mut prev_e = vec![0u64; vals.len()];
        let mut out = Vec::new();
        encode_plane(&mut out, &vals, &mut prev_e);
        let mut prev_d = vec![0u64; vals.len()];
        let mut r = Reader::new(&out);
        let back = decode_plane(&mut r, vals.len(), &mut prev_d).unwrap();
        for (a, b) in vals.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn net_trace_binary_roundtrip() {
        let n = 5;
        let mut t = NetTrace::new(n);
        for step in 0..7 {
            let pm = PerfMatrix::from_fn(n, |i, j| {
                let h = (i * 31 + j * 7 + step) % 97;
                LinkPerf::new(1e-4 + h as f64 * 1e-7, 1e8 / (1.0 + h as f64))
            });
            t.record(step as f64 * 60.0, pm);
        }
        let bin = encode_net_trace(&t);
        let back = decode_net_trace(&bin).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn net_trace_decode_rejects_wrong_kind() {
        let buf = encode_frame(KIND_PHASE_ACK, b"not a trace");
        assert_eq!(
            decode_net_trace(&buf),
            Err(CodecError::UnknownKind(KIND_PHASE_ACK))
        );
    }
}
