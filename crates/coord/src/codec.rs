//! Compact binary framing for the sharded-calibration wire protocol.
//!
//! Every message of the protocol travels as one *frame*:
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
//! Frame kind 5 is retired and stays reserved: it once carried a recorded
//! trace, and no message of the protocol does now.

use std::fmt;

/// Leading frame magic (`"CCF1"`): cloudconst frame, family 1.
pub const MAGIC: [u8; 4] = *b"CCF1";

/// Current wire format version.
pub const VERSION: u16 = 1;

/// Frame kind: a coordinator → worker shard task ([`crate::wire::ShardTask`]).
pub const KIND_SHARD_TASK: u16 = 1;
/// Frame kind: a worker → coordinator phase acknowledgement.
pub const KIND_PHASE_ACK: u16 = 2;
/// Frame kind: a coordinator → worker end-of-snapshot flush request.
pub const KIND_FLUSH_REQUEST: u16 = 3;
/// Frame kind: a worker → coordinator partial TP-matrix fragment.
pub const KIND_PARTIAL_TP: u16 = 4;
// Kind 5 is retired and reserved: decoders answer it with
// `CodecError::UnknownKind(5)`.
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
