//! Per-campaign authentication of coordinator/worker frames.
//!
//! Every frame that crosses a real socket is *sealed*: an 8-byte keyed tag
//! is prepended to the CCF1 frame bytes, computed HMAC-style — two chained
//! FNV-1a passes over the key masked with the classic `0x36`/`0x5c`
//! inner/outer pads — so a worker only executes frames produced by the
//! coordinator holding this campaign's [`AuthKey`], and the coordinator
//! only accepts responses from workers holding it. A rejected tag is the
//! typed [`CoordError::AuthFailure`], never a panic or a silently executed
//! frame.
//!
//! **This is an authenticity gate, not cryptography.** FNV-1a is not a
//! cryptographic hash; the tag defends against misrouted frames, stale
//! campaigns, configuration mismatches and accidental tampering — the
//! failure modes a calibration service actually meets on a trusted
//! network — not against an adversary who can forge traffic. A deployment
//! on a hostile network should run the wire over TLS/SSH and keep this tag
//! as the campaign-identity check it is.

use crate::CoordError;
use cloudconst_cloud::hash;

/// Bytes the tag occupies at the front of a sealed frame.
pub const TAG_LEN: usize = 8;

/// Bytes of key material in an [`AuthKey`].
pub const KEY_LEN: usize = 16;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv1a_chain(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A campaign's shared secret: coordinator and every worker must hold the
/// same key for the campaign's frames to flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthKey([u8; KEY_LEN]);

impl AuthKey {
    /// A key expanded deterministically from a seed (two SplitMix64-style
    /// mixes over disjoint stream tags). Convenient for tests and for
    /// launching worker + coordinator from one `--key-seed` flag.
    pub fn from_seed(seed: u64) -> Self {
        let lo = hash::mix_all(&[seed, 0xA0]);
        let hi = hash::mix_all(&[seed, 0xA1]);
        let mut bytes = [0u8; KEY_LEN];
        bytes[..8].copy_from_slice(&lo.to_le_bytes());
        bytes[8..].copy_from_slice(&hi.to_le_bytes());
        AuthKey(bytes)
    }

    /// Parse the 32-hex-digit form emitted by [`AuthKey::to_hex`].
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.trim();
        if s.len() != 2 * KEY_LEN || !s.chars().all(|c| c.is_ascii_hexdigit()) {
            return None;
        }
        let mut bytes = [0u8; KEY_LEN];
        for (k, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hex = std::str::from_utf8(chunk).ok()?;
            bytes[k] = u8::from_str_radix(hex, 16).ok()?;
        }
        Some(AuthKey(bytes))
    }

    /// Lower-case hex form, suitable for the `coord-worker --key` flag.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The keyed tag of `body` (HMAC construction over FNV-1a).
    pub fn tag(&self, body: &[u8]) -> u64 {
        let mut ipad = self.0;
        let mut opad = self.0;
        for k in 0..KEY_LEN {
            ipad[k] ^= 0x36;
            opad[k] ^= 0x5c;
        }
        let inner = fnv1a_chain(fnv1a_chain(FNV_OFFSET, &ipad), body);
        fnv1a_chain(fnv1a_chain(FNV_OFFSET, &opad), &inner.to_le_bytes())
    }

    /// Prepend the tag: `[tag u64 LE ‖ frame]`.
    pub fn seal(&self, frame: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(TAG_LEN + frame.len());
        self.seal_into(frame, &mut out);
        out
    }

    /// Append the sealed form of `frame` (`[tag u64 LE ‖ frame]`) to
    /// `out`, so a caller can seal into a buffer it reuses.
    pub fn seal_into(&self, frame: &[u8], out: &mut Vec<u8>) {
        out.reserve(TAG_LEN + frame.len());
        out.extend_from_slice(&self.tag(frame).to_le_bytes());
        out.extend_from_slice(frame);
    }

    /// Verify and strip the tag, returning the frame bytes. Any mismatch —
    /// wrong key, tampered tag, tampered body, truncated seal — is the
    /// typed [`CoordError::AuthFailure`].
    pub fn open<'a>(&self, sealed: &'a [u8]) -> Result<&'a [u8], CoordError> {
        if sealed.len() < TAG_LEN {
            return Err(CoordError::AuthFailure("sealed frame shorter than its tag"));
        }
        let (tag_bytes, frame) = sealed.split_at(TAG_LEN);
        let mut tag = [0u8; TAG_LEN];
        tag.copy_from_slice(tag_bytes);
        if self.tag(frame) != u64::from_le_bytes(tag) {
            return Err(CoordError::AuthFailure("frame tag mismatch"));
        }
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_roundtrip() {
        let key = AuthKey::from_seed(7);
        let frame = b"an arbitrary frame body".to_vec();
        let sealed = key.seal(&frame);
        assert_eq!(key.open(&sealed).unwrap(), &frame[..]);
    }

    #[test]
    fn seal_into_appends_the_same_bytes_as_seal() {
        let key = AuthKey::from_seed(7);
        let mut out = b"prefix".to_vec();
        key.seal_into(b"frame body", &mut out);
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(&out[6..], &key.seal(b"frame body")[..]);
    }

    #[test]
    fn wrong_key_is_auth_failure() {
        let sealed = AuthKey::from_seed(7).seal(b"frame");
        assert!(matches!(
            AuthKey::from_seed(8).open(&sealed),
            Err(CoordError::AuthFailure(_))
        ));
    }

    #[test]
    fn any_single_byte_flip_is_rejected() {
        let key = AuthKey::from_seed(3);
        let sealed = key.seal(b"body under the tag");
        for k in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[k] ^= 0x01;
            assert!(
                matches!(key.open(&bad), Err(CoordError::AuthFailure(_))),
                "flip at byte {k} went undetected"
            );
        }
    }

    #[test]
    fn truncated_seal_is_auth_failure() {
        let key = AuthKey::from_seed(3);
        assert!(matches!(
            key.open(&[1, 2, 3]),
            Err(CoordError::AuthFailure(_))
        ));
        assert!(matches!(key.open(&[]), Err(CoordError::AuthFailure(_))));
    }

    #[test]
    fn hex_roundtrip_and_rejects_garbage() {
        let key = AuthKey::from_seed(99);
        let hex = key.to_hex();
        assert_eq!(hex.len(), 2 * KEY_LEN);
        assert_eq!(AuthKey::from_hex(&hex), Some(key));
        assert_eq!(AuthKey::from_hex("zz"), None);
        assert_eq!(AuthKey::from_hex(&hex[..10]), None);
    }

    #[test]
    fn tag_depends_on_key_and_body() {
        let (a, b) = (AuthKey::from_seed(1), AuthKey::from_seed(2));
        assert_ne!(a.tag(b"x"), b.tag(b"x"));
        assert_ne!(a.tag(b"x"), a.tag(b"y"));
    }
}
