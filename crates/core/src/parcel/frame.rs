//! Length-prefixed binary framing for [`Parcel`]s on the wire.
//!
//! HPX's TCP parcelport ships each parcel as a fixed header plus the
//! serialized payload; this is our equivalent. The header is versioned so
//! the format can evolve, and every field is little-endian:
//!
//! ```text
//! offset  size  field
//!      0     2  magic  b"PX"
//!      2     1  version (currently 2)
//!      3     1  flags   (bit 0: response token present)
//!      4     4  source locality          u32
//!      8     4  dest locality            u32
//!     12     4  dest GID origin          u32
//!     16     8  dest GID lid             u64
//!     24     4  action id                u32
//!     28     8  response token           u64 (0 when flags bit 0 clear)
//!     36     4  payload length           u32
//!     40     4  payload checksum         u32 (FNV-1a over the payload)
//!     44     …  payload bytes
//! ```
//!
//! Version 2 extended the v1 header with the payload checksum, so wire
//! corruption that leaves the framing intact is still rejected instead
//! of silently delivering damaged bytes.
//!
//! [`decode`] is *total*: any byte slice either yields a parcel, asks for
//! more bytes ([`DecodeError::Incomplete`]), or is rejected as
//! [`DecodeError::Malformed`] — it never panics, so a hostile or corrupt
//! stream cannot crash the reader loop.

use super::Parcel;
use crate::agas::Gid;
use bytes::Bytes;

/// First two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"PX";

/// Current frame format version (2: payload checksum added).
pub const VERSION: u8 = 2;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 44;

/// Upper bound on a single parcel's payload (64 MiB). A corrupt length
/// field must not make the reader allocate unboundedly.
pub const MAX_PAYLOAD: usize = 64 << 20;

const FLAG_HAS_TOKEN: u8 = 0b0000_0001;

/// FNV-1a 32-bit hash — the payload checksum. Not cryptographic; it
/// exists to catch accidental wire corruption, and being 4 lines of
/// code beats vendoring a CRC table.
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    fnv1a32_with(0x811C_9DC5, bytes)
}

/// Continue an FNV-1a 32-bit hash from `state` — lets callers checksum
/// logically concatenated byte ranges without copying them together
/// (the reliable layer hashes its carrier header and the payload this
/// way).
pub fn fnv1a32_with(state: u32, bytes: &[u8]) -> u32 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Why a byte slice failed to decode as a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Not enough bytes yet; `need` is the total frame length once known
    /// (or [`HEADER_LEN`] while the header itself is short). Read more
    /// and retry.
    Incomplete {
        /// Total bytes the frame needs from the start of the slice.
        need: usize,
    },
    /// The bytes can never form a valid frame (bad magic, unknown
    /// version, reserved flags, oversized payload). The connection should
    /// be dropped.
    Malformed(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Incomplete { need } => write!(f, "incomplete frame: need {need} bytes"),
            DecodeError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Total encoded size of `parcel` (header + payload).
pub fn encoded_len(parcel: &Parcel) -> usize {
    HEADER_LEN + parcel.payload.len()
}

/// Append the wire encoding of `parcel` to `out`.
///
/// # Panics
/// Panics if the payload exceeds [`MAX_PAYLOAD`] — callers construct
/// payloads locally, so an oversized one is a programming error.
pub fn encode(parcel: &Parcel, out: &mut Vec<u8>) {
    assert!(
        parcel.payload.len() <= MAX_PAYLOAD,
        "parcel payload {} exceeds MAX_PAYLOAD",
        parcel.payload.len()
    );
    out.reserve(encoded_len(parcel));
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(if parcel.response_token.is_some() { FLAG_HAS_TOKEN } else { 0 });
    out.extend_from_slice(&parcel.source.to_le_bytes());
    out.extend_from_slice(&parcel.dest_locality.to_le_bytes());
    out.extend_from_slice(&parcel.dest.origin.to_le_bytes());
    out.extend_from_slice(&parcel.dest.lid.to_le_bytes());
    out.extend_from_slice(&parcel.action.to_le_bytes());
    out.extend_from_slice(&parcel.response_token.unwrap_or(0).to_le_bytes());
    out.extend_from_slice(&(parcel.payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a32(&parcel.payload).to_le_bytes());
    out.extend_from_slice(&parcel.payload);
}

fn read_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"))
}

fn read_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
}

/// Try to decode one frame from the front of `buf`.
///
/// On success returns the parcel and the number of bytes consumed, so a
/// reader loop can advance past them and try again on the remainder.
pub fn decode(buf: &[u8]) -> Result<(Parcel, usize), DecodeError> {
    if buf.len() < HEADER_LEN {
        // Validate what we can see so garbage fails fast instead of
        // stalling in "need more bytes" forever.
        if !buf.is_empty() && buf[0] != MAGIC[0] {
            return Err(DecodeError::Malformed(format!("bad magic byte {:#04x}", buf[0])));
        }
        if buf.len() >= 2 && buf[..2] != MAGIC {
            return Err(DecodeError::Malformed("bad magic".into()));
        }
        if buf.len() >= 3 && buf[2] != VERSION {
            return Err(DecodeError::Malformed(format!("unsupported version {}", buf[2])));
        }
        return Err(DecodeError::Incomplete { need: HEADER_LEN });
    }
    if buf[..2] != MAGIC {
        return Err(DecodeError::Malformed("bad magic".into()));
    }
    if buf[2] != VERSION {
        return Err(DecodeError::Malformed(format!("unsupported version {}", buf[2])));
    }
    let flags = buf[3];
    if flags & !FLAG_HAS_TOKEN != 0 {
        return Err(DecodeError::Malformed(format!("reserved flag bits set: {flags:#04x}")));
    }
    let payload_len = read_u32(buf, 36) as usize;
    if payload_len > MAX_PAYLOAD {
        return Err(DecodeError::Malformed(format!(
            "payload length {payload_len} exceeds cap {MAX_PAYLOAD}"
        )));
    }
    let total = HEADER_LEN + payload_len;
    if buf.len() < total {
        return Err(DecodeError::Incomplete { need: total });
    }
    let expected = read_u32(buf, 40);
    let actual = fnv1a32(&buf[HEADER_LEN..total]);
    if actual != expected {
        return Err(DecodeError::Malformed(format!(
            "payload checksum mismatch: header says {expected:#010x}, payload hashes to {actual:#010x}"
        )));
    }
    let token = read_u64(buf, 28);
    let has_token = flags & FLAG_HAS_TOKEN != 0;
    if !has_token && token != 0 {
        return Err(DecodeError::Malformed("token bytes set without token flag".into()));
    }
    let parcel = Parcel {
        source: read_u32(buf, 4),
        dest_locality: read_u32(buf, 8),
        dest: Gid { origin: read_u32(buf, 12), lid: read_u64(buf, 16) },
        action: read_u32(buf, 24),
        payload: Bytes::from(buf[HEADER_LEN..total].to_vec()),
        response_token: has_token.then_some(token),
    };
    Ok((parcel, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(token: Option<u64>, payload: &[u8]) -> Parcel {
        Parcel {
            source: 3,
            dest_locality: 7,
            dest: Gid { origin: 7, lid: 0xDEAD_BEEF },
            action: 0x4841,
            payload: Bytes::from(payload.to_vec()),
            response_token: token,
        }
    }

    fn assert_same(a: &Parcel, b: &Parcel) {
        assert_eq!(a.source, b.source);
        assert_eq!(a.dest_locality, b.dest_locality);
        assert_eq!(a.dest, b.dest);
        assert_eq!(a.action, b.action);
        assert_eq!(a.payload, b.payload);
        assert_eq!(a.response_token, b.response_token);
    }

    #[test]
    fn roundtrip_with_and_without_token() {
        for token in [None, Some(0u64), Some(u64::MAX)] {
            let p = sample(token, b"hello halo");
            let mut buf = Vec::new();
            encode(&p, &mut buf);
            assert_eq!(buf.len(), encoded_len(&p));
            let (back, used) = decode(&buf).unwrap();
            assert_eq!(used, buf.len());
            assert_same(&p, &back);
        }
    }

    #[test]
    fn empty_payload_roundtrips() {
        let p = sample(None, b"");
        let mut buf = Vec::new();
        encode(&p, &mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        let (back, used) = decode(&buf).unwrap();
        assert_eq!(used, HEADER_LEN);
        assert_same(&p, &back);
    }

    #[test]
    fn truncation_asks_for_more() {
        let p = sample(Some(5), b"0123456789");
        let mut buf = Vec::new();
        encode(&p, &mut buf);
        for cut in 0..buf.len() {
            match decode(&buf[..cut]) {
                Err(DecodeError::Incomplete { need }) => assert!(need > cut),
                other => panic!("cut {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn two_frames_back_to_back_decode_in_order() {
        let a = sample(None, b"first");
        let b = sample(Some(9), b"second");
        let mut buf = Vec::new();
        encode(&a, &mut buf);
        encode(&b, &mut buf);
        let (got_a, used_a) = decode(&buf).unwrap();
        assert_same(&a, &got_a);
        let (got_b, used_b) = decode(&buf[used_a..]).unwrap();
        assert_same(&b, &got_b);
        assert_eq!(used_a + used_b, buf.len());
    }

    #[test]
    fn bad_magic_is_malformed() {
        let mut buf = Vec::new();
        encode(&sample(None, b"x"), &mut buf);
        buf[0] = b'Q';
        assert!(matches!(decode(&buf), Err(DecodeError::Malformed(_))));
        // … even with only one byte visible
        assert!(matches!(decode(b"Q"), Err(DecodeError::Malformed(_))));
    }

    #[test]
    fn wrong_version_is_malformed() {
        let mut buf = Vec::new();
        encode(&sample(None, b"x"), &mut buf);
        buf[2] = 99;
        assert!(matches!(decode(&buf), Err(DecodeError::Malformed(_))));
    }

    #[test]
    fn reserved_flags_are_malformed() {
        let mut buf = Vec::new();
        encode(&sample(None, b"x"), &mut buf);
        buf[3] = 0b1000_0000;
        assert!(matches!(decode(&buf), Err(DecodeError::Malformed(_))));
    }

    #[test]
    fn oversized_payload_length_is_malformed_not_oom() {
        let mut buf = Vec::new();
        encode(&sample(None, b"x"), &mut buf);
        buf[36..40].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&buf), Err(DecodeError::Malformed(_))));
    }

    #[test]
    fn flipped_payload_bit_fails_the_checksum() {
        let mut buf = Vec::new();
        encode(&sample(Some(3), b"precious payload"), &mut buf);
        for (byte, bit) in [(HEADER_LEN, 0), (HEADER_LEN + 7, 5), (buf.len() - 1, 7)] {
            let mut bad = buf.clone();
            bad[byte] ^= 1 << bit;
            match decode(&bad) {
                Err(DecodeError::Malformed(m)) => assert!(m.contains("checksum"), "{m}"),
                other => panic!("corrupt byte {byte}: {other:?}"),
            }
        }
        decode(&buf).expect("pristine frame still decodes");
    }

    #[test]
    fn corrupted_checksum_field_is_malformed() {
        let mut buf = Vec::new();
        encode(&sample(None, b"x"), &mut buf);
        buf[40] ^= 0xFF;
        assert!(matches!(decode(&buf), Err(DecodeError::Malformed(_))));
    }

    #[test]
    fn fnv1a32_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a32(b""), 0x811C_9DC5);
        assert_eq!(fnv1a32(b"a"), 0xE40C_292C);
        assert_eq!(fnv1a32(b"foobar"), 0xBF9C_F968);
    }
}
