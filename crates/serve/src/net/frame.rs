//! The length-prefixed binary framing layer of the `verd` protocol.
//!
//! Every message in either direction travels as one frame:
//!
//! ```text
//! frame   "VERNET\x01"            7-byte magic preamble
//!         len u32 LE              payload byte count (<= MAX_FRAME_LEN)
//!         payload                 len bytes (request/response codec, wire.rs)
//!         checksum u64 LE         fxhash fold over the payload
//! ```
//!
//! The checksum is [`ver_common::codec::checksum_fold`] under a seed of
//! this format's own. Not cryptographic — it catches the accidents that
//! matter on a socket: truncation, a peer that lost frame sync, and bit rot
//! on the path.
//!
//! **Failure typing.** Every malformed input — bad preamble, oversized
//! length prefix, truncated frame, checksum mismatch — decodes to
//! [`VerError::Protocol`], never a panic and never an unbounded
//! allocation (the length prefix is validated against [`MAX_FRAME_LEN`]
//! *before* any buffer is sized). Socket-level failures (timeouts, resets)
//! surface as [`VerError::Io`]; a clean end-of-stream at a frame boundary
//! is [`ReadOutcome::Eof`], which is not an error. The distinction is what
//! lets the server count protocol abuse separately from peers that simply
//! died (`NetStats`).

use std::io::{Read, Write};
use ver_common::codec::checksum_fold;
use ver_common::error::{Result, VerError};
use ver_common::fxhash::fx_step;

/// Frame preamble: protocol name + wire-format version.
pub const MAGIC: &[u8; 7] = b"VERNET\x01";

/// Upper bound on one frame's payload. Large enough for a full golden
/// query result with materialized view data; small enough that a hostile
/// length prefix cannot make the peer allocate unbounded memory.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Checksum seed — distinct from the persisted-artifact seed, so an
/// artifact section can never masquerade as a wire frame.
const FRAME_SEED: u64 = 0x7E52_4E45_5401_C3A5;

/// Frame checksum: the seed's first word is the payload length, which the
/// fold then closes over a second time.
pub fn frame_checksum(payload: &[u8]) -> u64 {
    checksum_fold(fx_step(FRAME_SEED, payload.len() as u64), payload)
}

/// Encode one frame around `payload`.
///
/// Panics if `payload` exceeds [`MAX_FRAME_LEN`] — producing an
/// un-decodable frame would be a programming error, not a runtime
/// condition (the codec layer never builds payloads near the cap).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_FRAME_LEN as usize,
        "frame payload of {} bytes exceeds MAX_FRAME_LEN",
        payload.len()
    );
    let mut out = Vec::with_capacity(MAGIC.len() + 4 + payload.len() + 8);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&frame_checksum(payload).to_le_bytes());
    out
}

/// Decode one complete frame from a byte buffer, requiring exact
/// consumption (trailing garbage is a protocol error). This is the
/// reference decoder the corruption proptests exercise; the streaming
/// reader ([`read_frame`]) enforces the identical checks.
pub fn decode_frame(buf: &[u8]) -> Result<Vec<u8>> {
    if buf.len() < MAGIC.len() + 4 {
        return Err(VerError::Protocol("truncated frame header".into()));
    }
    if &buf[..MAGIC.len()] != MAGIC {
        return Err(VerError::Protocol("bad frame preamble".into()));
    }
    let len = u32::from_le_bytes(
        buf[MAGIC.len()..MAGIC.len() + 4]
            .try_into()
            .expect("4 bytes"),
    );
    if len > MAX_FRAME_LEN {
        return Err(VerError::Protocol(format!(
            "frame length {len} exceeds cap {MAX_FRAME_LEN}"
        )));
    }
    let body = &buf[MAGIC.len() + 4..];
    let len = len as usize;
    if body.len() < len + 8 {
        return Err(VerError::Protocol("truncated frame body".into()));
    }
    if body.len() != len + 8 {
        return Err(VerError::Protocol("trailing bytes after frame".into()));
    }
    let payload = &body[..len];
    let stated = u64::from_le_bytes(body[len..].try_into().expect("8 bytes"));
    if frame_checksum(payload) != stated {
        return Err(VerError::Protocol("frame checksum mismatch".into()));
    }
    Ok(payload.to_vec())
}

/// Write one frame to a stream. Socket failures (including a tripped
/// write timeout) surface as [`VerError::Io`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    let frame = encode_frame(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Outcome of reading one frame off a stream.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete, checksum-verified payload.
    Frame(Vec<u8>),
    /// Clean end-of-stream at a frame boundary (the peer closed the
    /// connection between requests) — not an error.
    Eof,
}

/// Fill `buf` from the stream, distinguishing a clean EOF before the
/// first byte (`Ok(false)`) from one mid-buffer (`Protocol`).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<bool> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(VerError::Protocol(
                    "connection closed mid-frame".to_string(),
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(VerError::Io(e.to_string())),
        }
    }
    Ok(true)
}

/// Read one frame off a stream.
///
/// * clean close between frames → [`ReadOutcome::Eof`];
/// * a peer that died mid-frame, a bad preamble, an oversized length
///   prefix, or a checksum mismatch → [`VerError::Protocol`];
/// * socket errors and tripped read timeouts → [`VerError::Io`].
pub fn read_frame(r: &mut impl Read) -> Result<ReadOutcome> {
    let mut header = [0u8; 11]; // MAGIC + u32 len
    if !read_exact_or_eof(r, &mut header)? {
        return Ok(ReadOutcome::Eof);
    }
    if &header[..MAGIC.len()] != MAGIC {
        return Err(VerError::Protocol("bad frame preamble".into()));
    }
    let len = u32::from_le_bytes(header[MAGIC.len()..].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(VerError::Protocol(format!(
            "frame length {len} exceeds cap {MAX_FRAME_LEN}"
        )));
    }
    let mut body = vec![0u8; len as usize + 8];
    if !read_exact_or_eof(r, &mut body)? {
        return Err(VerError::Protocol(
            "connection closed mid-frame".to_string(),
        ));
    }
    let payload_len = len as usize;
    let stated = u64::from_le_bytes(body[payload_len..].try_into().expect("8 bytes"));
    body.truncate(payload_len);
    if frame_checksum(&body) != stated {
        return Err(VerError::Protocol("frame checksum mismatch".into()));
    }
    Ok(ReadOutcome::Frame(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        for payload in [&b""[..], &b"x"[..], &b"hello verd"[..], &[0u8; 1000][..]] {
            let frame = encode_frame(payload);
            assert_eq!(decode_frame(&frame).unwrap(), payload);
            let mut cursor = std::io::Cursor::new(frame);
            match read_frame(&mut cursor).unwrap() {
                ReadOutcome::Frame(p) => assert_eq!(p, payload),
                ReadOutcome::Eof => panic!("unexpected eof"),
            }
        }
    }

    #[test]
    fn clean_eof_is_not_an_error() {
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_frame(&mut empty).unwrap(), ReadOutcome::Eof));
    }

    #[test]
    fn mid_frame_eof_is_a_protocol_error() {
        let frame = encode_frame(b"payload");
        for keep in 1..frame.len() {
            let mut cursor = std::io::Cursor::new(frame[..keep].to_vec());
            match read_frame(&mut cursor) {
                Err(VerError::Protocol(_)) => {}
                other => panic!("prefix of {keep} bytes: expected Protocol, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_preamble_is_rejected() {
        let mut frame = encode_frame(b"payload");
        frame[0] ^= 0xFF;
        assert!(matches!(decode_frame(&frame), Err(VerError::Protocol(_))));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocation() {
        let mut frame = encode_frame(b"p");
        frame[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode_frame(&frame) {
            Err(VerError::Protocol(m)) => assert!(m.contains("exceeds cap"), "{m}"),
            other => panic!("expected Protocol, got {other:?}"),
        }
        let mut cursor = std::io::Cursor::new(frame);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(VerError::Protocol(_))
        ));
    }

    #[test]
    fn checksum_catches_payload_flips() {
        let frame = encode_frame(b"some payload bytes");
        let payload_start = MAGIC.len() + 4;
        for i in payload_start..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x01;
            assert!(
                matches!(decode_frame(&bad), Err(VerError::Protocol(_))),
                "flip at {i} was not caught"
            );
        }
    }

    #[test]
    fn checksum_closes_over_length() {
        assert_ne!(frame_checksum(b""), frame_checksum(&[0u8]));
        assert_ne!(frame_checksum(&[0u8; 8]), frame_checksum(&[0u8; 16]));
    }
}
