//! The byte-level codec kit under every binary format in the workspace.
//!
//! Three hand-rolled little-endian formats share it: the `VERIDX\x04`
//! full-index and `VERSHD\x02` shard artifacts (`ver-index`) and the
//! `VERNET\x01` wire protocol (`ver-serve`). The kit knows integers,
//! floats, strings and counts — nothing else; the codec of a domain type
//! (a `Value`, a profile, a view) lives in the module that owns the type
//! and is written in terms of these primitives.
//!
//! * [`Reader`] — a bounds-checked cursor over untrusted bytes. Every read
//!   past the end, every count that cannot fit in what remains, every bad
//!   tag is a typed error, never a panic and never an allocation sized by
//!   an unchecked count. The *variant* of that error is the one thing the
//!   formats differ in (a short read on disk means a file rotted, on the
//!   wire that a peer sent garbage), so the constructor takes it:
//!   `Reader::new(buf, VerError::Serde)` / `Reader::new(buf,
//!   VerError::Protocol)`.
//! * `put_*` — the matching writers onto a `Vec<u8>`.
//! * [`checksum_fold`] — the seeded fx fold both checksummed framings use.

use crate::error::{Result, VerError};
use crate::fxhash::fx_step;

/// Bounds-checked little-endian reader over an untrusted byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    err: fn(String) -> VerError,
}

impl<'a> Reader<'a> {
    /// Read `buf` from its start, typing every failure with `err`.
    pub fn new(buf: &'a [u8], err: fn(String) -> VerError) -> Self {
        Reader { buf, pos: 0, err }
    }

    #[cold]
    fn fail(&self, msg: String) -> VerError {
        (self.err)(msg)
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` raw bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.fail(format!("truncated {what} at offset {}", self.pos)));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        Ok(self.bytes(N, what)?.try_into().expect("exactly N bytes"))
    }

    #[inline]
    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.array::<1>(what)?[0])
    }

    #[inline]
    pub fn u16(&mut self, what: &str) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array(what)?))
    }

    #[inline]
    pub fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    #[inline]
    pub fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    #[inline]
    pub fn f32(&mut self, what: &str) -> Result<f32> {
        Ok(f32::from_le_bytes(self.array(what)?))
    }

    #[inline]
    pub fn f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_le_bytes(self.array(what)?))
    }

    /// A `u32` collection count, checked against the bytes that remain:
    /// every element occupies at least `min_elem_bytes`, so a count that
    /// could not possibly fit is rejected *before* any loop or allocation.
    #[inline]
    pub fn count(&mut self, min_elem_bytes: usize, what: &str) -> Result<usize> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(self.fail(format!(
                "count {n} for {what} exceeds the {} bytes that remain",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// A counted sequence: [`Reader::count`], then `elem` once per element.
    /// The vector grows as elements actually decode — its allocation never
    /// rests on the count alone.
    #[inline]
    pub fn seq<T>(
        &mut self,
        min_elem_bytes: usize,
        what: &str,
        mut elem: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let n = self.count(min_elem_bytes, what)?;
        (0..n).map(|_| elem(self)).collect()
    }

    /// A `u32`-length-prefixed UTF-8 string.
    #[inline]
    pub fn string(&mut self, what: &str) -> Result<String> {
        let len = self.count(1, what)?;
        match std::str::from_utf8(self.bytes(len, what)?) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => Err(self.fail(format!("invalid utf-8 in {what}"))),
        }
    }

    /// `0` = `None`, `1` + string = `Some`.
    #[inline]
    pub fn opt_string(&mut self, what: &str) -> Result<Option<String>> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.string(what)?)),
            t => Err(self.fail(format!("bad option tag {t} for {what}"))),
        }
    }

    #[inline]
    pub fn bool(&mut self, what: &str) -> Result<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(self.fail(format!("bad bool tag {t} for {what}"))),
        }
    }

    /// Decoding must consume its input exactly — trailing bytes mean
    /// writer and reader disagree about the format.
    pub fn finish(self, what: &str) -> Result<()> {
        if self.remaining() != 0 {
            return Err(self.fail(format!("{} trailing bytes after {what}", self.remaining())));
        }
        Ok(())
    }
}

#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

#[inline]
pub fn put_opt_string(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_string(out, s);
        }
    }
}

/// xxhash-style checksum on the workspace fxhash primitive: starting from
/// a state the caller has already seeded (with its own constant and first
/// word, which is what keeps one format's checksum from passing as
/// another's), fold the payload as little-endian 64-bit words with a
/// zero-padded tail, and close over the length so zero-extension cannot
/// collide. Not cryptographic — it detects bit rot, truncation, torn
/// writes and lost frame sync.
pub fn checksum_fold(seeded: u64, payload: &[u8]) -> u64 {
    let mut h = seeded;
    let mut words = payload.chunks_exact(8);
    for w in &mut words {
        h = fx_step(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let rem = words.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = fx_step(h, u64::from_le_bytes(tail));
    }
    fx_step(h, payload.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writers_and_reader_round_trip() {
        let mut out = Vec::new();
        out.push(7);
        put_u16(&mut out, 0xBEEF);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_f32(&mut out, -0.5);
        put_f64(&mut out, f64::NEG_INFINITY);
        put_string(&mut out, "staté");
        put_opt_string(&mut out, None);
        put_opt_string(&mut out, Some("x"));
        out.push(1);
        put_u32(&mut out, 2);
        out.extend_from_slice(b"ab");

        let mut r = Reader::new(&out, VerError::Serde);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16("a").unwrap(), 0xBEEF);
        assert_eq!(r.u32("a").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("a").unwrap(), u64::MAX - 1);
        assert_eq!(r.f32("a").unwrap(), -0.5);
        assert_eq!(r.f64("a").unwrap(), f64::NEG_INFINITY);
        assert_eq!(r.string("a").unwrap(), "staté");
        assert_eq!(r.opt_string("a").unwrap(), None);
        assert_eq!(r.opt_string("a").unwrap().as_deref(), Some("x"));
        assert!(r.bool("a").unwrap());
        assert_eq!(r.seq(1, "a", |r| r.u8("a")).unwrap(), b"ab");
        assert_eq!(r.remaining(), 0);
        r.finish("a").unwrap();
    }

    /// Every malformed input fails with the constructor's variant — one
    /// check per variant the workspace passes — and never panics.
    #[test]
    fn every_failure_is_the_constructors_variant() {
        type Case = fn(&mut Reader<'_>) -> Result<()>;
        let cases: [(&[u8], Case); 15] = [
            (&[], |r| r.u8("x").map(drop)),
            (&[1], |r| r.u16("x").map(drop)),
            (&[1, 2, 3], |r| r.u32("x").map(drop)),
            (&[0; 7], |r| r.u64("x").map(drop)),
            (&[0; 3], |r| r.f32("x").map(drop)),
            (&[0; 7], |r| r.f64("x").map(drop)),
            (&[0; 4], |r| r.bytes(5, "x").map(drop)),
            // Three eight-byte elements cannot fit in the four bytes left.
            (&[3, 0, 0, 0, 0, 0, 0, 0], |r| r.count(8, "x").map(drop)),
            // A zero-width element still costs a byte: u32::MAX cannot fit.
            (&[0xFF; 4], |r| r.count(0, "x").map(drop)),
            (&[2, 0, 0, 0, 7], |r| r.seq(1, "x", |r| r.u8("x")).map(drop)),
            (&[2, 0, 0, 0, b'a'], |r| r.string("x").map(drop)),
            (&[2, 0, 0, 0, 0xC3, 0x28], |r| r.string("x").map(drop)),
            (&[2], |r| r.opt_string("x").map(drop)),
            (&[9], |r| r.bool("x").map(drop)),
            (&[0, 0], |r| r.u8("x").map(drop)), // then `finish` below
        ];
        for (i, (bytes, read)) in cases.iter().enumerate() {
            let mut r = Reader::new(bytes, VerError::Serde);
            let got = read(&mut r).and_then(|()| r.finish("x"));
            assert!(matches!(got, Err(VerError::Serde(_))), "case {i}: {got:?}");
            let mut r = Reader::new(bytes, VerError::Protocol);
            let got = read(&mut r).and_then(|()| r.finish("x"));
            assert!(
                matches!(got, Err(VerError::Protocol(_))),
                "case {i}: {got:?}"
            );
        }
    }

    #[test]
    fn checksum_fold_reproduces_the_recorded_format_checksums() {
        // Recorded from `ver_index::persist::checksum` (sections 1 and 5)
        // and `ver_serve::net::frame::frame_checksum` before they were
        // re-expressed on this fold; each passes its own seeded first word.
        const PERSIST_SEED: u64 = 0xc3a5_c85c_97cb_3127;
        const FRAME_SEED: u64 = 0x7E52_4E45_5401_C3A5;
        assert_eq!(
            checksum_fold(fx_step(PERSIST_SEED, 1), b"profiles section payload"),
            0x219b_3b4b_71c3_9b7c
        );
        assert_eq!(
            checksum_fold(fx_step(PERSIST_SEED, 5), b""),
            0x056a_2117_ab50_0f07
        );
        let payload = b"hello verd";
        assert_eq!(
            checksum_fold(fx_step(FRAME_SEED, payload.len() as u64), payload),
            0x3225_a18e_0e24_ca91
        );
    }
}
