//! A local re-implementation of the well-known Fx hash (as used by rustc).
//!
//! Row hashing, MinHash signatures and the inverted indexes hash millions of
//! short keys; SipHash (std's default) is measurably slower for those
//! workloads. The algorithm is ~30 lines, so we implement it here instead of
//! adding a dependency (see the README's "Vendored dependencies").
//!
//! Not DoS-resistant — fine for this system, which never hashes untrusted
//! network input.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// 64-bit Fx multiply-rotate hasher.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

/// The Fx multiplier (public to the crate so the SIMD lanes in
/// [`crate::simd`] can replicate [`fx_step`] exactly).
pub(crate) const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// One Fx hashing step: fold `word` into the running `hash`. This is the
/// exact state transition [`FxHasher`] applies per 8-byte word; the LSH
/// band-hash kernel replays it lane-parallel across bands
/// ([`crate::simd::fx_step_x8`]) and must stay bit-identical to it.
#[inline]
pub fn fx_step(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(ROTATE) ^ word).wrapping_mul(FX_SEED)
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = fx_step(self.hash, i);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Consume 8 bytes at a time, then the tail.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            // Mix in the length so "ab" and "ab\0" differ.
            self.add_to_hash(u64::from_le_bytes(buf) ^ (rem.len() as u64));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` with the Fx hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Hash arbitrary bytes to a `u64` in one call.
#[inline]
pub fn fx_hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// Hash any `Hash` value to a `u64` in one call.
#[inline]
pub fn fx_hash_u64<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// SplitMix64 finaliser constants, shared with the eight-lane version in
/// [`crate::simd::mix64x8`] so the two can never drift apart.
pub(crate) const MIX64_INC: u64 = 0x9e37_79b9_7f4a_7c15;
pub(crate) const MIX64_M1: u64 = 0xbf58_476d_1ce4_e5b9;
pub(crate) const MIX64_M2: u64 = 0x94d0_49bb_1331_11eb;

/// Mix a 64-bit value (SplitMix64 finaliser). Used to derive independent
/// hash functions for MinHash from a single base hash.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(MIX64_INC);
    z = (z ^ (z >> 30)).wrapping_mul(MIX64_M1);
    z = (z ^ (z >> 27)).wrapping_mul(MIX64_M2);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(fx_hash_bytes(b"hello"), fx_hash_bytes(b"hello"));
        assert_eq!(fx_hash_u64(&42u64), fx_hash_u64(&42u64));
    }

    #[test]
    fn distinguishes_close_inputs() {
        assert_ne!(fx_hash_bytes(b"hello"), fx_hash_bytes(b"hellp"));
        assert_ne!(fx_hash_bytes(b"ab"), fx_hash_bytes(b"ab\0"));
        assert_ne!(fx_hash_bytes(b""), fx_hash_bytes(b"\0"));
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        m.insert("a".into(), 1);
        m.insert("b".into(), 2);
        assert_eq!(m.get("a"), Some(&1));
        let s: FxHashSet<u64> = (0..100).collect();
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn mix64_bijective_smoke() {
        // SplitMix64's finaliser is a bijection; sample a few points for
        // collision-freedom and avalanche.
        let outs: std::collections::HashSet<u64> = (0..10_000u64).map(mix64).collect();
        assert_eq!(outs.len(), 10_000);
        assert_ne!(mix64(1) & 0xFFFF_0000_0000_0000, 0); // high bits populated
    }

    #[test]
    fn spread_over_buckets_is_reasonable() {
        // Sequential integers should not collapse into few buckets.
        let n = 4096u64;
        let buckets = 64usize;
        let mut counts = vec![0usize; buckets];
        for i in 0..n {
            counts[(fx_hash_u64(&i) as usize) % buckets] += 1;
        }
        let max = *counts.iter().max().unwrap();
        // Perfectly uniform would be 64 per bucket; allow generous slack.
        assert!(max < 64 * 3, "bucket skew too high: {max}");
    }
}
