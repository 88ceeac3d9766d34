//! LSH banding over MinHash signatures for sub-quadratic candidate
//! generation.
//!
//! The hypergraph builder must avoid comparing all `O(|columns|²)` signature
//! pairs (Open Data has millions of columns). Signatures are split into `b`
//! bands of `r` rows (`b · r = k`); two columns land in the same bucket of a
//! band iff that band's slice hashes identically, and any shared bucket
//! makes them a *candidate pair*. The probability a pair with similarity `s`
//! becomes a candidate is `1 − (1 − s^r)^b` — the classic S-curve.

//!
//! Band hashing is vectorized: a signature's `b` band hashes are computed
//! in one batched kernel, eight bands per step ([`ver_common::simd`]), each
//! lane replaying the exact Fx word-fold the scalar `fx_hash_u64` performs —
//! so batched and per-band hashing are bit-identical, and bucket layouts
//! never depend on the backend. The offline builder inserts whole signature
//! sets at once via [`LshIndex::insert_signatures`], which fans the
//! band-hash kernel out over the thread pool and fills buckets in
//! `ColumnId` order for any worker count.

use crate::minhash::MinHashSignature;
use serde::{Deserialize, Serialize};
use ver_common::fxhash::{fx_hash_u64, fx_step, FxHashMap, FxHashSet};
use ver_common::ids::ColumnId;
use ver_common::pool::ThreadPool;
use ver_common::simd::{fx_step_x8, U64x8, LANES};
use ver_common::simd_multiversion;

/// Banded LSH index over column signatures.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LshIndex {
    bands: usize,
    rows: usize,
    /// One bucket map per band: band-hash → column ids.
    buckets: Vec<FxHashMap<u64, Vec<ColumnId>>>,
}

impl LshIndex {
    /// Create an index with `bands` bands of `rows` rows.
    ///
    /// `bands * rows` must equal the signature length used at insert time.
    pub fn new(bands: usize, rows: usize) -> Self {
        assert!(bands > 0 && rows > 0, "bands and rows must be positive");
        LshIndex {
            bands,
            rows,
            buckets: (0..bands).map(|_| FxHashMap::default()).collect(),
        }
    }

    /// Number of bands.
    pub fn bands(&self) -> usize {
        self.bands
    }

    /// Rows per band.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Scalar reference band hash: the Fx hash of one band's row slice.
    /// [`LshIndex::band_hashes`] must reproduce this per band exactly.
    fn band_hash_scalar(&self, sig: &MinHashSignature, band: usize) -> u64 {
        let start = band * self.rows;
        fx_hash_u64(&sig.sig[start..start + self.rows])
    }

    /// All band hashes of one signature in band order, computed by the
    /// batched kernel (scalar reference below [`LANES`] bands). The returned
    /// vector has exactly [`LshIndex::bands`] entries.
    pub fn band_hashes(&self, sig: &MinHashSignature) -> Vec<u64> {
        let mut out = Vec::new();
        self.band_hashes_into(sig, &mut out);
        out
    }

    /// [`LshIndex::band_hashes`] into a reused buffer — the allocation-free
    /// entry point for loops that hash many signatures (`out` is cleared
    /// and refilled with [`LshIndex::bands`] entries).
    pub fn band_hashes_into(&self, sig: &MinHashSignature, out: &mut Vec<u64>) {
        assert_eq!(
            sig.sig.len(),
            self.bands * self.rows,
            "signature length does not match banding"
        );
        out.clear();
        out.resize(self.bands, 0);
        if self.bands >= LANES {
            band_hashes_blocked(&sig.sig, self.rows, out);
        } else {
            for (band, slot) in out.iter_mut().enumerate() {
                *slot = self.band_hash_scalar(sig, band);
            }
        }
    }

    /// Bucket `id` under precomputed band hashes (the write half of
    /// [`LshIndex::insert`], split out so batch insertion can hash on the
    /// pool and fill buckets deterministically afterwards).
    fn bucket_hashed(&mut self, id: ColumnId, band_hashes: &[u64]) {
        for (band, &h) in band_hashes.iter().enumerate() {
            self.buckets[band].entry(h).or_default().push(id);
        }
    }

    /// Insert a column's signature. Empty signatures are skipped (empty
    /// columns join nothing).
    pub fn insert(&mut self, id: ColumnId, sig: &MinHashSignature) {
        if sig.is_empty() {
            return;
        }
        let hashes = self.band_hashes(sig);
        self.bucket_hashed(id, &hashes);
    }

    /// Insert a whole signature set at once: `sigs[i]` is bucketed as
    /// `ColumnId(i)`. Band hashing — the arithmetic half — fans out over
    /// `pool`; bucket filling then runs in `ColumnId` order, so the bucket
    /// lists are identical to sequential [`LshIndex::insert`] calls for any
    /// worker count. This is the offline builder's insertion path.
    pub fn insert_signatures(&mut self, sigs: &[MinHashSignature], pool: &ThreadPool) {
        let hashed: Vec<Option<Vec<u64>>> = pool.par_map(sigs, |sig| {
            if sig.is_empty() {
                None
            } else {
                Some(self.band_hashes(sig))
            }
        });
        for (i, hashes) in hashed.iter().enumerate() {
            if let Some(hashes) = hashes {
                self.bucket_hashed(ColumnId(i as u32), hashes);
            }
        }
    }

    /// All candidate columns sharing at least one band bucket with `sig`
    /// (excluding `exclude`, typically the query column itself).
    pub fn candidates(&self, sig: &MinHashSignature, exclude: Option<ColumnId>) -> Vec<ColumnId> {
        if sig.is_empty() {
            return Vec::new();
        }
        let mut out: FxHashSet<ColumnId> = FxHashSet::default();
        for (band, &h) in self.band_hashes(sig).iter().enumerate() {
            if let Some(ids) = self.buckets[band].get(&h) {
                out.extend(ids.iter().copied());
            }
        }
        if let Some(ex) = exclude {
            out.remove(&ex);
        }
        let mut v: Vec<ColumnId> = out.into_iter().collect();
        v.sort_unstable();
        v
    }

    /// Iterate every bucket with ≥ 2 members — the candidate-pair source
    /// for offline hypergraph construction.
    pub fn collision_groups(&self) -> impl Iterator<Item = &[ColumnId]> + '_ {
        self.buckets
            .iter()
            .flat_map(|b| b.values())
            .filter(|v| v.len() >= 2)
            .map(|v| v.as_slice())
    }
}

simd_multiversion! {
    /// Batched band hashing: eight bands per step, each lane replaying the
    /// exact word-fold `fx_hash_u64` applies to a band's row slice — the
    /// length prefix, then each row (as little-endian words via `to_le`,
    /// matching the byte-wise `Hasher::write` the std slice `Hash` impl
    /// feeds). Bands are independent, so lane-parallel evaluation is
    /// bit-identical to hashing band by band; the remainder
    /// (`bands % LANES`) falls back to the scalar hash. `out.len()` must be
    /// `sig.len() / rows`.
    fn band_hashes_blocked(sig: &[u64], rows: usize, out: &mut [u64]) {
        let bands = out.len();
        let full = bands - bands % LANES;
        // Length prefix: std's slice Hash writes the element count first
        // (`write_usize(rows)`), identically for every band.
        let prefix = fx_step_x8(U64x8::splat(0), U64x8::splat(rows as u64));
        for block in (0..full).step_by(LANES) {
            let mut h = prefix;
            if rows == 1 {
                // Single-row bands (the builder's containment-friendly
                // banding): lanes load contiguously.
                h = fx_step_x8(h, U64x8::load(&sig[block..]).to_le());
            } else {
                for j in 0..rows {
                    let mut words = [0u64; LANES];
                    for (lane, w) in words.iter_mut().enumerate() {
                        *w = sig[(block + lane) * rows + j];
                    }
                    h = fx_step_x8(h, U64x8(words).to_le());
                }
            }
            h.store(&mut out[block..]);
        }
        for band in full..bands {
            let mut h = fx_step(0, rows as u64);
            for j in 0..rows {
                h = fx_step(h, sig[band * rows + j].to_le());
            }
            out[band] = h;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::MinHasher;
    use ver_common::value::Value;
    use ver_store::column::Column;

    fn col(range: std::ops::Range<i64>) -> Column {
        range.map(Value::Int).collect()
    }

    #[test]
    fn near_duplicates_collide_disjoint_do_not() {
        let h = MinHasher::new(128, 11);
        // 8 bands × 16 rows: S-curve threshold (1/8)^(1/16) ≈ 0.88.
        let mut idx = LshIndex::new(8, 16);
        let a = h.signature_of_column(&col(0..1000));
        let b = h.signature_of_column(&col(0..990)); // ~0.99 similar
        let c = h.signature_of_column(&col(50_000..51_000)); // disjoint
        idx.insert(ColumnId(0), &a);
        idx.insert(ColumnId(1), &b);
        idx.insert(ColumnId(2), &c);
        let cands = idx.candidates(&a, Some(ColumnId(0)));
        assert!(
            cands.contains(&ColumnId(1)),
            "near-duplicate must be candidate"
        );
        assert!(
            !cands.contains(&ColumnId(2)),
            "disjoint column must not be candidate"
        );
    }

    #[test]
    fn empty_signatures_are_ignored() {
        let h = MinHasher::new(16, 1);
        let mut idx = LshIndex::new(4, 4);
        let e = h.signature_of_column(&Column::new());
        idx.insert(ColumnId(0), &e);
        assert!(idx.candidates(&e, None).is_empty());
        assert_eq!(idx.collision_groups().count(), 0);
    }

    #[test]
    fn collision_groups_surface_pairs() {
        let h = MinHasher::new(32, 5);
        let mut idx = LshIndex::new(8, 4);
        let a = h.signature_of_column(&col(0..100));
        idx.insert(ColumnId(0), &a);
        idx.insert(ColumnId(1), &a);
        let groups: Vec<&[ColumnId]> = idx.collision_groups().collect();
        assert!(!groups.is_empty());
        assert!(groups.iter().all(|g| g.len() == 2));
    }

    #[test]
    #[should_panic(expected = "signature length")]
    fn mismatched_signature_length_panics() {
        let h = MinHasher::new(16, 5);
        let mut idx = LshIndex::new(4, 8); // expects 32
        let a = h.signature_of_column(&col(0..10));
        idx.insert(ColumnId(0), &a);
    }

    #[test]
    fn batched_band_hashes_match_scalar_reference() {
        // Bandings with and without lane-width remainders, rows > 1, and a
        // bands < LANES case that exercises the scalar dispatch.
        for (bands, rows) in [(128, 1), (32, 4), (12, 2), (9, 3), (4, 4), (1, 16)] {
            let h = MinHasher::new(bands * rows, 77);
            let idx = LshIndex::new(bands, rows);
            let sig = h.signature_of_column(&col(0..500));
            let batched = idx.band_hashes(&sig);
            assert_eq!(batched.len(), bands);
            for (band, &bh) in batched.iter().enumerate() {
                assert_eq!(
                    bh,
                    idx.band_hash_scalar(&sig, band),
                    "bands={bands} rows={rows} band={band}"
                );
            }
        }
    }

    #[test]
    fn insert_signatures_matches_sequential_inserts() {
        let h = MinHasher::new(32, 5);
        let sigs: Vec<MinHashSignature> = (0..20)
            .map(|i| {
                if i % 7 == 3 {
                    h.signature_of_column(&Column::new()) // empty: skipped
                } else {
                    h.signature_of_column(&col(i * 40..i * 40 + 120))
                }
            })
            .collect();
        let mut seq = LshIndex::new(8, 4);
        for (i, sig) in sigs.iter().enumerate() {
            seq.insert(ColumnId(i as u32), sig);
        }
        for threads in [1, 4] {
            let mut batch = LshIndex::new(8, 4);
            batch.insert_signatures(&sigs, &ver_common::pool::ThreadPool::new(threads));
            assert_eq!(batch.buckets, seq.buckets, "threads={threads}");
        }
    }

    #[test]
    fn candidates_are_sorted_and_deduped() {
        let h = MinHasher::new(32, 5);
        let mut idx = LshIndex::new(8, 4);
        let a = h.signature_of_column(&col(0..100));
        idx.insert(ColumnId(5), &a);
        idx.insert(ColumnId(3), &a);
        let cands = idx.candidates(&a, None);
        assert_eq!(cands, vec![ColumnId(3), ColumnId(5)]);
    }
}
