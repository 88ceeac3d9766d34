//! MinHash signatures and Lazo-style containment estimation.
//!
//! Pathless collections have no PK/FK metadata, so join paths are
//! approximated by *inclusion dependencies* (Challenge 2). Computing exact
//! containment between all column pairs is quadratic in both columns and
//! values; Aurum/Lazo instead sketch each column with a k-MinHash signature
//! and estimate Jaccard *similarity* from signature agreement. Lazo's
//! insight (citation 13 of the paper) is that with exact cardinalities
//! stored per column, similarity converts to an *intersection* estimate
//!
//! ```text
//! |X ∩ Y| ≈ J/(1+J) · (|X| + |Y|)
//! ```
//!
//! and thence to containment `C(X ⊆ Y) = |X ∩ Y| / |X|` — the quantity the
//! join-path hypergraph thresholds on.
//!
//! The sketch kernel is vectorized: [`MinHasher::signature_of_hash_slice`]
//! streams values in cache-sized batches and updates eight seed lanes at a
//! time with branchless minima ([`ver_common::simd`]), dispatched at runtime
//! (AVX-512/AVX2/NEON when detected; inputs too small to fill a lane block
//! take the scalar reference).
//! MinHash minima are order- and batching-independent, so the blocked kernel
//! is **bit-identical** to [`MinHasher::signature_of_hashes_scalar`] — the
//! determinism invariant the equivalence suite and golden snapshots pin.

use serde::{Deserialize, Serialize};
use ver_common::fxhash::mix64;
use ver_common::simd::{mix64x8, U64x8, LANES};
use ver_common::simd_multiversion;
use ver_store::column::Column;

/// Number of hash functions used when none is configured.
pub const DEFAULT_K: usize = 128;

/// A k-MinHash signature plus the column's exact distinct cardinality.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MinHashSignature {
    /// Per-hash-function minima. `u64::MAX` slots mean "no values seen".
    pub sig: Vec<u64>,
    /// Exact distinct count of the sketched set (Lazo needs this).
    pub cardinality: usize,
}

impl MinHashSignature {
    /// `true` when the sketched set was empty.
    pub fn is_empty(&self) -> bool {
        self.cardinality == 0
    }
}

/// Factory for signatures sharing one family of k hash functions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MinHasher {
    seeds: Vec<u64>,
}

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

impl MinHasher {
    /// A family of `k` hash functions derived from `seed`.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k > 0, "minhash needs at least one hash function");
        MinHasher {
            seeds: (0..k as u64)
                .map(|i| mix64(seed ^ i.wrapping_mul(GOLDEN)))
                .collect(),
        }
    }

    /// Number of hash functions (`k`).
    pub fn k(&self) -> usize {
        self.seeds.len()
    }

    /// Sketch an iterator of pre-hashed set elements.
    ///
    /// `cardinality` must be the exact distinct count of the underlying set
    /// (duplicated elements in the iterator are harmless for the minima).
    /// Runs the scalar reference kernel — callers holding a slice should
    /// prefer [`MinHasher::signature_of_hash_slice`], which vectorizes and
    /// produces bit-identical output.
    pub fn signature_of_hashes(
        &self,
        hashes: impl Iterator<Item = u64>,
        cardinality: usize,
    ) -> MinHashSignature {
        self.signature_of_hashes_scalar(hashes, cardinality)
    }

    /// The scalar reference sketch kernel: one `mix64` + compare per
    /// (value, seed) pair, exactly as the pre-SIMD builder computed it.
    /// The blocked kernel in [`MinHasher::signature_of_hash_slice`] must
    /// stay bit-identical to this for every input.
    pub fn signature_of_hashes_scalar(
        &self,
        hashes: impl Iterator<Item = u64>,
        cardinality: usize,
    ) -> MinHashSignature {
        let mut sig = vec![u64::MAX; self.seeds.len()];
        for h in hashes {
            for (slot, &seed) in sig.iter_mut().zip(&self.seeds) {
                let v = mix64(h ^ seed);
                if v < *slot {
                    *slot = v;
                }
            }
        }
        MinHashSignature { sig, cardinality }
    }

    /// Vectorized sketch over a slice of pre-hashed set elements: the hot
    /// kernel of the offline build. Streams `hashes` in cache-sized batches
    /// and folds each batch into the k seed lanes, [`LANES`] seeds at a
    /// time, with branchless minima. Minima commute and associate, so the
    /// result is bit-identical to the scalar reference for any batching —
    /// pinned by the `minhash_equivalence` proptest suite.
    pub fn signature_of_hash_slice(&self, hashes: &[u64], cardinality: usize) -> MinHashSignature {
        if self.seeds.len() < LANES || hashes.is_empty() {
            return self.signature_of_hashes_scalar(hashes.iter().copied(), cardinality);
        }
        let mut sig = vec![u64::MAX; self.seeds.len()];
        sketch_blocked(&self.seeds, hashes, &mut sig);
        MinHashSignature { sig, cardinality }
    }

    /// Sketch a column's distinct non-null value set.
    ///
    /// Sketches from the column's pre-hashed distinct set
    /// ([`Column::distinct_hashes`]); the offline builder goes one step
    /// further and reuses the hash vector already stored on the column's
    /// profile via [`MinHasher::signature_of_hash_slice`].
    pub fn signature_of_column(&self, col: &Column) -> MinHashSignature {
        self.signature_of_hash_slice(&col.distinct_hashes(), col.distinct_count())
    }
}

/// Values per streamed batch of the blocked sketch kernel. 512 hashes = 4
/// KiB, comfortably L1-resident, so re-reading the batch once per seed block
/// stays in cache while the k accumulator lanes live in registers.
const SKETCH_BATCH: usize = 512;

simd_multiversion! {
    /// The blocked sketch kernel: for each batch of values and each block of
    /// eight seeds, update eight running minima branchlessly. `sig` must
    /// arrive initialised to `u64::MAX` and its length must equal
    /// `seeds.len()`. Seed-count tails (`k % LANES`) fall back to the scalar
    /// loop over the same batch, so any k is supported.
    fn sketch_blocked(seeds: &[u64], hashes: &[u64], sig: &mut [u64]) {
        let full = seeds.len() - seeds.len() % LANES;
        for batch in hashes.chunks(SKETCH_BATCH) {
            for (block, seed_chunk) in seeds[..full].chunks_exact(LANES).enumerate() {
                let seedv = U64x8::load(seed_chunk);
                let slots = &mut sig[block * LANES..][..LANES];
                let mut acc = U64x8::load(slots);
                for &h in batch {
                    acc = acc.min(mix64x8(U64x8::splat(h).xor(seedv)));
                }
                acc.store(slots);
            }
            for (slot, &seed) in sig[full..].iter_mut().zip(&seeds[full..]) {
                for &h in batch {
                    let v = mix64(h ^ seed);
                    if v < *slot {
                        *slot = v;
                    }
                }
            }
        }
    }
}

/// Count of common elements between two **sorted, deduplicated** hash
/// vectors — the scalar reference: a single linear merge, no set
/// construction. [`merge_intersection`] must always return the same count.
pub(crate) fn merge_intersection_scalar(a: &[u64], b: &[u64]) -> usize {
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter
}

/// When one side is at least this many times longer than the other, gallop
/// through the long side instead of merging linearly. Hash sets are
/// uniform, so expected run length in the longer side ≈ the ratio; galloping
/// overtakes the linear merge once runs exceed a handful of elements.
const GALLOP_RATIO: usize = 8;

/// Galloping intersection for skewed cardinalities (`|small| ≪ |large|`):
/// for each element of `small`, exponential search from the previous
/// position in `large`, then binary search within the bracketed run —
/// `O(|small| · log |large|)` instead of `O(|small| + |large|)`.
fn gallop_intersection(small: &[u64], large: &[u64]) -> usize {
    let mut inter = 0usize;
    let mut lo = 0usize;
    for &x in small {
        if lo >= large.len() {
            break;
        }
        // Exponential probe: bracket the first index with large[idx] >= x.
        let mut bound = 1usize;
        while lo + bound < large.len() && large[lo + bound] < x {
            bound <<= 1;
        }
        let start = lo + bound / 2;
        let end = (lo + bound + 1).min(large.len());
        lo = start + large[start..end].partition_point(|&v| v < x);
        if large.get(lo) == Some(&x) {
            inter += 1;
            lo += 1;
        }
    }
    inter
}

/// Consecutive scalar equalities before the merge tries whole-block
/// compares. Uniform hash sets with moderate overlap have short equal runs,
/// where block attempts only waste a vector compare per match; a run this
/// long signals near-duplicate columns, where blocks advance [`LANES`]
/// elements per compare.
const EQ_RUN_TRIGGER: usize = 8;

/// Backoff cap for the adaptive trigger (timsort's MIN_GALLOP idea): every
/// failed block attempt doubles the trigger up to this, so inputs whose
/// equal runs hover just at the trigger stop paying for speculation.
const EQ_RUN_TRIGGER_MAX: usize = 64;

simd_multiversion! {
    /// Linear merge with a run-detected block fast path: after enough
    /// consecutive matches (near-duplicate columns — the LSH collision case
    /// verify_exact sees constantly), equal runs advance [`LANES`] elements
    /// per whole-block compare. Interleaved inputs never trigger it and pay
    /// only a counter; a failed block attempt doubles the trigger so
    /// borderline inputs quickly stop speculating. Skewed inputs are routed
    /// to the galloping path by [`merge_intersection`] before this runs.
    fn merge_intersection_blocked(a: &[u64], b: &[u64]) -> usize {
        let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
        let mut run = 0usize;
        let mut trigger = EQ_RUN_TRIGGER;
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Equal => {
                    inter += 1;
                    i += 1;
                    j += 1;
                    run += 1;
                    if run >= trigger {
                        let before = i;
                        while i + LANES <= a.len()
                            && j + LANES <= b.len()
                            && U64x8::load(&a[i..]).count_eq(U64x8::load(&b[j..])) == LANES
                        {
                            inter += LANES;
                            i += LANES;
                            j += LANES;
                        }
                        trigger = if i > before {
                            EQ_RUN_TRIGGER
                        } else {
                            (trigger * 2).min(EQ_RUN_TRIGGER_MAX)
                        };
                        run = 0;
                    }
                }
                std::cmp::Ordering::Less => {
                    i += 1;
                    run = 0;
                }
                std::cmp::Ordering::Greater => {
                    j += 1;
                    run = 0;
                }
            }
        }
        inter
    }
}

/// Intersection count dispatch: scalar reference for tiny inputs,
/// galloping for skewed cardinalities, blocked merge otherwise. All three
/// count the same set, so the result — and every containment score built on
/// it — is identical whichever path runs.
fn merge_intersection(a: &[u64], b: &[u64]) -> usize {
    if a.len() + b.len() < 64 {
        // Tiny inputs: the plain merge is already optimal and the blocked
        // paths' bookkeeping would only add overhead.
        return merge_intersection_scalar(a, b);
    }
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if large.len() >= GALLOP_RATIO.saturating_mul(small.len().max(1)) {
        return gallop_intersection(small, large);
    }
    merge_intersection_blocked(a, b)
}

/// Exact containment `|A ∩ B| / |A|` over pre-hashed distinct sets (sorted,
/// deduplicated, as produced by [`Column::distinct_hashes`] and stored on
/// column profiles). This is what `verify_exact` hypergraph construction
/// runs per LSH candidate pair: a merge over sorted vectors instead of two
/// fresh `FxHashSet<Value>` clones per call — galloping when cardinalities
/// are skewed, block-compare fast paths otherwise (`merge_intersection`
/// internally).
///
/// "Exact" means exact over the 64-bit hash images: two distinct values
/// whose Fx hashes collide would count as one. That is a ~`n²/2⁶⁴`
/// per-column event — negligible against the MinHash estimation error this
/// mode exists to remove — but it is not cryptographically guaranteed.
pub fn hashed_containment(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    merge_intersection(a, b) as f64 / a.len() as f64
}

/// [`hashed_containment`] on the scalar reference merge, regardless of the
/// active SIMD backend. Exposed for equivalence tests and the
/// `sketch_kernels` bench group; always equals [`hashed_containment`].
pub fn hashed_containment_scalar(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    merge_intersection_scalar(a, b) as f64 / a.len() as f64
}

/// `hashed_containment(a, b).max(hashed_containment(b, a))` with the
/// intersection merged **once**: both directions share `|A ∩ B|`, and the
/// max of `inter/|A|` and `inter/|B|` is `inter / min(|A|, |B|)` — the same
/// division the two-call form would have picked, so the result is
/// bit-identical. This is what hypergraph verification scores per candidate
/// pair; the single merge halves its dominant cost.
pub fn hashed_containment_max(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    merge_intersection(a, b) as f64 / a.len().min(b.len()) as f64
}

/// `estimated_containment(a, b).max(estimated_containment(b, a))` with the
/// signature agreement counted **once**: [`estimated_intersection`] is
/// symmetric in its arguments, and dividing by the smaller cardinality is
/// exactly the larger of the two quotients, so the result is bit-identical
/// to the two-call form. The estimated-mode hypergraph scorer runs this per
/// candidate pair.
pub fn estimated_containment_max(a: &MinHashSignature, b: &MinHashSignature) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let denom = a.cardinality.min(b.cardinality) as f64;
    (estimated_intersection(a, b) / denom).clamp(0.0, 1.0)
}

/// Exact Jaccard similarity over pre-hashed distinct sets (see
/// [`hashed_containment`] for the input contract).
pub fn hashed_jaccard(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = merge_intersection(a, b);
    inter as f64 / (a.len() + b.len() - inter) as f64
}

simd_multiversion! {
    /// Count of positions where two equal-length slices agree, [`LANES`] at
    /// a time with a scalar tail. Plain counting — identical to the
    /// `zip().filter().count()` reference by construction.
    fn count_agreements(a: &[u64], b: &[u64]) -> usize {
        let full = a.len() - a.len() % LANES;
        let mut matches = 0usize;
        for (ca, cb) in a[..full].chunks_exact(LANES).zip(b[..full].chunks_exact(LANES)) {
            matches += U64x8::load(ca).count_eq(U64x8::load(cb));
        }
        matches
            + a[full..]
                .iter()
                .zip(&b[full..])
                .filter(|(x, y)| x == y)
                .count()
    }
}

/// Estimated Jaccard similarity from two signatures (same family, same k).
pub fn estimated_jaccard(a: &MinHashSignature, b: &MinHashSignature) -> f64 {
    debug_assert_eq!(
        a.sig.len(),
        b.sig.len(),
        "signatures from different families"
    );
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    count_agreements(&a.sig, &b.sig) as f64 / a.sig.len() as f64
}

/// Lazo estimate of `|A ∩ B|` from the similarity estimate and exact
/// cardinalities.
pub fn estimated_intersection(a: &MinHashSignature, b: &MinHashSignature) -> f64 {
    let j = estimated_jaccard(a, b);
    let est = j / (1.0 + j) * (a.cardinality + b.cardinality) as f64;
    // Intersection cannot exceed either set.
    est.min(a.cardinality as f64).min(b.cardinality as f64)
}

/// Estimated containment `C(A ⊆ B) = |A ∩ B| / |A|` in `[0, 1]`.
pub fn estimated_containment(a: &MinHashSignature, b: &MinHashSignature) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    (estimated_intersection(a, b) / a.cardinality as f64).clamp(0.0, 1.0)
}

/// Exact Jaccard containment `|A ∩ B| / |A|` between two columns' distinct
/// value sets. Convenience wrapper over [`hashed_containment`] for tests
/// and ground-truth tooling (same hash-collision caveat); hot paths pass
/// stored hash vectors directly.
pub fn exact_containment(a: &Column, b: &Column) -> f64 {
    hashed_containment(&a.distinct_hashes(), &b.distinct_hashes())
}

/// Exact Jaccard similarity between two columns' distinct value sets
/// (wrapper over [`hashed_jaccard`], same contract as
/// [`exact_containment`]).
pub fn exact_jaccard(a: &Column, b: &Column) -> f64 {
    hashed_jaccard(&a.distinct_hashes(), &b.distinct_hashes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ver_common::value::Value;

    fn col(range: std::ops::Range<i64>) -> Column {
        range.map(Value::Int).collect()
    }

    #[test]
    fn identical_sets_have_jaccard_one() {
        let h = MinHasher::new(64, 7);
        let a = h.signature_of_column(&col(0..100));
        let b = h.signature_of_column(&col(0..100));
        assert_eq!(estimated_jaccard(&a, &b), 1.0);
        assert!((estimated_containment(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_sets_estimate_near_zero() {
        let h = MinHasher::new(128, 7);
        let a = h.signature_of_column(&col(0..200));
        let b = h.signature_of_column(&col(10_000..10_200));
        assert!(estimated_jaccard(&a, &b) < 0.05);
        assert!(estimated_containment(&a, &b) < 0.1);
    }

    #[test]
    fn half_overlap_estimates_track_truth() {
        // |A|=200, |B|=200, |A∩B|=100 → J = 100/300 ≈ 0.333, C(A⊆B)=0.5.
        let h = MinHasher::new(256, 42);
        let a = h.signature_of_column(&col(0..200));
        let b = h.signature_of_column(&col(100..300));
        let j = estimated_jaccard(&a, &b);
        assert!((j - 1.0 / 3.0).abs() < 0.12, "jaccard estimate {j}");
        let c = estimated_containment(&a, &b);
        assert!((c - 0.5).abs() < 0.15, "containment estimate {c}");
    }

    #[test]
    fn subset_containment_is_high() {
        // A ⊂ B with |A|=50, |B|=500 → C(A⊆B)=1.0, J≈0.1.
        let h = MinHasher::new(256, 3);
        let a = h.signature_of_column(&col(0..50));
        let b = h.signature_of_column(&col(0..500));
        let c = estimated_containment(&a, &b);
        assert!(c > 0.75, "containment of subset should be near 1, got {c}");
        // Asymmetry: B is mostly not inside A.
        let c_rev = estimated_containment(&b, &a);
        assert!(
            c_rev < 0.35,
            "reverse containment should be ~0.1, got {c_rev}"
        );
    }

    #[test]
    fn empty_columns_behave() {
        let h = MinHasher::new(32, 1);
        let e = h.signature_of_column(&Column::new());
        let a = h.signature_of_column(&col(0..10));
        assert!(e.is_empty());
        assert_eq!(estimated_jaccard(&e, &e), 1.0);
        assert_eq!(estimated_jaccard(&e, &a), 0.0);
        assert_eq!(estimated_containment(&e, &a), 0.0);
    }

    #[test]
    fn exact_measures_ground_truth() {
        let a = col(0..100);
        let b = col(50..150);
        assert!((exact_containment(&a, &b) - 0.5).abs() < 1e-12);
        assert!((exact_jaccard(&a, &b) - 50.0 / 150.0).abs() < 1e-12);
        assert_eq!(exact_containment(&Column::new(), &a), 0.0);
        assert_eq!(exact_jaccard(&Column::new(), &Column::new()), 1.0);
    }

    #[test]
    fn hashed_measures_agree_with_column_measures() {
        let a = col(0..100);
        let b = col(50..150);
        let (ha, hb) = (a.distinct_hashes(), b.distinct_hashes());
        assert!((hashed_containment(&ha, &hb) - exact_containment(&a, &b)).abs() < 1e-12);
        assert!((hashed_jaccard(&ha, &hb) - exact_jaccard(&a, &b)).abs() < 1e-12);
        assert_eq!(hashed_containment(&[], &ha), 0.0);
        assert_eq!(hashed_jaccard(&[], &[]), 1.0);
        assert_eq!(hashed_jaccard(&[], &ha), 0.0);
    }

    #[test]
    fn signature_from_stored_hashes_matches_signature_of_column() {
        // The builder feeds sketches from profile-stored hash vectors; they
        // must be bit-identical to sketching the column directly.
        let h = MinHasher::new(64, 21);
        let c = col(0..300);
        let from_col = h.signature_of_column(&c);
        let hashes = c.distinct_hashes();
        let from_hashes = h.signature_of_hashes(hashes.iter().copied(), c.distinct_count());
        assert_eq!(from_col, from_hashes);
    }

    #[test]
    fn signature_ignores_duplicates_and_nulls() {
        let h = MinHasher::new(64, 9);
        let with_dups = Column::from_values(vec![
            Value::Int(1),
            Value::Int(1),
            Value::Null,
            Value::Int(2),
        ]);
        let clean = Column::from_values(vec![Value::Int(1), Value::Int(2)]);
        let a = h.signature_of_column(&with_dups);
        let b = h.signature_of_column(&clean);
        assert_eq!(a, b);
    }

    #[test]
    fn blocked_kernel_matches_scalar_reference() {
        // Including k values that are not multiples of the lane width.
        for k in [1, 7, 8, 9, 64, 100, 128] {
            let h = MinHasher::new(k, 0xFEED);
            let hashes: Vec<u64> = (0..1000u64).map(|i| i.wrapping_mul(0x9E37)).collect();
            let scalar = h.signature_of_hashes_scalar(hashes.iter().copied(), hashes.len());
            let blocked = h.signature_of_hash_slice(&hashes, hashes.len());
            assert_eq!(scalar, blocked, "k={k}");
        }
    }

    #[test]
    fn symmetric_max_forms_match_two_call_forms() {
        let h = MinHasher::new(128, 17);
        let cols = [col(0..200), col(100..300), col(0..50), Column::new()];
        for a in &cols {
            for b in &cols {
                let (ha, hb) = (a.distinct_hashes(), b.distinct_hashes());
                let two_call = hashed_containment(&ha, &hb).max(hashed_containment(&hb, &ha));
                assert_eq!(
                    hashed_containment_max(&ha, &hb).to_bits(),
                    two_call.to_bits()
                );
                let (sa, sb) = (h.signature_of_column(a), h.signature_of_column(b));
                let two_call = estimated_containment(&sa, &sb).max(estimated_containment(&sb, &sa));
                assert_eq!(
                    estimated_containment_max(&sa, &sb).to_bits(),
                    two_call.to_bits()
                );
            }
        }
    }

    #[test]
    fn merge_paths_agree_on_skew_and_overlap() {
        let dense: Vec<u64> = (0..4096).map(|i| i * 3).collect();
        let sparse: Vec<u64> = (0..40).map(|i| i * 300).collect();
        let shifted: Vec<u64> = (0..4096).map(|i| i * 3 + 1500).collect();
        for (a, b) in [
            (&dense, &sparse),
            (&sparse, &dense),
            (&dense, &shifted),
            (&dense, &dense),
            (&sparse, &Vec::new()),
        ] {
            let reference = merge_intersection_scalar(a, b);
            assert_eq!(merge_intersection(a, b), reference);
            assert_eq!(merge_intersection_blocked(a, b), reference);
            let (s, l) = if a.len() <= b.len() { (a, b) } else { (b, a) };
            assert_eq!(gallop_intersection(s, l), reference);
        }
    }

    #[test]
    fn different_seeds_give_different_families() {
        let h1 = MinHasher::new(16, 1);
        let h2 = MinHasher::new(16, 2);
        let c = col(0..50);
        assert_ne!(
            h1.signature_of_column(&c).sig,
            h2.signature_of_column(&c).sig
        );
    }
}
