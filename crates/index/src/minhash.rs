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
//! Every job here is one scalar loop: the sketch folds each (value, seed)
//! pair into a running minimum, exact containment is a linear merge of two
//! sorted hash vectors, and estimated similarity counts agreeing signature
//! positions. The whole offline build is ≈ 1 % of a pinned setup
//! (ARCHITECTURE.md §Sketching kernels), so none of them is vectorized.

use serde::{Deserialize, Serialize};
use ver_common::fxhash::mix64;
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

    /// Sketch a slice of pre-hashed set elements: the hot loop of the
    /// offline build, one `mix64` + compare per (value, seed) pair.
    ///
    /// `cardinality` must be the exact distinct count of the underlying set
    /// (duplicated elements in the slice are harmless for the minima).
    pub fn signature_of_hash_slice(&self, hashes: &[u64], cardinality: usize) -> MinHashSignature {
        let mut sig = vec![u64::MAX; self.seeds.len()];
        for &h in hashes {
            for (slot, &seed) in sig.iter_mut().zip(&self.seeds) {
                let v = mix64(h ^ seed);
                if v < *slot {
                    *slot = v;
                }
            }
        }
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

/// Count of common elements between two **sorted, deduplicated** hash
/// vectors: a single linear merge, no set construction.
fn merge_intersection(a: &[u64], b: &[u64]) -> usize {
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

/// Exact containment `|A ∩ B| / |A|` over pre-hashed distinct sets (sorted,
/// deduplicated, as produced by [`Column::distinct_hashes`] and stored on
/// column profiles). This is what `verify_exact` hypergraph construction
/// runs per candidate pair: one linear merge over sorted vectors instead of
/// two fresh `FxHashSet<Value>` clones per call.
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
    let agreements = a.sig.iter().zip(&b.sig).filter(|(x, y)| x == y).count();
    agreements as f64 / a.sig.len() as f64
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
        let from_hashes = h.signature_of_hash_slice(&hashes, c.distinct_count());
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
        // Containment, its symmetric max and Jaccard all read one merge;
        // each must see the set intersection on skewed and overlapping
        // inputs alike.
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
            let inter = a.iter().filter(|x| b.binary_search(x).is_ok()).count();
            assert_eq!(merge_intersection(a, b), inter);
            if !a.is_empty() {
                assert_eq!(hashed_containment(a, b), inter as f64 / a.len() as f64);
            }
            if !a.is_empty() && !b.is_empty() {
                let min = a.len().min(b.len());
                assert_eq!(hashed_containment_max(a, b), inter as f64 / min as f64);
            }
            let union = a.len() + b.len() - inter;
            assert_eq!(hashed_jaccard(a, b), inter as f64 / union as f64);
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
