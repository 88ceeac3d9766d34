//! Definition suite for the sketching and scoring functions: each one is
//! checked against the plain statement of what it computes, for every input
//! shape — arbitrary k, empty, all-duplicate, skewed (≥ 8×), near-duplicate
//! and disjoint sets.
//!
//! * the sketch is, per seed, the minimum of `mix64(value ^ seed)` over the
//!   stream, with the seed family [`MinHasher::new`] derives;
//! * exact containment, Jaccard and the symmetric max are ratios of the
//!   `FxHashSet` intersection;
//! * the estimated symmetric max is the larger of the two one-way
//!   estimates.
//!
//! Candidate pairs are LSH with one-row bands, i.e. columns sharing a
//! MinHash value at some position; the builder's own property test checks
//! them against a brute-force scan.

use proptest::prelude::*;
use ver_common::fxhash::{mix64, FxHashSet};
use ver_common::value::Value;
use ver_index::{
    estimated_containment, estimated_containment_max, estimated_jaccard, exact_containment,
    exact_jaccard, hashed_containment, hashed_containment_max, hashed_jaccard, MinHasher,
};
use ver_store::column::Column;

/// The sketch by definition: for each of the k seeds of the family
/// `MinHasher::new(k, seed)` derives, the minimum of `mix64(h ^ seed_i)`
/// over every element, `u64::MAX` for an empty stream.
fn brute_force_sketch(k: usize, seed: u64, hashes: &[u64]) -> Vec<u64> {
    const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
    (0..k as u64)
        .map(|i| {
            let seed_i = mix64(seed ^ i.wrapping_mul(GOLDEN));
            hashes
                .iter()
                .map(|&h| mix64(h ^ seed_i))
                .min()
                .unwrap_or(u64::MAX)
        })
        .collect()
}

/// `|A ∩ B|` through a hash set, no merge.
fn set_intersection(a: &[u64], b: &[u64]) -> usize {
    let b: FxHashSet<u64> = b.iter().copied().collect();
    a.iter().filter(|x| b.contains(x)).count()
}

fn sorted_dedup(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v.dedup();
    v
}

/// Sorted, deduplicated hash vector — the contract of
/// [`ver_store::column::Column::distinct_hashes`].
fn sorted_hashes(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 0..max_len).prop_map(sorted_dedup)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    #[test]
    fn sketch_is_the_brute_force_minimum_for_any_k(
        k in 1usize..40,
        seed in any::<u64>(),
        hashes in prop::collection::vec(any::<u64>(), 0..400),
        repeat in 0usize..50,
    ) {
        // Repeat a prefix so most streams carry duplicates; an empty
        // `hashes` is the empty stream.
        let mut stream = hashes.clone();
        stream.extend_from_slice(&hashes[..repeat.min(hashes.len())]);
        let sig = MinHasher::new(k, seed).signature_of_hash_slice(&stream, hashes.len());
        prop_assert_eq!(&sig.sig, &brute_force_sketch(k, seed, &stream), "k = {}", k);
        prop_assert_eq!(sig.cardinality, hashes.len());
    }

    #[test]
    fn all_duplicate_streams_sketch_like_singletons(
        k in 1usize..40,
        value in any::<u64>(),
        copies in 1usize..200,
    ) {
        // MinHash minima ignore duplicates: a stream of one repeated hash
        // must sketch exactly like the single hash.
        let h = MinHasher::new(k, 99);
        let dup: Vec<u64> = vec![value; copies];
        let single = h.signature_of_hash_slice(&[value], 1);
        prop_assert_eq!(&h.signature_of_hash_slice(&dup, 1), &single);
        prop_assert_eq!(&single.sig, &brute_force_sketch(k, 99, &[value]));
    }

    #[test]
    fn containment_and_jaccard_agree_with_set_intersection(
        a in sorted_hashes(500),
        b in sorted_hashes(500),
        shared in prop::collection::vec(any::<u64>(), 0..60),
    ) {
        // Inject shared elements so intersections are non-trivial.
        let a = sorted_dedup(a.into_iter().chain(shared.iter().copied()).collect());
        let b = sorted_dedup(b.into_iter().chain(shared.iter().copied()).collect());
        let inter = set_intersection(&a, &b);
        let expect_containment = if a.is_empty() { 0.0 } else { inter as f64 / a.len() as f64 };
        prop_assert_eq!(hashed_containment(&a, &b), expect_containment);
        let expect_jaccard = if a.is_empty() && b.is_empty() {
            1.0
        } else {
            inter as f64 / (a.len() + b.len() - inter) as f64
        };
        prop_assert_eq!(hashed_jaccard(&a, &b), expect_jaccard);
    }

    #[test]
    fn containment_max_is_set_intersection_over_the_smaller_set(
        base in sorted_hashes(600),
        small in sorted_hashes(24),
        cut in 0usize..8,
        shape in 0usize..4,
    ) {
        let (a, b) = match shape {
            // Skewed: |b| ≥ 16 × |a| whenever `a` is non-empty, with about
            // half of `a` drawn from `b`.
            0 => {
                let b = sorted_dedup(base.iter().map(|x| x | 1).chain(0..400).collect());
                let a = small
                    .iter()
                    .enumerate()
                    .map(|(i, x)| if i % 2 == 0 { b[(x % b.len() as u64) as usize] } else { *x })
                    .collect();
                (sorted_dedup(a), b)
            }
            // Near-duplicate: `a` is `b` with its last `cut` elements gone.
            1 => (base[..base.len() - cut.min(base.len())].to_vec(), base.clone()),
            // Disjoint: even hashes against odd ones.
            2 => (
                sorted_dedup(base.iter().map(|x| x & !1).collect()),
                sorted_dedup(small.iter().map(|x| x | 1).collect()),
            ),
            // Empty on one side.
            _ => (Vec::new(), base.clone()),
        };
        for (x, y) in [(&a, &b), (&b, &a)] {
            let expect = if x.is_empty() || y.is_empty() {
                0.0
            } else {
                set_intersection(x, y) as f64 / x.len().min(y.len()) as f64
            };
            prop_assert_eq!(hashed_containment_max(x, y), expect, "shape {}", shape);
        }
    }

    #[test]
    fn estimated_containment_max_is_the_two_call_max(
        k in 1usize..70,
        len_a in 0usize..300,
        len_b in 0usize..300,
        offset in 0usize..300,
    ) {
        let h = MinHasher::new(k, 11);
        let a_col: Column = (0..len_a as i64).map(Value::Int).collect();
        let b_col: Column = (offset as i64..(offset + len_b) as i64).map(Value::Int).collect();
        let (sa, sb) = (h.signature_of_column(&a_col), h.signature_of_column(&b_col));
        let two_call = estimated_containment(&sa, &sb).max(estimated_containment(&sb, &sa));
        prop_assert_eq!(estimated_containment_max(&sa, &sb).to_bits(), two_call.to_bits());
        prop_assert_eq!(estimated_containment_max(&sb, &sa).to_bits(), two_call.to_bits());
    }

    #[test]
    fn estimated_jaccard_match_count_is_exact(
        k in 1usize..50,
        overlap in 0usize..300,
    ) {
        let h = MinHasher::new(k, 5);
        let a_col: Column = (0..400i64).map(Value::Int).collect();
        let b_col: Column = ((overlap as i64)..(overlap as i64 + 400)).map(Value::Int).collect();
        let (sa, sb) = (h.signature_of_column(&a_col), h.signature_of_column(&b_col));
        let matches = sa.sig.iter().zip(&sb.sig).filter(|(x, y)| x == y).count();
        prop_assert_eq!(estimated_jaccard(&sa, &sb), matches as f64 / k as f64);
    }

    #[test]
    fn empty_columns_sketch_and_score_consistently(k in 1usize..40) {
        let h = MinHasher::new(k, 123);
        let empty = h.signature_of_column(&Column::new());
        let full = h.signature_of_column(&(0..50i64).map(Value::Int).collect::<Column>());
        prop_assert!(empty.is_empty());
        prop_assert_eq!(&empty.sig, &vec![u64::MAX; k]);
        prop_assert_eq!(estimated_jaccard(&empty, &full), 0.0);
        prop_assert_eq!(estimated_jaccard(&empty, &empty), 1.0);
        let e = Column::new();
        let f: Column = (0..50i64).map(Value::Int).collect();
        prop_assert_eq!(exact_containment(&e, &f), 0.0);
        prop_assert_eq!(exact_jaccard(&e, &e), 1.0);
    }
}
