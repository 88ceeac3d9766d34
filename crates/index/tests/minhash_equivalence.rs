//! Equivalence suite for the vectorized sketching engine: the dispatched
//! SIMD kernels must be **bit-identical** to their scalar references for
//! every input shape — arbitrary k (including k not a multiple of the lane
//! width), empty columns, all-duplicate columns, skewed cardinalities.
//! Every comparison runs in one process against the scalar reference
//! (`signature_of_hashes_scalar`, a plain merge, a `zip` agreement count),
//! so together with `common/tests/simd_properties.rs` this pins determinism
//! invariant #8 (ARCHITECTURE.md) on whichever backend the CPU selects.
//! Candidate pairs have no kernel to pin: they are LSH with one-row bands,
//! i.e. columns sharing a MinHash value at some position, and the
//! builder's own property test checks them against a brute-force scan.

use proptest::prelude::*;
use ver_common::value::Value;
use ver_index::{
    estimated_jaccard, exact_containment, exact_jaccard, hashed_containment, hashed_jaccard,
    MinHasher,
};
use ver_store::column::Column;

/// Sorted, deduplicated hash vector — the contract of
/// [`ver_store::column::Column::distinct_hashes`].
fn sorted_hashes(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 0..max_len).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    #[test]
    fn blocked_sketch_matches_scalar_for_any_k(
        k in 1usize..70,
        seed in any::<u64>(),
        hashes in prop::collection::vec(any::<u64>(), 0..400),
    ) {
        let h = MinHasher::new(k, seed);
        let scalar = h.signature_of_hashes_scalar(hashes.iter().copied(), hashes.len());
        let simd = h.signature_of_hash_slice(&hashes, hashes.len());
        prop_assert_eq!(scalar, simd, "k = {}", k);
    }

    #[test]
    fn all_duplicate_streams_sketch_like_singletons(
        k in 1usize..40,
        value in any::<u64>(),
        copies in 1usize..200,
    ) {
        // MinHash minima ignore duplicates: a stream of one repeated hash
        // must sketch exactly like the single hash, on both kernels.
        let h = MinHasher::new(k, 99);
        let dup: Vec<u64> = vec![value; copies];
        let single = [value];
        prop_assert_eq!(
            h.signature_of_hash_slice(&dup, 1),
            h.signature_of_hash_slice(&single, 1)
        );
        prop_assert_eq!(
            h.signature_of_hashes_scalar(dup.iter().copied(), 1),
            h.signature_of_hash_slice(&dup, 1)
        );
    }

    #[test]
    fn containment_and_jaccard_agree_with_scalar_merge(
        a in sorted_hashes(500),
        b in sorted_hashes(500),
        shared in prop::collection::vec(any::<u64>(), 0..60),
    ) {
        // Inject shared elements so intersections are non-trivial.
        let mut a = a;
        let mut b = b;
        a.extend(&shared);
        b.extend(&shared);
        a.sort_unstable();
        a.dedup();
        b.sort_unstable();
        b.dedup();
        let inter = a.iter().filter(|x| b.binary_search(x).is_ok()).count();
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
    fn skewed_cardinalities_hit_the_gallop_path_identically(
        small in sorted_hashes(24),
        stride in 1u64..5000,
        large_len in 400usize..1200,
    ) {
        // |large| ≫ |small| forces the galloping path when SIMD is active;
        // counts must match the scalar reference exactly.
        let large: Vec<u64> = (0..large_len as u64).map(|i| i.wrapping_mul(stride)).collect();
        let mut large = large;
        large.sort_unstable();
        large.dedup();
        let inter = small.iter().filter(|x| large.binary_search(x).is_ok()).count();
        let expect = if small.is_empty() { 0.0 } else { inter as f64 / small.len() as f64 };
        prop_assert_eq!(hashed_containment(&small, &large), expect);
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
