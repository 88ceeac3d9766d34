//! Property-based integration tests for the discovery index: estimation
//! quality; the hypergraph built over the candidate pairs (LSH with one-row
//! bands: columns sharing a MinHash value at some position) is symmetric
//! and thresholded; persistence round-trips; keyword search.

use proptest::prelude::*;
use ver_common::ids::ColumnId;
use ver_common::value::Value;
use ver_index::minhash::{
    estimated_containment, estimated_jaccard, exact_containment, exact_jaccard, MinHasher,
};
use ver_index::persist::{index_from_bytes, index_to_bytes};
use ver_index::{build_index, IndexConfig};
use ver_store::catalog::TableCatalog;
use ver_store::column::Column;
use ver_store::table::TableBuilder;

fn int_column(start: i64, len: usize) -> Column {
    (start..start + len as i64).map(Value::Int).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn minhash_jaccard_estimate_tracks_truth(
        a_start in 0i64..100,
        a_len in 50usize..200,
        b_start in 0i64..100,
        b_len in 50usize..200,
        seed in 0u64..1000,
    ) {
        let a = int_column(a_start, a_len);
        let b = int_column(b_start, b_len);
        let h = MinHasher::new(256, seed);
        let sa = h.signature_of_column(&a);
        let sb = h.signature_of_column(&b);
        let est = estimated_jaccard(&sa, &sb);
        let truth = exact_jaccard(&a, &b);
        // k = 256 → std error ≈ sqrt(J(1-J)/256) ≤ 0.032; allow 5 sigma.
        prop_assert!((est - truth).abs() < 0.17, "est {est} truth {truth}");
    }

    #[test]
    fn containment_estimate_is_directional(
        len in 40usize..150,
        seed in 0u64..1000,
    ) {
        // a ⊂ b strictly.
        let a = int_column(0, len);
        let b = int_column(0, len * 3);
        let h = MinHasher::new(256, seed);
        let sa = h.signature_of_column(&a);
        let sb = h.signature_of_column(&b);
        let fwd = estimated_containment(&sa, &sb);
        let rev = estimated_containment(&sb, &sa);
        prop_assert!(fwd > rev, "C(A⊆B)={fwd} must exceed C(B⊆A)={rev}");
        prop_assert!((exact_containment(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hypergraph_edges_are_symmetric_and_thresholded(
        n_cols in 2usize..5,
        overlap in 10usize..40,
        seed in 0u64..50,
    ) {
        let mut cat = TableCatalog::new();
        for t in 0..n_cols {
            let mut b = TableBuilder::new(format!("t{t}"), &["v"]);
            // All tables share `overlap` values starting at 0, then diverge.
            for i in 0..(overlap + t * 5) {
                b.push_row(vec![Value::Int(i as i64)]).unwrap();
            }
            cat.add_table(b.build()).unwrap();
        }
        let idx = build_index(&cat, IndexConfig {
            threads: 1,
            verify_exact: true,
            seed,
            ..Default::default()
        }).unwrap();
        let g = idx.hypergraph();
        for c in 0..n_cols {
            for (n, score) in g.neighbors(ColumnId(c as u32), 0.0) {
                // symmetry
                let back = g.neighbors(n, 0.0);
                prop_assert!(back.iter().any(|&(m, s)| m == ColumnId(c as u32) && s == score));
                // threshold respected at build time
                prop_assert!(score as f64 >= idx.config().containment_threshold - 1e-9);
            }
        }
    }

    #[test]
    fn hypergraph_persistence_roundtrips(
        n_tables in 2usize..6,
        rows in 20usize..60,
        seed in 0u64..50,
    ) {
        let mut cat = TableCatalog::new();
        for t in 0..n_tables {
            let mut b = TableBuilder::new(format!("t{t}"), &["k", "v"]);
            for i in 0..rows {
                b.push_row(vec![
                    Value::Int(i as i64),
                    Value::Int((i * t) as i64),
                ]).unwrap();
            }
            cat.add_table(b.build()).unwrap();
        }
        let idx = build_index(&cat, IndexConfig {
            threads: 1,
            verify_exact: true,
            seed,
            ..Default::default()
        }).unwrap();
        let g = idx.hypergraph();
        let loaded = index_from_bytes(&index_to_bytes(&idx)).unwrap();
        let restored = loaded.hypergraph();
        prop_assert_eq!(restored.column_count(), g.column_count());
        prop_assert_eq!(restored.joinable_pairs(), g.joinable_pairs());
        for c in 0..g.column_count() {
            let cid = ColumnId(c as u32);
            prop_assert_eq!(restored.neighbors(cid, 0.0), g.neighbors(cid, 0.0));
        }
    }

    #[test]
    fn keyword_search_finds_planted_values(
        needle_row in 0usize..30,
        rows in 31usize..80,
        seed in 0u64..50,
    ) {
        let mut cat = TableCatalog::new();
        let mut b = TableBuilder::new("t", &["v"]);
        for i in 0..rows {
            b.push_row(vec![Value::text(format!("val_{i}"))]).unwrap();
        }
        cat.add_table(b.build()).unwrap();
        let idx = build_index(&cat, IndexConfig {
            threads: 1, seed, ..Default::default()
        }).unwrap();
        let hits = idx.search_keyword(
            &format!("val_{needle_row}"),
            ver_index::SearchTarget::Values,
            ver_index::Fuzziness::Exact,
        );
        prop_assert_eq!(hits, vec![ColumnId(0)]);
    }
}
