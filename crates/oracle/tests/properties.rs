//! Property-based tests for the reference materializer's relational
//! invariants: join, projection and deduplication over arbitrary tables.

use proptest::prelude::*;
use std::collections::HashSet;
use ver_common::value::Value;
use ver_engine::rowhash::table_row_hashes;
use ver_oracle::dedup::dedup_rows;
use ver_oracle::join::hash_join;
use ver_oracle::project::project;
use ver_store::table::{Table, TableBuilder};

/// The set of a table's row hashes.
fn row_hash_set(table: &Table) -> HashSet<u64> {
    table_row_hashes(table).into_iter().collect()
}

/// Strategy: a (k, v) table with keys in 0..key_space.
fn table_strategy(max_rows: usize, key_space: i64) -> impl Strategy<Value = Table> {
    prop::collection::vec((0..key_space, 0..5i64), 0..max_rows).prop_map(|rows| {
        let mut b = TableBuilder::new("t", &["k", "v"]);
        for (k, v) in rows {
            b.push_row(vec![Value::Int(k), Value::Int(v)]).unwrap();
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn join_cardinality_is_symmetric(
        a in table_strategy(40, 10),
        b in table_strategy(40, 10),
    ) {
        let ab = hash_join(&a, 0, &b, 0).unwrap();
        let ba = hash_join(&b, 0, &a, 0).unwrap();
        prop_assert_eq!(ab.row_count(), ba.row_count());
    }

    #[test]
    fn join_with_empty_is_empty(a in table_strategy(40, 10)) {
        let empty = TableBuilder::new("e", &["k", "v"]).build();
        let j = hash_join(&a, 0, &empty, 0).unwrap();
        prop_assert_eq!(j.row_count(), 0);
    }

    #[test]
    fn dedup_is_idempotent_and_shrinking(a in table_strategy(60, 5)) {
        let once = dedup_rows(&a);
        let twice = dedup_rows(&once);
        prop_assert!(once.row_count() <= a.row_count());
        prop_assert_eq!(once.row_count(), twice.row_count());
        // Dedup preserves the row *set*.
        prop_assert_eq!(row_hash_set(&a), row_hash_set(&once));
    }

    #[test]
    fn full_projection_preserves_rows(a in table_strategy(40, 8)) {
        let p = project(&a, &[0, 1]).unwrap();
        prop_assert_eq!(p.row_count(), a.row_count());
        prop_assert_eq!(row_hash_set(&p), row_hash_set(&a));
    }

    #[test]
    fn join_output_width_is_sum_of_inputs(
        a in table_strategy(20, 6),
        b in table_strategy(20, 6),
    ) {
        let j = hash_join(&a, 0, &b, 1).unwrap();
        prop_assert_eq!(j.column_count(), a.column_count() + b.column_count());
    }
}
