//! Property-based tests for the materializer's relational invariants and
//! for the row-set form 4C compares views by.

use proptest::prelude::*;
use std::collections::HashSet;
use ver_common::fxhash::mix64;
use ver_common::value::Value;
use ver_engine::dedup::dedup_rows;
use ver_engine::join::hash_join;
use ver_engine::project::project;
use ver_engine::rowhash::{relation, row_set, table_row_hashes, SetRelation};
use ver_store::table::{Table, TableBuilder};

/// The set of a table's row hashes.
fn row_hash_set(table: &Table) -> HashSet<u64> {
    table_row_hashes(table).into_iter().collect()
}

/// The set relation by its definitions, over hash sets: the reference
/// [`relation`] on sorted slices must agree with.
fn relation_by_definition(sa: &HashSet<u64>, sb: &HashSet<u64>) -> SetRelation {
    if sa.len() == sb.len() && sa == sb {
        return SetRelation::Equal;
    }
    let (small, large, small_is_left) = if sa.len() <= sb.len() {
        (sa, sb, true)
    } else {
        (sb, sa, false)
    };
    let inter = small.iter().filter(|h| large.contains(*h)).count();
    if inter == 0 {
        return SetRelation::Disjoint;
    }
    if inter == small.len() && small.len() < large.len() {
        return if small_is_left {
            SetRelation::LeftInRight
        } else {
            SetRelation::RightInLeft
        };
    }
    SetRelation::Overlap
}

/// A pair of hash vectors `(a, b)` in a chosen shape: `b` independent of
/// `a`, the same set in another order with repeats, a subset, a superset,
/// disjoint, or empty; then swapped or not. Values come from a small space
/// (so vectors repeat hashes) spread over the whole `u64` range.
fn hash_pair() -> impl Strategy<Value = (Vec<u64>, Vec<u64>)> {
    (
        prop::collection::vec(0..24u64, 0..16),
        prop::collection::vec(0..24u64, 0..16),
        0..6usize,
        0..2usize,
    )
        .prop_map(|(a, other, shape, swap)| {
            let mut b = match shape {
                0 => other,
                1 => a.iter().rev().chain(a.first()).copied().collect(),
                2 => a[..a.len() / 2].to_vec(),
                3 => a.iter().chain(&other).copied().collect(),
                4 => other.iter().map(|x| x + 100).collect(),
                _ => Vec::new(),
            };
            let mut a = a;
            for x in a.iter_mut().chain(b.iter_mut()) {
                *x = mix64(*x);
            }
            if swap == 1 {
                std::mem::swap(&mut a, &mut b);
            }
            (a, b)
        })
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
    fn relation_on_row_sets_matches_the_definitions(pair in hash_pair()) {
        let (a, b) = pair;
        let (sa, sb) = (row_set(&a), row_set(&b));
        let (ha, hb): (HashSet<u64>, HashSet<u64>) =
            (a.iter().copied().collect(), b.iter().copied().collect());
        prop_assert_eq!(relation(&sa, &sb), relation_by_definition(&ha, &hb));
        for (set, hashes) in [(&sa, &ha), (&sb, &hb)] {
            prop_assert!(set.windows(2).all(|w| w[0] < w[1]), "not strictly increasing");
            let mut elements: Vec<u64> = hashes.iter().copied().collect();
            elements.sort_unstable();
            prop_assert_eq!(set, &elements);
        }
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
