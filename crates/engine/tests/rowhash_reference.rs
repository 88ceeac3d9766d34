//! `H` changed form — from one `FxHasher` streamed over a row's values to
//! a fold of `mix` over per-cell hashes, so the DAG's dedup hash and 4C's
//! row hash are one function — and nothing downstream may notice. The
//! hash *values* differ; what rows they call equal must not. The streaming
//! form lives on here as the reference.

use proptest::prelude::*;
use std::hash::{Hash, Hasher};
use ver_common::fxhash::FxHasher;
use ver_common::value::Value;
use ver_engine::rowhash::{cell_hash, hash_row, hash_table_row, mix, table_row_hashes};
use ver_store::table::TableBuilder;

/// The pre-PR-17 row hash: type tag and payload of every value streamed
/// through one hasher.
fn hash_row_streaming(values: &[Value]) -> u64 {
    let mut h = FxHasher::default();
    for v in values {
        v.hash(&mut h);
    }
    h.finish()
}

/// Cells from a space small enough that rows repeat, mixing every value
/// kind and the look-alikes a sloppy hash confuses (`1` / `"1"` / `1.0`,
/// `"ab"` + `"c"` against `"a"` + `"bc"`, null against empty text).
fn cell(pick: usize) -> Value {
    match pick % 10 {
        0 => Value::Null,
        1 => Value::Int(1),
        2 => Value::text("1"),
        3 => Value::Float(1.0),
        4 => Value::text(""),
        5 => Value::text("a"),
        6 => Value::text("ab"),
        7 => Value::text("bc"),
        8 => Value::text("c"),
        _ => Value::Int(0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn h_and_the_streaming_hash_agree_on_which_rows_are_equal(
        picks in prop::collection::vec((0..10usize, 0..10usize, 0..10usize), 1..40),
    ) {
        let rows: Vec<Vec<Value>> = picks
            .iter()
            .map(|&(a, b, c)| vec![cell(a), cell(b), cell(c)])
            .collect();
        let mut builder = TableBuilder::new("t", &["a", "b", "c"]);
        for row in &rows {
            builder.push_row(row.clone()).unwrap();
        }
        let table = builder.build();
        let all = table_row_hashes(&table);
        for (i, ri) in rows.iter().enumerate() {
            // One definition, three entry points.
            let folded = ri.iter().fold(0, |h, v| mix(h, cell_hash(v)));
            prop_assert_eq!(hash_row(ri), folded);
            prop_assert_eq!(hash_table_row(&table, i), folded);
            prop_assert_eq!(all[i], folded);
            for rj in &rows[i + 1..] {
                prop_assert_eq!(
                    hash_row(ri) == hash_row(rj),
                    hash_row_streaming(ri) == hash_row_streaming(rj),
                    "{:?} vs {:?}", ri, rj
                );
                prop_assert_eq!(hash_row(ri) == hash_row(rj), ri == rj);
            }
        }
    }
}
