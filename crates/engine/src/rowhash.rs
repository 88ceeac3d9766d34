//! Row-wise hashing — the hash function `H` of Algorithm 3.
//!
//! `H(V)` maps a view to a *set* of 64-bit values, one per distinct row.
//! Compatible / contained / overlapping view pairs are detected by set
//! equality / subset / intersection over these hash sets, exactly as the
//! paper describes.
//!
//! `H` of a row is a left fold of [`mix`] over the row's [`cell_hash`]es,
//! starting from zero. A cell hash covers the value's type tag and payload,
//! so `Int(1)` and `Text("1")` differ, and each cell is finished before it
//! is mixed in, so field boundaries are unambiguous. The two-level form is
//! what lets one definition serve everywhere: the shared sub-join DAG
//! ([`crate::dag`]) hashes every base *column* once per batch and folds
//! those per-cell hashes along each candidate's row indices for keep-first
//! dedup, and the fold it ends up with **is** `hash_table_row` of the
//! gathered row — so a DAG-built [`View`](crate::view::View) carries its
//! row hashes with it and 4C never hashes a cell again.

use std::hash::{Hash, Hasher};
use ver_common::fxhash::{fx_step, FxHashSet, FxHasher};
use ver_common::value::Value;
use ver_store::table::Table;

/// Hash of one cell: type tag and payload.
#[inline]
pub fn cell_hash(v: &Value) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// Fold the next cell's hash into a running row hash (which starts at 0).
#[inline]
pub fn mix(h: u64, cell: u64) -> u64 {
    fx_step(h, cell)
}

/// Hash a single row (slice of values).
#[inline]
pub fn hash_row(values: &[Value]) -> u64 {
    values.iter().fold(0, |h, v| mix(h, cell_hash(v)))
}

/// Hash row `row` of `table` without materialising the row.
#[inline]
pub fn hash_table_row(table: &Table, row: usize) -> u64 {
    // Missing cells hash as Null to keep H total on ragged data.
    table.columns().iter().fold(0, |h, col| {
        mix(h, cell_hash(col.get(row).unwrap_or(&Value::Null)))
    })
}

/// `H` of every row of `table`, in row order (column-outer, so each
/// column's values are read sequentially).
pub fn table_row_hashes(table: &Table) -> Vec<u64> {
    let mut hashes = vec![0u64; table.row_count()];
    for col in table.columns() {
        for (h, v) in hashes.iter_mut().zip(col.values()) {
            *h = mix(*h, cell_hash(v));
        }
    }
    hashes
}

/// The set `H(V)` for an entire table: one hash per row, duplicates
/// collapsed (views are row sets).
pub fn table_hash_set(table: &Table) -> FxHashSet<u64> {
    table_row_hashes(table).into_iter().collect()
}

/// Order-insensitive fingerprint of the whole view: XOR-fold of the row-hash
/// set. Two compatible views (same row set) have equal fingerprints
/// regardless of row order; used as a cheap pre-filter before set
/// comparison.
pub fn table_fingerprint(table: &Table) -> u64 {
    // XOR over the *set* (not the multiset) so duplicate rows do not cancel.
    table_hash_set(table).iter().fold(0u64, |acc, h| acc ^ h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ver_store::table::TableBuilder;

    fn t(rows: &[(&str, i64)]) -> Table {
        let mut b = TableBuilder::new("t", &["a", "b"]);
        for (s, i) in rows {
            b.push_row(vec![Value::text(*s), Value::Int(*i)]).unwrap();
        }
        b.build()
    }

    #[test]
    fn equal_rows_hash_equal() {
        assert_eq!(
            hash_row(&[Value::Int(1), Value::text("x")]),
            hash_row(&[Value::Int(1), Value::text("x")])
        );
    }

    #[test]
    fn type_tag_distinguishes_int_from_text() {
        assert_ne!(hash_row(&[Value::Int(1)]), hash_row(&[Value::text("1")]));
    }

    #[test]
    fn field_boundaries_are_unambiguous() {
        assert_ne!(
            hash_row(&[Value::text("ab"), Value::text("c")]),
            hash_row(&[Value::text("a"), Value::text("bc")])
        );
    }

    #[test]
    fn table_row_hash_matches_slice_hash() {
        let table = t(&[("x", 1), ("y", 2)]);
        assert_eq!(
            hash_table_row(&table, 0),
            hash_row(&[Value::text("x"), Value::Int(1)])
        );
    }

    #[test]
    fn whole_table_hashes_match_per_row_hashes() {
        let table = t(&[("x", 1), ("y", 2), ("x", 1)]);
        let all = table_row_hashes(&table);
        assert_eq!(all.len(), 3);
        for (r, &h) in all.iter().enumerate() {
            assert_eq!(h, hash_table_row(&table, r));
            assert_eq!(h, hash_row(&table.row(r).unwrap()));
        }
    }

    #[test]
    fn hash_set_collapses_duplicates() {
        let table = t(&[("x", 1), ("x", 1), ("y", 2)]);
        assert_eq!(table_hash_set(&table).len(), 2);
    }

    #[test]
    fn fingerprint_is_order_insensitive() {
        let a = t(&[("x", 1), ("y", 2)]);
        let b = t(&[("y", 2), ("x", 1)]);
        assert_eq!(table_fingerprint(&a), table_fingerprint(&b));
    }

    #[test]
    fn fingerprint_ignores_duplicate_rows() {
        let a = t(&[("x", 1), ("y", 2)]);
        let b = t(&[("x", 1), ("x", 1), ("y", 2)]);
        assert_eq!(table_fingerprint(&a), table_fingerprint(&b));
    }

    #[test]
    fn different_content_different_fingerprint() {
        let a = t(&[("x", 1)]);
        let b = t(&[("x", 2)]);
        assert_ne!(table_fingerprint(&a), table_fingerprint(&b));
    }
}
