//! Row-wise hashing — the hash function `H` of Algorithm 3 — and the one
//! form of a view's row set.
//!
//! `H(V)` maps a view to a *set* of 64-bit values, one per distinct row.
//! Its one representation is [`row_set`]: the row hashes sorted and
//! deduplicated. Compatible / contained / overlapping view pairs are
//! detected by set equality / subset / intersection, exactly as the paper
//! describes, and [`relation`] is the one place that decides which, by a
//! merge walk over two such slices.
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
use ver_common::fxhash::{fx_step, FxHasher};
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

/// The row set `H(V)` of a view with row hashes `hashes`: sorted, each
/// hash once (views are row sets).
pub fn row_set(hashes: &[u64]) -> Vec<u64> {
    let mut set = hashes.to_vec();
    set.sort_unstable();
    set.dedup();
    set
}

/// Set relationship between two row sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetRelation {
    /// Identical sets.
    Equal,
    /// Left strictly inside right.
    LeftInRight,
    /// Right strictly inside left.
    RightInLeft,
    /// Non-empty intersection, neither contained.
    Overlap,
    /// Empty intersection.
    Disjoint,
}

/// The [`SetRelation`] between two row sets in [`row_set`] form (sorted,
/// no repeats). Two empty sets are `Equal`; an empty and a non-empty set
/// are `Disjoint`.
///
/// One merge walk counts the common hashes, and stops as soon as the
/// answer can only be `Overlap`. The step itself has no data-dependent
/// branch: most pairs 4C compares are disjoint sets of similar size, whose
/// hashes interleave at random.
pub fn relation(a: &[u64], b: &[u64]) -> SetRelation {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "left is not a row set");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "right is not a row set");
    if a == b {
        return SetRelation::Equal;
    }
    let (mut i, mut j, mut common) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
        common += usize::from(x == y);
        // A common hash, and one of each side's not common: neither set can
        // contain the other, whatever the rest holds.
        if common != 0 && i > common && j > common {
            return SetRelation::Overlap;
        }
    }
    // Unequal sets: at most one of them can be all common.
    if common == 0 {
        SetRelation::Disjoint
    } else if common == a.len() {
        SetRelation::LeftInRight
    } else if common == b.len() {
        SetRelation::RightInLeft
    } else {
        SetRelation::Overlap
    }
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
        let set = row_set(&table_row_hashes(&table));
        assert_eq!(set.len(), 2);
        assert!(set[0] < set[1]);
    }
}
