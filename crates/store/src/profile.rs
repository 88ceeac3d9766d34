//! Compact per-column profiles consumed by discovery-index construction.
//!
//! Profiling is the first pass of the offline DISCOVERY-ENGINE stage: for
//! every column we record its inferred type, cardinalities and a bounded
//! sample of normalized values. MinHash signatures are built from the full
//! value stream separately (in `ver-index`); the profile carries the exact
//! distinct cardinality that Lazo-style containment estimation requires.

use crate::catalog::TableCatalog;
use crate::column::Column;
use serde::{Deserialize, Serialize};
use ver_common::fxhash::FxHashSet;
use ver_common::ids::{ColumnId, ColumnRef};
use ver_common::pool::ThreadPool;
use ver_common::value::DataType;

/// Statistics and a bounded sample for one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnProfile {
    /// Global column id.
    pub id: ColumnId,
    /// Fully qualified reference.
    pub cref: ColumnRef,
    /// Inferred logical type.
    pub dtype: DataType,
    /// Total rows in the column.
    pub rows: usize,
    /// Null cells.
    pub nulls: usize,
    /// Exact distinct count of non-null values (needed by Lazo containment).
    pub distinct: usize,
    /// Up to `sample_cap` distinct normalized values.
    pub sample: Vec<String>,
    /// Sorted, deduplicated Fx hashes of the distinct value set
    /// ([`Column::distinct_hashes`]), computed **once** here and reused by
    /// every downstream consumer: MinHash sketching feeds from it and exact
    /// containment verification is a linear merge over two of these vectors
    /// — replacing the per-call `FxHashSet<Value>` clones that made
    /// `verify_exact` quadratic in allocations.
    pub hashes: Vec<u64>,
}

impl ColumnProfile {
    /// Profile a single column.
    pub fn of(id: ColumnId, cref: ColumnRef, col: &Column, sample_cap: usize) -> Self {
        let mut seen: FxHashSet<String> = FxHashSet::default();
        let mut sample = Vec::new();
        for v in col.non_null() {
            if sample.len() >= sample_cap {
                break;
            }
            let n = v.normalized();
            if seen.insert(n.clone()) {
                sample.push(n);
            }
        }
        ColumnProfile {
            id,
            cref,
            dtype: col.inferred_type(),
            rows: col.len(),
            nulls: col.null_count(),
            distinct: col.distinct_count(),
            sample,
            hashes: col.distinct_hashes(),
        }
    }

    /// Distinct ratio (1.0 ⇒ candidate key).
    pub fn distinct_ratio(&self) -> f64 {
        let non_null = self.rows - self.nulls;
        if non_null == 0 {
            0.0
        } else {
            self.distinct as f64 / non_null as f64
        }
    }
}

/// Profile every column of a catalog. Sample cap bounds memory on wide
/// collections (Open Data has millions of columns).
///
/// Profiling hashes and sorts each column's distinct set, so it is the
/// second-heaviest offline pass after signature computation; the work is
/// spread over `pool` with results in `ColumnId` order regardless of
/// thread count.
pub fn profile_catalog(
    catalog: &TableCatalog,
    sample_cap: usize,
    pool: &ThreadPool,
) -> Vec<ColumnProfile> {
    let crefs: Vec<(ColumnId, ColumnRef)> = catalog.all_columns().collect();
    pool.par_map(&crefs, |&(cid, cref)| {
        let col = catalog.column(cref).expect("catalog column refs are valid");
        ColumnProfile::of(cid, cref, col, sample_cap)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use ver_common::ids::TableId;
    use ver_common::value::Value;

    fn profiled() -> Vec<ColumnProfile> {
        let mut cat = TableCatalog::new();
        let mut b = TableBuilder::new("t", &["k", "v"]);
        for i in 0..10 {
            b.push_row(vec![Value::Int(i), Value::text(format!("x{}", i % 3))])
                .unwrap();
        }
        cat.add_table(b.build()).unwrap();
        profile_catalog(&cat, 100, &ThreadPool::new(1))
    }

    #[test]
    fn profiles_cover_all_columns() {
        let ps = profiled();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].cref.table, TableId(0));
        assert_eq!(ps[0].distinct, 10);
        assert_eq!(ps[1].distinct, 3);
    }

    #[test]
    fn key_detection_via_distinct_ratio() {
        let ps = profiled();
        assert_eq!(ps[0].distinct_ratio(), 1.0);
        assert!(ps[1].distinct_ratio() < 1.0);
    }

    #[test]
    fn sample_is_bounded_and_distinct() {
        let mut cat = TableCatalog::new();
        let mut b = TableBuilder::new("t", &["v"]);
        for i in 0..100 {
            b.push_row(vec![Value::Int(i % 7)]).unwrap();
        }
        cat.add_table(b.build()).unwrap();
        let ps = profile_catalog(&cat, 5, &ThreadPool::new(1));
        assert_eq!(ps[0].sample.len(), 5);
        assert_eq!(ps[0].distinct, 7);
        let set: FxHashSet<&String> = ps[0].sample.iter().collect();
        assert_eq!(set.len(), 5, "sample values are distinct");
    }

    #[test]
    fn hashes_cover_the_distinct_set() {
        let ps = profiled();
        assert_eq!(ps[0].hashes.len(), ps[0].distinct);
        assert_eq!(ps[1].hashes.len(), ps[1].distinct);
        assert!(ps[0].hashes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn parallel_profiling_matches_sequential() {
        let mut cat = TableCatalog::new();
        for t in 0..6 {
            let mut b = TableBuilder::new(format!("t{t}"), &["a", "b"]);
            for i in 0..(20 + t * 13) {
                b.push_row(vec![Value::Int(i as i64), Value::text(format!("s{i}"))])
                    .unwrap();
            }
            cat.add_table(b.build()).unwrap();
        }
        let seq = profile_catalog(&cat, 16, &ThreadPool::new(1));
        let par = profile_catalog(&cat, 16, &ThreadPool::new(4));
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.cref, b.cref);
            assert_eq!(a.distinct, b.distinct);
            assert_eq!(a.sample, b.sample);
            assert_eq!(a.hashes, b.hashes);
        }
    }

    #[test]
    fn nulls_counted_not_sampled() {
        let mut cat = TableCatalog::new();
        let mut b = TableBuilder::new("t", &["v"]);
        b.push_row(vec![Value::Null]).unwrap();
        b.push_row(vec![Value::Int(1)]).unwrap();
        cat.add_table(b.build()).unwrap();
        let ps = profile_catalog(&cat, 10, &ThreadPool::new(1));
        assert_eq!(ps[0].nulls, 1);
        assert_eq!(ps[0].sample, vec!["1".to_string()]);
    }
}
