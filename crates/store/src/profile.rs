//! Compact per-column profiles consumed by discovery-index construction.
//!
//! Profiling is the first pass of the offline DISCOVERY-ENGINE stage: for
//! every column we record its inferred type and cardinalities — the
//! statistics online discovery reads (Algorithm 5 ranks by the distinct
//! ratio). MinHash signatures are built from the full value stream
//! separately (in `ver-index`); the profile carries the exact distinct
//! cardinality that Lazo-style containment estimation requires.

use crate::catalog::TableCatalog;
use crate::column::Column;
use serde::{Deserialize, Serialize};
use ver_common::ids::{ColumnId, ColumnRef};
use ver_common::pool::ThreadPool;
use ver_common::value::DataType;

/// Statistics for one column.
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
}

impl ColumnProfile {
    /// Profile a single column.
    pub fn of(id: ColumnId, cref: ColumnRef, col: &Column) -> Self {
        ColumnProfile {
            id,
            cref,
            dtype: col.inferred_type(),
            rows: col.len(),
            nulls: col.null_count(),
            distinct: col.distinct_count(),
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

/// Profile every column of a catalog. Counting a column's distinct values
/// hashes all of its cells, so the work is spread over `pool`, with results
/// in `ColumnId` order regardless of thread count.
pub fn profile_catalog(catalog: &TableCatalog, pool: &ThreadPool) -> Vec<ColumnProfile> {
    let crefs: Vec<(ColumnId, ColumnRef)> = catalog.all_columns().collect();
    pool.par_map(&crefs, |&(cid, cref)| {
        let col = catalog.column(cref).expect("catalog column refs are valid");
        ColumnProfile::of(cid, cref, col)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use ver_common::ids::TableId;
    use ver_common::value::Value;

    fn catalog() -> TableCatalog {
        let mut cat = TableCatalog::new();
        let mut b = TableBuilder::new("t", &["k", "v"]);
        for i in 0..10 {
            b.push_row(vec![Value::Int(i), Value::text(format!("x{}", i % 3))])
                .unwrap();
        }
        cat.add_table(b.build()).unwrap();
        cat
    }

    fn profiled() -> Vec<ColumnProfile> {
        profile_catalog(&catalog(), &ThreadPool::new(1))
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
    fn hashes_cover_the_distinct_set() {
        // The index builder sketches each column's distinct-hash vector
        // with the profile's distinct count as its cardinality: one hash
        // per distinct value.
        let cat = catalog();
        for p in profile_catalog(&cat, &ThreadPool::new(1)) {
            let hashes = cat.column(p.cref).unwrap().distinct_hashes();
            assert_eq!(hashes.len(), p.distinct);
            assert!(hashes.windows(2).all(|w| w[0] < w[1]));
        }
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
        let seq = profile_catalog(&cat, &ThreadPool::new(1));
        let par = profile_catalog(&cat, &ThreadPool::new(4));
        assert_eq!(seq, par);
    }

    #[test]
    fn nulls_counted_not_sampled() {
        let mut cat = TableCatalog::new();
        let mut b = TableBuilder::new("t", &["v"]);
        b.push_row(vec![Value::Null]).unwrap();
        b.push_row(vec![Value::Int(1)]).unwrap();
        cat.add_table(b.build()).unwrap();
        let ps = profile_catalog(&cat, &ThreadPool::new(1));
        assert_eq!(ps[0].nulls, 1);
        assert_eq!(ps[0].distinct, 1);
    }
}
