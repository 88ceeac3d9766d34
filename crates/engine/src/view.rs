//! Materialized candidate PJ-views with provenance.

use crate::rowhash::table_row_hashes;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::Arc;
use ver_common::fxhash::FxHashSet;
use ver_common::ids::{ColumnRef, TableId, ViewId};
use ver_store::table::Table;

/// How a view was produced: the join edges of its join graph, the source
/// tables, the projected columns, and the discovery engine's join score.
///
/// Provenance powers the paper's "Insights" analyses (e.g. ChEMBL
/// contradictions arise from views joined via different keys) and the
/// dataset-pair question interface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Provenance {
    /// Join edges `(left column, right column)` in execution order.
    pub join_edges: Vec<(ColumnRef, ColumnRef)>,
    /// All source tables (base table first).
    pub source_tables: Vec<TableId>,
    /// Projected columns, qualified by their original tables.
    pub projection: Vec<ColumnRef>,
    /// Join-score assigned by the discovery engine (higher = better).
    pub join_score: f64,
}

impl Provenance {
    /// Number of join hops (edges) in the join graph.
    pub fn hops(&self) -> usize {
        self.join_edges.len()
    }
}

/// A materialized candidate PJ-view: deduplicated rows plus provenance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct View {
    /// Identifier assigned by the search stage.
    pub id: ViewId,
    /// The materialized, deduplicated data. A view that needs different
    /// rows is a new view: build it with [`View::new`], do not assign a
    /// table here — a DAG-built view carries the row hashes of the table it
    /// was built with.
    pub table: Table,
    /// How the view was built.
    pub provenance: Provenance,
    /// `H` of every row, in row order, when the builder already had them
    /// (the shared sub-join DAG does: they are its dedup hashes). A 4C
    /// input, not part of the answer — never serialised, never compared.
    #[serde(skip)]
    row_hashes: Option<Arc<[u64]>>,
}

impl View {
    /// Wrap a table as a view.
    pub fn new(id: ViewId, table: Table, provenance: Provenance) -> Self {
        View {
            id,
            table,
            provenance,
            row_hashes: None,
        }
    }

    /// [`View::new`] for a builder that already holds
    /// [`hash_table_row`](crate::rowhash::hash_table_row) of every row.
    pub(crate) fn with_row_hashes(
        id: ViewId,
        table: Table,
        provenance: Provenance,
        row_hashes: Arc<[u64]>,
    ) -> Self {
        View {
            row_hashes: Some(row_hashes),
            ..View::new(id, table, provenance)
        }
    }

    /// `H` of every row, in row order: the vector the view was built with
    /// when it has one, hashed from the cells otherwise (`View::new`, CSV,
    /// views rebuilt from the wire).
    pub fn row_hashes(&self) -> Cow<'_, [u64]> {
        match &self.row_hashes {
            Some(hashes) => {
                debug_assert_eq!(
                    hashes.len(),
                    self.table.row_count(),
                    "table replaced under stored row hashes; build a new view with View::new"
                );
                Cow::Borrowed(hashes)
            }
            None => Cow::Owned(table_row_hashes(&self.table)),
        }
    }

    /// Drop the stored row hashes (later reads hash the cells again). The
    /// pipeline calls this once 4C has run, so results parked in a cache or
    /// sent over the wire carry nothing but the answer.
    pub fn release_row_hashes(&mut self) {
        self.row_hashes = None;
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.table.row_count()
    }

    /// Schema signature (used for SCHEMA-BASED-BLOCKS).
    pub fn schema_signature(&self) -> String {
        self.table.schema.signature()
    }

    /// Row-hash set `H(V)` (Algorithm 3).
    pub fn hash_set(&self) -> FxHashSet<u64> {
        self.row_hashes().iter().copied().collect()
    }

    /// Sorted multiset of row hashes — an order-insensitive but
    /// duplicate-sensitive content fingerprint.
    pub fn row_hash_multiset(&self) -> Vec<u64> {
        let mut hashes = self.row_hashes().into_owned();
        hashes.sort_unstable();
        hashes
    }

    /// Strict equality for determinism tests: same id, same schema, same
    /// provenance, and the same rows (as a multiset — views are
    /// deduplicated, but this does not assume it).
    pub fn same_contents(&self, other: &View) -> bool {
        self.id == other.id
            && self.schema_signature() == other.schema_signature()
            && self.attribute_names() == other.attribute_names()
            && self.provenance == other.provenance
            && self.row_hash_multiset() == other.row_hash_multiset()
    }

    /// Display names of the view's attributes.
    pub fn attribute_names(&self) -> Vec<String> {
        self.table
            .schema
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| c.display_name(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowhash::hash_table_row;
    use ver_common::value::Value;
    use ver_store::table::TableBuilder;

    fn view() -> View {
        let mut b = TableBuilder::new("v", &["state", "pop"]);
        b.push_row(vec!["Indiana".into(), Value::Int(1)]).unwrap();
        b.push_row(vec!["Georgia".into(), Value::Int(2)]).unwrap();
        View::new(
            ViewId(7),
            b.build(),
            Provenance {
                join_edges: vec![(
                    ColumnRef {
                        table: TableId(0),
                        ordinal: 1,
                    },
                    ColumnRef {
                        table: TableId(1),
                        ordinal: 0,
                    },
                )],
                source_tables: vec![TableId(0), TableId(1)],
                projection: vec![
                    ColumnRef {
                        table: TableId(0),
                        ordinal: 1,
                    },
                    ColumnRef {
                        table: TableId(1),
                        ordinal: 1,
                    },
                ],
                join_score: 0.9,
            },
        )
    }

    #[test]
    fn accessors() {
        let v = view();
        assert_eq!(v.id, ViewId(7));
        assert_eq!(v.row_count(), 2);
        assert_eq!(v.provenance.hops(), 1);
        assert_eq!(v.attribute_names(), vec!["state", "pop"]);
    }

    #[test]
    fn hash_set_matches_row_count_when_distinct() {
        let v = view();
        assert_eq!(v.hash_set().len(), 2);
    }

    #[test]
    fn views_built_without_hashes_hash_their_cells() {
        let v = view();
        let expect: Vec<u64> = (0..2).map(|r| hash_table_row(&v.table, r)).collect();
        assert_eq!(&*v.row_hashes(), expect.as_slice());
    }

    #[test]
    fn stored_row_hashes_are_served_until_released() {
        // Recognisable stand-ins prove the accessor serves the stored
        // vector instead of re-hashing.
        let plain = view();
        let mut v = View::with_row_hashes(
            plain.id,
            plain.table.clone(),
            plain.provenance.clone(),
            vec![11, 22].into(),
        );
        assert_eq!(&*v.row_hashes(), &[11, 22]);
        assert_eq!(&*v.clone().row_hashes(), &[11, 22], "clones share them");
        v.release_row_hashes();
        assert_eq!(v.row_hashes(), plain.row_hashes());
    }

    #[test]
    fn a_changed_table_is_a_new_view_with_fresh_hashes() {
        let plain = view();
        let stored = View::with_row_hashes(
            plain.id,
            plain.table.clone(),
            plain.provenance.clone(),
            vec![11, 22].into(),
        );
        let mut b = TableBuilder::new("v", &["state", "pop"]);
        b.push_row(vec!["Texas".into(), Value::Int(3)]).unwrap();
        let edited = View::new(stored.id, b.build(), stored.provenance.clone());
        assert_eq!(
            &*edited.row_hashes(),
            &[hash_table_row(&edited.table, 0)],
            "View::new never inherits a hash vector"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "table replaced under stored row hashes")]
    fn assigning_a_table_under_stored_hashes_is_caught_in_debug() {
        let plain = view();
        let mut v = View::with_row_hashes(
            plain.id,
            plain.table.clone(),
            plain.provenance.clone(),
            vec![11, 22].into(),
        );
        let mut b = TableBuilder::new("v", &["state", "pop"]);
        b.push_row(vec!["Texas".into(), Value::Int(3)]).unwrap();
        v.table = b.build();
        let _ = v.row_hashes();
    }

    #[test]
    fn signature_matches_same_schema() {
        let a = view();
        let b = view();
        assert_eq!(a.schema_signature(), b.schema_signature());
    }

    #[test]
    fn same_contents_detects_equality_and_difference() {
        let a = view();
        let b = view();
        assert!(a.same_contents(&b));
        // Different id → different.
        let mut c = view();
        c.id = ViewId(8);
        assert!(!a.same_contents(&c));
        // Different rows → different.
        let mut builder = TableBuilder::new("v", &["state", "pop"]);
        builder
            .push_row(vec!["Indiana".into(), Value::Int(1)])
            .unwrap();
        let d = View::new(ViewId(7), builder.build(), a.provenance.clone());
        assert!(!a.same_contents(&d));
    }

    #[test]
    fn row_hash_multiset_is_order_insensitive() {
        let mut b1 = TableBuilder::new("v", &["x"]);
        b1.push_row(vec![Value::Int(1)]).unwrap();
        b1.push_row(vec![Value::Int(2)]).unwrap();
        let mut b2 = TableBuilder::new("v", &["x"]);
        b2.push_row(vec![Value::Int(2)]).unwrap();
        b2.push_row(vec![Value::Int(1)]).unwrap();
        let v1 = View::new(ViewId(0), b1.build(), Provenance::default());
        let v2 = View::new(ViewId(0), b2.build(), Provenance::default());
        assert_eq!(v1.row_hash_multiset(), v2.row_hash_multiset());
    }
}
