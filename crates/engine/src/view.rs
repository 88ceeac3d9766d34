//! Candidate PJ-views with provenance, passed by handle.
//!
//! A [`View`] is a cheap handle: its data ([`ViewTable`]) and its
//! [`Provenance`] sit behind `Arc`s, so cloning a view — into the view LRU,
//! out of it on a hit, into a ranked answer, a session or a cursor — copies
//! no cell and allocates nothing, and every clone shares one immutable
//! body. A view built by the shared sub-join DAG ([`crate::dag`]) does not
//! hold cells at all until someone reads them: the body records, per
//! projected column, the base column and the source rows that survived
//! dedup, and copies the cells out of the base tables **at most once, on
//! first read**. Row count, schema and name are known without that copy, and
//! so are the row hashes 4C's C1/C2 run on (as [`View::row_set`]); the
//! ≈ 96 % of candidates 4C discards are never gathered.
//!
//! What forces the gather: dereferencing [`View::table`] to a [`Table`]
//! (`view.table.columns()`, `.cell(..)`, `.iter_rows()`, `==`), or saying
//! so with [`ViewTable::gather`]. What never does: [`View::row_count`], [`View::schema`], [`View::name`],
//! [`View::schema_signature`], [`View::attribute_names`],
//! [`ViewTable::is_gathered`], [`ViewTable::ptr_eq`], [`View::byte_bound`]
//! (the view LRU's charge, which counts the cells as if gathered), and
//! [`View::row_hashes`] on a view that carries its hashes.
//!
//! (The vendored `serde` derives are no-ops. A registry `serde` must
//! serialise a [`ViewTable`] as its gathered [`Table`] and an
//! `Arc<Provenance>` as the `Provenance`.)

use crate::rowhash::{row_set, table_row_hashes};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::mem::size_of;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};
use ver_common::ids::{ColumnRef, TableId, ViewId};
use ver_common::value::Value;
use ver_store::column::Column;
use ver_store::schema::{ColumnMeta, TableSchema};
use ver_store::table::Table;

/// The bytes an `Arc` allocation spends on its two reference counts.
const ARC_COUNTS: usize = 2 * size_of::<usize>();

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

/// One projected column of a view that has not been gathered yet: the base
/// table holding the cells, the column's ordinal in it, and the source row
/// behind each of the view's rows. Columns projected from one base table
/// share one `rows` vector.
#[derive(Debug)]
pub(crate) struct SourceColumn {
    pub(crate) table: Arc<Table>,
    pub(crate) ordinal: u16,
    pub(crate) rows: Arc<[u32]>,
}

/// Where an ungathered view's cells are: everything [`Table`] knows except
/// the cells themselves.
#[derive(Debug)]
struct Source {
    schema: TableSchema,
    rows: usize,
    columns: Vec<SourceColumn>,
}

impl Source {
    /// The one place a cell is copied out of a base column.
    fn gather(&self) -> Table {
        let columns = self
            .columns
            .iter()
            .map(|c| {
                let values = c.table.columns()[c.ordinal as usize].values();
                c.rows
                    .iter()
                    .map(|&r| values[r as usize].clone())
                    .collect::<Column>()
            })
            .collect();
        Table::new(self.schema.clone(), columns)
            .expect("one source column per schema column, one source row per view row")
    }
}

/// The shared, immutable body behind [`ViewTable`] handles.
#[derive(Debug)]
enum Body {
    /// A table that was built elsewhere (`View::new`, CSV, the wire).
    Built(Table),
    /// Cells still in the base tables until `table` is first read.
    Lazy {
        source: Source,
        table: OnceLock<Table>,
    },
}

/// A view's data: a handle on a shared, immutable body that either wraps a
/// built [`Table`] or gathers one out of the base tables the first time it
/// is dereferenced. Clones share the body, so a gather through one handle
/// is visible through all of them, and concurrent first reads gather once.
#[derive(Clone)]
pub struct ViewTable(Arc<Body>);

impl ViewTable {
    /// A body whose cells stay in the base tables until first read.
    pub(crate) fn lazy(schema: TableSchema, rows: usize, columns: Vec<SourceColumn>) -> Self {
        debug_assert_eq!(schema.arity(), columns.len());
        debug_assert!(columns.iter().all(|c| c.rows.len() == rows));
        ViewTable(Arc::new(Body::Lazy {
            source: Source {
                schema,
                rows,
                columns,
            },
            table: OnceLock::new(),
        }))
    }

    /// Number of rows, without gathering.
    pub fn row_count(&self) -> usize {
        match &*self.0 {
            Body::Built(table) => table.row_count(),
            Body::Lazy { source, .. } => source.rows,
        }
    }

    /// Schema (name + column metadata), without gathering.
    pub fn schema(&self) -> &TableSchema {
        match &*self.0 {
            Body::Built(table) => &table.schema,
            Body::Lazy { source, .. } => &source.schema,
        }
    }

    /// Table name, without gathering.
    pub fn name(&self) -> &str {
        &self.schema().name
    }

    /// Whether the cells have been copied out of the base tables (always
    /// true for a handle made from a built [`Table`]).
    pub fn is_gathered(&self) -> bool {
        match &*self.0 {
            Body::Built(_) => true,
            Body::Lazy { table, .. } => table.get().is_some(),
        }
    }

    /// Whether two handles share one body.
    pub fn ptr_eq(&self, other: &ViewTable) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// The table, its cells copied out of the base tables by the first
    /// call. What `Deref` does, by name — for a reader of many views that
    /// wants them gathered before it starts allocating on its own account.
    pub fn gather(&self) -> &Table {
        match &*self.0 {
            Body::Built(table) => table,
            Body::Lazy { source, table } => table.get_or_init(|| source.gather()),
        }
    }

    /// An upper bound on the heap bytes this body holds now or after its
    /// gather: the body, the chained name, the source rows behind an
    /// ungathered view (each shared vector once), and the gathered table —
    /// its schema copy, its columns and every cell at `size_of::<Value>()`.
    /// Text cells are `Arc`s shared with the base tables and are not
    /// charged; a built table's vectors are charged at their length.
    fn byte_bound(&self) -> usize {
        let schema = self.schema();
        let arity = schema.arity();
        let table = schema.columns.capacity() * size_of::<ColumnMeta>()
            + arity * size_of::<Column>()
            + self.row_count() * arity * size_of::<Value>();
        let source = match &*self.0 {
            Body::Built(_) => 0,
            Body::Lazy { source, .. } => {
                let mut rows = 0;
                for (i, c) in source.columns.iter().enumerate() {
                    if !source.columns[..i]
                        .iter()
                        .any(|e| Arc::ptr_eq(&e.rows, &c.rows))
                    {
                        rows += ARC_COUNTS + c.rows.len() * size_of::<u32>();
                    }
                }
                source.schema.columns.capacity() * size_of::<ColumnMeta>()
                    + source.columns.capacity() * size_of::<SourceColumn>()
                    + rows
            }
        };
        let body = ARC_COUNTS + size_of::<Body>();
        let name = ARC_COUNTS + schema.name.len();
        body + name + source + table
    }
}

impl Deref for ViewTable {
    type Target = Table;

    fn deref(&self) -> &Table {
        self.gather()
    }
}

impl From<Table> for ViewTable {
    fn from(table: Table) -> Self {
        ViewTable(Arc::new(Body::Built(table)))
    }
}

/// Equality of the gathered tables (forces both sides).
impl PartialEq for ViewTable {
    fn eq(&self, other: &ViewTable) -> bool {
        self.ptr_eq(other) || **self == **other
    }
}

impl std::fmt::Debug for ViewTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_gathered() {
            return (**self).fmt(f);
        }
        f.debug_struct("ViewTable")
            .field("schema", self.schema())
            .field("rows", &self.row_count())
            .field("gathered", &false)
            .finish()
    }
}

/// A candidate PJ-view: deduplicated rows plus provenance, held by handle
/// (see the module docs for what a clone shares and what reads the cells).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct View {
    /// Identifier assigned by the search stage.
    pub id: ViewId,
    /// The deduplicated data. Dereferences to the [`Table`], gathering it
    /// on first read; a view that needs different rows is a new view
    /// ([`View::new`]).
    pub table: ViewTable,
    /// How the view was built.
    pub provenance: Arc<Provenance>,
    /// `H` of every row, in row order, when the builder already had them
    /// (the shared sub-join DAG does: they are its dedup hashes). A 4C
    /// input, not part of the answer — never serialised, never compared,
    /// and held per handle: releasing them here leaves other clones theirs.
    #[serde(skip)]
    row_hashes: Option<Arc<[u64]>>,
}

impl View {
    /// Wrap a table (or share another view's [`ViewTable`]) as a view.
    pub fn new(
        id: ViewId,
        table: impl Into<ViewTable>,
        provenance: impl Into<Arc<Provenance>>,
    ) -> Self {
        View {
            id,
            table: table.into(),
            provenance: provenance.into(),
            row_hashes: None,
        }
    }

    /// [`View::new`] for a builder that already holds
    /// [`hash_table_row`](crate::rowhash::hash_table_row) of every row.
    pub(crate) fn with_row_hashes(
        id: ViewId,
        table: impl Into<ViewTable>,
        provenance: impl Into<Arc<Provenance>>,
        row_hashes: Arc<[u64]>,
    ) -> Self {
        View {
            row_hashes: Some(row_hashes),
            ..View::new(id, table, provenance)
        }
    }

    /// `H` of every row, in row order: the vector the view was built with
    /// when it has one, hashed from the cells otherwise (`View::new`, CSV,
    /// views rebuilt from the wire, and any handle after
    /// [`View::release_row_hashes`]).
    pub fn row_hashes(&self) -> Cow<'_, [u64]> {
        match &self.row_hashes {
            Some(hashes) => {
                debug_assert_eq!(
                    hashes.len(),
                    self.row_count(),
                    "table replaced under stored row hashes; build a new view with View::new"
                );
                Cow::Borrowed(hashes)
            }
            // No stored vector: hashing needs the cells.
            None => Cow::Owned(table_row_hashes(&self.table)),
        }
    }

    /// Drop this handle's stored row hashes (later reads through it hash
    /// the cells again; clones keep theirs). The pipeline calls this once
    /// 4C has run, so results parked in a cache or sent over the wire carry
    /// nothing but the answer.
    pub fn release_row_hashes(&mut self) {
        self.row_hashes = None;
    }

    /// An upper bound on the bytes this view can come to hold, gathered or
    /// not: the handle, its row hashes, its provenance, and its body with
    /// every cell charged as gathered. A cache that charges a view this
    /// once at insert stays within its bound after the view is gathered;
    /// text bytes, shared with the base tables, are not counted.
    pub fn byte_bound(&self) -> usize {
        let p = &*self.provenance;
        let provenance = ARC_COUNTS
            + size_of::<Provenance>()
            + p.join_edges.capacity() * size_of::<(ColumnRef, ColumnRef)>()
            + p.source_tables.capacity() * size_of::<TableId>()
            + p.projection.capacity() * size_of::<ColumnRef>();
        let hashes = self
            .row_hashes
            .as_ref()
            .map_or(0, |h| ARC_COUNTS + h.len() * size_of::<u64>());
        size_of::<View>() + hashes + provenance + self.table.byte_bound()
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.table.row_count()
    }

    /// Schema (name + column metadata).
    pub fn schema(&self) -> &TableSchema {
        self.table.schema()
    }

    /// Table name: the chained `base⋈t1⋈t2` for a joined view.
    pub fn name(&self) -> &str {
        self.table.name()
    }

    /// Schema signature (used for SCHEMA-BASED-BLOCKS).
    pub fn schema_signature(&self) -> String {
        self.schema().signature()
    }

    /// Row set `H(V)` (Algorithm 3) in its one form,
    /// [`rowhash::row_set`](crate::rowhash::row_set): sorted, no repeats.
    pub fn row_set(&self) -> Vec<u64> {
        row_set(&self.row_hashes())
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
        self.schema()
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
        assert_eq!(v.row_set().len(), 2);
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
    fn a_view_over_a_different_table_is_a_different_body_with_fresh_hashes() {
        let plain = view();
        let stored = View::with_row_hashes(
            plain.id,
            plain.table.clone(),
            plain.provenance.clone(),
            vec![11, 22].into(),
        );
        assert!(stored.table.ptr_eq(&plain.table), "a handle, not a copy");
        assert!(stored.clone().table.ptr_eq(&stored.table));
        let mut b = TableBuilder::new("v", &["state", "pop"]);
        b.push_row(vec!["Texas".into(), Value::Int(3)]).unwrap();
        let other = View::new(stored.id, b.build(), stored.provenance.clone());
        assert!(!other.table.ptr_eq(&stored.table));
        assert_eq!(&*other.row_hashes(), &[hash_table_row(&other.table, 0)]);
        // The body the hashes were stored for is untouched.
        assert_eq!(stored.table, plain.table);
        assert_eq!(&*stored.row_hashes(), &[11, 22]);
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
