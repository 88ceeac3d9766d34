//! The pathless table collection itself (Definition 2).
//!
//! A [`TableCatalog`] owns the tables, assigns [`TableId`]s and global
//! [`ColumnId`]s, and answers the lookups every downstream component needs
//! (resolve a [`ColumnRef`], iterate all columns, find tables by name).
//! No join-path information is stored here — that is the whole point of the
//! pathless setting; join paths are *inferred* by `ver-index`.

use crate::column::Column;
use crate::table::Table;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use ver_common::error::{Result, VerError};
use ver_common::fxhash::FxHashMap;
use ver_common::ids::{ColumnId, ColumnRef, TableId};

/// An owned collection of noisy tables with id/name lookup.
///
/// Tables are immutable once registered and held behind [`Arc`], so a
/// candidate view can keep the base tables it was joined from alive past
/// the `&TableCatalog` borrow it was built under
/// ([`TableCatalog::table_shared`]) and copy cells out of them later.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct TableCatalog {
    tables: Vec<Arc<Table>>,
    by_name: FxHashMap<String, TableId>,
    /// Flat list mapping `ColumnId` → `ColumnRef` in registration order.
    column_refs: Vec<ColumnRef>,
    /// Reverse map `ColumnRef` → `ColumnId`.
    ref_to_id: FxHashMap<ColumnRef, ColumnId>,
}

impl TableCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table; assigns and returns its [`TableId`].
    ///
    /// Table names must be unique (open-data portals key datasets by name).
    ///
    /// Ids are assigned in `(table, ordinal)` order: a table gets the next
    /// [`TableId`] and its columns the next [`ColumnId`]s, by ordinal. So
    /// column ids ascend exactly as their [`ColumnRef`]s do, and the
    /// search's canonical join-graph form orders graphs alike over either;
    /// the scatter/gather merge, which reads column refs, relies on it.
    pub fn add_table(&mut self, mut table: Table) -> Result<TableId> {
        let name = table.name().to_string();
        if self.by_name.contains_key(&name) {
            return Err(VerError::InvalidData(format!(
                "duplicate table name '{name}'"
            )));
        }
        let id = TableId(self.tables.len() as u32);
        table.id = id;
        for ordinal in 0..table.column_count() {
            let cref = ColumnRef {
                table: id,
                ordinal: ordinal as u16,
            };
            let cid = ColumnId(self.column_refs.len() as u32);
            self.column_refs.push(cref);
            self.ref_to_id.insert(cref, cid);
        }
        self.tables.push(Arc::new(table));
        self.by_name.insert(name, id);
        Ok(id)
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Total number of columns across all tables.
    pub fn column_count(&self) -> usize {
        self.column_refs.len()
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.row_count()).sum()
    }

    /// Table by id.
    pub fn table(&self, id: TableId) -> Result<&Table> {
        self.table_shared(id).map(|t| &**t)
    }

    /// Table by id as its shared handle (clone it to outlive the catalog
    /// borrow).
    pub fn table_shared(&self, id: TableId) -> Result<&Arc<Table>> {
        self.tables
            .get(id.idx())
            .ok_or_else(|| VerError::NotFound(format!("table {id}")))
    }

    /// Table by name (exact, case-sensitive).
    pub fn table_by_name(&self, name: &str) -> Option<&Table> {
        self.by_name.get(name).map(|id| &*self.tables[id.idx()])
    }

    /// All tables in id order.
    pub fn tables(&self) -> &[Arc<Table>] {
        &self.tables
    }

    /// Resolve a [`ColumnRef`] to its column data.
    pub fn column(&self, cref: ColumnRef) -> Result<&Column> {
        let table = self.table(cref.table)?;
        table
            .column(cref.ordinal as usize)
            .ok_or_else(|| VerError::NotFound(format!("column {cref} (table has fewer columns)")))
    }

    /// Resolve a global [`ColumnId`] to its [`ColumnRef`].
    pub fn column_ref(&self, id: ColumnId) -> Result<ColumnRef> {
        self.column_refs
            .get(id.idx())
            .copied()
            .ok_or_else(|| VerError::NotFound(format!("column id {id}")))
    }

    /// Global [`ColumnId`] of a [`ColumnRef`].
    pub fn column_id(&self, cref: ColumnRef) -> Result<ColumnId> {
        self.ref_to_id
            .get(&cref)
            .copied()
            .ok_or_else(|| VerError::NotFound(format!("column ref {cref}")))
    }

    /// Iterate `(ColumnId, ColumnRef)` over every column in the catalog.
    pub fn all_columns(&self) -> impl Iterator<Item = (ColumnId, ColumnRef)> + '_ {
        self.column_refs
            .iter()
            .enumerate()
            .map(|(i, &cref)| (ColumnId(i as u32), cref))
    }

    /// Approximate in-memory size in bytes (for Table I style reporting).
    pub fn approx_bytes(&self) -> usize {
        use ver_common::value::Value;
        let mut total = 0usize;
        for t in &self.tables {
            for c in t.columns() {
                total += std::mem::size_of_val(c.values());
                for v in c.values() {
                    if let Value::Text(s) = v {
                        total += s.len();
                    }
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use ver_common::value::Value;

    fn catalog() -> TableCatalog {
        let mut cat = TableCatalog::new();
        let mut a = TableBuilder::new("airports", &["iata", "state"]);
        a.push_row(vec!["IND".into(), "Indiana".into()]).unwrap();
        cat.add_table(a.build()).unwrap();
        let mut s = TableBuilder::new("states", &["state", "pop"]);
        s.push_row(vec!["Indiana".into(), Value::Int(6_800_000)])
            .unwrap();
        s.push_row(vec!["Georgia".into(), Value::Int(10_700_000)])
            .unwrap();
        cat.add_table(s.build()).unwrap();
        cat
    }

    #[test]
    fn ids_are_assigned_sequentially() {
        let cat = catalog();
        assert_eq!(cat.table_count(), 2);
        assert_eq!(cat.column_count(), 4);
        assert_eq!(cat.total_rows(), 3);
        assert_eq!(cat.tables()[0].id, TableId(0));
        assert_eq!(cat.tables()[1].id, TableId(1));
    }

    #[test]
    fn column_ids_ascend_with_table_and_ordinal() {
        let mut cat = catalog();
        for (name, width) in [("wide", 5), ("single", 1), ("triple", 3)] {
            let names: Vec<String> = (0..width).map(|i| format!("c{i}")).collect();
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            cat.add_table(TableBuilder::new(name, &names).build())
                .unwrap();
        }
        let columns: Vec<(ColumnId, ColumnRef)> = cat.all_columns().collect();
        assert_eq!(columns.len(), 4 + 5 + 1 + 3);
        for w in columns.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 < w[1].1, "{w:?}");
        }
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut cat = catalog();
        let dup = TableBuilder::new("airports", &["x"]).build();
        assert!(cat.add_table(dup).is_err());
    }

    #[test]
    fn column_id_roundtrip() {
        let cat = catalog();
        for (cid, cref) in cat.all_columns() {
            assert_eq!(cat.column_id(cref).unwrap(), cid);
            assert_eq!(cat.column_ref(cid).unwrap(), cref);
        }
    }

    #[test]
    fn lookup_failures_are_notfound() {
        let cat = catalog();
        assert!(matches!(cat.table(TableId(99)), Err(VerError::NotFound(_))));
        assert!(matches!(
            cat.column(ColumnRef {
                table: TableId(0),
                ordinal: 9
            }),
            Err(VerError::NotFound(_))
        ));
        assert!(matches!(
            cat.column_ref(ColumnId(99)),
            Err(VerError::NotFound(_))
        ));
    }

    #[test]
    fn table_by_name_finds_tables() {
        let cat = catalog();
        assert!(cat.table_by_name("states").is_some());
        assert!(cat.table_by_name("nope").is_none());
    }

    #[test]
    fn approx_bytes_positive_for_nonempty() {
        assert!(catalog().approx_bytes() > 0);
    }
}
