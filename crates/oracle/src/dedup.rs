//! Set-semantics row deduplication.
//!
//! Candidate PJ-views are row *sets*: Definitions 5–9 of the paper compare
//! views by their row sets, so the materializer deduplicates after
//! projection. Rows are grouped by 64-bit row hash and verified by value
//! equality inside each bucket, so hash collisions cannot merge distinct
//! rows.

use ver_common::fxhash::FxHashMap;
use ver_common::value::Value;
use ver_engine::rowhash::hash_table_row;
use ver_store::column::Column;
use ver_store::table::Table;

/// Indices of the first occurrence of each distinct row, in row order.
pub fn distinct_row_indices(table: &Table) -> Vec<usize> {
    let mut buckets: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
    let mut keep = Vec::new();
    'rows: for r in 0..table.row_count() {
        let h = hash_table_row(table, r);
        let bucket = buckets.entry(h).or_default();
        for &prev in bucket.iter() {
            if rows_equal(table, prev, r) {
                continue 'rows;
            }
        }
        bucket.push(r);
        keep.push(r);
    }
    keep
}

fn rows_equal(table: &Table, a: usize, b: usize) -> bool {
    table.columns().iter().all(|c| c.get(a) == c.get(b))
}

/// Remove duplicate rows, keeping first occurrences (stable).
pub fn dedup_rows(table: &Table) -> Table {
    let keep = distinct_row_indices(table);
    if keep.len() == table.row_count() {
        return table.clone();
    }
    let columns: Vec<Column> = table
        .columns()
        .iter()
        .map(|c| {
            keep.iter()
                .map(|&r| c.get(r).cloned().unwrap_or(Value::Null))
                .collect::<Column>()
        })
        .collect();
    Table::new(table.schema.clone(), columns).expect("dedup preserves rectangularity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ver_store::table::TableBuilder;

    fn dup_table() -> Table {
        let mut b = TableBuilder::new("t", &["a", "b"]);
        b.push_row(vec![Value::Int(1), "x".into()]).unwrap();
        b.push_row(vec![Value::Int(2), "y".into()]).unwrap();
        b.push_row(vec![Value::Int(1), "x".into()]).unwrap();
        b.push_row(vec![Value::Int(2), "z".into()]).unwrap();
        b.build()
    }

    #[test]
    fn removes_exact_duplicates_only() {
        let d = dedup_rows(&dup_table());
        assert_eq!(d.row_count(), 3);
        // Stable: first occurrences in original order.
        assert_eq!(d.cell(0, 0), Some(&Value::Int(1)));
        assert_eq!(d.cell(1, 1), Some(&Value::text("y")));
        assert_eq!(d.cell(2, 1), Some(&Value::text("z")));
    }

    #[test]
    fn no_duplicates_is_identity() {
        let mut b = TableBuilder::new("t", &["a"]);
        b.push_row(vec![Value::Int(1)]).unwrap();
        b.push_row(vec![Value::Int(2)]).unwrap();
        let t = b.build();
        let d = dedup_rows(&t);
        assert_eq!(d.row_count(), 2);
        assert_eq!(d, t);
    }

    #[test]
    fn null_rows_deduplicate() {
        let mut b = TableBuilder::new("t", &["a"]);
        b.push_row(vec![Value::Null]).unwrap();
        b.push_row(vec![Value::Null]).unwrap();
        let d = dedup_rows(&b.build());
        assert_eq!(d.row_count(), 1);
    }

    #[test]
    fn distinct_indices_are_sorted_first_occurrences() {
        assert_eq!(distinct_row_indices(&dup_table()), vec![0, 1, 3]);
    }

    #[test]
    fn empty_table_stays_empty() {
        let t = TableBuilder::new("t", &["a"]).build();
        assert_eq!(dedup_rows(&t).row_count(), 0);
    }
}
