//! Candidate-key discovery (Definition 7).
//!
//! A candidate key is an attribute set that uniquely identifies rows. The
//! paper identifies *approximate* keys (citing fast FK-detection work
//! [28, 29]): we accept attribute sets whose distinct-combination ratio is
//! ≥ `1 − epsilon`. Search proceeds by width (single columns, then pairs)
//! and prunes supersets of already-found keys — a key extended by any
//! column is still unique and therefore redundant as a *candidate* key.

use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};
use ver_common::fxhash::FxHasher;
use ver_store::table::Table;

/// A candidate key: sorted column ordinals of the view's schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Key(pub Vec<u16>);

impl Key {
    /// Single-column key.
    pub fn single(ordinal: u16) -> Self {
        Key(vec![ordinal])
    }

    /// Multi-column key (ordinals are sorted).
    pub fn of(mut ordinals: Vec<u16>) -> Self {
        ordinals.sort_unstable();
        ordinals.dedup();
        Key(ordinals)
    }

    /// Key width.
    pub fn width(&self) -> usize {
        self.0.len()
    }

    /// True if `other`'s ordinals all appear in `self`.
    pub fn contains_key(&self, other: &Key) -> bool {
        other.0.iter().all(|o| self.0.contains(o))
    }
}

/// Hash of a row projected onto a key (the key *value*).
///
/// Deliberately not `ver_engine::rowhash`'s `H`: key-value hashes bucket a
/// view's rows by key and are only ever compared with each other, never
/// with a row hash, so they keep the streaming form (one hasher per key
/// value, no per-cell finish).
pub fn key_value_hash(table: &Table, row: usize, key: &Key) -> u64 {
    let mut h = FxHasher::default();
    for &o in &key.0 {
        match table.column(o as usize).and_then(|c| c.get(row)) {
            Some(v) => v.hash(&mut h),
            None => ver_common::value::Value::Null.hash(&mut h),
        }
    }
    h.finish()
}

/// Uniqueness ratio of `key` over `table`: distinct key values / rows.
pub fn key_uniqueness(table: &Table, key: &Key) -> f64 {
    let rows = table.row_count();
    if rows == 0 {
        return 1.0;
    }
    let mut values: Vec<u64> = (0..rows).map(|r| key_value_hash(table, r, key)).collect();
    values.sort_unstable();
    values.dedup();
    values.len() as f64 / rows as f64
}

/// Find candidate keys of width ≤ `max_width` with uniqueness ≥
/// `1 − epsilon`. Keys that are supersets of a found key are pruned.
/// Returns keys sorted (narrow first, then by ordinals).
pub fn find_candidate_keys(table: &Table, epsilon: f64, max_width: usize) -> Vec<Key> {
    let threshold = 1.0 - epsilon;
    let arity = table.column_count() as u16;
    let mut keys: Vec<Key> = Vec::new();

    for o in 0..arity {
        let k = Key::single(o);
        if key_uniqueness(table, &k) >= threshold {
            keys.push(k);
        }
    }
    if max_width >= 2 {
        for a in 0..arity {
            for b in (a + 1)..arity {
                let k = Key::of(vec![a, b]);
                if keys.iter().any(|found| k.contains_key(found)) {
                    continue; // superset of an existing key
                }
                if key_uniqueness(table, &k) >= threshold {
                    keys.push(k);
                }
            }
        }
    }
    keys.sort();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use ver_common::fxhash::FxHashSet;
    use ver_common::value::Value;
    use ver_store::table::TableBuilder;

    /// (id unique, name unique, city repeats, zip repeats; (city, zip) unique)
    fn table() -> Table {
        let mut b = TableBuilder::new("t", &["id", "name", "city", "zip"]);
        let rows = [
            (1, "ann", "springfield", 10),
            (2, "bob", "springfield", 20),
            (3, "cat", "shelbyville", 10),
            (4, "dan", "shelbyville", 20),
        ];
        for (id, n, c, z) in rows {
            b.push_row(vec![
                Value::Int(id),
                Value::text(n),
                Value::text(c),
                Value::Int(z),
            ])
            .unwrap();
        }
        b.build()
    }

    #[test]
    fn single_column_keys_found() {
        let keys = find_candidate_keys(&table(), 0.0, 1);
        assert_eq!(keys, vec![Key::single(0), Key::single(1)]);
    }

    #[test]
    fn pair_keys_found_when_singles_fail() {
        let keys = find_candidate_keys(&table(), 0.0, 2);
        assert!(keys.contains(&Key::of(vec![2, 3])), "city+zip is a key");
        // Pairs containing id or name are pruned as supersets.
        assert!(!keys.contains(&Key::of(vec![0, 2])));
    }

    #[test]
    fn uniqueness_is_exact() {
        let t = table();
        assert_eq!(key_uniqueness(&t, &Key::single(0)), 1.0);
        assert_eq!(key_uniqueness(&t, &Key::single(2)), 0.5);
        assert_eq!(key_uniqueness(&t, &Key::of(vec![2, 3])), 1.0);
    }

    #[test]
    fn epsilon_admits_approximate_keys() {
        let mut b = TableBuilder::new("t", &["almost"]);
        for i in 0..9 {
            b.push_row(vec![Value::Int(i)]).unwrap();
        }
        b.push_row(vec![Value::Int(0)]).unwrap(); // one duplicate in 10 rows
        let t = b.build();
        assert!(find_candidate_keys(&t, 0.0, 1).is_empty());
        assert_eq!(find_candidate_keys(&t, 0.15, 1), vec![Key::single(0)]);
    }

    #[test]
    fn key_value_hash_distinguishes_key_values() {
        let t = table();
        let k = Key::of(vec![2, 3]);
        let h: FxHashSet<u64> = (0..4).map(|r| key_value_hash(&t, r, &k)).collect();
        assert_eq!(h.len(), 4);
        // Single-column city key collides across same-city rows.
        let k = Key::single(2);
        assert_eq!(key_value_hash(&t, 0, &k), key_value_hash(&t, 1, &k));
    }

    #[test]
    fn empty_table_has_all_keys() {
        let t = TableBuilder::new("e", &["a"]).build();
        assert_eq!(key_uniqueness(&t, &Key::single(0)), 1.0);
        assert_eq!(find_candidate_keys(&t, 0.0, 1), vec![Key::single(0)]);
    }

    #[test]
    fn no_keys_when_all_columns_repeat() {
        let mut b = TableBuilder::new("t", &["a"]);
        for _ in 0..5 {
            b.push_row(vec![Value::Int(7)]).unwrap();
        }
        let t = b.build();
        assert!(find_candidate_keys(&t, 0.0, 2).is_empty());
    }

    #[test]
    fn key_ordering_is_deterministic() {
        let keys = find_candidate_keys(&table(), 0.0, 2);
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
