//! Keyword retrieval indexes: values and attribute names.
//!
//! Implements the Aurum API function the paper's Appendix A specifies, over
//! its two targets:
//!
//! ```text
//! SEARCH-KEYWORD(target, fuzzy) — given an input string, return columns
//! that contain the string in either the attribute name or the values, as
//! specified by target; exact or fuzzy matching (maximum Levenshtein
//! distance).
//! ```
//!
//! Values are indexed by their normalized form (lower-cased, trimmed,
//! numeric forms unified) so the noisy-query setting tolerates case and
//! formatting mismatches out of the box. An exact lookup is one hash probe
//! of the target's map; a fuzzy one scans its keys.

use serde::{Deserialize, Serialize};
use ver_common::fxhash::FxHashMap;
use ver_common::ids::ColumnId;
use ver_common::text::FuzzyMatcher;

/// What a keyword should be matched against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchTarget {
    /// Match against cell values.
    Values,
    /// Match against attribute (column header) names.
    Attributes,
}

/// Exact or fuzzy matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fuzziness {
    /// Exact match on the normalized form.
    Exact,
    /// Accept matches within this Levenshtein distance.
    MaxEdits(usize),
}

/// Inverted indexes for keyword search.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct KeywordIndex {
    /// normalized value → columns containing it.
    values: FxHashMap<String, Vec<ColumnId>>,
    /// normalized attribute name → columns bearing it.
    attributes: FxHashMap<String, Vec<ColumnId>>,
}

fn normalize(s: &str) -> String {
    s.trim().to_lowercase()
}

impl KeywordIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a cell value occurrence.
    pub fn add_value(&mut self, normalized_value: &str, column: ColumnId) {
        if normalized_value.is_empty() {
            return;
        }
        self.add_value_owned(normalized_value.to_string(), column);
    }

    /// Register a cell value occurrence from an already-owned normalized
    /// string — the allocation-free entry point for bulk construction (the
    /// builder hands over each `Value::normalized()` string directly, so no
    /// copy is made even on first sight).
    ///
    /// Postings are compacted against the list tail: while one column's
    /// values are scanned consecutively, a value already registered by that
    /// column is a no-op.
    pub fn add_value_owned(&mut self, normalized_value: String, column: ColumnId) {
        if normalized_value.is_empty() {
            return;
        }
        let entry = self.values.entry(normalized_value).or_default();
        if entry.last() != Some(&column) {
            entry.push(column);
        }
    }

    /// Register an attribute (column header) name.
    pub fn add_attribute(&mut self, name: &str, column: ColumnId) {
        let n = normalize(name);
        if n.is_empty() {
            return;
        }
        let entry = self.attributes.entry(n).or_default();
        if !entry.contains(&column) {
            entry.push(column);
        }
    }

    /// Number of distinct indexed values.
    pub fn distinct_values(&self) -> usize {
        self.values.len()
    }

    /// Absorb another index built over a **disjoint set of tables** (the
    /// parallel builder constructs one partial index per table and merges
    /// them in table order).
    ///
    /// Posting lists concatenate in merge order; because no column appears
    /// in two partials, the result is exactly what sequential insertion in
    /// the same table order would have produced.
    pub fn merge(&mut self, other: KeywordIndex) {
        for (value, cols) in other.values {
            self.values.entry(value).or_default().extend(cols);
        }
        for (name, cols) in other.attributes {
            self.attributes.entry(name).or_default().extend(cols);
        }
    }

    /// Split into `count` partitions by column ownership: partition
    /// `owner(column)` receives every posting of the column. Posting
    /// sublists keep their original relative order, so a later [`KeywordIndex::merge`] +
    /// [`KeywordIndex::sort_postings`] reconstructs a builder-produced
    /// index exactly (the builder emits strictly increasing posting lists —
    /// tables in id order, columns in ordinal order).
    pub(crate) fn partition(
        &self,
        count: usize,
        owner: impl Fn(ColumnId) -> usize,
    ) -> Vec<KeywordIndex> {
        assert!(count >= 1, "at least one partition");
        let mut parts = vec![KeywordIndex::new(); count];
        let split = |postings: &FxHashMap<String, Vec<ColumnId>>,
                     select: fn(&mut KeywordIndex) -> &mut FxHashMap<String, Vec<ColumnId>>,
                     parts: &mut Vec<KeywordIndex>| {
            for (key, cols) in postings {
                for &c in cols {
                    let entry = select(&mut parts[owner(c)]).entry(key.clone()).or_default();
                    entry.push(c);
                }
            }
        };
        split(&self.values, |p| &mut p.values, &mut parts);
        split(&self.attributes, |p| &mut p.attributes, &mut parts);
        parts
    }

    /// Sort every value/attribute posting list ascending — the canonical
    /// order builder-produced indexes already have. Called after merging
    /// shard partitions (whose lists concatenate in shard order) to restore
    /// the original, bit-identical posting order.
    pub(crate) fn sort_postings(&mut self) {
        for cols in self.values.values_mut() {
            cols.sort_unstable();
        }
        for cols in self.attributes.values_mut() {
            cols.sort_unstable();
        }
    }

    /// Decompose into persistable parts, each sorted by key so the binary
    /// encoding in [`crate::persist`] is canonical (two equal indexes
    /// serialise to identical bytes). Posting lists keep their insertion
    /// order — it is part of the index's determinism contract.
    pub(crate) fn persist_parts(&self) -> [Vec<(&String, &Vec<ColumnId>)>; 2] {
        [&self.values, &self.attributes].map(|postings| {
            let mut sorted: Vec<_> = postings.iter().collect();
            sorted.sort_unstable_by_key(|(k, _)| *k);
            sorted
        })
    }

    /// Rebuild from parts produced by [`KeywordIndex::persist_parts`]
    /// (deserialisation path; posting-list order is preserved verbatim).
    pub(crate) fn from_persist_parts(
        values: Vec<(String, Vec<ColumnId>)>,
        attributes: Vec<(String, Vec<ColumnId>)>,
    ) -> Self {
        KeywordIndex {
            values: values.into_iter().collect(),
            attributes: attributes.into_iter().collect(),
        }
    }

    /// SEARCH-KEYWORD: columns matching `keyword` under `target`/`fuzzy`.
    /// Results are sorted and deduplicated for determinism.
    ///
    /// The query is normalised once up front. An exact match is one probe
    /// of the target's map; a fuzzy match shares one [`FuzzyMatcher`]
    /// (pre-decoded needle, reused DP row) across every key, so the scan
    /// allocates nothing per key.
    pub fn search_keyword(
        &self,
        keyword: &str,
        target: SearchTarget,
        fuzzy: Fuzziness,
    ) -> Vec<ColumnId> {
        let postings = match target {
            SearchTarget::Values => &self.values,
            SearchTarget::Attributes => &self.attributes,
        };
        let needle = normalize(keyword);
        let mut out: Vec<ColumnId> = match fuzzy {
            Fuzziness::Exact => postings.get(&needle).cloned().unwrap_or_default(),
            Fuzziness::MaxEdits(d) => {
                let mut matcher = FuzzyMatcher::new(&needle, d);
                postings
                    .iter()
                    .filter(|(key, _)| matcher.matches(key))
                    .flat_map(|(_, cols)| cols.iter().copied())
                    .collect()
            }
        };
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> KeywordIndex {
        let mut idx = KeywordIndex::new();
        idx.add_value("indiana", ColumnId(0));
        idx.add_value("indiana", ColumnId(2));
        idx.add_value("georgia", ColumnId(0));
        idx.add_value("6800000", ColumnId(1));
        idx.add_attribute("State", ColumnId(0));
        idx.add_attribute("state_name", ColumnId(2));
        idx
    }

    #[test]
    fn exact_value_search() {
        let idx = index();
        assert_eq!(
            idx.search_keyword("Indiana", SearchTarget::Values, Fuzziness::Exact),
            vec![ColumnId(0), ColumnId(2)]
        );
        assert!(idx
            .search_keyword("idaho", SearchTarget::Values, Fuzziness::Exact)
            .is_empty());
    }

    #[test]
    fn fuzzy_value_search_tolerates_typos() {
        let idx = index();
        // "indianna" is 1 edit from "indiana".
        assert_eq!(
            idx.search_keyword("indianna", SearchTarget::Values, Fuzziness::MaxEdits(1)),
            vec![ColumnId(0), ColumnId(2)]
        );
        assert!(idx
            .search_keyword("indianna", SearchTarget::Values, Fuzziness::Exact)
            .is_empty());
    }

    #[test]
    fn attribute_search_exact_and_fuzzy() {
        let idx = index();
        assert_eq!(
            idx.search_keyword("state", SearchTarget::Attributes, Fuzziness::Exact),
            vec![ColumnId(0)]
        );
        // "state_name" is within 5 edits of "state".
        assert_eq!(
            idx.search_keyword("state", SearchTarget::Attributes, Fuzziness::MaxEdits(5)),
            vec![ColumnId(0), ColumnId(2)]
        );
    }

    #[test]
    fn numbers_search_as_normalized_strings() {
        let idx = index();
        assert_eq!(
            idx.search_keyword("6800000", SearchTarget::Values, Fuzziness::Exact),
            vec![ColumnId(1)]
        );
    }

    #[test]
    fn empty_values_are_not_indexed() {
        let mut idx = KeywordIndex::new();
        idx.add_value("", ColumnId(0));
        idx.add_attribute("  ", ColumnId(0));
        assert_eq!(idx.distinct_values(), 0);
        for target in [SearchTarget::Values, SearchTarget::Attributes] {
            assert!(idx.search_keyword("", target, Fuzziness::Exact).is_empty());
        }
    }

    #[test]
    fn merging_partials_matches_sequential_insertion() {
        // Sequential: two tables inserted in order.
        let mut seq = KeywordIndex::new();
        seq.add_value("shared", ColumnId(0));
        seq.add_attribute("k", ColumnId(0));
        seq.add_value("shared", ColumnId(1));
        seq.add_attribute("k", ColumnId(1));

        // Parallel: one partial per table, merged in table order.
        let mut pa = KeywordIndex::new();
        pa.add_value_owned("shared".into(), ColumnId(0));
        pa.add_attribute("k", ColumnId(0));
        let mut pb = KeywordIndex::new();
        pb.add_value_owned("shared".into(), ColumnId(1));
        pb.add_attribute("k", ColumnId(1));
        let mut merged = KeywordIndex::new();
        merged.merge(pa);
        merged.merge(pb);

        assert_eq!(merged, seq);
        assert_eq!(
            merged.search_keyword("shared", SearchTarget::Values, Fuzziness::Exact),
            vec![ColumnId(0), ColumnId(1)]
        );
    }

    #[test]
    fn duplicate_value_postings_are_compacted() {
        let mut idx = KeywordIndex::new();
        idx.add_value("x", ColumnId(1));
        idx.add_value("x", ColumnId(1));
        assert_eq!(
            idx.search_keyword("x", SearchTarget::Values, Fuzziness::Exact),
            vec![ColumnId(1)]
        );
    }
}
