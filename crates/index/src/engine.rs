//! The online Discovery Engine API.
//!
//! [`DiscoveryIndex`] bundles what online discovery reads of the offline
//! pass — column profiles, keyword postings and the join hypergraph — and
//! exposes the three functions the paper's Appendix A specifies
//! (SEARCH-KEYWORD, NEIGHBORS, GENERATE-JOIN-GRAPHS) plus the lookups
//! downstream components need (profiles, column↔table resolution, Table-I
//! statistics). The build's MinHash signatures and hash vectors are not
//! part of it: they end with [`crate::build_index`].

use crate::builder::IndexConfig;
use crate::hypergraph::JoinHypergraph;
use crate::joinpath::{generate_join_graphs, JoinGraph, JoinGraphOptions};
use crate::valueindex::{Fuzziness, KeywordIndex, SearchTarget};
use ver_common::ids::{ColumnId, TableId};
use ver_store::profile::ColumnProfile;

/// The assembled discovery index (Aurum substitute).
#[derive(Debug, Clone)]
pub struct DiscoveryIndex {
    config: IndexConfig,
    profiles: Vec<ColumnProfile>,
    keyword: KeywordIndex,
    hypergraph: JoinHypergraph,
}

impl DiscoveryIndex {
    /// Assemble from parts (used by the builder and the decoders).
    pub(crate) fn assemble(
        config: IndexConfig,
        profiles: Vec<ColumnProfile>,
        keyword: KeywordIndex,
        hypergraph: JoinHypergraph,
    ) -> Self {
        DiscoveryIndex {
            config,
            profiles,
            keyword,
            hypergraph,
        }
    }

    /// Build configuration used.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Profile of a column.
    pub fn profile(&self, c: ColumnId) -> &ColumnProfile {
        &self.profiles[c.idx()]
    }

    /// All profiles (ColumnId order).
    pub fn profiles(&self) -> &[ColumnProfile] {
        &self.profiles
    }

    /// The join hypergraph.
    pub fn hypergraph(&self) -> &JoinHypergraph {
        &self.hypergraph
    }

    /// The keyword index (exposed for inspection and determinism tests).
    pub fn keyword_index(&self) -> &KeywordIndex {
        &self.keyword
    }

    /// `true` when two indexes hold identical contents — profiles, keyword
    /// postings, and the full hypergraph adjacency. This is the
    /// determinism contract of the parallel builder: `threads: 1` and
    /// `threads: N` must produce indexes for which this holds. The build
    /// config itself (which records the thread count) is deliberately not
    /// compared.
    pub fn same_contents(&self, other: &DiscoveryIndex) -> bool {
        self.profiles == other.profiles
            && self.keyword == other.keyword
            && self.hypergraph == other.hypergraph
    }

    /// Owning table of a column.
    pub fn table_of(&self, c: ColumnId) -> TableId {
        self.hypergraph.table_of(c)
    }

    /// SEARCH-KEYWORD (Appendix A).
    pub fn search_keyword(
        &self,
        keyword: &str,
        target: SearchTarget,
        fuzzy: Fuzziness,
    ) -> Vec<ColumnId> {
        self.keyword.search_keyword(keyword, target, fuzzy)
    }

    /// NEIGHBORS (Appendix A): joinable columns at containment ≥ threshold.
    pub fn neighbors(&self, c: ColumnId, threshold: f64) -> Vec<(ColumnId, f32)> {
        self.hypergraph.neighbors(c, threshold)
    }

    /// GENERATE-JOIN-GRAPHS (Appendix A): join graphs connecting `tables`
    /// with per-connection hop limit `rho` — empty when some pair of them
    /// cannot be connected, which Algorithm 5's non-joinable cache asks of
    /// each pair of an empty group.
    pub fn generate_join_graphs(&self, tables: &[TableId], rho: usize) -> Vec<JoinGraph> {
        let opts = JoinGraphOptions {
            max_hops: rho,
            threshold: self.config.containment_threshold,
            max_graphs: 10_000,
        };
        generate_join_graphs(&self.hypergraph, tables, opts)
    }

    /// Number of undirected joinable column pairs (Table I).
    pub fn joinable_pairs(&self) -> usize {
        self.hypergraph.joinable_pairs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_index;
    use ver_common::value::Value;
    use ver_store::catalog::TableCatalog;
    use ver_store::table::TableBuilder;

    fn setup() -> DiscoveryIndex {
        let mut cat = TableCatalog::new();
        let keys: Vec<String> = (0..80).map(|i| format!("k{i}")).collect();
        let mut b = TableBuilder::new("left", &["key", "a"]);
        for (i, k) in keys.iter().enumerate() {
            b.push_row(vec![Value::text(k.clone()), Value::Int(i as i64)])
                .unwrap();
        }
        cat.add_table(b.build()).unwrap();
        let mut b = TableBuilder::new("right", &["key", "b"]);
        for (i, k) in keys.iter().enumerate() {
            b.push_row(vec![Value::text(k.clone()), Value::Int(-(i as i64))])
                .unwrap();
        }
        cat.add_table(b.build()).unwrap();
        build_index(
            &cat,
            IndexConfig {
                threads: 1,
                verify_exact: true,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn api_surface_works_end_to_end() {
        let idx = setup();
        // keyword → column
        let hits = idx.search_keyword("k5", SearchTarget::Values, Fuzziness::Exact);
        assert_eq!(hits.len(), 2);
        // neighbors
        let n = idx.neighbors(ColumnId(0), 0.8);
        assert_eq!(n.len(), 1);
        assert_eq!(idx.table_of(n[0].0), TableId(1));
        // join graphs
        let jgs = idx.generate_join_graphs(&[TableId(0), TableId(1)], 2);
        assert_eq!(jgs.len(), 1);
        assert_eq!(jgs[0].hops(), 1);
        // stats
        assert_eq!(idx.joinable_pairs(), 1);
    }

    #[test]
    fn profiles_align_with_columns() {
        let idx = setup();
        assert_eq!(idx.profiles().len(), 4);
        assert_eq!(idx.profile(ColumnId(0)).distinct, 80);
    }
}
