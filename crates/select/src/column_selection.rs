//! COLUMN-SELECTION — Algorithm 4 of the paper.

use crate::cluster::connected_components;
use serde::{Deserialize, Serialize};
use ver_common::fxhash::FxHashMap;
use ver_common::ids::ColumnId;
use ver_index::{DiscoveryIndex, Fuzziness, SearchTarget};
use ver_qbe::query::{ExampleQuery, QueryColumn};

/// Hypergraph threshold of the connected-components clustering (line 5).
const CLUSTER_THRESHOLD: f64 = 0.8;

/// Tunables for column selection.
#[derive(Debug, Clone)]
pub struct SelectionConfig {
    /// Number of top score *levels* to keep (paper: θ = 1 keeps the
    /// highest-overlap clusters including ties; `usize::MAX` ≈ θ = ∞ keeps
    /// any cluster with non-empty overlap).
    pub theta: usize,
    /// Keyword-match fuzziness for example lookup.
    pub fuzzy: Fuzziness,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        SelectionConfig {
            theta: 1,
            fuzzy: Fuzziness::Exact,
        }
    }
}

/// A candidate column with its example-overlap score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CandidateColumn {
    /// The column.
    pub id: ColumnId,
    /// Number of distinct example values the column contains.
    pub overlap: usize,
}

/// Selection output for one query attribute, with the intermediate counts
/// the paper's microbenchmarks report (Fig. 8c).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttributeCandidates {
    /// Selected candidate columns (sorted by id).
    pub candidates: Vec<CandidateColumn>,
    /// Columns retrieved before clustering ("Total No. of Columns").
    pub total_columns: usize,
    /// Clusters formed ("No. of Clusters").
    pub num_clusters: usize,
    /// Clusters kept by the top-θ rule ("No. of Clusters Selected").
    pub clusters_selected: usize,
}

/// Full column-selection result: one entry per query attribute.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelectionResult {
    /// Per-attribute candidates, in query-column order.
    pub per_attribute: Vec<AttributeCandidates>,
}

impl SelectionResult {
    /// Total selected columns across attributes.
    pub fn total_selected(&self) -> usize {
        self.per_attribute.iter().map(|a| a.candidates.len()).sum()
    }
}

/// Run COLUMN-SELECTION for every attribute of `query`.
pub fn column_selection(
    index: &DiscoveryIndex,
    query: &ExampleQuery,
    config: &SelectionConfig,
) -> SelectionResult {
    let per_attribute = query
        .columns
        .iter()
        .map(|qc| select_for_attribute(index, qc, config))
        .collect();
    SelectionResult { per_attribute }
}

/// Algorithm 4 for a single attribute.
fn select_for_attribute(
    index: &DiscoveryIndex,
    qc: &QueryColumn,
    config: &SelectionConfig,
) -> AttributeCandidates {
    // Lines 2-4: retrieve columns per example; count overlap per column.
    let mut overlap: FxHashMap<ColumnId, usize> = FxHashMap::default();
    for example in qc.non_null() {
        let needle = example.normalized();
        for col in index.search_keyword(&needle, SearchTarget::Values, config.fuzzy) {
            *overlap.entry(col).or_insert(0) += 1;
        }
    }
    // Name hints retrieve by attribute name (VIEW-SPECIFICATION hands both).
    if let Some(hint) = &qc.name_hint {
        for col in index.search_keyword(hint, SearchTarget::Attributes, config.fuzzy) {
            overlap.entry(col).or_insert(0);
        }
    }

    let mut all: Vec<ColumnId> = overlap.keys().copied().collect();
    all.sort_unstable();
    let total_columns = all.len();

    // Line 5: cluster candidates by hypergraph connected components.
    let clusters = connected_components(index, &all, CLUSTER_THRESHOLD);
    let num_clusters = clusters.len();

    // Lines 6-7: score clusters by their best member overlap.
    let mut scored: Vec<(usize, &Vec<ColumnId>)> = clusters
        .iter()
        .map(|cluster| {
            let score = cluster
                .iter()
                .map(|c| overlap.get(c).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            (score, cluster)
        })
        .collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1[0].cmp(&b.1[0])));

    // Line 8: keep the top-θ score levels.
    let mut kept_levels: Vec<usize> = scored.iter().map(|(s, _)| *s).collect();
    kept_levels.dedup();
    kept_levels.truncate(config.theta);
    let min_kept = kept_levels.last().copied().unwrap_or(usize::MAX);

    let mut candidates: Vec<CandidateColumn> = Vec::new();
    let mut clusters_selected = 0;
    for (score, cluster) in &scored {
        if *score < min_kept || *score == 0 {
            continue;
        }
        clusters_selected += 1;
        candidates.extend(cluster.iter().map(|&id| CandidateColumn {
            id,
            overlap: overlap.get(&id).copied().unwrap_or(0),
        }));
    }
    candidates.sort_by_key(|c| c.id);
    candidates.dedup_by_key(|c| c.id);

    AttributeCandidates {
        candidates,
        total_columns,
        num_clusters,
        clusters_selected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ver_common::value::Value;
    use ver_index::{build_index, IndexConfig};
    use ver_store::catalog::TableCatalog;
    use ver_store::table::TableBuilder;

    /// Corpus with:
    /// * `truth.state`   (C0): state0..state49           — ground truth
    /// * `noisy.state`   (C1): state0..state39 + fake0..9 — noise column,
    ///   containment 40/50 = 0.8 w.r.t. truth
    /// * `other.city`    (C2): city0..city49             — unrelated
    fn setup() -> DiscoveryIndex {
        let mut cat = TableCatalog::new();
        let mut b = TableBuilder::new("truth", &["state"]);
        for i in 0..50 {
            b.push_row(vec![Value::text(format!("state{i}"))]).unwrap();
        }
        cat.add_table(b.build()).unwrap();
        let mut b = TableBuilder::new("noisy", &["state"]);
        for i in 0..40 {
            b.push_row(vec![Value::text(format!("state{i}"))]).unwrap();
        }
        for i in 0..10 {
            b.push_row(vec![Value::text(format!("fake{i}"))]).unwrap();
        }
        cat.add_table(b.build()).unwrap();
        let mut b = TableBuilder::new("other", &["city"]);
        for i in 0..50 {
            b.push_row(vec![Value::text(format!("city{i}"))]).unwrap();
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

    fn query(values: &[&str]) -> ExampleQuery {
        ExampleQuery::new(vec![QueryColumn::of_strs(values)]).unwrap()
    }

    #[test]
    fn clean_query_selects_ground_truth_cluster() {
        let idx = setup();
        let q = query(&["state1", "state2", "state3"]);
        let res = column_selection(&idx, &q, &SelectionConfig::default());
        let attr = &res.per_attribute[0];
        // Both state columns contain the examples; they cluster together.
        assert_eq!(attr.total_columns, 2);
        assert_eq!(attr.num_clusters, 1);
        assert_eq!(attr.clusters_selected, 1);
        let ids: Vec<ColumnId> = attr.candidates.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![ColumnId(0), ColumnId(1)]);
    }

    #[test]
    fn noisy_query_keeps_ground_truth_via_cluster() {
        let idx = setup();
        // 2 ground-truth values + 1 noise value only in `noisy.state`.
        let q = query(&["state1", "state2", "fake0"]);
        let res = column_selection(&idx, &q, &SelectionConfig::default());
        let attr = &res.per_attribute[0];
        // noise column has overlap 3, truth 2 — same cluster, so θ=1 keeps both.
        let ids: Vec<ColumnId> = attr.candidates.iter().map(|c| c.id).collect();
        assert!(
            ids.contains(&ColumnId(0)),
            "ground-truth column must survive"
        );
        assert!(ids.contains(&ColumnId(1)));
        let best = attr
            .candidates
            .iter()
            .find(|c| c.id == ColumnId(1))
            .unwrap();
        assert_eq!(best.overlap, 3);
    }

    #[test]
    fn theta_one_drops_low_scoring_disconnected_clusters() {
        let idx = setup();
        // Two state examples + one city example: city cluster scores 1 < 2.
        let q = query(&["state1", "state2", "city5"]);
        let res = column_selection(&idx, &q, &SelectionConfig::default());
        let attr = &res.per_attribute[0];
        assert_eq!(attr.num_clusters, 2);
        assert_eq!(attr.clusters_selected, 1);
        let ids: Vec<ColumnId> = attr.candidates.iter().map(|c| c.id).collect();
        assert!(
            !ids.contains(&ColumnId(2)),
            "city cluster must be dropped at θ=1"
        );
    }

    #[test]
    fn theta_infinite_keeps_all_nonempty_clusters() {
        let idx = setup();
        let q = query(&["state1", "city5"]);
        let cfg = SelectionConfig {
            theta: usize::MAX,
            ..Default::default()
        };
        let res = column_selection(&idx, &q, &cfg);
        let ids: Vec<ColumnId> = res.per_attribute[0]
            .candidates
            .iter()
            .map(|c| c.id)
            .collect();
        assert!(ids.contains(&ColumnId(0)));
        assert!(ids.contains(&ColumnId(2)));
    }

    #[test]
    fn unknown_values_yield_empty_attribute() {
        let idx = setup();
        let q = query(&["nonexistent1", "nonexistent2"]);
        let res = column_selection(&idx, &q, &SelectionConfig::default());
        assert!(res.per_attribute.iter().all(|a| a.candidates.is_empty()));
        assert_eq!(res.total_selected(), 0);
    }

    #[test]
    fn name_hint_retrieves_by_attribute() {
        let idx = setup();
        let q = ExampleQuery::new(vec![QueryColumn::of_values(vec![Value::Null]).named("city")])
            .unwrap();
        let res = column_selection(&idx, &q, &SelectionConfig::default());
        // hint-only columns have overlap 0 → dropped by the `score == 0`
        // guard unless θ admits them; check retrieval happened.
        assert_eq!(res.per_attribute[0].total_columns, 1);
    }

    #[test]
    fn multi_attribute_queries_select_independently() {
        let idx = setup();
        let q = ExampleQuery::new(vec![
            QueryColumn::of_strs(&["state1", "state2"]),
            QueryColumn::of_strs(&["city1", "city2"]),
        ])
        .unwrap();
        let res = column_selection(&idx, &q, &SelectionConfig::default());
        assert_eq!(res.per_attribute.len(), 2);
        let a0: Vec<ColumnId> = res.per_attribute[0]
            .candidates
            .iter()
            .map(|c| c.id)
            .collect();
        let a1: Vec<ColumnId> = res.per_attribute[1]
            .candidates
            .iter()
            .map(|c| c.id)
            .collect();
        assert!(a0.contains(&ColumnId(0)));
        assert_eq!(a1, vec![ColumnId(2)]);
    }

    #[test]
    fn fuzzy_matching_recovers_typos() {
        let idx = setup();
        let q = query(&["statte1", "state2"]); // one edit away
        let cfg = SelectionConfig {
            fuzzy: Fuzziness::MaxEdits(1),
            ..Default::default()
        };
        let res = column_selection(&idx, &q, &cfg);
        let attr = &res.per_attribute[0];
        let best_overlap = attr.candidates.iter().map(|c| c.overlap).max().unwrap();
        assert_eq!(best_overlap, 2, "both examples should match fuzzily");
    }
}
