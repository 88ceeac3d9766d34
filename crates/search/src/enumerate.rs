//! Combination enumeration with the non-joinable cache (Algorithm 5,
//! lines 1-10).
//!
//! A *combination* picks one candidate column per query attribute; its
//! *table group* is the set of tables those columns live in. Join graphs are
//! generated per distinct table group (many combinations share a group).
//! When a table pair proves non-joinable, the pair is cached and every
//! combination containing it is skipped without touching the index — the
//! paper's "non-joinable pairs are cached to skip computation".

use std::ops::Range;
use ver_common::budget::QueryBudget;
use ver_common::fxhash::{FxHashMap, FxHashSet};
use ver_common::ids::{ColumnId, TableId};
use ver_index::{DiscoveryIndex, JoinGraph};
use ver_select::SelectionResult;

/// Result of the enumeration stage.
#[derive(Debug, Default)]
pub struct Enumeration {
    /// Combinations that survived the non-joinable cache: the chosen
    /// column per query attribute (query order), paired with the index of
    /// their table group in `groups`.
    pub combinations: Vec<(Vec<ColumnId>, usize)>,
    /// Every distinct table group's join graphs, group after group.
    pub graphs: Vec<JoinGraph>,
    /// Each distinct table group's range of `graphs` — empty for a group
    /// that cannot be joined.
    pub groups: Vec<Range<usize>>,
    /// Combinations skipped because of a cached non-joinable pair.
    pub skipped_by_cache: usize,
    /// Total combinations enumerated (before pruning).
    pub total_combinations: usize,
    /// `true` when the query's deadline stopped enumeration before the
    /// product was exhausted: everything above is what was enumerated up
    /// to that point.
    pub partial: bool,
}

impl Enumeration {
    /// Number of joinable table groups ("No. of Joinable Groups" in
    /// Figs. 5/6/8).
    pub fn joinable_group_count(&self) -> usize {
        self.groups.iter().filter(|g| !g.is_empty()).count()
    }

    /// Total join graphs across groups.
    pub fn join_graph_count(&self) -> usize {
        self.graphs.len()
    }
}

/// Enumerate combinations of `selection`'s per-attribute candidates and
/// resolve each group's join graphs via the index.
///
/// `max_combinations` bounds the cartesian product (ill-specified queries
/// can produce millions of combinations; the paper's COLUMN-SELECTION
/// rationale calls out detecting those). `budget`'s deadline is checked
/// once before each *new* table group is resolved — resolving a group is
/// the expensive step — and a trip stops enumeration with what it has,
/// flagged [`Enumeration::partial`]. A deadline-free budget never reads
/// the clock.
pub fn enumerate_combinations(
    index: &DiscoveryIndex,
    selection: &SelectionResult,
    rho: usize,
    max_combinations: usize,
    budget: &QueryBudget,
) -> Enumeration {
    let per_attr: Vec<Vec<ColumnId>> = selection
        .per_attribute
        .iter()
        .map(|a| a.candidates.iter().map(|c| c.id).collect())
        .collect();
    if per_attr.iter().any(|c| c.is_empty()) {
        return Enumeration::default();
    }

    let mut non_joinable: FxHashSet<(TableId, TableId)> = FxHashSet::default();
    let mut group_index: FxHashMap<Vec<TableId>, usize> = FxHashMap::default();
    let mut out = Enumeration::default();

    let mut counters = vec![0usize; per_attr.len()];
    'outer: loop {
        if out.total_combinations >= max_combinations {
            break;
        }
        out.total_combinations += 1;

        let columns: Vec<ColumnId> = counters
            .iter()
            .zip(&per_attr)
            .map(|(&i, cands)| cands[i])
            .collect();
        let mut tables: Vec<TableId> = columns.iter().map(|&c| index.table_of(c)).collect();
        tables.sort_unstable();
        tables.dedup();

        // Cache check: any known non-joinable pair in this group?
        let cached_bad = pair_iter(&tables).any(|p| non_joinable.contains(&p));
        if cached_bad {
            out.skipped_by_cache += 1;
        } else {
            let gi = match group_index.get(&tables) {
                Some(&gi) => gi,
                None => {
                    if budget.check("search.enumerate").is_err() {
                        out.partial = true;
                        break 'outer;
                    }
                    let graphs = index.generate_join_graphs(&tables, rho);
                    if graphs.is_empty() {
                        // Find and cache the offending pair(s): those whose
                        // own two-table group is empty.
                        for (a, b) in pair_iter(&tables) {
                            if index.generate_join_graphs(&[a, b], rho).is_empty() {
                                non_joinable.insert((a, b));
                            }
                        }
                    }
                    let start = out.graphs.len();
                    out.graphs.extend(graphs);
                    out.groups.push(start..out.graphs.len());
                    group_index.insert(tables, out.groups.len() - 1);
                    out.groups.len() - 1
                }
            };
            if !out.groups[gi].is_empty() {
                out.combinations.push((columns, gi));
            }
        }

        // Advance mixed-radix counter.
        for a in 0..per_attr.len() {
            counters[a] += 1;
            if counters[a] < per_attr[a].len() {
                continue 'outer;
            }
            counters[a] = 0;
        }
        break;
    }
    out
}

fn pair_iter(tables: &[TableId]) -> impl Iterator<Item = (TableId, TableId)> + '_ {
    tables
        .iter()
        .enumerate()
        .flat_map(move |(i, &a)| tables[i + 1..].iter().map(move |&b| (a, b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ver_common::value::Value;
    use ver_index::{build_index, IndexConfig};
    use ver_qbe::query::{ExampleQuery, QueryColumn};
    use ver_select::{column_selection, SelectionConfig};
    use ver_store::catalog::TableCatalog;
    use ver_store::table::TableBuilder;

    /// airports(iata, state) ⟷ states(state, pop); island(thing) disjoint.
    fn setup() -> DiscoveryIndex {
        let mut cat = TableCatalog::new();
        let states: Vec<String> = (0..40).map(|i| format!("st{i}")).collect();
        let mut b = TableBuilder::new("airports", &["iata", "state"]);
        for (i, s) in states.iter().enumerate() {
            b.push_row(vec![Value::text(format!("AP{i}")), Value::text(s.clone())])
                .unwrap();
        }
        cat.add_table(b.build()).unwrap();
        let mut b = TableBuilder::new("states", &["state", "pop"]);
        for (i, s) in states.iter().enumerate() {
            b.push_row(vec![Value::text(s.clone()), Value::Int(i as i64 * 1000)])
                .unwrap();
        }
        cat.add_table(b.build()).unwrap();
        // island has two columns with the same value space so a query can
        // produce two candidates in the same (unjoinable) table.
        let mut b = TableBuilder::new("island", &["thing", "thing_alias"]);
        for i in 0..40 {
            b.push_row(vec![
                Value::text(format!("thing{i}")),
                Value::text(format!("thing{}", (i + 1) % 40)),
            ])
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

    fn select(idx: &DiscoveryIndex, q: &ExampleQuery) -> SelectionResult {
        column_selection(
            idx,
            q,
            &SelectionConfig {
                theta: usize::MAX,
                ..Default::default()
            },
        )
    }

    #[test]
    fn same_table_combination_yields_empty_join_graph() {
        let idx = setup();
        let q = ExampleQuery::new(vec![
            QueryColumn::of_strs(&["AP1", "AP2"]),
            QueryColumn::of_strs(&["st1", "st2"]),
        ])
        .unwrap();
        let sel = select(&idx, &q);
        let e = enumerate_combinations(&idx, &sel, 2, 10_000, &QueryBudget::none());
        assert!(e.joinable_group_count() >= 1);
        // The (airports.iata, airports.state) combination is single-table.
        let single = e
            .combinations
            .iter()
            .find(|(c, _)| c.iter().all(|&col| idx.table_of(col) == idx.table_of(c[0])))
            .expect("single-table combination");
        assert_eq!(e.graphs[e.groups[single.1].start].hops(), 0);
    }

    #[test]
    fn cross_table_combination_finds_join_graphs() {
        let idx = setup();
        let q = ExampleQuery::new(vec![
            QueryColumn::of_strs(&["AP1", "AP2"]),
            QueryColumn::of_strs(&["1000", "2000"]),
        ])
        .unwrap();
        let sel = select(&idx, &q);
        let e = enumerate_combinations(&idx, &sel, 2, 10_000, &QueryBudget::none());
        assert_eq!(e.joinable_group_count(), 1);
        assert!(e.join_graph_count() >= 1);
        let (c, gi) = &e.combinations[0];
        let tables: FxHashSet<TableId> = c.iter().map(|&col| idx.table_of(col)).collect();
        assert_eq!(tables.len(), 2);
        assert_eq!(e.graphs[e.groups[*gi].start].hops(), 1);
    }

    #[test]
    fn disjoint_tables_are_cached_not_retried() {
        let idx = setup();
        let q = ExampleQuery::new(vec![
            QueryColumn::of_strs(&["AP1", "AP2"]),       // airports only
            QueryColumn::of_strs(&["thing1", "thing2"]), // island only
        ])
        .unwrap();
        let sel = select(&idx, &q);
        let e = enumerate_combinations(&idx, &sel, 2, 10_000, &QueryBudget::none());
        assert_eq!(e.joinable_group_count(), 0);
        assert!(e.combinations.is_empty());
    }

    #[test]
    fn cache_skips_subsequent_combinations() {
        let idx = setup();
        // attr1 "thing1" matches both island columns → two combinations with
        // the same unjoinable {airports, island} pair; the second must be
        // skipped by the cache, not re-probed.
        let q = ExampleQuery::new(vec![
            QueryColumn::of_strs(&["AP1", "AP2"]), // airports.iata only
            QueryColumn::of_strs(&["thing1"]),     // island.thing & island.thing_alias
        ])
        .unwrap();
        let sel = select(&idx, &q);
        assert_eq!(sel.per_attribute[1].candidates.len(), 2);
        let e = enumerate_combinations(&idx, &sel, 2, 10_000, &QueryBudget::none());
        assert_eq!(e.skipped_by_cache, 1, "second combination skipped by cache");
        assert!(e.combinations.is_empty());
    }

    #[test]
    fn an_unjoinable_triple_caches_exactly_its_unjoinable_pairs() {
        use ver_select::{AttributeCandidates, CandidateColumn};
        let idx = setup();
        // C0 airports.iata, C1 airports.state, C3 states.pop, C4/C5 the
        // island's two columns; only airports.state ⟷ states.state joins.
        let (a, s, i) = (TableId(0), TableId(1), TableId(2));
        for (c, t) in [(0, a), (1, a), (3, s), (4, i), (5, i)] {
            assert_eq!(idx.table_of(ColumnId(c)), t);
        }
        let attribute = |cols: &[u32]| AttributeCandidates {
            candidates: cols
                .iter()
                .map(|&c| CandidateColumn {
                    id: ColumnId(c),
                    overlap: 1,
                })
                .collect(),
            total_columns: cols.len(),
            num_clusters: cols.len(),
            clusters_selected: cols.len(),
        };
        let sel = SelectionResult {
            per_attribute: vec![attribute(&[0, 3]), attribute(&[3, 5]), attribute(&[4, 1])],
        };
        // In order (the first attribute varies fastest): {a,s,i} resolves
        // empty and caches (a,i) and (s,i); {s,i}, {a,i}, {s,i} are skipped;
        // {a,s} shares only the joinable pair and resolves, twice; {a,i}
        // and {a,s,i} are skipped.
        let e = enumerate_combinations(&idx, &sel, 2, 10_000, &QueryBudget::none());
        assert_eq!(e.total_combinations, 8);
        assert_eq!(e.skipped_by_cache, 5);
        assert_eq!(e.groups.len(), 2, "{{s,i}} and {{a,i}} never resolve");
        assert!(e.groups[0].is_empty());
        assert_eq!(e.joinable_group_count(), 1);
        let resolved: Vec<&[ColumnId]> = e.combinations.iter().map(|(c, _)| &c[..]).collect();
        assert_eq!(
            resolved,
            [
                &[ColumnId(0), ColumnId(3), ColumnId(1)][..],
                &[ColumnId(3), ColumnId(3), ColumnId(1)][..],
            ]
        );
        assert!(e.combinations.iter().all(|&(_, gi)| gi == 1));
    }

    #[test]
    fn empty_selection_short_circuits() {
        let idx = setup();
        let q = ExampleQuery::new(vec![QueryColumn::of_strs(&["nope"])]).unwrap();
        let sel = select(&idx, &q);
        let e = enumerate_combinations(&idx, &sel, 2, 10_000, &QueryBudget::none());
        assert_eq!(e.total_combinations, 0);
        assert!(e.combinations.is_empty());
    }

    #[test]
    fn max_combinations_caps_enumeration() {
        let idx = setup();
        let q = ExampleQuery::new(vec![
            QueryColumn::of_strs(&["st1", "st2"]),
            QueryColumn::of_strs(&["st3", "st4"]),
        ])
        .unwrap();
        let sel = select(&idx, &q);
        let e = enumerate_combinations(&idx, &sel, 2, 2, &QueryBudget::none());
        assert_eq!(e.total_combinations, 2);
    }
}
