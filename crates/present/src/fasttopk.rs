//! The FastTopK baseline (S4, citation 35 of the paper): overlap-scored ranking plus a simulated
//! scanning user.
//!
//! The paper's user study compares Ver's presentation against "a ranking of
//! views as produced by overlap-based ranking mechanism of FastTopK": views
//! are scored by how many query example values they contain and the user
//! manually scans the ranked list. The scan user inspects views top-down
//! with a patience budget; the study's FastTopK failures are users running
//! out of patience before reaching the target.

use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::cmp::Reverse;
use ver_common::fxhash::FxHashSet;
use ver_common::ids::ViewId;
use ver_engine::view::View;
use ver_qbe::ExampleQuery;

/// Rank views by example-overlap score, descending (ties: larger views
/// first, then by id). Each view's sort key is computed once.
pub fn fasttopk_rank<V: Borrow<View>>(views: &[V], query: &ExampleQuery) -> Vec<(ViewId, usize)> {
    let examples: Vec<String> = query.all_example_strings();
    let mut scored: Vec<(usize, usize, ViewId)> = views
        .iter()
        .map(|v| {
            let v = v.borrow();
            (overlap_score(v, &examples), v.row_count(), v.id)
        })
        .collect();
    scored.sort_unstable_by_key(|&(overlap, rows, id)| (Reverse(overlap), Reverse(rows), id));
    scored
        .into_iter()
        .map(|(overlap, _, id)| (id, overlap))
        .collect()
}

/// Number of distinct query example values present anywhere in the view.
pub fn overlap_score(view: &View, examples: &[String]) -> usize {
    let mut values: FxHashSet<String> = FxHashSet::default();
    // Forces the gather: overlap is counted over cell values.
    for col in view.table.columns() {
        for v in col.non_null() {
            values.insert(v.normalized());
        }
    }
    examples.iter().filter(|e| values.contains(*e)).count()
}

/// Result of a simulated scan over a ranked list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanOutcome {
    /// Whether the target was reached within the budget.
    pub found: bool,
    /// Views inspected (= 1-based position of the target when found,
    /// otherwise the full budget).
    pub inspected: usize,
}

/// Simulate a user scanning `ranked` top-down for `target`, giving up after
/// `budget` inspections.
pub fn simulate_scan(ranked: &[(ViewId, usize)], target: ViewId, budget: usize) -> ScanOutcome {
    for (i, &(v, _)) in ranked.iter().take(budget).enumerate() {
        if v == target {
            return ScanOutcome {
                found: true,
                inspected: i + 1,
            };
        }
    }
    ScanOutcome {
        found: false,
        inspected: budget.min(ranked.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ver_common::value::Value;
    use ver_engine::view::Provenance;
    use ver_store::table::TableBuilder;

    fn view(id: u32, rows: &[(&str, i64)]) -> View {
        let mut b = TableBuilder::new("v", &["state", "pop"]);
        for (s, p) in rows {
            b.push_row(vec![Value::text(*s), Value::Int(*p)]).unwrap();
        }
        View::new(ViewId(id), b.build(), Provenance::default())
    }

    fn query() -> ExampleQuery {
        ExampleQuery::from_rows(&[vec!["IN", "1"], vec!["GA", "2"]]).unwrap()
    }

    #[test]
    fn overlap_counts_distinct_example_hits() {
        let v = view(0, &[("IN", 1), ("TX", 3)]);
        // examples are {in, ga, 1, 2}; view contains in and 1.
        assert_eq!(overlap_score(&v, &query().all_example_strings()), 2);
    }

    #[test]
    fn ranking_orders_by_overlap() {
        let views = vec![
            view(0, &[("TX", 3)]),            // 0 hits
            view(1, &[("IN", 1), ("GA", 2)]), // 4 hits
            view(2, &[("IN", 5)]),            // 1 hit
        ];
        let ranked = fasttopk_rank(&views, &query());
        assert_eq!(ranked[0].0, ViewId(1));
        assert_eq!(ranked[1].0, ViewId(2));
        assert_eq!(ranked[2].0, ViewId(0));
    }

    #[test]
    fn scan_finds_target_within_budget() {
        let ranked = vec![(ViewId(3), 5), (ViewId(1), 4), (ViewId(0), 2)];
        let hit = simulate_scan(&ranked, ViewId(1), 10);
        assert_eq!(
            hit,
            ScanOutcome {
                found: true,
                inspected: 2
            }
        );
        let miss = simulate_scan(&ranked, ViewId(0), 2);
        assert_eq!(
            miss,
            ScanOutcome {
                found: false,
                inspected: 2
            }
        );
    }

    #[test]
    fn scan_budget_exceeding_list_len_reports_list_len() {
        let ranked = vec![(ViewId(0), 1)];
        let miss = simulate_scan(&ranked, ViewId(9), 10);
        assert_eq!(miss.inspected, 1);
    }

    #[test]
    fn ties_broken_deterministically() {
        let views = vec![view(1, &[("IN", 1)]), view(0, &[("IN", 1)])];
        let ranked = fasttopk_rank(&views, &query());
        assert_eq!(ranked[0].0, ViewId(0), "equal score+size → lower id first");
    }
}
