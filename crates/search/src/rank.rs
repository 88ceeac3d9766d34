//! Join-score ranking (Algorithm 5, step 2).
//!
//! "The discovery engine ranks views according to how well join graphs
//! approximate PK/FK, and according to the size of the join graph; smaller
//! graphs rank higher." PK/FK-ness of an edge = its containment score ×
//! the key-ness (distinct ratio) of its stronger endpoint; the graph score
//! averages its edges and discounts by size.
//!
//! Ranking is a **total order on graph content**: score descending, ties
//! broken by the graph's canonical edge form ([`ver_index::canon_into`])
//! ascending ([`rank_order`]); the search adds the projection as the last
//! tie-break, which makes every candidate's key unique. [`top_k_by`] is the
//! one cut. That makes the ranked order independent of candidate *input*
//! order — the property the parallel online path relies on for
//! bit-identical results across thread counts, and the one
//! `crates/search/tests/rank_properties.rs` pins down.

use std::cmp::Ordering;
use ver_index::{DiscoveryIndex, JoinGraph};

/// Join score of a graph in `[0, 1]`; empty (single-table) graphs score 1.
pub fn join_score(index: &DiscoveryIndex, graph: &JoinGraph) -> f64 {
    if graph.edges.is_empty() {
        return 1.0;
    }
    let mean_edge: f64 = graph
        .edges
        .iter()
        .map(|e| {
            let keyness = index
                .profile(e.left)
                .distinct_ratio()
                .max(index.profile(e.right).distinct_ratio());
            e.score as f64 * keyness
        })
        .sum::<f64>()
        / graph.edges.len() as f64;
    // Smaller graphs rank higher: hop discount.
    mean_edge / (1.0 + 0.25 * graph.edges.len() as f64)
}

/// Total-order comparator for ranked candidates: score descending, then
/// canonical edge form ascending — over column ids in the search's top-k
/// cut, over column refs in the scatter/gather merge. Scores must be
/// finite (`join_score` guarantees it); `total_cmp` keeps the comparator
/// total regardless.
pub fn rank_order<T: Ord>(a_score: f64, a_canon: &[T], b_score: f64, b_canon: &[T]) -> Ordering {
    b_score
        .total_cmp(&a_score)
        .then_with(|| a_canon.cmp(b_canon))
}

/// Keep the `k` least of `items` under `cmp`, sorted ascending: the top-k
/// cut, in O(n + k log k) comparisons (select, then sort the survivors).
/// Under a total order with unique keys — [`rank_order`] plus the
/// projection tie-break over search candidates — it equals "sort all, then
/// truncate to `k`".
pub fn top_k_by<T>(items: &mut Vec<T>, k: usize, cmp: impl Fn(&T, &T) -> Ordering) {
    if k < items.len() {
        items.select_nth_unstable_by(k, &cmp);
        items.truncate(k);
    }
    items.sort_unstable_by(cmp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ver_common::value::Value;
    use ver_index::{build_index, IndexConfig, JoinGraphEdge};
    use ver_store::catalog::TableCatalog;
    use ver_store::table::TableBuilder;

    /// key-to-key join (both unique) vs fk-to-fk join (low distinct ratio).
    fn setup() -> DiscoveryIndex {
        let mut cat = TableCatalog::new();
        // T0: unique key; T1: same unique key; T2/T3: repeated category col.
        let mut b = TableBuilder::new("t0", &["k"]);
        for i in 0..40 {
            b.push_row(vec![Value::text(format!("k{i}"))]).unwrap();
        }
        cat.add_table(b.build()).unwrap();
        let mut b = TableBuilder::new("t1", &["k"]);
        for i in 0..40 {
            b.push_row(vec![Value::text(format!("k{i}"))]).unwrap();
        }
        cat.add_table(b.build()).unwrap();
        for name in ["t2", "t3"] {
            let mut b = TableBuilder::new(name, &["cat"]);
            for i in 0..40 {
                b.push_row(vec![Value::text(format!("c{}", i % 4))])
                    .unwrap();
            }
            cat.add_table(b.build()).unwrap();
        }
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

    fn edge(l: u32, r: u32, score: f32) -> JoinGraphEdge {
        JoinGraphEdge {
            left: ver_common::ids::ColumnId(l),
            right: ver_common::ids::ColumnId(r),
            score,
        }
    }

    #[test]
    fn key_joins_outscore_category_joins() {
        let idx = setup();
        let key_edge = JoinGraph {
            edges: vec![edge(0, 1, 1.0)],
        };
        let cat_edge = JoinGraph {
            edges: vec![edge(2, 3, 1.0)],
        };
        assert!(join_score(&idx, &key_edge) > join_score(&idx, &cat_edge));
    }

    #[test]
    fn single_table_scores_highest() {
        let idx = setup();
        let empty = JoinGraph::default();
        assert_eq!(join_score(&idx, &empty), 1.0);
    }

    #[test]
    fn more_hops_score_lower() {
        let idx = setup();
        let e = edge(0, 1, 1.0);
        let one = JoinGraph { edges: vec![e] };
        let two = JoinGraph { edges: vec![e, e] };
        assert!(join_score(&idx, &one) > join_score(&idx, &two));
    }

    /// Graph indices in the order the search ranks them: one
    /// `(score, canon)` key per graph, cut by [`top_k_by`] under
    /// [`rank_order`].
    fn ranked(idx: &DiscoveryIndex, graphs: &[JoinGraph]) -> Vec<usize> {
        let keys: Vec<(f64, Vec<(u32, u32)>)> = graphs
            .iter()
            .map(|g| (join_score(idx, g), g.canon()))
            .collect();
        let mut order: Vec<usize> = (0..graphs.len()).collect();
        top_k_by(&mut order, usize::MAX, |&a, &b| {
            rank_order(keys[a].0, &keys[a].1, keys[b].0, &keys[b].1)
        });
        order
    }

    #[test]
    fn ranking_orders_by_score_desc() {
        let idx = setup();
        let graphs = [
            JoinGraph {
                edges: vec![edge(2, 3, 1.0)],
            },
            JoinGraph {
                edges: vec![edge(0, 1, 1.0)],
            },
        ];
        assert_eq!(ranked(&idx, &graphs), vec![1, 0], "the key join first");
    }

    #[test]
    fn canon_ignores_edge_order_and_orientation() {
        let fwd = JoinGraph {
            edges: vec![edge(0, 1, 1.0), edge(2, 3, 0.9)],
        };
        let rev = JoinGraph {
            edges: vec![edge(3, 2, 0.5), edge(1, 0, 0.5)],
        };
        assert_eq!(fwd.canon(), rev.canon());
        assert_eq!(fwd.canon(), vec![(0, 1), (2, 3)]);
        assert!(JoinGraph::default().canon().is_empty());
    }

    #[test]
    fn ties_break_by_canonical_form() {
        let idx = setup();
        // t0.k—t1.k both ways round: same score, same canon → one order.
        let a = JoinGraph {
            edges: vec![edge(2, 3, 1.0)],
        };
        let b = JoinGraph {
            edges: vec![edge(0, 1, 1.0)],
        };
        let sa = join_score(&idx, &a);
        let sb = join_score(&idx, &b);
        // Comparator is total and antisymmetric.
        let ab = rank_order(sa, &a.canon(), sb, &b.canon());
        let ba = rank_order(sb, &b.canon(), sa, &a.canon());
        assert_eq!(ab, ba.reverse());
        // Equal scores fall back to canon order.
        assert_eq!(rank_order(0.5, &[(0, 1)], 0.5, &[(2, 3)]), Ordering::Less);
    }

    #[test]
    fn negative_scores_sort_consistently_with_rank_order() {
        // JoinGraphEdge.score is pub and unconstrained; a hostile caller
        // can produce negative join scores. The cut must still agree with
        // rank_order (score descending under total_cmp).
        let idx = setup();
        let graphs = [
            JoinGraph {
                edges: vec![edge(0, 1, -1.0)],
            },
            JoinGraph {
                edges: vec![edge(2, 3, 1.0)],
            },
        ];
        assert_eq!(
            ranked(&idx, &graphs),
            vec![1, 0],
            "negative scores rank last"
        );
        let (neg, pos) = (&graphs[0], &graphs[1]);
        assert_eq!(
            rank_order(
                join_score(&idx, pos),
                &pos.canon(),
                join_score(&idx, neg),
                &neg.canon()
            ),
            Ordering::Less
        );
    }
}
