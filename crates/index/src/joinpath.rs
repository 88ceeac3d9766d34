//! Join-graph enumeration: the Aurum API's `GENERATE-JOIN-GRAPHS(tables, ρ)`.
//!
//! A *join graph* is a tree over tables whose edges are joinable column
//! pairs from the hypergraph; materialising it (and projecting) yields a
//! candidate PJ-view. Given the set of tables holding a candidate-column
//! combination, this module enumerates every join graph connecting them
//! where each required-pair connection uses at most `ρ` hops (possibly
//! through intermediate tables), exactly the setting of the paper's
//! evaluation (`ρ = 2`).
//!
//! Enumeration strategy: (1) enumerate column-edge *paths* of length ≤ ρ
//! between every required pair (DFS, no repeated tables). Two required
//! tables — nearly every group the search resolves — are done here: a
//! simple path is a tree and distinct paths have distinct edge sets, so
//! the pair's paths are its graphs. For three or more: (2) enumerate
//! spanning trees over the required tables (Prüfer sequences — required
//! sets are small, ≤ 4 in the paper's workloads); (3) take the Cartesian
//! product of path choices per tree edge, keeping a union only if it has
//! one table more than it has edges — it is always connected, so that
//! count is the tree test; (4) drop unions already seen: within one
//! spanning tree the paths of a tree-shaped union are forced, so repeats
//! only come from different trees. A `max_graphs` cap bounds worst-case
//! blowup on dense corpora.

use crate::hypergraph::JoinHypergraph;
use serde::{Deserialize, Serialize};
use ver_common::error::Result;
use ver_common::fxhash::FxHashSet;
use ver_common::ids::{ColumnId, ColumnRef, TableId};
use ver_store::catalog::TableCatalog;

/// One edge of a join graph: join `left`'s column to `right`'s column.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JoinGraphEdge {
    /// Column on one side.
    pub left: ColumnId,
    /// Column on the other side.
    pub right: ColumnId,
    /// Containment score of the inclusion dependency.
    pub score: f32,
}

/// A tree of join edges over tables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct JoinGraph {
    /// Edges in enumeration order: each path's edges as its DFS walked
    /// them, paths in spanning-tree edge order. Plan linearisation
    /// (`PjPlan::from_edges`) follows this order; [`JoinGraph::canon`] is
    /// the order-free form.
    pub edges: Vec<JoinGraphEdge>,
}

impl JoinGraph {
    /// Number of join hops.
    pub fn hops(&self) -> usize {
        self.edges.len()
    }

    /// Mean containment score of the edges (1.0 for the empty graph).
    /// Used with size for ranking: the discovery engine "ranks views
    /// according to how well join graphs approximate PK/FK, and according to
    /// the size of the join graph; smaller graphs rank higher".
    pub fn mean_score(&self) -> f64 {
        if self.edges.is_empty() {
            return 1.0;
        }
        self.edges.iter().map(|e| e.score as f64).sum::<f64>() / self.edges.len() as f64
    }

    /// All tables touched, given the hypergraph for column→table resolution.
    pub fn tables(&self, g: &JoinHypergraph) -> Vec<TableId> {
        let mut out: Vec<TableId> = self
            .edges
            .iter()
            .flat_map(|e| [g.table_of(e.left), g.table_of(e.right)])
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The edges as `(left, right)` column refs resolved through `catalog`
    /// — the input of `ver_engine`'s one linearisation,
    /// `PjPlan::from_edges`.
    pub fn column_edges(&self, catalog: &TableCatalog) -> Result<Vec<(ColumnRef, ColumnRef)>> {
        self.edges
            .iter()
            .map(|e| Ok((catalog.column_ref(e.left)?, catalog.column_ref(e.right)?)))
            .collect()
    }

    /// Canonical form of the edge set over column ids ([`canon_into`]).
    /// The dedup key of join-graph enumeration and the tie-break of the
    /// search's top-k cut.
    pub fn canon(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.edges.len());
        canon_into(self.edges.iter().map(|e| (e.left.0, e.right.0)), &mut out);
        out
    }
}

/// The canonical form of an edge set, written into `out` (cleared first so
/// a loop can reuse one buffer): each edge's endpoints in ascending order,
/// then the edges ascending — equal for any edge order or orientation.
///
/// The one definition, generic over the endpoint: column ids in join-graph
/// generation and the search's top-k cut ([`JoinGraph::canon`]), column
/// refs in the scatter/gather merge, which reads a view's provenance. The
/// two forms order graphs alike because the catalog numbers columns in
/// `(table, ordinal)` order (`TableCatalog::add_table`), so the map from
/// id to ref is strictly increasing.
pub fn canon_into<T: Ord + Copy>(edges: impl IntoIterator<Item = (T, T)>, out: &mut Vec<(T, T)>) {
    out.clear();
    out.extend(edges.into_iter().map(|(a, b)| (a.min(b), a.max(b))));
    out.sort_unstable();
}

/// A path between two required tables: a sequence of column edges.
type Path = Vec<JoinGraphEdge>;

/// Enumerate column-edge paths of ≤ `max_hops` between `from` and `to`,
/// never revisiting a table.
fn paths_between(
    g: &JoinHypergraph,
    from: TableId,
    to: TableId,
    max_hops: usize,
    threshold: f64,
    cap: usize,
) -> Vec<Path> {
    debug_assert_ne!(from, to, "callers dedup the required tables");
    let mut out = Vec::new();
    let mut stack: Vec<JoinGraphEdge> = Vec::new();
    let mut visited: Vec<TableId> = vec![from];
    dfs(
        g,
        from,
        to,
        max_hops,
        threshold,
        cap,
        &mut stack,
        &mut visited,
        &mut out,
    );
    out
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    g: &JoinHypergraph,
    cur: TableId,
    to: TableId,
    hops_left: usize,
    threshold: f64,
    cap: usize,
    stack: &mut Vec<JoinGraphEdge>,
    visited: &mut Vec<TableId>,
    out: &mut Vec<Path>,
) {
    if out.len() >= cap || hops_left == 0 {
        return;
    }
    // Direct edges first (shorter paths enumerate earlier).
    for (ca, cb, s) in g.edges_between(cur, to, threshold) {
        stack.push(JoinGraphEdge {
            left: ca,
            right: cb,
            score: s,
        });
        out.push(stack.clone());
        stack.pop();
        if out.len() >= cap {
            return;
        }
    }
    if hops_left == 1 {
        return;
    }
    for next in g.table_neighbors(cur, threshold) {
        if next == to || visited.contains(&next) {
            continue;
        }
        for (ca, cb, s) in g.edges_between(cur, next, threshold) {
            stack.push(JoinGraphEdge {
                left: ca,
                right: cb,
                score: s,
            });
            visited.push(next);
            dfs(
                g,
                next,
                to,
                hops_left - 1,
                threshold,
                cap,
                stack,
                visited,
                out,
            );
            visited.pop();
            stack.pop();
            if out.len() >= cap {
                return;
            }
        }
    }
}

/// Enumerate all labelled trees on `n` nodes via Prüfer sequences.
/// Returns edge lists of node *indices*. `n` is at most the query arity
/// (≤ 4 in the paper's workloads), so `n^(n-2)` stays tiny.
fn labelled_trees(n: usize) -> Vec<Vec<(usize, usize)>> {
    assert!(n >= 1);
    if n == 1 {
        return vec![vec![]];
    }
    if n == 2 {
        return vec![vec![(0, 1)]];
    }
    let seq_len = n - 2;
    let total = n.pow(seq_len as u32);
    let mut trees = Vec::with_capacity(total);
    for code in 0..total {
        // Decode the Prüfer sequence.
        let mut seq = Vec::with_capacity(seq_len);
        let mut c = code;
        for _ in 0..seq_len {
            seq.push(c % n);
            c /= n;
        }
        // Standard Prüfer decoding.
        let mut degree = vec![1usize; n];
        for &s in &seq {
            degree[s] += 1;
        }
        let mut edges = Vec::with_capacity(n - 1);
        let mut leaf_heap: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
            .filter(|&i| degree[i] == 1)
            .map(std::cmp::Reverse)
            .collect();
        let mut deg = degree;
        for &s in &seq {
            let std::cmp::Reverse(leaf) = leaf_heap.pop().expect("tree has a leaf");
            edges.push((leaf.min(s), leaf.max(s)));
            deg[s] -= 1;
            if deg[s] == 1 {
                leaf_heap.push(std::cmp::Reverse(s));
            }
        }
        let std::cmp::Reverse(u) = leaf_heap.pop().expect("two nodes left");
        let std::cmp::Reverse(v) = leaf_heap.pop().expect("two nodes left");
        edges.push((u.min(v), u.max(v)));
        trees.push(edges);
    }
    trees
}

/// Options for join-graph enumeration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JoinGraphOptions {
    /// Maximum hops per required-pair connection (paper default: 2).
    pub max_hops: usize,
    /// Containment threshold applied when walking the hypergraph.
    pub threshold: f64,
    /// Upper bound on returned join graphs.
    pub max_graphs: usize,
}

/// `GENERATE-JOIN-GRAPHS(tables, ρ)`: all join graphs connecting `tables`.
///
/// Returns the empty-graph singleton when all required columns live in one
/// table, and an empty vec when some pair of tables cannot be connected.
pub(crate) fn generate_join_graphs(
    g: &JoinHypergraph,
    tables: &[TableId],
    opts: JoinGraphOptions,
) -> Vec<JoinGraph> {
    let mut required: Vec<TableId> = tables.to_vec();
    required.sort_unstable();
    required.dedup();
    let n = required.len();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![JoinGraph::default()];
    }
    let paths = |i: usize, j: usize| {
        paths_between(
            g,
            required[i],
            required[j],
            opts.max_hops,
            opts.threshold,
            opts.max_graphs,
        )
    };
    if n == 2 {
        // A simple path is a tree, and distinct paths have distinct edge
        // sets (the hypergraph holds each column pair once), so neither the
        // tree test nor the dedup below could reject or change one: the
        // pair's paths, capped at `max_graphs` already, are the graphs.
        return paths(0, 1)
            .into_iter()
            .map(|edges| JoinGraph { edges })
            .collect();
    }

    // Pairwise path sets, `pair_paths[i][j]` for `i < j`.
    let pair_paths: Vec<Vec<Vec<Path>>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| if i < j { paths(i, j) } else { Vec::new() })
                .collect()
        })
        .collect();

    let mut out: Vec<JoinGraph> = Vec::new();
    let mut seen: FxHashSet<Vec<(u32, u32)>> = FxHashSet::default();
    // Scratch reused by every candidate of the product; only an accepted
    // graph allocates (its edge list and its dedup key).
    let mut edges: Vec<JoinGraphEdge> = Vec::new();
    let mut canon: Vec<(u32, u32)> = Vec::new();
    let mut union_tables: Vec<TableId> = Vec::new();

    for tree in labelled_trees(n) {
        // Every tree edge needs at least one path.
        if tree.iter().any(|&(i, j)| pair_paths[i][j].is_empty()) {
            continue;
        }
        // Cartesian product over path choices per tree edge.
        let mut choice = vec![0usize; tree.len()];
        'product: loop {
            // Assemble candidate graph.
            edges.clear();
            for (e, &(i, j)) in tree.iter().enumerate() {
                edges.extend_from_slice(&pair_paths[i][j][choice[e]]);
            }
            // The union is connected — the tree spans the required tables
            // and each path joins its tree edge's two ends — so it is a
            // tree iff it has one table more than it has edges.
            union_tables.clear();
            union_tables.extend(
                edges
                    .iter()
                    .flat_map(|e| [g.table_of(e.left), g.table_of(e.right)]),
            );
            union_tables.sort_unstable();
            union_tables.dedup();
            if union_tables.len() == edges.len() + 1 {
                canon_into(edges.iter().map(|e| (e.left.0, e.right.0)), &mut canon);
                if !seen.contains(canon.as_slice()) {
                    seen.insert(canon.clone());
                    out.push(JoinGraph {
                        edges: edges.clone(),
                    });
                    if out.len() >= opts.max_graphs {
                        return out;
                    }
                }
            }
            // Advance the mixed-radix counter.
            for e in 0..tree.len() {
                choice[e] += 1;
                if choice[e] < pair_paths[tree[e].0][tree[e].1].len() {
                    continue 'product;
                }
                choice[e] = 0;
            }
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// T0{C0,C1} T1{C2,C3} T2{C4,C5} T3{C6}:
    /// C1-C2 (T0-T1), C3-C4 (T1-T2), C0-C5 (T0-T2), C6 isolated in T3.
    fn graph() -> JoinHypergraph {
        let col_table = vec![
            TableId(0),
            TableId(0),
            TableId(1),
            TableId(1),
            TableId(2),
            TableId(2),
            TableId(3),
        ];
        let mut g = JoinHypergraph::new(col_table);
        g.add_edge(ColumnId(1), ColumnId(2), 0.95);
        g.add_edge(ColumnId(3), ColumnId(4), 0.9);
        g.add_edge(ColumnId(0), ColumnId(5), 0.85);
        g.finalize();
        g
    }

    fn opts() -> JoinGraphOptions {
        JoinGraphOptions {
            max_hops: 2,
            threshold: 0.8,
            max_graphs: 1000,
        }
    }

    #[test]
    fn single_table_yields_empty_graph() {
        let g = graph();
        let jgs = generate_join_graphs(&g, &[TableId(0)], opts());
        assert_eq!(jgs.len(), 1);
        assert_eq!(jgs[0].hops(), 0);
        assert_eq!(jgs[0].mean_score(), 1.0);
    }

    #[test]
    fn pair_direct_and_via_intermediate() {
        let g = graph();
        // T0–T1: direct (C1-C2) and via T2 (C0-C5, C4-C3) = 2 hops.
        let jgs = generate_join_graphs(&g, &[TableId(0), TableId(1)], opts());
        assert_eq!(jgs.len(), 2);
        let hops: Vec<usize> = jgs.iter().map(JoinGraph::hops).collect();
        assert!(hops.contains(&1));
        assert!(hops.contains(&2));
    }

    #[test]
    fn hop_limit_prunes_long_paths() {
        let g = graph();
        let one_hop = JoinGraphOptions {
            max_hops: 1,
            ..opts()
        };
        let jgs = generate_join_graphs(&g, &[TableId(0), TableId(1)], one_hop);
        assert_eq!(jgs.len(), 1);
        assert_eq!(jgs[0].hops(), 1);
    }

    #[test]
    fn disconnected_tables_yield_nothing() {
        let g = graph();
        let jgs = generate_join_graphs(&g, &[TableId(0), TableId(3)], opts());
        assert!(jgs.is_empty());
    }

    #[test]
    fn three_required_tables_connect_in_multiple_shapes() {
        let g = graph();
        let jgs = generate_join_graphs(&g, &[TableId(0), TableId(1), TableId(2)], opts());
        // Triangle graph: 3 spanning trees of the triangle, each with
        // single-edge paths → path/chain shapes (no cycle is accepted).
        assert_eq!(jgs.len(), 3);
        for jg in &jgs {
            assert_eq!(jg.hops(), 2);
            assert_eq!(jg.tables(&g).len(), 3);
        }
    }

    #[test]
    fn graphs_are_deduplicated() {
        let g = graph();
        let jgs = generate_join_graphs(&g, &[TableId(0), TableId(1), TableId(2)], opts());
        let mut canons: Vec<Vec<(u32, u32)>> = jgs.iter().map(JoinGraph::canon).collect();
        canons.sort();
        canons.dedup();
        assert_eq!(canons.len(), jgs.len());
    }

    #[test]
    fn max_graphs_caps_output() {
        let g = graph();
        let capped = JoinGraphOptions {
            max_graphs: 1,
            ..opts()
        };
        let jgs = generate_join_graphs(&g, &[TableId(0), TableId(1)], capped);
        assert_eq!(jgs.len(), 1);
    }

    #[test]
    fn threshold_filters_weak_edges() {
        let g = graph();
        let strict = JoinGraphOptions {
            threshold: 0.92,
            ..opts()
        };
        // Only C1-C2 (0.95) survives; T0–T2 and T1–T2 (0.85/0.9) drop.
        let jgs = generate_join_graphs(&g, &[TableId(0), TableId(2)], strict);
        assert!(jgs.is_empty());
        let jgs = generate_join_graphs(&g, &[TableId(0), TableId(1)], strict);
        assert_eq!(jgs.len(), 1);
    }

    #[test]
    fn labelled_trees_counts_follow_cayley() {
        assert_eq!(labelled_trees(1).len(), 1);
        assert_eq!(labelled_trees(2).len(), 1);
        assert_eq!(labelled_trees(3).len(), 3);
        assert_eq!(labelled_trees(4).len(), 16);
        // Every tree on 4 nodes has exactly 3 edges.
        assert!(labelled_trees(4).iter().all(|t| t.len() == 3));
    }

    // --- Differential suite: the table-indexed enumeration against the ---
    // --- full-scan enumeration it replaced, kept here as the reference. ---

    #[allow(clippy::too_many_arguments)]
    fn dfs_scan(
        g: &JoinHypergraph,
        cur: TableId,
        to: TableId,
        hops_left: usize,
        threshold: f64,
        cap: usize,
        stack: &mut Vec<JoinGraphEdge>,
        visited: &mut Vec<TableId>,
        out: &mut Vec<Path>,
    ) {
        if out.len() >= cap || hops_left == 0 {
            return;
        }
        let edge = |(left, right, score)| JoinGraphEdge { left, right, score };
        for next in g.table_neighbors_scan(cur, threshold) {
            if next == to {
                for e in g.edges_between_scan(cur, to, threshold) {
                    stack.push(edge(e));
                    out.push(stack.clone());
                    stack.pop();
                    if out.len() >= cap {
                        return;
                    }
                }
            }
        }
        if hops_left == 1 {
            return;
        }
        for next in g.table_neighbors_scan(cur, threshold) {
            if next == to || visited.contains(&next) {
                continue;
            }
            for e in g.edges_between_scan(cur, next, threshold) {
                stack.push(edge(e));
                visited.push(next);
                dfs_scan(
                    g,
                    next,
                    to,
                    hops_left - 1,
                    threshold,
                    cap,
                    stack,
                    visited,
                    out,
                );
                visited.pop();
                stack.pop();
                if out.len() >= cap {
                    return;
                }
            }
        }
    }

    /// The pre-index `generate_join_graphs`: per-candidate allocations and
    /// all, over the full-scan hypergraph reads.
    fn generate_join_graphs_scan(
        g: &JoinHypergraph,
        tables: &[TableId],
        opts: JoinGraphOptions,
    ) -> Vec<JoinGraph> {
        let mut required: Vec<TableId> = tables.to_vec();
        required.sort_unstable();
        required.dedup();
        let n = required.len();
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![JoinGraph::default()];
        }
        let mut pair_paths: Vec<Vec<Vec<Path>>> = vec![vec![Vec::new(); n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let mut out = Vec::new();
                dfs_scan(
                    g,
                    required[i],
                    required[j],
                    opts.max_hops,
                    opts.threshold,
                    opts.max_graphs,
                    &mut Vec::new(),
                    &mut vec![required[i]],
                    &mut out,
                );
                pair_paths[i][j] = out;
            }
        }
        let mut out: Vec<JoinGraph> = Vec::new();
        let mut seen: FxHashSet<Vec<(u32, u32)>> = FxHashSet::default();
        for tree in labelled_trees(n) {
            if tree.iter().any(|&(i, j)| pair_paths[i][j].is_empty()) {
                continue;
            }
            let mut choice = vec![0usize; tree.len()];
            'product: loop {
                let mut edges: Vec<JoinGraphEdge> = Vec::new();
                for (e, &(i, j)) in tree.iter().enumerate() {
                    edges.extend(pair_paths[i][j][choice[e]].iter().copied());
                }
                let candidate = JoinGraph { edges };
                let tables = candidate.tables(g);
                let is_tree = tables.len() == candidate.edges.len() + 1 && {
                    // Connected iff growing from one table reaches them all.
                    let mut reached = vec![tables[0]];
                    let mut grew = true;
                    while grew {
                        grew = false;
                        for e in &candidate.edges {
                            let (a, b) = (g.table_of(e.left), g.table_of(e.right));
                            for (x, y) in [(a, b), (b, a)] {
                                if reached.contains(&x) && !reached.contains(&y) {
                                    reached.push(y);
                                    grew = true;
                                }
                            }
                        }
                    }
                    reached.len() == tables.len()
                };
                if is_tree && seen.insert(candidate.canon()) {
                    out.push(candidate);
                    if out.len() >= opts.max_graphs {
                        return out;
                    }
                }
                for e in 0..tree.len() {
                    choice[e] += 1;
                    if choice[e] < pair_paths[tree[e].0][tree[e].1].len() {
                        continue 'product;
                    }
                    choice[e] = 0;
                }
                break;
            }
        }
        out
    }

    /// Every table-level read and every small required set, indexed vs
    /// full scan, element for element and in order.
    fn assert_indexed_equals_scan(g: &JoinHypergraph) {
        let mut tables: Vec<TableId> = (0..g.column_count())
            .map(|i| g.table_of(ColumnId(i as u32)))
            .collect();
        tables.sort_unstable();
        tables.dedup();
        for threshold in [0.0, 0.75, 0.9] {
            for &ta in &tables {
                assert_eq!(
                    g.table_neighbors(ta, threshold).collect::<Vec<_>>(),
                    g.table_neighbors_scan(ta, threshold),
                    "table_neighbors({ta:?}, {threshold})"
                );
                for &tb in &tables {
                    assert_eq!(
                        g.edges_between(ta, tb, threshold).collect::<Vec<_>>(),
                        g.edges_between_scan(ta, tb, threshold),
                        "edges_between({ta:?}, {tb:?}, {threshold})"
                    );
                }
            }
            for (max_hops, max_graphs) in [(1, 1000), (2, 1000), (3, 1000), (2, 3)] {
                let opts = JoinGraphOptions {
                    max_hops,
                    threshold,
                    max_graphs,
                };
                for (i, &a) in tables.iter().enumerate() {
                    for (j, &b) in tables.iter().enumerate().skip(i + 1) {
                        assert_eq!(
                            generate_join_graphs(g, &[b, a], opts),
                            generate_join_graphs_scan(g, &[b, a], opts),
                            "pair {a:?},{b:?} {opts:?}"
                        );
                        if let Some(&c) = tables.get(j + 1) {
                            assert_eq!(
                                generate_join_graphs(g, &[a, b, c, a], opts),
                                generate_join_graphs_scan(g, &[a, b, c, a], opts),
                                "triple {a:?},{b:?},{c:?} {opts:?}"
                            );
                        }
                        // Four tables at ρ ≤ 2, the setting of fig8's
                        // four-table groups: at ρ = 3 the reference's
                        // product takes minutes in a debug build.
                        let quad = tables.get(j + 1..j + 3).filter(|_| max_hops <= 2);
                        if let Some(&[c, d]) = quad {
                            assert_eq!(
                                generate_join_graphs(g, &[a, b, c, d], opts),
                                generate_join_graphs_scan(g, &[a, b, c, d], opts),
                                "quad {a:?},{b:?},{c:?},{d:?} {opts:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Random hypergraphs: 2–6 tables of 1–3 columns (the last table id is
    /// skipped over, so ids are sparse), up to 24 edges — parallel edges
    /// between a table pair, intra-table edges and repeats included — with
    /// scores straddling the thresholds under test.
    fn hypergraph_strategy() -> impl Strategy<Value = JoinHypergraph> {
        (
            prop::collection::vec(1..4usize, 2..7),
            prop::collection::vec((0..64usize, 0..64usize, 0..5usize), 0..24),
        )
            .prop_map(|(widths, raw_edges)| {
                let last = widths.len() - 1;
                let col_table: Vec<TableId> = widths
                    .iter()
                    .enumerate()
                    .flat_map(|(t, &w)| {
                        let id = if t == last { t as u32 + 3 } else { t as u32 };
                        std::iter::repeat_n(TableId(id), w)
                    })
                    .collect();
                let n = col_table.len();
                let mut g = JoinHypergraph::new(col_table);
                for (a, b, s) in raw_edges {
                    let (a, b) = (a % n, b % n);
                    if a != b {
                        let score = [0.5, 0.75, 0.8, 0.9, 1.0][s];
                        g.add_edge(ColumnId(a as u32), ColumnId(b as u32), score);
                    }
                }
                g.finalize();
                g
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

        #[test]
        fn indexed_reads_equal_the_full_scan(g in hypergraph_strategy()) {
            assert_indexed_equals_scan(&g);
        }

        #[test]
        fn table_adjacency_is_rebuilt_not_persisted(g in hypergraph_strategy()) {
            use crate::persist::{put_hypergraph, read_hypergraph, section};
            let mut bytes = Vec::new();
            put_hypergraph(&mut bytes, &g);
            // The index file's graph section — column table, edge count,
            // 12 B per undirected edge: nothing of the derived adjacency
            // reaches the file.
            prop_assert_eq!(
                bytes.len(),
                4 + 4 * g.column_count() + 8 + 12 * g.joinable_pairs()
            );
            let loaded = section(&bytes, "hypergraph section", read_hypergraph).unwrap();
            prop_assert_eq!(&loaded, &g);
            let mut again = Vec::new();
            put_hypergraph(&mut again, &loaded);
            prop_assert_eq!(again, bytes);
            assert_indexed_equals_scan(&loaded);
        }
    }

    #[test]
    fn indexed_reads_survive_save_load_and_partition_merge() {
        use ver_common::value::Value;
        use ver_store::table::TableBuilder;
        // Six tables sharing two key domains, so table pairs are linked by
        // one, two or no column edges and 2-hop paths exist.
        let mut cat = ver_store::catalog::TableCatalog::new();
        for t in 0..6usize {
            let mut b = TableBuilder::new(format!("t{t}"), &["k", "alt", "payload"]);
            for i in 0..40 {
                let alt = if t % 2 == 0 { i } else { i + 1000 };
                b.push_row(vec![
                    Value::text(format!("key_{i}")),
                    Value::text(format!("alt_{alt}")),
                    Value::Int((t * 1000 + i) as i64),
                ])
                .unwrap();
            }
            cat.add_table(b.build()).unwrap();
        }
        let config = crate::builder::IndexConfig {
            threads: 1,
            verify_exact: true,
            ..Default::default()
        };
        let index = crate::builder::build_index(&cat, config).unwrap();
        assert!(index.hypergraph().joinable_pairs() > 6);
        assert_indexed_equals_scan(index.hypergraph());

        let bytes = crate::persist::index_to_bytes(&index);
        let loaded = crate::persist::index_from_bytes(&bytes).unwrap();
        assert_eq!(loaded.hypergraph(), index.hypergraph());
        assert_eq!(crate::persist::index_to_bytes(&loaded), bytes);
        assert_indexed_equals_scan(loaded.hypergraph());

        for count in 1..4 {
            let shards = crate::shard::partition_index(&index, count);
            let merged = crate::shard::merge_shards(&shards).unwrap();
            assert_eq!(merged.hypergraph(), index.hypergraph(), "count={count}");
            assert_indexed_equals_scan(merged.hypergraph());
        }
    }

    #[test]
    fn mean_score_averages_edges() {
        let jg = JoinGraph {
            edges: vec![
                JoinGraphEdge {
                    left: ColumnId(0),
                    right: ColumnId(1),
                    score: 1.0,
                },
                JoinGraphEdge {
                    left: ColumnId(1),
                    right: ColumnId(2),
                    score: 0.5,
                },
            ],
        };
        assert!((jg.mean_score() - 0.75).abs() < 1e-9);
    }
}
