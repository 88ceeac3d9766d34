//! The column-level join hypergraph.
//!
//! Nodes are columns; an (undirected) edge links two columns whose estimated
//! Jaccard containment exceeds the build threshold — the inclusion
//! dependencies that stand in for join paths in pathless collections
//! (Challenge 2). The hypergraph answers the Aurum API's
//! `NEIGHBORS(threshold)` and provides the table-level adjacency that
//! join-graph enumeration walks.

use serde::{Deserialize, Serialize};
use ver_common::ids::{ColumnId, TableId};

/// An undirected join edge between two columns with its containment score
/// (the max of the two directional containments).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JoinableEdge {
    /// One endpoint.
    pub a: ColumnId,
    /// Other endpoint.
    pub b: ColumnId,
    /// Containment score in `[0, 1]`.
    pub score: f32,
}

/// One column edge as seen from table `from`: `a` is the column in `from`,
/// `b` the joinable column in the neighbour table `to`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TableEdge {
    from: TableId,
    to: TableId,
    a: ColumnId,
    b: ColumnId,
    score: f32,
}

/// Column-level join graph with a table-level projection.
///
/// Equality compares the full adjacency structure (including scores) —
/// used by the determinism tests to assert that parallel builds reproduce
/// the sequential hypergraph exactly.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct JoinHypergraph {
    /// Column → owning table (indexed by `ColumnId`).
    col_table: Vec<TableId>,
    /// Column → sorted neighbor list.
    adj: Vec<Vec<(ColumnId, f32)>>,
    /// Total undirected edges.
    edge_count: usize,
    /// Table-level adjacency derived from `adj` by [`finalize`] and never
    /// persisted: every column edge from both of its sides, sorted by
    /// `(from, to)` and within a table pair by `(a, b)` — the order a scan
    /// of `adj` emits them in. Join-path enumeration reads a table's
    /// neighbours and edges as sub-slices of this instead of scanning every
    /// column of the lake per visited table.
    ///
    /// [`finalize`]: JoinHypergraph::finalize
    table_adj: Vec<TableEdge>,
}

impl JoinHypergraph {
    /// Create a graph over `col_table.len()` columns; `col_table[i]` is the
    /// owning table of `ColumnId(i)`.
    pub fn new(col_table: Vec<TableId>) -> Self {
        let n = col_table.len();
        JoinHypergraph {
            col_table,
            adj: vec![Vec::new(); n],
            edge_count: 0,
            table_adj: Vec::new(),
        }
    }

    /// Number of columns (nodes).
    pub fn column_count(&self) -> usize {
        self.col_table.len()
    }

    /// Number of undirected joinable column pairs (Table I's
    /// "# Joinable Columns").
    pub fn joinable_pairs(&self) -> usize {
        self.edge_count
    }

    /// Owning table of a column.
    pub fn table_of(&self, c: ColumnId) -> TableId {
        self.col_table[c.idx()]
    }

    /// Add an undirected edge. Duplicate edges update the score to the max.
    /// Invalidates the table-level adjacency until the next
    /// [`finalize`](Self::finalize).
    pub fn add_edge(&mut self, a: ColumnId, b: ColumnId, score: f32) {
        assert!(a != b, "self-edges are meaningless");
        self.table_adj.clear();
        if let Some(slot) = self.adj[a.idx()].iter_mut().find(|(n, _)| *n == b) {
            slot.1 = slot.1.max(score);
            if let Some(slot) = self.adj[b.idx()].iter_mut().find(|(n, _)| *n == a) {
                slot.1 = slot.1.max(score);
            }
            return;
        }
        self.adj[a.idx()].push((b, score));
        self.adj[b.idx()].push((a, score));
        self.edge_count += 1;
    }

    /// Finish construction: sort adjacency lists for determinism and build
    /// the table-level adjacency that [`table_neighbors`] and
    /// [`edges_between`] read.
    ///
    /// [`table_neighbors`]: Self::table_neighbors
    /// [`edges_between`]: Self::edges_between
    pub fn finalize(&mut self) {
        for list in &mut self.adj {
            list.sort_unstable_by_key(|(n, _)| *n);
        }
        let col_table = &self.col_table;
        self.table_adj = self
            .adj
            .iter()
            .enumerate()
            .flat_map(|(i, list)| {
                list.iter().map(move |&(b, score)| TableEdge {
                    from: col_table[i],
                    to: col_table[b.idx()],
                    a: ColumnId(i as u32),
                    b,
                    score,
                })
            })
            .collect();
        // Stable: a table pair's edges stay in ascending (a, b) order.
        self.table_adj.sort_by_key(|e| (e.from, e.to));
    }

    /// Table `t`'s slice of the table-level adjacency, sorted by neighbour.
    fn table_edges(&self, t: TableId) -> &[TableEdge] {
        debug_assert!(
            self.edge_count == 0 || !self.table_adj.is_empty(),
            "table-level reads need finalize() after the last add_edge()"
        );
        let lo = self.table_adj.partition_point(|e| e.from < t);
        let len = self.table_adj[lo..].partition_point(|e| e.from == t);
        &self.table_adj[lo..lo + len]
    }

    /// NEIGHBORS: columns joinable with `c` at containment ≥ `threshold`.
    pub fn neighbors(&self, c: ColumnId, threshold: f64) -> Vec<(ColumnId, f32)> {
        self.adj
            .get(c.idx())
            .map(|list| {
                list.iter()
                    .filter(|(_, s)| *s as f64 >= threshold)
                    .copied()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// All column edges between tables `ta` and `tb` at ≥ `threshold`,
    /// as `(column in ta, column in tb, score)`, in ascending column order.
    /// Valid after [`finalize`](Self::finalize).
    pub fn edges_between(
        &self,
        ta: TableId,
        tb: TableId,
        threshold: f64,
    ) -> impl Iterator<Item = (ColumnId, ColumnId, f32)> + '_ {
        let edges = self.table_edges(ta);
        edges[edges.partition_point(|e| e.to < tb)..]
            .iter()
            .take_while(move |e| e.to == tb)
            .filter(move |e| e.score as f64 >= threshold)
            .map(|e| (e.a, e.b, e.score))
    }

    /// Distinct neighbor tables of table `t` at ≥ `threshold` (ascending).
    /// Valid after [`finalize`](Self::finalize).
    pub fn table_neighbors(
        &self,
        t: TableId,
        threshold: f64,
    ) -> impl Iterator<Item = TableId> + '_ {
        let mut last = None;
        self.table_edges(t)
            .iter()
            .filter(move |e| e.to != t && e.score as f64 >= threshold)
            .filter_map(move |e| (last.replace(e.to) != Some(e.to)).then_some(e.to))
    }

    /// Iterate all undirected edges once (`a < b`).
    pub fn edges(&self) -> impl Iterator<Item = JoinableEdge> + '_ {
        self.adj.iter().enumerate().flat_map(move |(i, list)| {
            let a = ColumnId(i as u32);
            list.iter()
                .filter(move |(b, _)| a < *b)
                .map(move |&(b, score)| JoinableEdge { a, b, score })
        })
    }
}

/// The full-scan table-level reads the derived adjacency replaced, kept as
/// the reference the differential tests compare it against.
#[cfg(test)]
impl JoinHypergraph {
    pub(crate) fn edges_between_scan(
        &self,
        ta: TableId,
        tb: TableId,
        threshold: f64,
    ) -> Vec<(ColumnId, ColumnId, f32)> {
        let mut out = Vec::new();
        for (i, list) in self.adj.iter().enumerate() {
            if self.col_table[i] != ta {
                continue;
            }
            let ca = ColumnId(i as u32);
            for &(cb, s) in list {
                if self.col_table[cb.idx()] == tb && s as f64 >= threshold {
                    out.push((ca, cb, s));
                }
            }
        }
        out
    }

    pub(crate) fn table_neighbors_scan(&self, t: TableId, threshold: f64) -> Vec<TableId> {
        let mut out: Vec<TableId> = Vec::new();
        for (i, list) in self.adj.iter().enumerate() {
            if self.col_table[i] != t {
                continue;
            }
            for &(n, s) in list {
                if s as f64 >= threshold {
                    let tn = self.col_table[n.idx()];
                    if tn != t {
                        out.push(tn);
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3 tables × 2 columns: T0{C0,C1} T1{C2,C3} T2{C4,C5}.
    fn graph() -> JoinHypergraph {
        let col_table = vec![
            TableId(0),
            TableId(0),
            TableId(1),
            TableId(1),
            TableId(2),
            TableId(2),
        ];
        let mut g = JoinHypergraph::new(col_table);
        g.add_edge(ColumnId(1), ColumnId(2), 0.95);
        g.add_edge(ColumnId(3), ColumnId(4), 0.85);
        g.add_edge(ColumnId(0), ColumnId(5), 0.6);
        g.finalize();
        g
    }

    #[test]
    fn neighbors_filter_by_threshold() {
        let g = graph();
        assert_eq!(g.neighbors(ColumnId(1), 0.9), vec![(ColumnId(2), 0.95)]);
        assert!(g.neighbors(ColumnId(0), 0.8).is_empty());
        assert_eq!(g.neighbors(ColumnId(0), 0.5).len(), 1);
    }

    #[test]
    fn edges_between_tables() {
        let g = graph();
        let e: Vec<_> = g.edges_between(TableId(0), TableId(1), 0.8).collect();
        assert_eq!(e, vec![(ColumnId(1), ColumnId(2), 0.95)]);
        // direction matters for which side is reported first
        let e: Vec<_> = g.edges_between(TableId(1), TableId(0), 0.8).collect();
        assert_eq!(e, vec![(ColumnId(2), ColumnId(1), 0.95)]);
        assert_eq!(g.edges_between(TableId(0), TableId(2), 0.8).count(), 0);
    }

    #[test]
    fn table_neighbors_respect_threshold() {
        let g = graph();
        let at = |thr| g.table_neighbors(TableId(0), thr).collect::<Vec<_>>();
        assert_eq!(at(0.8), vec![TableId(1)]);
        assert_eq!(at(0.5), vec![TableId(1), TableId(2)]);
    }

    #[test]
    fn add_edge_after_finalize_needs_a_new_finalize() {
        let mut g = graph();
        g.add_edge(ColumnId(1), ColumnId(4), 0.9);
        g.finalize();
        let n: Vec<_> = g.table_neighbors(TableId(0), 0.8).collect();
        assert_eq!(n, vec![TableId(1), TableId(2)]);
        assert_eq!(n, g.table_neighbors_scan(TableId(0), 0.8));
    }

    #[test]
    fn duplicate_edges_keep_max_score() {
        let mut g = graph();
        let before = g.joinable_pairs();
        g.add_edge(ColumnId(2), ColumnId(1), 0.7); // lower score, reversed
        assert_eq!(g.joinable_pairs(), before);
        assert_eq!(g.neighbors(ColumnId(1), 0.9), vec![(ColumnId(2), 0.95)]);
        g.add_edge(ColumnId(1), ColumnId(2), 0.99);
        assert_eq!(g.neighbors(ColumnId(1), 0.99), vec![(ColumnId(2), 0.99)]);
    }

    #[test]
    fn edge_iteration_visits_each_pair_once() {
        let g = graph();
        let edges: Vec<JoinableEdge> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        assert_eq!(edges.len(), g.joinable_pairs());
        assert!(edges.iter().all(|e| e.a < e.b));
    }

    #[test]
    #[should_panic(expected = "self-edges")]
    fn self_edges_panic() {
        let mut g = graph();
        g.add_edge(ColumnId(0), ColumnId(0), 1.0);
    }
}
