//! 4C category labels and the labelled view graph `G` (Problem 3).

use serde::{Deserialize, Serialize};
use std::fmt;
use ver_common::fxhash::FxHashMap;
use ver_common::ids::ViewId;

/// The four 4C categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Category {
    /// Same row set (Definition 5).
    Compatible,
    /// One view's rows strictly contain the other's (Definition 6).
    Contained,
    /// Same candidate key, overlapping rows, neither compatible nor
    /// contained (Definition 8).
    Complementary,
    /// Same candidate key, some key value maps to different rows
    /// (Definition 9).
    Contradictory,
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Category::Compatible => "compatible",
            Category::Contained => "contained",
            Category::Complementary => "complementary",
            Category::Contradictory => "contradictory",
        };
        write!(f, "{s}")
    }
}

/// The labelled graph `G`: nodes are views, edges carry a 4C category.
///
/// Edges are stored under the normalised `(min, max)` pair. A pair may be
/// relabelled (Algorithm 3 upgrades complementary → contradictory);
/// [`ViewGraph::label`] applies "contradictory wins over complementary"
/// while compatible/contained labels are final.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ViewGraph {
    nodes: Vec<ViewId>,
    edges: FxHashMap<(ViewId, ViewId), Category>,
}

impl ViewGraph {
    /// Graph over the given views, no edges yet (ADD-NODES).
    pub fn new(nodes: Vec<ViewId>) -> Self {
        ViewGraph {
            nodes,
            edges: FxHashMap::default(),
        }
    }

    /// All nodes.
    pub fn nodes(&self) -> &[ViewId] {
        &self.nodes
    }

    fn key(a: ViewId, b: ViewId) -> (ViewId, ViewId) {
        (a.min(b), a.max(b))
    }

    /// Label the pair. Upgrade rules: contradictory replaces complementary;
    /// compatible/contained are never overwritten.
    pub fn label(&mut self, a: ViewId, b: ViewId, cat: Category) {
        assert_ne!(a, b, "view pairs are distinct");
        let k = Self::key(a, b);
        match self.edges.get(&k) {
            Some(Category::Compatible) | Some(Category::Contained) => {}
            Some(Category::Contradictory) if cat == Category::Complementary => {}
            _ => {
                self.edges.insert(k, cat);
            }
        }
    }

    /// Category of a pair, if labelled.
    pub fn get(&self, a: ViewId, b: ViewId) -> Option<Category> {
        self.edges.get(&Self::key(a, b)).copied()
    }

    /// Number of labelled edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterate `(a, b, category)` with `a < b`, sorted for determinism.
    pub fn edges(&self) -> Vec<(ViewId, ViewId, Category)> {
        let mut v: Vec<_> = self.edges.iter().map(|(&(a, b), &c)| (a, b, c)).collect();
        v.sort_by_key(|&(a, b, _)| (a, b));
        v
    }

    /// Count edges by category.
    pub fn count(&self, cat: Category) -> usize {
        self.edges.values().filter(|&&c| c == cat).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> ViewId {
        ViewId(i)
    }

    #[test]
    fn label_normalises_pair_order() {
        let mut g = ViewGraph::new(vec![v(0), v(1)]);
        g.label(v(1), v(0), Category::Compatible);
        assert_eq!(g.get(v(0), v(1)), Some(Category::Compatible));
        assert_eq!(g.get(v(1), v(0)), Some(Category::Compatible));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn contradictory_upgrades_complementary() {
        let mut g = ViewGraph::new(vec![v(0), v(1)]);
        g.label(v(0), v(1), Category::Complementary);
        g.label(v(0), v(1), Category::Contradictory);
        assert_eq!(g.get(v(0), v(1)), Some(Category::Contradictory));
        // ... but not the other way around.
        g.label(v(0), v(1), Category::Complementary);
        assert_eq!(g.get(v(0), v(1)), Some(Category::Contradictory));
    }

    #[test]
    fn compatible_and_contained_are_final() {
        let mut g = ViewGraph::new(vec![v(0), v(1)]);
        g.label(v(0), v(1), Category::Contained);
        g.label(v(0), v(1), Category::Contradictory);
        assert_eq!(g.get(v(0), v(1)), Some(Category::Contained));
    }

    #[test]
    fn category_counting_and_listing() {
        let mut g = ViewGraph::new((0..4).map(v).collect());
        g.label(v(0), v(1), Category::Compatible);
        g.label(v(2), v(3), Category::Complementary);
        g.label(v(0), v(3), Category::Contradictory);
        assert_eq!(g.count(Category::Compatible), 1);
        assert_eq!(g.count(Category::Contained), 0);
        assert_eq!(g.edges().len(), 3);
        assert_eq!(g.edges()[0], (v(0), v(1), Category::Compatible));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn self_edges_rejected() {
        let mut g = ViewGraph::new(vec![v(0)]);
        g.label(v(0), v(0), Category::Compatible);
    }
}
