//! Cross-query caches for the online search path.
//!
//! A long-lived serving deployment (`ver-serve`) answers many queries
//! against one immutable discovery index. Two pieces of per-query work are
//! pure functions of that index and therefore safe to share across queries
//! and sessions:
//!
//! * **materialized candidate views** — executing a candidate's
//!   [`PjPlan`] always yields the same view, so an LRU over plans
//!   short-circuits the MATERIALIZER for candidates that recur across
//!   queries (the common case: different example queries over the same
//!   popular tables resolve to the same join graphs). A [`View`] is a
//!   handle on a shared body, so a hit and an insert are refcount bumps
//!   under the lock, and a view some query gathered stays gathered for
//!   every later hit;
//! * **join-graph containment scores** — [`join_score`] folds the
//!   hypergraph's signature-estimated containments with profile key-ness;
//!   it is fully determined by the graph's canonical edge form
//!   ([`graph_canon`]), so a memo keyed by that form skips re-scoring.
//!
//! Correctness contract: a cache **hit must be bit-identical to the value a
//! miss would compute**. The score memo keys on the canonical edge form
//! (edge *sets* determine scores — the mean over edges is
//! order-independent). The view cache keys on the candidate's **linearised
//! execution plan** — base table, oriented [`JoinStep`] sequence, and
//! projection — because the materialized view (rows, row order, provenance,
//! chained name) is a pure function of exactly that plan. Keying on the
//! plan rather than the raw edge list means two graphs whose differing edge
//! orders linearise to the same plan share one entry, while graphs that
//! linearise differently (and hence execute differently) never collide.
//! With these keys, cached and uncached runs produce identical
//! [`SearchOutput`]s, which `tests/serve_warm_start.rs` pins against the
//! golden snapshot.
//!
//! [`join_score`]: crate::rank::join_score
//! [`graph_canon`]: crate::rank::graph_canon
//! [`SearchOutput`]: crate::search::SearchOutput
//! [`PjPlan`]: ver_engine::plan::PjPlan

use std::sync::Arc;
use ver_common::cache::{CacheStats, LruCache, Memo};
use ver_common::ids::{ColumnRef, TableId};
use ver_engine::plan::{JoinStep, PjPlan};
use ver_engine::view::View;

/// Key identifying one execution candidate exactly: the linearised plan's
/// base table and oriented join steps in execution order, plus the
/// projected columns.
pub type ViewKey = (TableId, Vec<JoinStep>, Arc<[ColumnRef]>);

/// Build the [`ViewKey`] for a candidate from its linearised `plan`. The
/// projection is passed separately so the shared `Arc` from candidate
/// generation is reused instead of cloning the column list.
pub fn view_key(plan: &PjPlan, projection: &Arc<[ColumnRef]>) -> ViewKey {
    (plan.base, plan.joins.clone(), projection.clone())
}

/// Shared caches threaded through [`SearchContext::search`].
///
/// All methods take `&self`; the struct is `Sync` and intended to live in an
/// `Arc`'d serving engine queried from many threads.
///
/// [`SearchContext::search`]: crate::search::SearchContext::search
#[derive(Debug)]
pub struct SearchCaches {
    /// LRU over materialized candidate views.
    views: LruCache<ViewKey, View>,
    /// Memoized signature/containment-derived join scores, keyed by the
    /// graph's canonical edge form.
    scores: Memo<Vec<(u32, u32)>, f64>,
}

impl SearchCaches {
    /// Caches with the given view-LRU capacity (`0` disables view caching).
    /// The score memo is unbounded: each distinct graph costs a map slot
    /// holding its key's `Vec` header (24 B) and its `f64` score (8 B),
    /// plus the key's heap buffer of 8 B per canonical edge and the hash
    /// table's control byte and load-factor slack — roughly 40 B + 8 B per
    /// edge.
    pub fn new(view_capacity: usize) -> Self {
        SearchCaches {
            views: LruCache::new(view_capacity),
            scores: Memo::new(),
        }
    }

    /// Hit/miss snapshot of the materialized-view LRU.
    pub fn view_stats(&self) -> CacheStats {
        self.views.stats()
    }

    /// Hit/miss snapshot of the join-score memo.
    pub fn score_stats(&self) -> CacheStats {
        self.scores.stats()
    }

    /// Number of views currently cached.
    pub fn cached_views(&self) -> usize {
        self.views.len()
    }

    /// Memoized join score for a graph with canonical form `canon`.
    pub fn score_or_compute(&self, canon: &Vec<(u32, u32)>, compute: impl FnOnce() -> f64) -> f64 {
        self.scores.get_or_insert_with(canon, compute)
    }

    /// Cached view for `key`, if present (counts a hit or a miss). The
    /// batched search path partitions candidates with this before handing
    /// the misses to `materialize_batch`.
    pub fn view_get(&self, key: &ViewKey) -> Option<View> {
        self.views.get(key)
    }

    /// Remember a freshly materialized view. Never insert failed
    /// materializations — errors must not poison the cache.
    pub fn view_insert(&self, key: ViewKey, view: View) {
        self.views.insert(key, view);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ver_common::ids::ViewId;
    use ver_engine::view::Provenance;
    use ver_store::table::TableBuilder;

    fn cref(t: u32, o: u16) -> ColumnRef {
        ColumnRef {
            table: TableId(t),
            ordinal: o,
        }
    }

    fn projection(cols: &[(u32, u16)]) -> Arc<[ColumnRef]> {
        cols.iter().map(|&(t, o)| cref(t, o)).collect()
    }

    #[allow(clippy::type_complexity)]
    fn plan(base: u32, steps: &[((u32, u16), (u32, u16))]) -> PjPlan {
        PjPlan {
            base: TableId(base),
            joins: steps
                .iter()
                .map(|&((lt, lo), (rt, ro))| JoinStep {
                    left: cref(lt, lo),
                    right: cref(rt, ro),
                })
                .collect(),
            projection: vec![cref(base, 0)],
        }
    }

    fn dummy_view(rows: usize) -> View {
        let mut b = TableBuilder::new("v", &["x"]);
        for i in 0..rows {
            b.push_row(vec![ver_common::value::Value::Int(i as i64)])
                .unwrap();
        }
        View::new(ViewId(0), b.build(), Provenance::default())
    }

    #[test]
    fn view_key_distinguishes_step_order_and_orientation() {
        let p = projection(&[(0, 0), (1, 1)]);
        let a = view_key(&plan(0, &[((0, 0), (1, 0)), ((1, 1), (2, 0))]), &p);
        let b = view_key(&plan(0, &[((1, 1), (2, 0)), ((0, 0), (1, 0))]), &p);
        let c = view_key(&plan(0, &[((0, 0), (1, 1)), ((1, 1), (2, 0))]), &p);
        assert_ne!(a, b, "execution order is part of the key");
        assert_ne!(a, c, "join columns are part of the key");
        assert_eq!(
            a,
            view_key(&plan(0, &[((0, 0), (1, 0)), ((1, 1), (2, 0))]), &p)
        );
        // Same steps, different base (projection-only plans differ too).
        assert_ne!(
            view_key(&plan(0, &[]), &p),
            view_key(&plan(1, &[]), &p),
            "base table is part of the key"
        );
        // Same plan, different projection.
        assert_ne!(
            view_key(&plan(0, &[]), &projection(&[(0, 0)])),
            view_key(&plan(0, &[]), &projection(&[(0, 1)])),
        );
    }

    #[test]
    fn get_then_insert_round_trips() {
        let caches = SearchCaches::new(8);
        let key = view_key(&plan(0, &[((0, 0), (1, 0))]), &projection(&[(0, 0)]));
        assert!(caches.view_get(&key).is_none(), "cold cache misses");
        let inserted = dummy_view(2);
        caches.view_insert(key.clone(), inserted.clone());
        let hit = caches.view_get(&key).expect("warm cache hits");
        assert!(hit.same_contents(&dummy_view(2)));
        // A hit is a handle on the inserted view's body, not a copy of it.
        assert!(hit.table.ptr_eq(&inserted.table));
        assert!(Arc::ptr_eq(&hit.provenance, &inserted.provenance));
        let s = caches.view_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn score_memo_computes_once() {
        let caches = SearchCaches::new(0);
        let canon = vec![(0u32, 2u32)];
        let a = caches.score_or_compute(&canon, || 0.75);
        let b = caches.score_or_compute(&canon, || panic!("memoized"));
        assert_eq!(a, 0.75);
        assert_eq!(b, 0.75);
        assert_eq!(caches.score_stats().hits, 1);
    }
}
