//! Cross-query cache for the online search path.
//!
//! A long-lived serving deployment (`ver-serve`) answers many queries
//! against one immutable discovery index. Executing a candidate's
//! [`PjPlan`] always yields the same view, so an LRU over plans
//! short-circuits the MATERIALIZER for candidates that recur across
//! queries (the common case: different example queries over the same
//! popular tables resolve to the same join graphs). A [`View`] is a handle
//! on a shared body, so a hit and an insert are refcount bumps under the
//! lock, and a view some query gathered stays gathered for every later hit.
//!
//! Join scores are not cached: [`join_score`] is two profile loads and a
//! multiply per edge, cheaper than a hashed lookup of the graph's
//! canonical form under a shared lock.
//!
//! Correctness contract: a cache **hit must be bit-identical to the value a
//! miss would compute**. The view cache keys on the candidate's
//! **linearised execution plan** — base table, oriented [`JoinStep`]
//! sequence, and projection — because the materialized view (rows, row
//! order, provenance, chained name) is a pure function of exactly that
//! plan. Keying on the plan rather than the raw edge list means two graphs
//! whose differing edge orders linearise to the same plan share one entry,
//! while graphs that linearise differently (and hence execute differently)
//! never collide. With this key, cached and uncached runs produce
//! identical [`SearchOutput`]s, which `tests/serve_warm_start.rs` pins
//! against the golden snapshot.
//!
//! [`join_score`]: crate::rank::join_score
//! [`SearchOutput`]: crate::search::SearchOutput
//! [`PjPlan`]: ver_engine::plan::PjPlan

use std::sync::Arc;
use ver_common::cache::{CacheStats, LruCache};
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

/// The bytes one view-LRU entry can come to hold: the view's
/// [`View::byte_bound`] plus its key, join steps and projection included.
fn view_charge(key: &ViewKey, view: &View) -> usize {
    use std::mem::size_of;
    let projection_arc_counts = 2 * size_of::<usize>();
    size_of::<ViewKey>()
        + key.1.capacity() * size_of::<JoinStep>()
        + projection_arc_counts
        + key.2.len() * size_of::<ColumnRef>()
        + view.byte_bound()
}

/// Shared cache threaded through [`SearchContext::search`].
///
/// The view LRU is bounded in bytes: each entry is charged, once at
/// insert, the bytes it can come to hold ([`View::byte_bound`] plus its
/// key). The bound covers the view gathered, so a view 4C or ranking
/// gathers after insert stays within its charge.
///
/// All methods take `&self`; the struct is `Sync` and intended to live in an
/// `Arc`'d serving engine queried from many threads.
///
/// [`SearchContext::search`]: crate::search::SearchContext::search
#[derive(Debug)]
pub struct SearchCaches {
    /// LRU over materialized candidate views.
    views: LruCache<ViewKey, View>,
}

impl SearchCaches {
    /// Caches whose view LRU holds at most `view_capacity` bytes (`0`
    /// disables view caching).
    pub fn new(view_capacity: usize) -> Self {
        SearchCaches {
            views: LruCache::new(view_capacity),
        }
    }

    /// Hit/miss snapshot of the materialized-view LRU.
    pub fn view_stats(&self) -> CacheStats {
        self.views.stats()
    }

    /// Number of views currently cached.
    pub fn cached_views(&self) -> usize {
        self.views.len()
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
        let charge = view_charge(&key, &view);
        self.views.insert(key, view, charge);
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
        let caches = SearchCaches::new(1 << 16);
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
}
