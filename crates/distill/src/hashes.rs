//! Row sets per view, with the cache Algorithm 3 calls out ("we employ a
//! cache to not hash any view multiple times").
//!
//! The cache goes one step further than the paper's: a view materialised by
//! the shared sub-join DAG already carries `H` of its rows
//! ([`View::row_hashes`]), so for those no cell is hashed here at all — the
//! cache only sorts each vector once into its row set
//! ([`rowhash::row_set`]), which C1, C2 and complementary marking compare
//! with [`rowhash::relation`]. Views built any other way fall back to
//! hashing their cells, once.
//!
//! [`rowhash::row_set`]: ver_engine::rowhash::row_set
//! [`rowhash::relation`]: ver_engine::rowhash::relation

use std::borrow::{Borrow, Cow};
use ver_engine::rowhash::row_set;
use ver_engine::view::View;

/// One view's `H(V)`: the per-row hashes in row order, and their row set.
#[derive(Debug)]
struct Entry<'a> {
    rows: Cow<'a, [u64]>,
    set: Vec<u64>,
}

/// `H(V)` for every view of one distillation run, keyed by the view's
/// **position** in the slice it was filled from — never by [`ViewId`],
/// which callers are free to leave defaulted or duplicated.
///
/// [`ViewId`]: ver_common::ids::ViewId
#[derive(Debug)]
pub struct HashCache<'a> {
    entries: Vec<Entry<'a>>,
}

impl<'a> HashCache<'a> {
    /// `H(V)` of every view, fanned out per view on `pool`. Everything
    /// after this is a lookup, which keeps the sequential 4C control flow
    /// (and therefore its output) unchanged.
    pub fn prefill<V: Borrow<View> + Sync>(
        views: &'a [V],
        pool: &ver_common::pool::ThreadPool,
    ) -> Self {
        // By index, so the borrowed hash vectors keep the slice's lifetime.
        let positions: Vec<usize> = (0..views.len()).collect();
        let entries = pool.par_map(&positions, |&i| {
            let rows = views[i].borrow().row_hashes();
            let set = row_set(&rows);
            Entry { rows, set }
        });
        HashCache { entries }
    }

    /// `H` of every row of view `i`, in row order.
    pub fn row_hashes(&self, i: usize) -> &[u64] {
        &self.entries[i].rows
    }

    /// The row set `H(V)` of view `i`: sorted, no repeats.
    pub fn set(&self, i: usize) -> &[u64] {
        &self.entries[i].set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ver_common::ids::ViewId;
    use ver_common::pool::ThreadPool;
    use ver_common::value::Value;
    use ver_engine::rowhash::{relation, SetRelation};
    use ver_engine::view::{Provenance, View};
    use ver_store::table::TableBuilder;

    fn view(id: u32, values: &[i64]) -> View {
        let mut b = TableBuilder::new("v", &["x"]);
        for &v in values {
            b.push_row(vec![Value::Int(v)]).unwrap();
        }
        View::new(ViewId(id), b.build(), Provenance::default())
    }

    fn cache(views: &[View]) -> HashCache<'_> {
        HashCache::prefill(views, &ThreadPool::new(1))
    }

    /// Relation between the row sets of views `a` and `b`.
    fn rel(cache: &HashCache<'_>, a: usize, b: usize) -> SetRelation {
        relation(cache.set(a), cache.set(b))
    }

    #[test]
    fn relations_cover_all_cases() {
        let views = [
            view(0, &[1, 2, 3]),
            view(1, &[3, 2, 1]),
            view(2, &[1, 2]),
            view(3, &[2, 3, 4]),
            view(4, &[9, 10]),
        ];
        let cache = cache(&views);
        assert_eq!(rel(&cache, 0, 1), SetRelation::Equal);
        assert_eq!(rel(&cache, 2, 0), SetRelation::LeftInRight);
        assert_eq!(rel(&cache, 0, 2), SetRelation::RightInLeft);
        assert_eq!(rel(&cache, 0, 3), SetRelation::Overlap);
        assert_eq!(rel(&cache, 0, 4), SetRelation::Disjoint);
    }

    #[test]
    fn prefill_is_thread_count_independent_and_matches_the_table_hash() {
        let views = vec![view(0, &[1, 2, 3]), view(1, &[1, 2, 2])];
        for threads in [1usize, 4] {
            let pre = HashCache::prefill(&views, &ThreadPool::new(threads));
            for (i, v) in views.iter().enumerate() {
                assert_eq!(pre.set(i), v.row_set().as_slice(), "H(V{i}) differs");
                assert_eq!(pre.row_hashes(i), &*v.row_hashes());
            }
            assert_eq!(pre.set(1).len(), 2, "duplicate rows collapse in the set");
            assert_eq!(pre.row_hashes(1).len(), 3, "but not in the row vector");
            assert_eq!(rel(&pre, 0, 1), SetRelation::RightInLeft);
        }
    }

    #[test]
    fn views_sharing_an_id_do_not_alias() {
        // Every view straight out of the materializer carries the default
        // id; an id-keyed cache handed all of them the first one's set.
        let views = [view(0, &[1, 2]), view(0, &[7, 8, 9]), view(0, &[1, 2])];
        let cache = cache(&views);
        assert_eq!(cache.set(1).len(), 3);
        assert_eq!(rel(&cache, 0, 1), SetRelation::Disjoint);
        assert_eq!(rel(&cache, 0, 2), SetRelation::Equal);
    }

    #[test]
    fn equal_sets_are_one_slice_whatever_the_row_order_or_repeats() {
        let views = [
            view(0, &[1, 2, 3]),
            view(1, &[3, 1, 2, 2]),
            view(2, &[1, 2]),
            view(3, &[]),
        ];
        let cache = cache(&views);
        assert_eq!(cache.set(0), cache.set(1));
        assert_ne!(cache.set(0), cache.set(2));
        assert!(cache.set(3).is_empty());
    }

    #[test]
    fn a_cache_can_be_filled_from_borrowed_views() {
        let views = [view(0, &[1, 2, 3]), view(1, &[1, 2])];
        let picked: Vec<&View> = vec![&views[1], &views[0]];
        let cache = HashCache::prefill(&picked, &ThreadPool::new(1));
        assert_eq!(rel(&cache, 0, 1), SetRelation::LeftInRight);
    }

    #[test]
    fn empty_views_are_disjoint_from_everything_nonempty() {
        let views = [view(0, &[]), view(1, &[1]), view(2, &[])];
        let cache = cache(&views);
        assert_eq!(rel(&cache, 0, 1), SetRelation::Disjoint);
        // Two empty sets are equal.
        assert_eq!(rel(&cache, 0, 2), SetRelation::Equal);
    }

    #[test]
    fn same_size_different_content_is_overlap_or_disjoint() {
        let views = [view(0, &[1, 2]), view(1, &[2, 3])];
        assert_eq!(rel(&cache(&views), 0, 1), SetRelation::Overlap);
    }
}
