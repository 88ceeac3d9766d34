//! Row-hash sets per view, with the cache Algorithm 3 calls out
//! ("we employ a cache to not hash any view multiple times").
//!
//! The cache goes one step further than the paper's: a view materialised by
//! the shared sub-join DAG already carries `H` of its rows
//! ([`View::row_hashes`]), so for those no cell is hashed here at all — the
//! cache only folds the vectors into sets. Views built any other way fall
//! back to hashing their cells, once.

use std::borrow::{Borrow, Cow};
use ver_common::fxhash::FxHashSet;
use ver_engine::view::View;

/// Order-free summary of a row-hash set: `(len, xor-fold, wrapping sum)`.
/// Equal sets have equal digests, so the compatible sweep compares sets
/// only inside a digest bucket.
pub type SetDigest = (usize, u64, u64);

/// One view's `H(V)`: the per-row hashes, their set, and the set's digest.
#[derive(Debug)]
struct Entry<'a> {
    rows: Cow<'a, [u64]>,
    set: FxHashSet<u64>,
    digest: SetDigest,
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

/// Set relationship between two row-hash sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetRelation {
    /// Identical sets.
    Equal,
    /// Left strictly inside right.
    LeftInRight,
    /// Right strictly inside left.
    RightInLeft,
    /// Non-empty intersection, neither contained.
    Overlap,
    /// Empty intersection.
    Disjoint,
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
            let set: FxHashSet<u64> = rows.iter().copied().collect();
            let digest = set.iter().fold((set.len(), 0u64, 0u64), |(n, x, s), &h| {
                (n, x ^ h, s.wrapping_add(h))
            });
            Entry { rows, set, digest }
        });
        HashCache { entries }
    }

    /// `H` of every row of view `i`, in row order.
    pub fn row_hashes(&self, i: usize) -> &[u64] {
        &self.entries[i].rows
    }

    /// The set `H(V)` of view `i`.
    pub fn get(&self, i: usize) -> &FxHashSet<u64> {
        &self.entries[i].set
    }

    /// Digest of view `i`'s row-hash set.
    pub fn digest(&self, i: usize) -> SetDigest {
        self.entries[i].digest
    }

    /// Relation between the row sets of views `a` and `b`.
    pub fn relation(&self, a: usize, b: usize) -> SetRelation {
        relation_of(self.get(a), self.get(b))
    }
}

/// Compute the [`SetRelation`] between two hash sets.
pub fn relation_of(sa: &FxHashSet<u64>, sb: &FxHashSet<u64>) -> SetRelation {
    if sa.len() == sb.len() && sa == sb {
        return SetRelation::Equal;
    }
    let (small, large, small_is_left) = if sa.len() <= sb.len() {
        (sa, sb, true)
    } else {
        (sb, sa, false)
    };
    let inter = small.iter().filter(|h| large.contains(*h)).count();
    if inter == 0 {
        return SetRelation::Disjoint;
    }
    if inter == small.len() && small.len() < large.len() {
        return if small_is_left {
            SetRelation::LeftInRight
        } else {
            SetRelation::RightInLeft
        };
    }
    SetRelation::Overlap
}

#[cfg(test)]
mod tests {
    use super::*;
    use ver_common::ids::ViewId;
    use ver_common::pool::ThreadPool;
    use ver_common::value::Value;
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
        assert_eq!(cache.relation(0, 1), SetRelation::Equal);
        assert_eq!(cache.relation(2, 0), SetRelation::LeftInRight);
        assert_eq!(cache.relation(0, 2), SetRelation::RightInLeft);
        assert_eq!(cache.relation(0, 3), SetRelation::Overlap);
        assert_eq!(cache.relation(0, 4), SetRelation::Disjoint);
    }

    #[test]
    fn prefill_is_thread_count_independent_and_matches_the_table_hash() {
        let views = vec![view(0, &[1, 2, 3]), view(1, &[1, 2, 2])];
        for threads in [1usize, 4] {
            let pre = HashCache::prefill(&views, &ThreadPool::new(threads));
            for (i, v) in views.iter().enumerate() {
                assert_eq!(pre.get(i), &v.hash_set(), "H(V{i}) differs");
                assert_eq!(pre.row_hashes(i), &*v.row_hashes());
            }
            assert_eq!(pre.get(1).len(), 2, "duplicate rows collapse in the set");
            assert_eq!(pre.row_hashes(1).len(), 3, "but not in the row vector");
            assert_eq!(pre.relation(0, 1), SetRelation::RightInLeft);
        }
    }

    #[test]
    fn views_sharing_an_id_do_not_alias() {
        // Every view straight out of the materializer carries the default
        // id; an id-keyed cache handed all of them the first one's set.
        let views = [view(0, &[1, 2]), view(0, &[7, 8, 9]), view(0, &[1, 2])];
        let cache = cache(&views);
        assert_eq!(cache.get(1).len(), 3);
        assert_eq!(cache.relation(0, 1), SetRelation::Disjoint);
        assert_eq!(cache.relation(0, 2), SetRelation::Equal);
    }

    #[test]
    fn equal_sets_have_equal_digests_whatever_the_row_order_or_repeats() {
        let views = [
            view(0, &[1, 2, 3]),
            view(1, &[3, 1, 2, 2]),
            view(2, &[1, 2]),
            view(3, &[]),
        ];
        let cache = cache(&views);
        assert_eq!(cache.digest(0), cache.digest(1));
        assert_ne!(cache.digest(0), cache.digest(2));
        assert_eq!(cache.digest(3), (0, 0, 0));
    }

    #[test]
    fn a_cache_can_be_filled_from_borrowed_views() {
        let views = [view(0, &[1, 2, 3]), view(1, &[1, 2])];
        let picked: Vec<&View> = vec![&views[1], &views[0]];
        let cache = HashCache::prefill(&picked, &ThreadPool::new(1));
        assert_eq!(cache.relation(0, 1), SetRelation::LeftInRight);
    }

    #[test]
    fn empty_views_are_disjoint_from_everything_nonempty() {
        let views = [view(0, &[]), view(1, &[1]), view(2, &[])];
        let cache = cache(&views);
        assert_eq!(cache.relation(0, 1), SetRelation::Disjoint);
        // Two empty sets are equal.
        assert_eq!(cache.relation(0, 2), SetRelation::Equal);
    }

    #[test]
    fn same_size_different_content_is_overlap_or_disjoint() {
        let views = [view(0, &[1, 2]), view(1, &[2, 3])];
        assert_eq!(cache(&views).relation(0, 1), SetRelation::Overlap);
    }
}
