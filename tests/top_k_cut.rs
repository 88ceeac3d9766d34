//! The top-k cut is a prefix of the full ranking.
//!
//! For every golden query, with empty views kept (`drop_empty_views:
//! false`, so no view is filtered after the cut), the views searched at
//! k ∈ {1, 2, 7, 64, usize::MAX} are exactly the first k views searched at
//! `usize::MAX` — same `ViewId`s, same contents. The same holds for the
//! 2- and 3-shard scatter/gather merged through `merge_shard_outputs`.
//! This pins the selection-based cut (`ver_search::rank::top_k_by`) to
//! "sort everything, then truncate" on real candidates, where many share
//! a join graph and ties fall through to the projection.

use ver_bench::golden::{golden_catalog, golden_queries};
use ver_core::spec_select::select_for_spec;
use ver_core::{Ver, VerConfig};
use ver_search::{merge_shard_outputs, SearchConfig, SearchContext, SearchOutput};

const KS: [usize; 5] = [1, 2, 7, 64, usize::MAX];

/// `out` is the `k`-prefix of `full`, view for view.
fn assert_prefix(what: &str, k: usize, out: &SearchOutput, full: &SearchOutput) {
    assert!(!out.partial, "{what} k={k}: a healthy cut is not partial");
    assert_eq!(out.views.len(), k.min(full.views.len()), "{what} k={k}");
    for (a, b) in out.views.iter().zip(&full.views) {
        assert_eq!(a.id, b.id, "{what} k={k}");
        assert!(a.same_contents(b), "{what} k={k}: {} differs", a.id);
    }
}

#[test]
fn every_cut_is_a_prefix_of_the_full_ranking_single_and_sharded() {
    let cat = golden_catalog();
    let queries = golden_queries(&cat);
    let ver = Ver::build(cat, VerConfig::default()).expect("index build");
    let cx = SearchContext::new(ver.catalog(), ver.index());
    let config = |k| SearchConfig {
        k,
        drop_empty_views: false,
        ..ver.config().search.clone()
    };
    for (name, spec) in &queries {
        let selection = select_for_spec(ver.index(), spec, &ver.config().selection);
        let full = cx.search(&selection, &config(usize::MAX)).expect("search");
        assert!(full.views.len() > 7, "{name}: too few candidates to cut");
        for k in KS {
            let single = cx.search(&selection, &config(k)).expect("search");
            assert_prefix(name, k, &single, &full);
            for shards in [2, 3] {
                let legs = (0..shards)
                    .map(|s| cx.search_shard(&selection, &config(k), s, shards))
                    .collect::<Result<Vec<_>, _>>()
                    .expect("shard search");
                let merged = merge_shard_outputs(legs, true);
                assert_prefix(&format!("{name} over {shards} shards"), k, &merged, &full);
            }
        }
    }
}
