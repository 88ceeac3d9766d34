//! A candidate view is built once and passed by handle: its cells are
//! copied out of the base tables at most once, on first read, and a clone
//! shares the body.
//!
//! Pinned here on the golden workload:
//!
//! * a query gathers exactly the views 4C's key discovery and the ranking
//!   read — the C2 survivors — and no other candidate;
//! * a forced view is `ver_oracle::reexecute`'s table (invariant 9), and the row
//!   hashes it carried before it had cells are `hash_table_row` of them;
//! * `View::clone` and a view-LRU hit share one body, so a gather through
//!   one handle is visible through every other, across queries;
//! * threads racing to read one ungathered view gather it once.

use std::borrow::Cow;
use std::sync::{Arc, Barrier, OnceLock};
use ver_bench::golden::{golden_catalog, golden_queries};
use ver_core::spec_select::select_for_spec;
use ver_core::{Ver, VerConfig};
use ver_engine::rowhash::hash_table_row;
use ver_engine::view::View;
use ver_oracle::reexecute;
use ver_qbe::ViewSpec;
use ver_search::{SearchCaches, SearchContext};
use ver_store::table::Table;

fn golden() -> &'static (Ver, Vec<(String, ViewSpec)>) {
    static GOLDEN: OnceLock<(Ver, Vec<(String, ViewSpec)>)> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let catalog = golden_catalog();
        let queries = golden_queries(&catalog);
        let ver = Ver::build(catalog, VerConfig::default()).expect("index build");
        (ver, queries)
    })
}

/// The candidates of `spec` as the search stage hands them to 4C: nothing
/// gathered, row hashes attached.
fn candidates(ver: &Ver, spec: &ViewSpec, caches: Option<&SearchCaches>) -> Vec<View> {
    let selection = select_for_spec(ver.index(), spec, &ver.config().selection);
    let mut cx = SearchContext::new(ver.catalog(), ver.index());
    if let Some(caches) = caches {
        cx = cx.with_caches(caches);
    }
    cx.search(&selection, &ver.config().search)
        .expect("search")
        .views
}

#[test]
fn a_query_gathers_exactly_the_views_4c_and_ranking_read() {
    let (ver, queries) = golden();
    for (name, spec) in queries {
        let result = ver.run(spec).expect("pipeline run");
        let survivors = &result.distill.survivors_c2;
        assert!(!survivors.is_empty(), "{name}: nothing survived");
        assert!(
            result.ranked.iter().all(|(id, _)| survivors.contains(id)),
            "{name}: ranking reads survivors only"
        );
        for v in &result.views {
            assert_eq!(
                v.table.is_gathered(),
                survivors.contains(&v.id),
                "{name}: view {} of {} rows",
                v.id,
                v.row_count()
            );
        }
        assert!(
            survivors.len() < result.views.len(),
            "{name}: the workload must leave candidates ungathered"
        );
    }
}

#[test]
fn a_forced_view_is_the_reference_execution_and_its_hashes_were_right_all_along() {
    let (ver, queries) = golden();
    for (name, spec) in queries {
        for v in candidates(ver, spec, None) {
            let reference = reexecute(ver.catalog(), &v.provenance).expect("reference execution");
            // Known without a cell: shape, name, schema, row hashes.
            assert_eq!(v.row_count(), reference.row_count(), "{name}: {}", v.id);
            assert_eq!(v.name(), reference.name(), "{name}: {}", v.id);
            assert_eq!(v.schema(), reference.schema(), "{name}: {}", v.id);
            let hashes = v.row_hashes();
            assert!(matches!(hashes, Cow::Borrowed(_)), "{name}: {}", v.id);
            assert!(!v.table.is_gathered(), "{name}: {} gathered early", v.id);

            assert_eq!(v.table, reference.table, "{name}: {}", v.id);
            assert!(v.table.is_gathered());
            assert_eq!(v.provenance, reference.provenance, "{name}: {}", v.id);
            for (r, &h) in hashes.iter().enumerate() {
                assert_eq!(h, hash_table_row(&v.table, r), "{name}: {} row {r}", v.id);
            }
        }
    }
}

#[test]
fn a_clone_shares_the_body_and_its_gather() {
    let (ver, queries) = golden();
    let views = candidates(ver, &queries[0].1, None);
    let v = &views[0];
    let mut clone = v.clone();
    assert!(clone.table.ptr_eq(&v.table), "clone copied the table");
    assert!(
        Arc::ptr_eq(&clone.provenance, &v.provenance),
        "clone copied the provenance"
    );
    assert!(!v.table.is_gathered());
    let through_clone: *const Table = &*clone.table;
    assert!(v.table.is_gathered(), "the gather is the body's");
    assert!(std::ptr::eq(through_clone, &*v.table));
    // Row hashes are the handle's: releasing the clone's leaves the
    // original's.
    clone.release_row_hashes();
    assert!(matches!(clone.row_hashes(), Cow::Owned(_)));
    assert!(matches!(v.row_hashes(), Cow::Borrowed(_)));
    assert_eq!(clone.row_hashes(), v.row_hashes());
}

#[test]
fn queries_over_one_cache_share_bodies_and_what_was_gathered() {
    let (ver, queries) = golden();
    let spec = &queries[0].1;
    let caches = SearchCaches::new(64 << 20);
    let first = ver.run_cached(spec, Some(&caches)).expect("first run");
    let second = ver.run_cached(spec, Some(&caches)).expect("second run");
    assert_eq!(first.views.len(), second.views.len());
    for (a, b) in first.views.iter().zip(&second.views) {
        assert!(a.table.ptr_eq(&b.table), "view {} was rebuilt", a.id);
    }
    // A third search stops before 4C, and still finds the survivors of the
    // earlier queries gathered — and only them.
    for v in candidates(ver, spec, Some(&caches)) {
        assert!(v.table.ptr_eq(&first.views[v.id.0 as usize].table));
        assert_eq!(
            v.table.is_gathered(),
            first.distill.survivors_c2.contains(&v.id),
            "view {}",
            v.id
        );
        assert!(
            matches!(v.row_hashes(), Cow::Borrowed(_)),
            "the LRU keeps H"
        );
    }
}

#[test]
fn threads_racing_to_read_one_view_gather_it_once() {
    const READERS: usize = 8;
    let (ver, queries) = golden();
    let views = candidates(ver, &queries[0].1, None);
    let view = views
        .iter()
        .max_by_key(|v| v.row_count())
        .expect("candidates");
    assert!(!view.table.is_gathered());
    let barrier = Barrier::new(READERS);
    let seen: Vec<(usize, Table)> = std::thread::scope(|s| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let handle = view.clone();
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let table: &Table = &handle.table;
                    (table as *const Table as usize, table.clone())
                })
            })
            .collect();
        readers
            .into_iter()
            .map(|r| r.join().expect("reader"))
            .collect()
    });
    let reference = reexecute(ver.catalog(), &view.provenance).expect("reference execution");
    for (address, table) in &seen {
        assert_eq!(*address, seen[0].0, "a second gather happened");
        assert_eq!(*table, *reference.table);
    }
}
