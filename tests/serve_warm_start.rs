//! Persist → warm-start → serve, pinned against the golden snapshot.
//!
//! The serving layer's correctness claim is that none of its machinery —
//! full-index persistence, warm-start assembly, the result LRU, the
//! materialized-view LRU, concurrent access — changes a
//! single byte of query output. This suite drives the same fixed workload
//! as `tests/golden_online.rs` through a `ServeEngine` that was built,
//! persisted to disk, and re-loaded, and requires the rendered output to
//! match `tests/golden/online_snapshot.txt` exactly, on both the cold-cache
//! and warm-cache (hitting) passes. A sharded engine at the default
//! config, result cache off, re-materializes no view on its second pass.

use std::sync::Arc;
use ver_bench::golden::{golden_catalog, golden_queries, snapshot_with, SNAPSHOT_PATH};
use ver_index::persist::{load_index, save_index};
use ver_index::{build_index, IndexConfig};
use ver_serve::{ServeConfig, ServeEngine, ShardedEngine};

fn golden_expected() -> String {
    std::fs::read_to_string(SNAPSHOT_PATH)
        .expect("missing golden snapshot — run golden_online with VER_UPDATE_GOLDEN=1")
}

fn temp_index_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ver_serve_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("index_{tag}.bin"))
}

#[test]
fn persisted_index_round_trips_under_serve() {
    let catalog = golden_catalog();
    let index = build_index(&catalog, IndexConfig::default()).expect("index build");
    let path = temp_index_path("roundtrip");
    save_index(&index, &path).expect("save");
    let loaded = load_index(&path).expect("load");
    std::fs::remove_file(&path).ok();
    assert!(
        loaded.same_contents(&index),
        "persisted index must reproduce the built index exactly"
    );
}

#[test]
fn warm_started_engine_reproduces_the_golden_snapshot() {
    let expected = golden_expected();
    let catalog = Arc::new(golden_catalog());
    let queries = golden_queries(&catalog);

    // Build once, persist, drop the built engine, warm-start from disk.
    let path = temp_index_path("golden");
    {
        let index = build_index(&catalog, IndexConfig::default()).expect("index build");
        save_index(&index, &path).expect("save");
    }
    let engine =
        ServeEngine::open(Arc::clone(&catalog), &path, ServeConfig::default()).expect("warm start");
    std::fs::remove_file(&path).ok();

    // Pass 1: cold caches. Every query is a result-cache miss; the view
    // LRU fills as candidates recur across queries.
    let cold_pass = snapshot_with(&queries, |spec| engine.query(spec));
    assert_eq!(
        cold_pass, expected,
        "warm-started serving diverged from the golden snapshot (cold caches)"
    );

    // Pass 2: warm caches. Every query is a result-cache hit; output must
    // not move by a byte.
    let warm_pass = snapshot_with(&queries, |spec| engine.query(spec));
    assert_eq!(
        warm_pass, expected,
        "cache-hitting serving diverged from the golden snapshot"
    );

    let stats = engine.stats();
    assert_eq!(stats.queries as usize, queries.len() * 2);
    assert_eq!(
        stats.result_cache.hits as usize,
        queries.len(),
        "second pass must be served entirely from the result cache"
    );
}

#[test]
fn view_cache_hits_across_distinct_queries() {
    // Distinct specs bypass the whole-result cache; candidate views shared
    // between them must still hit the cross-query view LRU.
    let catalog = Arc::new(golden_catalog());
    let queries = golden_queries(&catalog);
    let index = Arc::new(build_index(&catalog, IndexConfig::default()).expect("index build"));

    let engine = ServeEngine::warm_start(
        Arc::clone(&catalog),
        index,
        // Result cache off: every query runs the pipeline. The view LRU
        // must cover the workload's full candidate working set — an LRU
        // smaller than one scan degrades to zero hits (see ServeConfig).
        // 16 MiB holds the golden working set many times over.
        ServeConfig {
            result_cache_capacity: 0,
            view_cache_capacity: 16 << 20,
            ..ServeConfig::default()
        },
    )
    .expect("warm start");

    for (_, spec) in &queries {
        engine.query(spec).expect("query");
    }
    for (_, spec) in &queries {
        engine.query(spec).expect("query");
    }
    let stats = engine.stats();
    assert_eq!(stats.result_cache.hits, 0, "result cache is disabled");
    assert!(
        stats.view_cache.hits > 0,
        "repeated pipeline runs must hit the materialized-view LRU: {stats:?}"
    );
}

#[test]
fn default_view_cache_holds_the_sharded_working_set() {
    // The default view LRU is bounded in bytes and sized to hold a
    // workload's whole candidate working set: with the result cache off, a
    // sharded engine's second pass over the golden workload finds every
    // view its legs look up, and the first pass evicted nothing.
    let catalog = Arc::new(golden_catalog());
    let queries = golden_queries(&catalog);
    let index = Arc::new(build_index(&catalog, IndexConfig::default()).expect("index build"));
    let engine = ShardedEngine::warm_start(
        Arc::clone(&catalog),
        index,
        ServeConfig {
            result_cache_capacity: 0,
            ..ServeConfig::default()
        },
        2,
    )
    .expect("warm start");

    for (_, spec) in &queries {
        engine.query(spec).expect("query");
    }
    let first = engine.stats();
    assert!(first.view_cache.misses > 0, "{first:?}");
    assert_eq!(
        first.cached_views as u64, first.view_cache.misses,
        "every view built on the first pass is still cached: {first:?}"
    );
    for (_, spec) in &queries {
        engine.query(spec).expect("query");
    }
    let second = engine.stats();
    assert_eq!(second.result_cache.lookups(), 0, "result cache is disabled");
    assert_eq!(
        second.view_cache.misses, first.view_cache.misses,
        "the second pass re-materialized views: {second:?}"
    );
    assert!(second.view_cache.hits > first.view_cache.hits);
}

#[test]
fn concurrent_clients_see_identical_golden_output() {
    let expected = golden_expected();
    let catalog = Arc::new(golden_catalog());
    let queries = golden_queries(&catalog);
    let index = Arc::new(build_index(&catalog, IndexConfig::default()).expect("index build"));
    let engine = Arc::new(
        ServeEngine::warm_start(Arc::clone(&catalog), index, ServeConfig::default())
            .expect("warm start"),
    );

    // Pre-warm the result cache with one sequential pass; otherwise four
    // in-phase clients can each miss every key before any insert lands (the
    // classic dogpile — benign for correctness, but it would make the
    // hit-count assertion below flaky on small machines).
    let warmup = snapshot_with(&queries, |spec| engine.query(spec));
    assert_eq!(warmup, expected, "warm-up pass diverged");

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let engine = Arc::clone(&engine);
            let queries = queries.clone();
            let expected = expected.clone();
            scope.spawn(move || {
                let rendered = snapshot_with(&queries, |spec| engine.query(spec));
                assert_eq!(rendered, expected, "concurrent client saw divergent output");
            });
        }
    });
    let stats = engine.stats();
    assert_eq!(
        stats.result_cache.hits as usize,
        4 * queries.len(),
        "every threaded query must be served from the pre-warmed result cache"
    );
}

#[test]
fn warm_start_skips_the_build_and_answers_identically() {
    // Not a benchmark (CI boxes are noisy) — a structural check that the
    // warm path never rebuilds: it must answer correctly even though the
    // engine was given only the persisted artifact, plus a smoke assertion
    // that loading is cheaper than building on this corpus.
    let catalog = Arc::new(golden_catalog());
    let path = temp_index_path("speed");

    let t_build = std::time::Instant::now();
    let index = build_index(&catalog, IndexConfig::default()).expect("index build");
    let build_elapsed = t_build.elapsed();
    save_index(&index, &path).expect("save");

    let t_load = std::time::Instant::now();
    let loaded = load_index(&path).expect("load");
    let load_elapsed = t_load.elapsed();
    std::fs::remove_file(&path).ok();

    assert!(loaded.same_contents(&index));
    assert!(
        load_elapsed < build_elapsed,
        "warm-start load ({load_elapsed:?}) should be faster than a cold build ({build_elapsed:?})"
    );

    let engine = ServeEngine::warm_start(
        Arc::clone(&catalog),
        Arc::new(loaded),
        ServeConfig::default(),
    )
    .expect("warm start");
    let queries = golden_queries(&catalog);
    let (name, spec) = &queries[0];
    let result = engine.query(spec).expect("query");
    assert!(!result.views.is_empty(), "{name} produced no views");
}
