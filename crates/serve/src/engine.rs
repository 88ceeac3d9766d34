//! The serving front: what happens to a query between arrival and answer.
//!
//! [`Engine`] owns that policy **once** — result LRU, admission gate,
//! `serve.query` fault point, the partial-is-never-cached rule, the
//! deadline fallback, counters and the [`ServeStats`] assembly —
//! and is parameterised only by *how a miss is computed*, the
//! [`MissBackend`] seam. The three deployment shapes are instantiations:
//! [`ServeEngine`] runs the pipeline in process, [`ShardedEngine`] and
//! [`RouterEngine`] scatter over local or remote legs ([`crate::sharded`],
//! [`crate::remote`]).
//!
//! [`ShardedEngine`]: crate::ShardedEngine
//! [`RouterEngine`]: crate::RouterEngine

use crate::remote::RouterLegStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ver_common::budget::QueryBudget;
use ver_common::cache::{CacheStats, LruCache};
use ver_common::error::{Result, VerError};
use ver_core::{QueryResult, Ver, VerConfig};
use ver_index::persist::{load_index, save_index};
use ver_index::DiscoveryIndex;
use ver_qbe::ViewSpec;
use ver_search::{SearchCaches, ShardSearchOutput};
use ver_store::catalog::TableCatalog;

/// Serving-layer tunables on top of the pipeline configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The underlying pipeline knobs (selection, search, distillation,
    /// presentation). `pipeline.search.threads` / `pipeline.distill.threads`
    /// are the per-query fan-out budget; set both at once with
    /// [`ServeConfig::with_query_threads`].
    pub pipeline: VerConfig,
    /// Capacity of the whole-result LRU, in results (`0` disables result
    /// caching).
    pub result_cache_capacity: usize,
    /// Capacity of the materialized-view LRU shared across queries, in
    /// **bytes** (`0` disables view caching). Each entry is charged, once
    /// at insert, an upper bound on the bytes it can come to hold: its
    /// source-row index arrays, its row hashes, its provenance and plan
    /// key, and its cells at `size_of::<Value>()` each as if gathered
    /// (text bytes are shared with the base tables and not charged). The
    /// bound is in bytes because views differ widely in rows, so a count
    /// of entries bounds neither memory nor the working set it can hold:
    /// an LRU smaller than one sequential scan of the working set
    /// degrades to zero hits, and the pinned `wdc120` corpus has more
    /// distinct candidates (about 11 700, 3.2 kB each by this charge)
    /// than the old 8 192-entry cap held. The 64 MiB default holds that
    /// whole working set (about 37 MB); the resident memory is far less,
    /// since the cells of the views 4C discards are never gathered.
    pub view_cache_capacity: usize,
    /// Admission gate: maximum queries allowed to execute the pipeline
    /// concurrently (`0` = unbounded). The gate **fails fast** — the
    /// `max_in_flight + 1`-th concurrent miss is rejected with
    /// [`VerError::Overloaded`] instead of queued, so callers keep control
    /// of retry policy and one slow query cannot grow an unbounded backlog.
    /// Result-cache hits bypass the gate (they do no pipeline work).
    pub max_in_flight: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            pipeline: VerConfig::default(),
            result_cache_capacity: 64,
            view_cache_capacity: 64 << 20,
            max_in_flight: 0,
        }
    }
}

impl ServeConfig {
    /// Pin the per-query thread budget: every query's join-graph scoring,
    /// top-k materialization, and 4C distillation fan out over at most
    /// `threads` workers (`0` = one per available hardware thread). Output
    /// is bit-identical for every value — this is purely a resource knob,
    /// the lever that keeps one heavy query from starving its neighbours.
    pub fn with_query_threads(mut self, threads: usize) -> Self {
        self.pipeline.search.threads = threads;
        self.pipeline.distill.threads = threads;
        self
    }

    /// The configured per-query thread budget.
    pub fn query_threads(&self) -> usize {
        self.pipeline.search.threads
    }

    /// Bound concurrent pipeline executions (`0` = unbounded); see
    /// [`ServeConfig::max_in_flight`].
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight;
        self
    }
}

/// Point-in-time serving statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Queries admitted (cache hits included).
    pub queries: u64,
    /// Whole-result LRU hit/miss counts.
    pub result_cache: CacheStats,
    /// Materialized-view LRU hit/miss counts (across queries).
    pub view_cache: CacheStats,
    /// Retired: join scores are no longer memoized. Always
    /// `CacheStats { disabled: true, .. }` with zero lookups; kept so
    /// readers of the field still compile.
    pub score_memo: CacheStats,
    /// Views currently held by the view LRU.
    pub cached_views: usize,
    /// Queries rejected by the admission gate ([`VerError::Overloaded`]).
    pub rejected: u64,
    /// Queries that completed degraded (`partial: true` — deadline tripped
    /// or a worker panicked mid-query). Partial results are returned to
    /// their caller but never cached.
    pub partial_results: u64,
    /// Queries executing the pipeline right now (cache hits excluded).
    pub in_flight: usize,
}

/// How a result-cache miss is computed — the one seam between the serving
/// front ([`Engine`]) and the deployment shapes behind it. Everything else
/// a query meets on its way (cache, gate, fault point, counters) is the
/// front's and identical for every implementation.
pub trait MissBackend {
    /// Compute the answer to `spec` under `budget`. Called with an
    /// admission slot held, after the result LRU missed. `ver` is the
    /// engine's pipeline facade over the full catalog and index.
    fn compute(&self, ver: &Ver, spec: &ViewSpec, budget: &QueryBudget) -> Result<QueryResult>;

    /// The cross-query search caches this process searches with (`None`
    /// when every leg is remote) — reported in [`ServeStats`].
    fn caches(&self) -> Option<&SearchCaches>;

    /// Logical shards a miss fans out over (`1` = no scatter).
    fn shard_count(&self) -> usize {
        1
    }

    /// Health of each remote leg, indexed by shard (empty unless routing).
    fn leg_stats(&self) -> Vec<RouterLegStats> {
        Vec::new()
    }

    /// Whether this engine answers [`Engine::shard_query`]. Only the
    /// in-process backend does: a scattering backend answering a leg
    /// request would nest scatters, which the deployment shape rules out —
    /// a router fans out to *shard-serving* `verd`s, never to another
    /// router.
    fn serves_legs(&self) -> bool {
        false
    }
}

/// The in-process [`MissBackend`]: a miss runs [`Ver::run_budgeted`] with
/// the engine's cross-query [`SearchCaches`] threaded through, so even a
/// result-cache miss reuses materialized views from earlier queries.
pub struct InProcess {
    caches: SearchCaches,
}

impl MissBackend for InProcess {
    fn compute(&self, ver: &Ver, spec: &ViewSpec, budget: &QueryBudget) -> Result<QueryResult> {
        ver.run_budgeted(spec, Some(&self.caches), budget)
    }

    fn caches(&self) -> Option<&SearchCaches> {
        Some(&self.caches)
    }

    fn serves_legs(&self) -> bool {
        true
    }
}

/// A long-lived, concurrently shareable serving engine over miss backend
/// `B`.
///
/// All entry points take `&self`; the engine is `Sync` and designed to sit
/// behind an `Arc` with any number of client threads calling
/// [`Engine::query`] simultaneously. An interactive QBE loop (Algorithm 2)
/// runs over a shared answer with no engine state:
/// `engine.ver().present(&spec, &engine.query(&spec)?, &mut user)`.
pub struct Engine<B> {
    ver: Ver,
    config: ServeConfig,
    /// Whole-result cache keyed by the canonical query form.
    results: LruCache<String, Arc<QueryResult>>,
    pub(crate) miss: B,
    queries: AtomicU64,
    in_flight: AtomicU64,
    rejected: AtomicU64,
    partial_results: AtomicU64,
}

/// The single-process engine: every miss runs the pipeline here.
pub type ServeEngine = Engine<InProcess>;

/// RAII admission permit: one slot of [`ServeConfig::max_in_flight`],
/// released on drop — including when the query errors or (behind the
/// pool's isolation) a worker panicked, so failed queries can never leak
/// the gate shut.
struct InFlightPermit<'a>(&'a AtomicU64);

impl Drop for InFlightPermit<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl ServeEngine {
    /// Cold start: profile the catalog and build the discovery index in
    /// process (the path [`ServeEngine::open`] exists to avoid).
    pub fn build(catalog: TableCatalog, config: ServeConfig) -> Result<ServeEngine> {
        let ver = Ver::build(catalog, config.pipeline.clone())?;
        Ok(Self::in_process(ver, config))
    }

    /// Warm start from an already-built index (typically loaded via
    /// [`ver_index::persist::load_index`]). No profiling, sketching, or LSH
    /// runs; the engine is ready as soon as the artifact is in memory.
    pub fn warm_start(
        catalog: Arc<TableCatalog>,
        index: Arc<DiscoveryIndex>,
        config: ServeConfig,
    ) -> Result<ServeEngine> {
        let ver = Ver::from_parts(catalog, index, config.pipeline.clone())?;
        Ok(Self::in_process(ver, config))
    }

    /// Warm start from a persisted index file (see
    /// [`ver_index::persist::save_index`]).
    pub fn open(
        catalog: Arc<TableCatalog>,
        index_path: &std::path::Path,
        config: ServeConfig,
    ) -> Result<ServeEngine> {
        let index = load_index(index_path)?;
        Self::warm_start(catalog, Arc::new(index), config)
    }

    fn in_process(ver: Ver, config: ServeConfig) -> ServeEngine {
        let caches = SearchCaches::new(config.view_cache_capacity);
        Engine::assemble(ver, config, InProcess { caches })
    }
}

impl<B: MissBackend> Engine<B> {
    pub(crate) fn assemble(ver: Ver, config: ServeConfig, miss: B) -> Engine<B> {
        Engine {
            results: LruCache::new(config.result_cache_capacity),
            miss,
            queries: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            partial_results: AtomicU64::new(0),
            ver,
            config,
        }
    }

    /// Claim an admission slot, failing fast with [`VerError::Overloaded`]
    /// when [`ServeConfig::max_in_flight`] slots are already taken. The
    /// gate counts *queries*, not scatter legs: one admitted query fans
    /// out to all shards.
    fn admit(&self) -> Result<InFlightPermit<'_>> {
        let limit = self.config.max_in_flight;
        let prev = self.in_flight.fetch_add(1, Ordering::AcqRel);
        if limit != 0 && prev as usize >= limit {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(VerError::Overloaded(format!(
                "{limit} queries already in flight"
            )));
        }
        Ok(InFlightPermit(&self.in_flight))
    }

    /// Persist this engine's index as one full-index artifact so future
    /// processes can warm-start instead of rebuilding.
    pub fn save_index(&self, path: &std::path::Path) -> Result<()> {
        save_index(self.ver.index(), path)
    }

    /// The wrapped pipeline facade.
    pub fn ver(&self) -> &Ver {
        &self.ver
    }

    /// Shared handle to the catalog.
    pub fn catalog_shared(&self) -> Arc<TableCatalog> {
        self.ver.catalog_shared()
    }

    /// Shared handle to the (logical, merged) index.
    pub fn index_shared(&self) -> Arc<DiscoveryIndex> {
        self.ver.index_shared()
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Number of logical shards a miss scatters over (`1` for the
    /// single-process engine).
    pub fn shard_count(&self) -> usize {
        self.miss.shard_count()
    }

    /// Per-leg health of a router's remote legs, indexed by shard id
    /// (empty for engines without remote legs).
    pub fn leg_stats(&self) -> Vec<RouterLegStats> {
        self.miss.leg_stats()
    }

    /// Answer a view specification.
    ///
    /// Identical specs (after value normalization) are served from the
    /// whole-result LRU; misses go to the [`MissBackend`]. The returned
    /// result is shared — concurrent callers alias one materialization.
    ///
    /// Unbudgeted: shorthand for [`Engine::query_with_budget`] with an
    /// unlimited [`QueryBudget`]. Still subject to the admission gate.
    pub fn query(&self, spec: &ViewSpec) -> Result<Arc<QueryResult>> {
        self.query_with_budget(spec, &QueryBudget::none())
    }

    /// [`Engine::query`] under a per-query [`QueryBudget`].
    ///
    /// The failure model, in order:
    ///
    /// 1. **Cache hits are free**: a result-LRU hit is returned before the
    ///    admission gate or budget are consulted — it does no work.
    /// 2. **Admission**: a miss claims an in-flight slot or fails fast
    ///    with [`VerError::Overloaded`].
    /// 3. **Degradation**: the budget is threaded through every pipeline
    ///    stage and scatter leg. Deadline exhaustion, isolated worker
    ///    panics and dropped legs degrade to the best-ranked views
    ///    completed so far with [`QueryResult::partial`] set — partial
    ///    results are returned but **never cached**, so a later retry with
    ///    headroom (or a restarted leg) can produce and cache the
    ///    complete answer.
    /// 4. **Fallback**: if the miss fails outright with
    ///    [`VerError::DeadlineExceeded`], the result LRU is consulted once
    ///    more (a concurrent complete run may have landed meanwhile)
    ///    before the error is surfaced.
    /// 5. Any other error (I/O, invalid data) propagates typed and
    ///    untranslated.
    pub fn query_with_budget(
        &self,
        spec: &ViewSpec,
        budget: &QueryBudget,
    ) -> Result<Arc<QueryResult>> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let key = spec_key(spec);
        if let Some(hit) = self.results.get(&key) {
            return Ok(hit);
        }
        let _permit = self.admit()?;
        ver_common::fault::hit(ver_common::fault::points::SERVE_QUERY)?;
        match self.miss.compute(&self.ver, spec, budget) {
            Ok(result) => {
                let result = Arc::new(result);
                if result.partial {
                    // Never cache a degraded result: the next query with
                    // headroom (or after a dead leg restarts) must be able
                    // to compute the full, byte-identical answer.
                    self.partial_results.fetch_add(1, Ordering::Relaxed);
                } else {
                    // Charged 1: the capacity counts results.
                    self.results.insert(key, Arc::clone(&result), 1);
                }
                Ok(result)
            }
            Err(e @ VerError::DeadlineExceeded(_)) => self.results.get(&key).ok_or(e),
            Err(e) => Err(e),
        }
    }

    /// Run **one scatter leg** of a sharded query on this engine — the
    /// shard-serving side of `verd`'s remote scatter (`ShardQuery` on the
    /// wire). Counts as a query for admission and stats, but bypasses the
    /// result LRU: leg outputs are merged (and cached) at the router, and
    /// caching a raw slice here could never be consulted coherently.
    /// Selection is recomputed per leg — a pure function of the index,
    /// spec, and config, so the slice is bit-identical to the one an
    /// in-process scatter would produce (invariant 13). Refused with
    /// [`VerError::InvalidQuery`] unless [`MissBackend::serves_legs`].
    pub fn shard_query(
        &self,
        spec: &ViewSpec,
        shard: usize,
        shard_count: usize,
        budget: &QueryBudget,
    ) -> Result<ShardSearchOutput> {
        if !self.miss.serves_legs() {
            return Err(VerError::InvalidQuery(
                "this verd is not a shard leg (sharded/router backends do not serve ShardQuery)"
                    .into(),
            ));
        }
        self.queries.fetch_add(1, Ordering::Relaxed);
        let _permit = self.admit()?;
        ver_common::fault::hit(ver_common::fault::points::SERVE_QUERY)?;
        self.ver
            .run_shard_leg(spec, self.miss.caches(), budget, shard, shard_count)
    }

    /// Serving statistics snapshot. An engine that runs no local search
    /// (a router) reports the view cache as the all-zero default.
    pub fn stats(&self) -> ServeStats {
        let caches = self.miss.caches();
        ServeStats {
            queries: self.queries.load(Ordering::Relaxed),
            result_cache: self.results.stats(),
            view_cache: caches.map(SearchCaches::view_stats).unwrap_or_default(),
            score_memo: CacheStats {
                disabled: true,
                ..CacheStats::default()
            },
            cached_views: caches.map_or(0, SearchCaches::cached_views),
            rejected: self.rejected.load(Ordering::Relaxed),
            partial_results: self.partial_results.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed) as usize,
        }
    }
}

/// Canonical string form of a spec — the result-cache key.
///
/// Two specs map to the same key exactly when the pipeline treats them
/// identically: per-attribute example values are compared by logical type
/// plus normalized form (the form COLUMN-SELECTION, FastTopK ranking and
/// presentation distances all operate on), name hints and attribute order
/// are preserved, and the three interfaces are disjoint namespaces. Every
/// variable-length part is **length-prefixed** (`{len}:{bytes}`), so user
/// strings containing any would-be separator cannot make two different
/// specs collide on one key.
pub(crate) fn spec_key(spec: &ViewSpec) -> String {
    use std::fmt::Write as _;
    let mut key = String::new();
    let part = |key: &mut String, s: &str| {
        let _ = write!(key, "{}:{s}", s.len());
    };
    match spec {
        ViewSpec::Qbe(q) => {
            key.push_str("qbe");
            for col in &q.columns {
                key.push('|');
                match &col.name_hint {
                    Some(hint) => {
                        key.push('~');
                        part(&mut key, hint);
                    }
                    None => key.push('_'),
                }
                for v in &col.examples {
                    if v.is_null() {
                        key.push('0');
                    } else {
                        let _ = write!(key, "{}", v.data_type());
                        part(&mut key, &v.normalized());
                    }
                }
            }
        }
        ViewSpec::Keyword(terms) => {
            key.push_str("kw");
            for t in terms {
                part(&mut key, t);
            }
        }
        ViewSpec::Attribute(terms) => {
            key.push_str("attr");
            for t in terms {
                part(&mut key, t);
            }
        }
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{catalog, config, spec};
    use crate::net::{Backend, NetConfig, RetryPolicy, Server, ServerHandle};
    use crate::{RouterEngine, ShardedEngine};
    use ver_present::OracleUser;
    use ver_qbe::{ExampleQuery, QueryColumn};

    /// The serving contract, asserted identically on whatever `make`
    /// builds: every flavour is the same front, so every flavour must pass
    /// the same checks.
    fn assert_serving_contract<B: MissBackend>(
        name: &str,
        make: impl Fn(ServeConfig) -> Engine<B>,
    ) {
        // A repeated query aliases the first answer out of the result LRU.
        let engine = make(config());
        let a = engine.query(&spec()).unwrap();
        let b = engine.query(&spec()).unwrap();
        assert!(!a.views.is_empty(), "{name}");
        assert!(
            Arc::ptr_eq(&a, &b),
            "{name}: second query must alias the first"
        );
        let stats = engine.stats();
        assert_eq!(stats.queries, 2, "{name}");
        assert_eq!(stats.result_cache.hits, 1, "{name}");
        assert_eq!(stats.result_cache.misses, 1, "{name}");

        // A full gate fails fast and counts the rejection; the rejected
        // query leaks no slot; releasing re-opens; hits bypass the gate.
        let gated = make(config().with_max_in_flight(1));
        // Claim the only slot by hand, exactly as an executing miss would.
        let permit = gated.admit().unwrap();
        match gated.query(&spec()) {
            Err(VerError::Overloaded(m)) => assert!(m.contains("1 queries"), "{name}: {m}"),
            other => panic!("{name}: expected Overloaded, got {other:?}"),
        }
        assert_eq!(gated.stats().rejected, 1, "{name}");
        assert_eq!(
            gated.stats().in_flight,
            1,
            "{name}: the rejection leaked a slot"
        );
        drop(permit);
        let full = gated.query(&spec()).unwrap();
        assert!(!full.partial && !full.views.is_empty(), "{name}");
        assert_eq!(gated.stats().in_flight, 0, "{name}");
        let _block = gated.admit().unwrap();
        let hit = gated.query(&spec()).unwrap();
        assert!(
            Arc::ptr_eq(&full, &hit),
            "{name}: hit must bypass the full gate"
        );

        // An exhausted budget degrades to a partial answer that is counted
        // but never cached...
        let engine = make(config());
        let exhausted = QueryBudget::none().with_timeout(std::time::Duration::ZERO);
        let partial = engine.query_with_budget(&spec(), &exhausted).unwrap();
        assert!(partial.partial, "{name}");
        assert!(partial.views.is_empty(), "{name}");
        assert_eq!(engine.stats().partial_results, 1, "{name}");
        // ...so the next unbudgeted query computes the complete answer...
        let full = engine.query(&spec()).unwrap();
        assert!(!full.partial && !full.views.is_empty(), "{name}");
        assert_eq!(engine.stats().result_cache.hits, 0, "{name}");
        assert_eq!(full.ranked, a.ranked, "{name}");
        // ...and once that is cached, even an exhausted budget is served
        // from the LRU (a hit does no budgeted work).
        let served = engine.query_with_budget(&spec(), &exhausted).unwrap();
        assert!(Arc::ptr_eq(&full, &served), "{name}");
        assert_eq!(engine.stats().partial_results, 1, "{name}: no new partials");
        assert_eq!(engine.stats().in_flight, 0, "{name}");
    }

    /// `n` in-process `verd` shard legs (one shared single engine behind
    /// `n` listeners) and a router constructor over them.
    fn router_over_legs(n: usize) -> (Vec<ServerHandle>, impl Fn(ServeConfig) -> RouterEngine) {
        let leg = Arc::new(ServeEngine::build(catalog(), config()).unwrap());
        let legs: Vec<ServerHandle> = (0..n)
            .map(|_| {
                let net = NetConfig {
                    addr: "127.0.0.1:0".parse().unwrap(),
                    ..NetConfig::default()
                };
                Server::bind(Backend::Single(Arc::clone(&leg)), net)
                    .unwrap()
                    .spawn()
            })
            .collect();
        let addrs: Vec<_> = legs.iter().map(ServerHandle::addr).collect();
        let make = move |c| {
            let (catalog, index) = (leg.catalog_shared(), leg.index_shared());
            RouterEngine::warm_start(catalog, index, c, &addrs, RetryPolicy::default()).unwrap()
        };
        (legs, make)
    }

    #[test]
    fn single_engine_honours_the_serving_contract() {
        assert_serving_contract("single", |c| ServeEngine::build(catalog(), c).unwrap());
    }

    #[test]
    fn local_scatter_honours_the_serving_contract_at_every_shard_count() {
        for shards in [1usize, 2, 4] {
            assert_serving_contract(&format!("sharded/{shards}"), |c| {
                ShardedEngine::build(catalog(), c, shards).unwrap()
            });
        }
    }

    #[test]
    fn router_over_verd_legs_honours_the_serving_contract() {
        let (_legs, make) = router_over_legs(2);
        assert_serving_contract("router/2", make);
    }

    #[test]
    fn only_the_in_process_engine_serves_scatter_legs() {
        let budget = QueryBudget::none();
        let single = ServeEngine::build(catalog(), config()).unwrap();
        let leg = single.shard_query(&spec(), 1, 2, &budget).unwrap();
        assert_eq!((leg.shard, leg.shard_count), (1, 2));
        assert_eq!(single.stats().queries, 1, "a served leg counts as a query");
        assert_eq!(
            single.stats().result_cache.lookups(),
            0,
            "legs bypass the LRU"
        );

        // A scattering engine answering a leg would nest scatters: refused
        // before it is counted or admitted.
        let sharded = ShardedEngine::build(catalog(), config(), 2).unwrap();
        let err = sharded.shard_query(&spec(), 0, 2, &budget);
        assert!(matches!(err, Err(VerError::InvalidQuery(_))), "{err:?}");
        assert_eq!(sharded.stats().queries, 0);
        let (_legs, make) = router_over_legs(2);
        let router = make(config());
        let err = router.shard_query(&spec(), 0, 2, &budget);
        assert!(matches!(err, Err(VerError::InvalidQuery(_))), "{err:?}");
        assert_eq!(router.stats().queries, 0);
    }

    #[test]
    fn warm_start_answers_like_cold_build() {
        let cold = ServeEngine::build(catalog(), config()).unwrap();
        let warm =
            ServeEngine::warm_start(cold.catalog_shared(), cold.index_shared(), config()).unwrap();
        let a = cold.query(&spec()).unwrap();
        let b = warm.query(&spec()).unwrap();
        assert_eq!(a.ranked, b.ranked);
        assert_eq!(a.views.len(), b.views.len());
        for (va, vb) in a.views.iter().zip(&b.views) {
            assert!(va.same_contents(vb));
        }
    }

    #[test]
    fn persisted_index_round_trips_through_open() {
        let dir = std::env::temp_dir().join(format!("ver_serve_unit_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.bin");
        let cold = ServeEngine::build(catalog(), config()).unwrap();
        cold.save_index(&path).unwrap();
        let warm = ServeEngine::open(cold.catalog_shared(), &path, config()).unwrap();
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
        assert!(warm.index_shared().same_contents(&cold.index_shared()));
        let a = cold.query(&spec()).unwrap();
        let b = warm.query(&spec()).unwrap();
        assert_eq!(a.ranked, b.ranked);
    }

    #[test]
    fn two_presentations_over_one_cached_result_reach_their_targets() {
        let engine = ServeEngine::build(catalog(), config()).unwrap();
        let first = engine.query(&spec()).unwrap();
        let second = engine.query(&spec()).unwrap();
        // Both loops share one materialization via the result cache.
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(engine.stats().result_cache.hits, 1);

        // The best-ranked view and the worst-ranked one.
        let last = first.ranked.len() - 1;
        for (result, rank) in [(&first, 0), (&second, last)] {
            let target = result.ranked[rank].0;
            let mut user = OracleUser::new(target);
            let outcome = engine.ver().present(&spec(), result, &mut user);
            assert_eq!(outcome.found_view(), Some(target));
        }
    }

    #[test]
    fn concurrent_queries_and_sessions_are_consistent() {
        let engine = Arc::new(ServeEngine::build(catalog(), config()).unwrap());
        let baseline = engine.query(&spec()).unwrap();
        let specs: Vec<ViewSpec> = vec![
            spec(),
            ViewSpec::Qbe(ExampleQuery::from_rows(&[vec!["st3", "1003"]]).unwrap()),
            ViewSpec::Keyword(vec!["st5".into()]),
            ViewSpec::Attribute(vec!["pop".into()]),
        ];
        std::thread::scope(|scope| {
            for t in 0..4 {
                let engine = Arc::clone(&engine);
                let specs = specs.clone();
                let baseline = Arc::clone(&baseline);
                scope.spawn(move || {
                    for round in 0..3 {
                        for s in &specs {
                            let out = engine.query(s).unwrap();
                            if s == &specs[0] {
                                assert_eq!(out.ranked, baseline.ranked, "t{t} r{round}");
                            }
                        }
                        let result = engine.query(&specs[0]).unwrap();
                        let target = result.ranked[0].0;
                        let mut user = OracleUser::new(target);
                        let outcome = engine.ver().present(&specs[0], &result, &mut user);
                        assert_eq!(outcome.found_view(), Some(target));
                    }
                });
            }
        });
        let stats = engine.stats();
        assert_eq!(stats.queries, 1 + 4 * 3 * (specs.len() as u64 + 1));
        assert!(stats.result_cache.hits > 0);
    }

    #[test]
    fn spec_keys_distinguish_interfaces_and_content() {
        let qbe1 = spec_key(&spec());
        let qbe2 = spec_key(&ViewSpec::Qbe(
            ExampleQuery::from_rows(&[vec!["st1", "1001"]]).unwrap(),
        ));
        assert_ne!(qbe1, qbe2);
        assert_ne!(
            spec_key(&ViewSpec::Keyword(vec!["pop".into()])),
            spec_key(&ViewSpec::Attribute(vec!["pop".into()]))
        );
        // Name hints participate.
        let plain = ViewSpec::Qbe(ExampleQuery::new(vec![QueryColumn::of_strs(&["st1"])]).unwrap());
        let hinted = ViewSpec::Qbe(
            ExampleQuery::new(vec![QueryColumn::of_strs(&["st1"]).named("state")]).unwrap(),
        );
        assert_ne!(spec_key(&plain), spec_key(&hinted));
        // Normalization unifies case (the pipeline is case-insensitive).
        let upper = ViewSpec::Qbe(ExampleQuery::new(vec![QueryColumn::of_strs(&["ST1"])]).unwrap());
        assert_eq!(spec_key(&plain), spec_key(&upper));
    }

    #[test]
    fn spec_keys_resist_separator_injection() {
        use ver_common::value::Value;
        // One example crafted to *look like* two concatenated key parts
        // must not collide with a genuine two-example column.
        let crafted = ViewSpec::Qbe(
            ExampleQuery::new(vec![QueryColumn::of_values(vec![Value::text(
                "x1:ytext1:z",
            )])])
            .unwrap(),
        );
        let genuine = ViewSpec::Qbe(
            ExampleQuery::new(vec![QueryColumn::of_values(vec![
                Value::text("x1:y"),
                Value::text("z"),
            ])])
            .unwrap(),
        );
        assert_ne!(spec_key(&crafted), spec_key(&genuine));
        // Control characters in terms don't merge keyword terms either.
        let one = ViewSpec::Keyword(vec!["a\u{1f}b".into()]);
        let two = ViewSpec::Keyword(vec!["a".into(), "b".into()]);
        assert_ne!(spec_key(&one), spec_key(&two));
    }

    #[test]
    fn generous_budget_matches_unbudgeted_output() {
        let engine = ServeEngine::build(catalog(), config()).unwrap();
        let base = engine.query(&spec()).unwrap();
        let engine2 = ServeEngine::build(catalog(), config()).unwrap();
        let budget = QueryBudget::none().with_timeout(std::time::Duration::from_secs(3600));
        let budgeted = engine2.query_with_budget(&spec(), &budget).unwrap();
        assert!(!budgeted.partial);
        assert_eq!(budgeted.ranked, base.ranked);
        assert_eq!(budgeted.views.len(), base.views.len());
        for (a, b) in budgeted.views.iter().zip(&base.views) {
            assert!(a.same_contents(b));
        }
    }

    #[test]
    fn query_threads_budget_is_purely_a_resource_knob() {
        let one = ServeEngine::build(catalog(), config().with_query_threads(1)).unwrap();
        let four = ServeEngine::build(catalog(), config().with_query_threads(4)).unwrap();
        assert_eq!(one.config().query_threads(), 1);
        let a = one.query(&spec()).unwrap();
        let b = four.query(&spec()).unwrap();
        assert_eq!(a.ranked, b.ranked);
        for (va, vb) in a.views.iter().zip(&b.views) {
            assert!(va.same_contents(vb));
        }
    }
}
