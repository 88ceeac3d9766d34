//! Sharded serving: one logical catalog scattered over N shard handles.
//!
//! [`ShardedEngine`] is the serving front ([`Engine`]) with the [`Scatter`]
//! miss backend: every result-cache miss fans out over one
//! [`ShardBackend`] per logical shard on `ver_common::pool` and is
//! finished centrally ([`Ver::scatter_gather`]). Where a leg *runs* is
//! behind the [`ShardBackend`] trait: the engine built here scatters over
//! in-process [`LocalLeg`]s ([`Ver::run_shard_leg`]), and the router in
//! [`crate::remote`] scatters the same way over remote `verd` processes.
//! One [`SearchCaches`] bundle is shared by every local leg: the score
//! memo makes each shard's (identical) global scoring pass cheap, and
//! cache hits stay bit-identical to misses.
//!
//! **Determinism invariant 11.** For every shard count the merged answer
//! is bit-identical to the single-engine [`ServeEngine`](crate::ServeEngine) run — same views,
//! same ids, same ranking (`tests/parallel_determinism.rs` pins this
//! across shard × thread counts against the golden snapshot).
//!
//! **Failure model.** A scatter leg that trips the query deadline degrades
//! *inside* its shard; a leg whose worker panics is dropped at the gather.
//! Either way the merged result is flagged partial and returned — a shard
//! failure is never an error (`tests/chaos.rs`) — and the front never
//! caches a partial result. Per-shard health is visible in
//! [`Engine::shard_stats`].
//!
//! The shard count comes from the constructor, or from the `VER_SHARDS`
//! environment knob when `0` (auto) is passed — same contract as
//! `VER_THREADS`: malformed values warn once and fall back to `1`.

use crate::engine::{Engine, MissBackend, ServeConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ver_common::budget::QueryBudget;
use ver_common::error::{Result, VerError};
use ver_core::{QueryResult, Ver};
use ver_index::DiscoveryIndex;
use ver_qbe::ViewSpec;
use ver_search::{SearchCaches, ShardSearchOutput};
use ver_store::catalog::TableCatalog;

/// Parse a `VER_SHARDS`-style value: a positive shard count.
fn parse_shards(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

/// Default shard count: the `VER_SHARDS` environment variable, or `1`
/// (unsharded) when unset. A malformed value warns on stderr once per
/// process and falls back to `1` — a typo'd knob must not change results,
/// and invariant 11 means the fallback computes identical output anyway.
pub fn default_shards() -> usize {
    static KNOB: ver_common::env::EnvKnob<usize> =
        ver_common::env::EnvKnob::new("VER_SHARDS", "want a positive integer");
    KNOB.get(parse_shards, 1)
}

/// One scatter leg's executor: where shard `shard` of `shard_count`
/// actually runs. The in-process [`LocalLeg`] answers on this process's
/// own catalog/index; `ver_serve::remote::RemoteLeg` speaks the `verd`
/// protocol to a shard-serving peer. The merge contract (invariants 11
/// and 13) holds for any mix, because every backend computes the same
/// pure function of (index, spec, shard identity, budget).
pub trait ShardBackend: Send + Sync {
    /// Run one scatter leg: shard `shard` of `shard_count` under `budget`.
    fn leg_query(
        &self,
        spec: &ViewSpec,
        shard: usize,
        shard_count: usize,
        budget: &QueryBudget,
    ) -> Result<ShardSearchOutput>;

    /// Whether `e` **degrades** this leg (dropped at the gather, merged
    /// result flagged partial) rather than failing the whole query. The
    /// in-process default is [`ver_core::leg_degradable`]: worker panics
    /// and un-degraded deadlines are droppable, anything else is a real
    /// error. Remote backends widen this to transport failures.
    fn degradable(&self, e: &VerError) -> bool {
        ver_core::leg_degradable(e)
    }
}

/// The in-process [`ShardBackend`]: runs a leg on this process's own
/// catalog and index via [`Ver::run_shard_leg`], sharing one
/// [`SearchCaches`] bundle across every leg (cache hits are bit-identical
/// to misses, so sharing never changes results).
pub struct LocalLeg {
    ver: Ver,
    caches: Arc<SearchCaches>,
}

impl LocalLeg {
    pub fn new(ver: Ver, caches: Arc<SearchCaches>) -> LocalLeg {
        LocalLeg { ver, caches }
    }
}

impl ShardBackend for LocalLeg {
    fn leg_query(
        &self,
        spec: &ViewSpec,
        shard: usize,
        shard_count: usize,
        budget: &QueryBudget,
    ) -> Result<ShardSearchOutput> {
        self.ver
            .run_shard_leg(spec, Some(self.caches.as_ref()), budget, shard, shard_count)
    }
}

/// Point-in-time health counters for one shard of a scattering engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Scatter legs dispatched to this shard (one per result-cache miss).
    pub legs: u64,
    /// Legs dropped at the gather (worker panic / un-degraded deadline /
    /// unreachable remote peer).
    pub failed: u64,
    /// Legs that came back degraded (budget trimmed their slice, or the
    /// leg was dropped).
    pub partial: u64,
    /// Views this shard contributed to merged results.
    pub views: u64,
}

/// Per-shard counter cells ([`ShardStats`] is the snapshot form).
#[derive(Default)]
struct ShardCounters {
    legs: AtomicU64,
    failed: AtomicU64,
    partial: AtomicU64,
    views: AtomicU64,
}

/// The scattering [`MissBackend`]: a miss asks one leg `L` per shard
/// (shard `i` is served by `legs[i]`) and gathers centrally.
pub struct Scatter<L> {
    pub(crate) legs: Vec<Arc<L>>,
    shards: Vec<ShardCounters>,
    /// Pool width of the scatter.
    fanout: usize,
    /// The ONE cross-query cache bundle every local leg shares (`None`
    /// when the legs are remote and this process runs no search).
    caches: Option<Arc<SearchCaches>>,
}

impl<L> Scatter<L> {
    pub(crate) fn new(
        legs: Vec<Arc<L>>,
        fanout: usize,
        caches: Option<Arc<SearchCaches>>,
    ) -> Scatter<L> {
        Scatter {
            shards: legs.iter().map(|_| ShardCounters::default()).collect(),
            legs,
            fanout,
            caches,
        }
    }

    /// Per-shard health counters, indexed by shard id.
    pub(crate) fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|c| ShardStats {
                legs: c.legs.load(Ordering::Relaxed),
                failed: c.failed.load(Ordering::Relaxed),
                partial: c.partial.load(Ordering::Relaxed),
                views: c.views.load(Ordering::Relaxed),
            })
            .collect()
    }
}

impl<L: ShardBackend> Scatter<L> {
    /// [`MissBackend::compute`] for any leg type: scatter, gather, count.
    pub(crate) fn scatter(
        &self,
        ver: &Ver,
        spec: &ViewSpec,
        budget: &QueryBudget,
    ) -> Result<QueryResult> {
        let count = self.legs.len();
        let (result, legs) = ver.scatter_gather(
            spec,
            budget,
            count,
            self.fanout,
            |shard| self.legs[shard].leg_query(spec, shard, count, budget),
            |shard, e| self.legs[shard].degradable(e),
        )?;
        for leg in legs {
            let cell = &self.shards[leg.shard];
            cell.legs.fetch_add(1, Ordering::Relaxed);
            cell.failed.fetch_add(u64::from(!leg.ok), Ordering::Relaxed);
            cell.partial
                .fetch_add(u64::from(leg.partial), Ordering::Relaxed);
            cell.views.fetch_add(leg.views as u64, Ordering::Relaxed);
        }
        Ok(result)
    }
}

impl MissBackend for Scatter<LocalLeg> {
    fn compute(&self, ver: &Ver, spec: &ViewSpec, budget: &QueryBudget) -> Result<QueryResult> {
        self.scatter(ver, spec, budget)
    }

    fn caches(&self) -> Option<&SearchCaches> {
        self.caches.as_deref()
    }

    fn shard_count(&self) -> usize {
        self.legs.len()
    }
}

/// A long-lived, concurrently shareable **sharded** serving engine: the
/// [`ServeEngine`](crate::ServeEngine) contract with every miss executed
/// as an in-process scatter/gather, bit-identical to the single-engine
/// run (invariant 11).
pub type ShardedEngine = Engine<Scatter<LocalLeg>>;

impl ShardedEngine {
    /// Cold start: profile the catalog and build the discovery index in
    /// process. `shard_count = 0` means auto ([`default_shards`], i.e. the
    /// `VER_SHARDS` knob).
    pub fn build(
        catalog: TableCatalog,
        config: ServeConfig,
        shard_count: usize,
    ) -> Result<ShardedEngine> {
        let ver = Ver::build(catalog, config.pipeline.clone())?;
        Self::over_local_legs(ver, config, shard_count)
    }

    /// Warm start from an already-built index (e.g. loaded with
    /// [`ver_index::persist::load_index`], or merged from persisted
    /// `VERSHD` shard artifacts via [`ver_index::shard::load_sharded_index`]).
    pub fn warm_start(
        catalog: Arc<TableCatalog>,
        index: Arc<DiscoveryIndex>,
        config: ServeConfig,
        shard_count: usize,
    ) -> Result<ShardedEngine> {
        let ver = Ver::from_parts(catalog, index, config.pipeline.clone())?;
        Self::over_local_legs(ver, config, shard_count)
    }

    fn over_local_legs(ver: Ver, config: ServeConfig, shard_count: usize) -> Result<ShardedEngine> {
        let shard_count = if shard_count == 0 {
            default_shards()
        } else {
            shard_count
        };
        let caches = Arc::new(SearchCaches::new(config.view_cache_capacity));
        // One local backend serves every shard index — `leg_query` takes
        // the shard identity per call, so the instance is shared.
        let leg_ver = Ver::from_parts(
            ver.catalog_shared(),
            ver.index_shared(),
            config.pipeline.clone(),
        )?;
        let local = Arc::new(LocalLeg::new(leg_ver, Arc::clone(&caches)));
        let legs = (0..shard_count).map(|_| Arc::clone(&local)).collect();
        let scatter = Scatter::new(legs, config.pipeline.search.threads, Some(caches));
        Ok(Engine::assemble(ver, config, scatter))
    }

    /// Persist this engine's logical index as `shard_count` per-shard
    /// `VERSHD` artifacts under `dir` (invariant: loading and merging them
    /// reconstructs the index exactly).
    pub fn save_shards(&self, dir: &std::path::Path) -> Result<Vec<std::path::PathBuf>> {
        ver_index::shard::save_sharded_index(self.ver().index(), self.shard_count(), dir)
    }
}

impl<L> Engine<Scatter<L>> {
    /// Per-shard health counters, indexed by shard id.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.miss.shard_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeEngine;
    use crate::fixture::{catalog, config, spec};

    #[test]
    fn sharded_engine_matches_single_engine_for_every_shard_count() {
        let single = ServeEngine::build(catalog(), config()).unwrap();
        let base = single.query(&spec()).unwrap();
        for count in [1usize, 2, 4] {
            let sharded = ShardedEngine::build(catalog(), config(), count).unwrap();
            assert_eq!(sharded.shard_count(), count);
            let out = sharded.query(&spec()).unwrap();
            assert!(!out.partial, "count={count}");
            assert_eq!(out.ranked, base.ranked, "count={count}");
            assert_eq!(out.views.len(), base.views.len());
            for (a, b) in out.views.iter().zip(&base.views) {
                assert_eq!(a.id, b.id, "count={count}");
                assert!(a.same_contents(b), "count={count}: {} differs", a.id);
            }
            // Every shard ran exactly one leg, none failed, and the legs'
            // contributions partition the merged output.
            let per_shard = sharded.shard_stats();
            assert_eq!(per_shard.len(), count);
            assert!(per_shard.iter().all(|s| s.legs == 1 && s.failed == 0));
            let contributed: u64 = per_shard.iter().map(|s| s.views).sum();
            assert_eq!(contributed as usize, base.views.len(), "count={count}");
            // A result-cache hit dispatches no new scatter legs.
            sharded.query(&spec()).unwrap();
            assert!(sharded.shard_stats().iter().all(|s| s.legs == 1));
            // An exhausted budget degrades every leg, not the query.
            let exhausted = QueryBudget::none().with_timeout(std::time::Duration::ZERO);
            let fresh = ShardedEngine::build(catalog(), config(), count).unwrap();
            assert!(
                fresh
                    .query_with_budget(&spec(), &exhausted)
                    .unwrap()
                    .partial
            );
            assert!(fresh.shard_stats().iter().all(|s| s.partial == 1));
        }
    }

    #[test]
    fn warm_start_from_shard_artifacts_answers_identically() {
        let dir = std::env::temp_dir().join(format!("ver_sharded_unit_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cold = ShardedEngine::build(catalog(), config(), 3).unwrap();
        let paths = cold.save_shards(&dir).unwrap();
        assert_eq!(paths.len(), 3);
        let merged = ver_index::shard::load_sharded_index(&dir, 3).unwrap();
        assert!(merged.same_contents(cold.index_shared().as_ref()));
        let warm = ShardedEngine::warm_start(cold.catalog_shared(), Arc::new(merged), config(), 3)
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let a = cold.query(&spec()).unwrap();
        let b = warm.query(&spec()).unwrap();
        assert_eq!(a.ranked, b.ranked);
        for (va, vb) in a.views.iter().zip(&b.views) {
            assert!(va.same_contents(vb));
        }
    }

    #[test]
    fn shard_knob_parses_like_the_thread_knob() {
        assert_eq!(parse_shards("4"), Some(4));
        assert_eq!(parse_shards(" 2 "), Some(2));
        assert_eq!(parse_shards("1"), Some(1));
        assert_eq!(parse_shards("0"), None, "zero shards is malformed");
        assert_eq!(parse_shards("-1"), None);
        assert_eq!(parse_shards("two"), None);
        assert_eq!(parse_shards(""), None);
        // The process default is in range regardless of the environment.
        assert!(default_shards() >= 1);
    }
}
