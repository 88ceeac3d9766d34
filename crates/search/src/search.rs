//! The end-to-end JOIN-GRAPH-SEARCH component (Algorithm 5).
//!
//! The online path is structured as *generate → score → rank → execute* so
//! the two expensive stages (join-graph scoring and view materialization)
//! can fan out on `ver_common::pool` without changing the output:
//! candidate generation is sequential and canonically ordered, each join
//! graph is scored once by an order-preserving [`ThreadPool::try_par_map`],
//! a candidate is a (combination, graph) index pair ranked by a total order
//! on its content ([`rank_order`], then the projection), and the top-k cut
//! ([`top_k_by`]) runs before anything is built: candidates below k are
//! never cloned, planned or executed. The survivors materialise over the
//! shared sub-join DAG ([`materialize_batch`]), whose level-wise fan-out is
//! likewise order-preserving. Results are therefore bit-identical for
//! every `threads` value — same views, same [`ViewId`] assignment, same
//! ranked order — and identical to executing each ranked plan on its own
//! through the test-only reference executor (`ver_oracle`, invariant 9).
//!
//! Entry point: build a [`SearchContext`] over the catalog and index, then
//! call [`SearchContext::search`].

use std::sync::Arc;

use crate::rank::{join_score, rank_order, top_k_by};
use ver_common::budget::QueryBudget;
use ver_common::error::Result;
use ver_common::ids::{ColumnRef, TableId, ViewId};
use ver_common::pool::ThreadPool;
use ver_engine::dag::{materialize_batch, MaterializeStats};
use ver_engine::plan::{JoinStep, PjPlan};
use ver_engine::view::View;
use ver_index::{canon_into, DiscoveryIndex};
use ver_select::SelectionResult;
use ver_store::catalog::TableCatalog;

/// Tunables for join-graph search.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Hop bound ρ (paper default 2).
    pub rho: usize,
    /// Materialise the top-k ranked join candidates. The paper's evaluation
    /// sets k = total join graphs (materialise everything). Candidates
    /// ranked below k are never built, planned or executed: the cut ranks
    /// (combination, graph) index pairs and clones nothing for the rest.
    pub k: usize,
    /// Cap on enumerated column combinations.
    pub max_combinations: usize,
    /// Drop materialized views with zero rows (joins that match nothing
    /// carry no information for the user).
    pub drop_empty_views: bool,
    /// Worker threads for candidate scoring and top-k materialization
    /// (`0` = one per available hardware thread, the default). Output is
    /// identical for every value.
    pub threads: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            rho: 2,
            k: usize::MAX,
            max_combinations: 100_000,
            drop_empty_views: true,
            threads: 0,
        }
    }
}

/// Search-space statistics matching the paper's reporting
/// (Figs. 5, 6, 8b).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SearchStats {
    /// Column combinations enumerated.
    pub combinations: usize,
    /// Combinations skipped by the non-joinable cache.
    pub skipped_by_cache: usize,
    /// Joinable table groups ("No. of Joinable Groups").
    pub joinable_groups: usize,
    /// Join graphs across groups ("No. of Join Graphs").
    pub join_graphs: usize,
    /// Materialised candidate PJ-views ("No. of Generated Views").
    pub views: usize,
}

/// Result of join-graph search: materialized views plus statistics.
#[derive(Debug)]
pub struct SearchOutput {
    /// Candidate PJ-views with assigned [`ViewId`]s, ranked by join score.
    pub views: Vec<View>,
    /// Search-space statistics.
    pub stats: SearchStats,
    /// Shared sub-join DAG counters for the candidates this query batched
    /// (zeroed for cache-served candidates).
    pub dag: MaterializeStats,
    /// Stage wall times: `jgs` (enumeration + ranking) and `materialize`
    /// (plan execution) — the JGS/M split of Fig. 4b.
    pub timer: ver_common::timer::PhaseTimer,
    /// `true` when a [`QueryBudget`] trimmed the output (deadline tripped
    /// mid-stage, the view cap bit, or a worker panicked and its
    /// candidates were skipped). `views` then holds the best-ranked views
    /// that *did* complete, still in rank order. Always `false` for an
    /// unlimited budget on a healthy run.
    pub partial: bool,
}

/// Everything join-graph search reads, bundled as one borrowing context:
/// the immutable catalog and discovery index, optional cross-query
/// [`SearchCaches`], and a per-query budget.
///
/// ```
/// # use ver_search::SearchContext;
/// # fn demo(catalog: &ver_store::catalog::TableCatalog,
/// #         index: &ver_index::DiscoveryIndex,
/// #         caches: &ver_search::SearchCaches,
/// #         selection: &ver_select::SelectionResult,
/// #         config: &ver_search::SearchConfig)
/// #         -> ver_common::error::Result<()> {
/// let out = SearchContext::new(catalog, index)
///     .with_caches(caches)
///     .search(selection, config)?;
/// # let _ = out; Ok(())
/// # }
/// ```
///
/// When `caches` is set, materialized views are served from the LRU keyed
/// by the candidate's linearised plan (see [`crate::cache`]). Output is
/// **bit-identical** to the uncached path for any cache state — a hit
/// returns exactly what the miss would compute, because a view is a pure
/// function of its plan over the immutable catalog. `ver-serve` threads
/// one [`SearchCaches`] through every query of a long-lived engine.
///
/// The worker pool is resolved per call from `config.threads`; the output
/// is thread-count independent.
///
/// [`SearchCaches`]: crate::cache::SearchCaches
#[derive(Clone, Copy)]
pub struct SearchContext<'a> {
    catalog: &'a TableCatalog,
    index: &'a DiscoveryIndex,
    caches: Option<&'a crate::cache::SearchCaches>,
    budget: QueryBudget,
}

impl<'a> SearchContext<'a> {
    /// Context over an immutable catalog + index, no caches, unlimited
    /// budget.
    pub fn new(catalog: &'a TableCatalog, index: &'a DiscoveryIndex) -> Self {
        SearchContext {
            catalog,
            index,
            caches: None,
            budget: QueryBudget::none(),
        }
    }

    /// Attach cross-query caches (hits stay bit-identical to misses).
    pub fn with_caches(mut self, caches: &'a crate::cache::SearchCaches) -> Self {
        self.caches = Some(caches);
        self
    }

    /// Attach a per-query [`QueryBudget`]: a wall-clock deadline checked
    /// cooperatively at every stage boundary plus an optional view cap.
    /// On exhaustion the search degrades instead of failing — it keeps
    /// whatever ranked views completed and sets [`SearchOutput::partial`].
    /// The default (unlimited) budget never reads the clock, keeping
    /// budget-free runs bit-identical to pre-budget builds.
    pub fn with_budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Run Algorithm 5: enumerate combinations, resolve join graphs, rank,
    /// and materialise the top-k candidate PJ-views, batched over the
    /// shared sub-join DAG.
    pub fn search(
        &self,
        selection: &SelectionResult,
        config: &SearchConfig,
    ) -> Result<SearchOutput> {
        // One shard that owns every candidate: the gather's ranked merge is
        // then only the numbering, shared with the scatter path.
        let out = self.search_filtered(selection, config, None)?;
        Ok(merge_shard_outputs(vec![out], true))
    }

    /// Run one shard's slice of the scatter/gather search (determinism
    /// invariant 11).
    ///
    /// Every shard performs the **identical** global computation up to the
    /// top-k cut — enumeration, scoring of *every* join graph (each leg
    /// repeats it; a score is two profile loads and a multiply per edge),
    /// and the content-based global cut to `k` and the view cap — and then
    /// materialises only the candidates it *owns*: a candidate belongs to
    /// `shard_of_table(min TableId of its projection, shard_count)`, the
    /// same table-anchored hash that partitions the index. Because
    /// ownership partitions the globally-cut candidate list exactly,
    /// re-merging every shard's output through the same rank comparator
    /// ([`merge_shard_outputs`]) reproduces the single-engine
    /// [`SearchContext::search`] result bit-for-bit, for every shard
    /// count.
    pub fn search_shard(
        &self,
        selection: &SelectionResult,
        config: &SearchConfig,
        shard: usize,
        shard_count: usize,
    ) -> Result<ShardSearchOutput> {
        assert!(
            shard < shard_count,
            "shard {shard} out of range for {shard_count} shards"
        );
        // Whole-leg fault point: sits BEFORE the per-candidate isolation,
        // so an armed panic here kills this entire shard — the caller's
        // scatter loop must drop the leg and degrade to a partial merge.
        ver_common::fault::hit(ver_common::fault::points::SEARCH_SHARD)?;
        self.search_filtered(selection, config, Some((shard, shard_count)))
    }

    /// Shared body of [`search`](Self::search) and
    /// [`search_shard`](Self::search_shard): the full generate → score →
    /// rank pipeline, with materialization optionally restricted to the
    /// candidates owned by one `(shard, shard_count)` (`None`: shard 0 of
    /// 1). Returns the views in rank order with provisional [`ViewId`]s —
    /// [`merge_shard_outputs`] numbers them.
    fn search_filtered(
        &self,
        selection: &SelectionResult,
        config: &SearchConfig,
        owner: Option<(usize, usize)>,
    ) -> Result<ShardSearchOutput> {
        let mut timer = ver_common::timer::PhaseTimer::new();
        let pool = ThreadPool::new(config.threads);
        let jgs_start = std::time::Instant::now();
        let enumeration = crate::enumerate::enumerate_combinations(
            self.index,
            selection,
            config.rho,
            config.max_combinations,
            &self.budget,
        );

        let mut partial = enumeration.partial;
        // One projection per combination, shared by `Arc` with the views
        // built from it.
        let mut projections: Vec<Arc<[ColumnRef]>> = Vec::new();
        for (columns, _) in &enumeration.combinations {
            let columns = columns.iter().map(|&c| self.catalog.column_ref(c));
            projections.push(columns.collect::<Result<Vec<_>>>()?.into());
        }

        // Score each graph once, in parallel (order-preserving): a graph's
        // rank key — join score and canonical edge form — is the same for
        // every combination of its group. A graph that cannot be scored
        // drops out with all its candidates.
        let graphs = &enumeration.graphs;
        let keys = pool
            .try_par_map(graphs, |graph| {
                ver_common::fault::hit(ver_common::fault::points::SEARCH_SCORE)?;
                self.budget.check("search.score")?;
                Ok((join_score(self.index, graph), graph.canon()))
            })
            .into_iter()
            .map(|key| degrade(key, &mut partial))
            .collect::<Result<Vec<_>>>()?;

        // A candidate is a (combination, graph) index pair. Rank by the
        // content-based total order — score desc, canonical edges asc,
        // projection asc — and keep the top k; the budget's view cap
        // tightens the cut deterministically. Nothing is cloned for a
        // candidate below the cut.
        let mut cut: Vec<(usize, usize)> = Vec::new();
        for (c, &(_, group)) in enumeration.combinations.iter().enumerate() {
            let scored = enumeration.groups[group]
                .clone()
                .filter(|&g| keys[g].is_some());
            cut.extend(scored.map(|g| (c, g)));
        }
        let key = |&(c, g): &(usize, usize)| {
            let (score, canon) = keys[g].as_ref().expect("only scored graphs are cut");
            (*score, canon.as_slice(), &*projections[c])
        };
        let order = |a: &(usize, usize), b: &(usize, usize)| {
            let ((sa, ca, pa), (sb, cb, pb)) = (key(a), key(b));
            rank_order(sa, ca, sb, cb).then_with(|| pa.cmp(pb))
        };
        let k = config.k.min(cut.len());
        let keep = self.budget.cap_views(k);
        partial |= keep < k;
        top_k_by(&mut cut, keep, order);
        // Generation yields each (graph, projection) pair once — a group's
        // graphs are distinct, and equal projections mean one combination —
        // so the ranked keys are strictly increasing.
        debug_assert!(
            cut.windows(2).all(|w| order(&w[0], &w[1]).is_lt()),
            "rank keys must be unique"
        );
        // Scatter/gather shard filter: every shard computed the identical
        // globally-cut candidate list above; each materialises only the
        // candidates it owns. Ownership partitions the list exactly, so
        // the per-shard outputs merge back into the unsharded ranking.
        if let Some((shard, count)) = owner {
            cut.retain(|&(c, _)| candidate_shard(&projections[c], count) == shard);
        }
        timer.add("jgs", jgs_start.elapsed());

        // Materialise the top-k; per-candidate failures propagate as the
        // first error in rank order. Ids are assigned sequentially
        // afterwards so empty-view dropping cannot race id assignment.
        let mat_start = std::time::Instant::now();
        // Linearisation depends only on (graph, base table), and the rank
        // order's canonical-edge + projection tiebreaks put candidates
        // sharing a graph next to each other — so a run of one graph with
        // the same base reuses the previous BFS verbatim instead of
        // re-linearising each of the top-k candidates.
        let mut prev: Option<(usize, TableId, Vec<JoinStep>)> = None;
        let plans: Vec<Result<PjPlan>> = cut
            .iter()
            .map(|&(c, g)| {
                let projection = &projections[c];
                if let (Some((pg, base, joins)), Some(p)) = (&prev, projection.first()) {
                    if *pg == g && *base == p.table {
                        return Ok(PjPlan {
                            base: *base,
                            joins: joins.clone(),
                            projection: projection.to_vec(),
                        });
                    }
                }
                let plan = PjPlan::from_edges(&graphs[g].column_edges(self.catalog)?, projection)?;
                prev = Some((g, plan.base, plan.joins.clone()));
                Ok(plan)
            })
            .collect();

        // Partition into cache hits and the batch of misses, execute the
        // misses over the shared DAG, then reassemble in rank order. A miss
        // keeps the key it was looked up under and moves it into
        // `view_insert`; its plan moves into the batch. A hit is a handle
        // on the cached view's body, an insert another one.
        let mut results: Vec<Option<Result<View>>> = (0..cut.len()).map(|_| None).collect();
        let mut miss = Vec::new();
        let mut batch: Vec<(PjPlan, f64)> = Vec::new();
        for (i, plan) in plans.into_iter().enumerate() {
            let plan = match plan {
                Ok(plan) => plan,
                Err(e) => {
                    results[i] = Some(Err(e));
                    continue;
                }
            };
            let (c, g) = cut[i];
            let cached = self
                .caches
                .map(|cs| (cs, crate::cache::view_key(&plan, &projections[c])));
            match cached.as_ref().and_then(|(cs, key)| cs.view_get(key)) {
                Some(view) => results[i] = Some(Ok(view)),
                None => {
                    miss.push((i, cached));
                    batch.push((plan, key(&(c, g)).0));
                }
            }
        }
        let (views, dag) = materialize_batch(self.catalog, &batch, pool, &self.budget);
        for ((i, cached), view) in miss.into_iter().zip(views) {
            if let (Some((cs, key)), Ok(view)) = (cached, &view) {
                cs.view_insert(key, view.clone());
            }
            results[i] = Some(view);
        }

        let mut views = Vec::with_capacity(results.len());
        for result in results {
            let Some(view) = degrade(result.expect("every candidate resolved"), &mut partial)?
            else {
                continue;
            };
            if config.drop_empty_views && view.row_count() == 0 {
                continue;
            }
            views.push(view);
        }
        timer.add("materialize", mat_start.elapsed());
        let (shard, shard_count) = owner.unwrap_or((0, 1));
        let stats = SearchStats {
            combinations: enumeration.total_combinations,
            skipped_by_cache: enumeration.skipped_by_cache,
            joinable_groups: enumeration.joinable_group_count(),
            join_graphs: enumeration.join_graph_count(),
            views: views.len(),
        };
        Ok(ShardSearchOutput {
            shard,
            shard_count,
            views,
            stats,
            dag,
            timer,
            partial,
        })
    }
}

/// Graceful degradation: a unit of work that ran out of deadline or whose
/// worker panicked is skipped (`Ok(None)`), flagging the result partial;
/// any other error, e.g. a genuine I/O failure, fails the whole query.
fn degrade<T>(result: Result<T>, partial: &mut bool) -> Result<Option<T>> {
    match result {
        Ok(value) => Ok(Some(value)),
        Err(e) if e.degrades() => {
            *partial = true;
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

/// Owning shard of a search candidate: the [`ver_index::shard_of_table`]
/// hash of the smallest `TableId` in its projection. Anchoring candidate
/// ownership to *table* sharding keeps query-time scatter aligned with
/// build-time index partitioning — the shard that owns a candidate's lead
/// table owns its index slices too. Projection-less candidates (which the
/// planner rejects anyway) fall to shard 0 so the error surfaces on
/// exactly one shard.
fn candidate_shard(projection: &[ColumnRef], shard_count: usize) -> usize {
    match projection.iter().map(|p| p.table).min() {
        Some(table) => ver_index::shard_of_table(table, shard_count),
        None => 0,
    }
}

/// Output of [`SearchContext::search_shard`]: this shard's owned slice of
/// the global ranking, plus the same stats/budget surface as
/// [`SearchOutput`].
#[derive(Debug)]
pub struct ShardSearchOutput {
    /// Which shard produced this output.
    pub shard: usize,
    /// Total shards in the scatter.
    pub shard_count: usize,
    /// Owned views in global rank order (a subsequence of the unsharded
    /// ranking), with provisional [`ViewId`]s. A view's rank key is in its
    /// provenance: join score, join edges and projection.
    pub views: Vec<View>,
    /// Search-space statistics. The enumeration counters are global (every
    /// shard enumerates identically); `views` counts only owned views.
    pub stats: SearchStats,
    /// This shard's sub-join DAG counters.
    pub dag: MaterializeStats,
    /// This shard's stage wall times.
    pub timer: ver_common::timer::PhaseTimer,
    /// `true` when this shard's slice was trimmed by the budget.
    pub partial: bool,
}

/// Gather step of the sharded search: merge per-shard outputs back into
/// one [`SearchOutput`] through the content-based total order, then assign
/// [`ViewId`]s sequentially. [`SearchContext::search`] finishes through it
/// too, as the one shard that owns every candidate.
///
/// A view's rank key is read from its provenance: `join_score` descending,
/// then the canonical form of `join_edges` over column refs, computed once
/// per view, then `projection`. The cut ranked the same candidates by the
/// canonical form over column ids, and the catalog numbers columns in
/// `(table, ordinal)` order, so the two forms order candidates alike.
///
/// Each shard's list is already globally rank-ordered and ownership
/// partitions the candidate space, so the merge is a pure k-way merge with
/// no dedup — implemented as a sort by the same comparator, which is exact
/// because rank keys are unique across shards. With every shard present
/// and healthy the result is **bit-identical** to the single-engine
/// [`SearchContext::search`] run (invariant 11). A missing shard (caller
/// dropped a panicked or deadline-tripped scatter leg) degrades to a
/// partial result: pass `complete = false` and the merged output is
/// flagged [`SearchOutput::partial`], never an error. Enumeration stats
/// come from the first output (identical on every shard); DAG counters
/// and timers accumulate across shards.
pub fn merge_shard_outputs(outputs: Vec<ShardSearchOutput>, complete: bool) -> SearchOutput {
    let mut stats = outputs.first().map(|o| o.stats).unwrap_or_default();
    let mut dag = MaterializeStats::default();
    let mut timer = ver_common::timer::PhaseTimer::new();
    let mut partial = !complete;
    let mut merged = Vec::with_capacity(outputs.iter().map(|o| o.views.len()).sum());
    for out in outputs {
        partial |= out.partial;
        dag.accumulate(out.dag);
        timer.merge(&out.timer);
        merged.extend(out.views.into_iter().map(|view| {
            let mut canon = Vec::with_capacity(view.provenance.join_edges.len());
            canon_into(view.provenance.join_edges.iter().copied(), &mut canon);
            (canon, view)
        }));
    }
    merged.sort_by(|(ca, a), (cb, b)| {
        let (a, b) = (&a.provenance, &b.provenance);
        rank_order(a.join_score, ca, b.join_score, cb).then_with(|| a.projection.cmp(&b.projection))
    });
    let mut views = Vec::with_capacity(merged.len());
    for (i, (_, mut view)) in merged.into_iter().enumerate() {
        view.id = ViewId(i as u32);
        views.push(view);
    }
    stats.views = views.len();
    SearchOutput {
        views,
        stats,
        dag,
        timer,
        partial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ver_common::value::Value;
    use ver_index::{build_index, IndexConfig};
    use ver_qbe::query::{ExampleQuery, QueryColumn};
    use ver_select::{column_selection, SelectionConfig};
    use ver_store::table::TableBuilder;

    /// Two "state fact" tables joinable with a states dimension — a shape
    /// that yields multiple candidate views for the same query.
    fn setup() -> (TableCatalog, DiscoveryIndex) {
        let mut cat = TableCatalog::new();
        let states: Vec<String> = (0..30).map(|i| format!("st{i}")).collect();

        let mut b = TableBuilder::new("airports", &["iata", "state"]);
        for (i, s) in states.iter().enumerate() {
            b.push_row(vec![Value::text(format!("A{i}")), Value::text(s.clone())])
                .unwrap();
        }
        cat.add_table(b.build()).unwrap();

        let mut b = TableBuilder::new("pop1", &["state", "pop"]);
        for (i, s) in states.iter().enumerate() {
            b.push_row(vec![Value::text(s.clone()), Value::Int(1000 + i as i64)])
                .unwrap();
        }
        cat.add_table(b.build()).unwrap();

        let mut b = TableBuilder::new("pop2", &["state", "pop"]);
        for (i, s) in states.iter().enumerate().take(25) {
            b.push_row(vec![Value::text(s.clone()), Value::Int(2000 + i as i64)])
                .unwrap();
        }
        cat.add_table(b.build()).unwrap();

        let idx = build_index(
            &cat,
            IndexConfig {
                threads: 1,
                verify_exact: true,
                ..Default::default()
            },
        )
        .unwrap();
        (cat, idx)
    }

    fn select(idx: &DiscoveryIndex, q: &ExampleQuery) -> SelectionResult {
        column_selection(
            idx,
            q,
            &SelectionConfig {
                theta: usize::MAX,
                ..Default::default()
            },
        )
    }

    fn run(
        cat: &TableCatalog,
        idx: &DiscoveryIndex,
        q: &ExampleQuery,
        config: &SearchConfig,
    ) -> SearchOutput {
        let sel = select(idx, q);
        SearchContext::new(cat, idx).search(&sel, config).unwrap()
    }

    #[test]
    fn produces_ranked_views_with_stats() {
        let (cat, idx) = setup();
        let q = ExampleQuery::new(vec![
            QueryColumn::of_strs(&["A1", "A2"]),
            QueryColumn::of_strs(&["1001", "1002"]),
        ])
        .unwrap();
        let out = run(&cat, &idx, &q, &SearchConfig::default());
        assert!(out.stats.joinable_groups >= 1);
        assert!(out.stats.views >= 1);
        assert_eq!(out.views.len(), out.stats.views);
        // Ranked: scores non-increasing.
        let scores: Vec<f64> = out.views.iter().map(|v| v.provenance.join_score).collect();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]));
        // Ids assigned sequentially.
        assert!(out
            .views
            .iter()
            .enumerate()
            .all(|(i, v)| v.id == ViewId(i as u32)));
        // The DAG executed the batch.
        assert_eq!(out.dag.candidates, out.views.len());
    }

    #[test]
    fn ambiguous_state_query_generates_multiple_views() {
        let (cat, idx) = setup();
        // "state" examples match 3 columns; pop examples match pop1 and pop2.
        let q = ExampleQuery::new(vec![
            QueryColumn::of_strs(&["st1", "st2"]),
            QueryColumn::of_strs(&["1001", "2002"]),
        ])
        .unwrap();
        let out = run(&cat, &idx, &q, &SearchConfig::default());
        assert!(
            out.stats.views >= 2,
            "ambiguity should produce multiple candidate views, got {}",
            out.stats.views
        );
    }

    #[test]
    fn top_k_truncates_materialisation() {
        let (cat, idx) = setup();
        let q = ExampleQuery::new(vec![
            QueryColumn::of_strs(&["st1", "st2"]),
            QueryColumn::of_strs(&["1001", "2002"]),
        ])
        .unwrap();
        let all = run(&cat, &idx, &q, &SearchConfig::default());
        let one = run(
            &cat,
            &idx,
            &q,
            &SearchConfig {
                k: 1,
                ..Default::default()
            },
        );
        assert!(all.stats.views > 1);
        assert_eq!(one.stats.views, 1);
        // The kept view is the top-ranked one.
        assert_eq!(
            one.views[0].provenance.join_score,
            all.views[0].provenance.join_score
        );
        // Pruned candidates were never planned or executed.
        assert_eq!(one.dag.candidates, 1);
        assert!(one.dag.total_steps <= 1);
    }

    #[test]
    fn empty_selection_gives_empty_output() {
        let (cat, idx) = setup();
        let q = ExampleQuery::new(vec![QueryColumn::of_strs(&["missing-value"])]).unwrap();
        let out = run(&cat, &idx, &q, &SearchConfig::default());
        assert_eq!(out.stats.views, 0);
        assert!(out.views.is_empty());
    }

    #[test]
    fn single_table_query_materialises_projection_only_view() {
        let (cat, idx) = setup();
        let q = ExampleQuery::new(vec![
            QueryColumn::of_strs(&["A1"]),
            QueryColumn::of_strs(&["st1"]),
        ])
        .unwrap();
        let out = run(&cat, &idx, &q, &SearchConfig::default());
        assert!(out
            .views
            .iter()
            .any(|v| v.provenance.hops() == 0 && v.attribute_names() == vec!["iata", "state"]));
    }

    #[test]
    fn provenance_links_views_to_join_graphs() {
        let (cat, idx) = setup();
        let q = ExampleQuery::new(vec![
            QueryColumn::of_strs(&["st1", "st2"]),
            QueryColumn::of_strs(&["1001", "1002"]),
        ])
        .unwrap();
        let out = run(&cat, &idx, &q, &SearchConfig::default());
        for v in &out.views {
            assert_eq!(v.provenance.projection.len(), 2);
            assert_eq!(
                v.provenance.source_tables.len(),
                v.provenance.hops() + 1,
                "tree: tables = edges + 1"
            );
        }
    }

    #[test]
    fn dag_output_matches_the_reference_executor() {
        // Invariant 9 at the search surface: every view the batched DAG
        // produced — empties included, so nothing was pruned that the
        // reference would have kept — equals its own plan re-executed
        // through the reference executor, table-exact.
        let (cat, idx) = setup();
        let q = ExampleQuery::new(vec![
            QueryColumn::of_strs(&["st1", "st2"]),
            QueryColumn::of_strs(&["1001", "2002"]),
        ])
        .unwrap();
        let all = run(
            &cat,
            &idx,
            &q,
            &SearchConfig {
                drop_empty_views: false,
                ..Default::default()
            },
        );
        assert_eq!(all.views.len(), all.dag.candidates);
        // The DAG actually shared work on this multi-candidate query.
        assert!(all.dag.candidates > 1);
        for v in &all.views {
            let reference = ver_oracle::reexecute(&cat, &v.provenance).unwrap();
            assert_eq!(v.table, reference.table, "{} differs from reference", v.id);
            assert_eq!(v.provenance, reference.provenance);
        }
        // The default drops exactly the empty ones, keeping rank order.
        let kept = run(&cat, &idx, &q, &SearchConfig::default());
        let non_empty: Vec<&View> = all.views.iter().filter(|v| v.row_count() > 0).collect();
        assert_eq!(kept.views.len(), non_empty.len());
        for (a, b) in kept.views.iter().zip(non_empty) {
            assert_eq!((&a.table, &a.provenance), (&b.table, &b.provenance));
        }
    }

    #[test]
    fn cached_search_is_bit_identical_to_uncached() {
        let (cat, idx) = setup();
        let q = ExampleQuery::new(vec![
            QueryColumn::of_strs(&["st1", "st2"]),
            QueryColumn::of_strs(&["1001", "2002"]),
        ])
        .unwrap();
        let sel = select(&idx, &q);
        let cfg = SearchConfig::default();
        let base = SearchContext::new(&cat, &idx).search(&sel, &cfg).unwrap();

        let caches = crate::cache::SearchCaches::new(1 << 20);
        let cx = SearchContext::new(&cat, &idx).with_caches(&caches);
        // Three passes over the same caches: cold, warm, warm.
        for pass in 0..3 {
            let out = cx.search(&sel, &cfg).unwrap();
            assert_eq!(out.stats, base.stats, "pass {pass}");
            assert_eq!(out.views.len(), base.views.len());
            for (a, b) in out.views.iter().zip(&base.views) {
                assert!(a.same_contents(b), "pass {pass}: {} differs", a.id);
            }
            if pass > 0 {
                // Warm passes serve every candidate from the LRU: the DAG
                // batch is empty.
                assert_eq!(out.dag.candidates, 0, "pass {pass}");
            }
        }
        // The warm passes actually hit.
        assert!(caches.view_stats().hits > 0, "no view-cache hits");
        assert!(caches.view_stats().misses > 0);
    }

    #[test]
    fn thread_counts_produce_identical_search_output() {
        let (cat, idx) = setup();
        let q = ExampleQuery::new(vec![
            QueryColumn::of_strs(&["st1", "st2"]),
            QueryColumn::of_strs(&["1001", "2002"]),
        ])
        .unwrap();
        let base = run(
            &cat,
            &idx,
            &q,
            &SearchConfig {
                threads: 1,
                ..Default::default()
            },
        );
        for threads in [2usize, 4, 0] {
            let par = run(
                &cat,
                &idx,
                &q,
                &SearchConfig {
                    threads,
                    ..Default::default()
                },
            );
            assert_eq!(par.stats, base.stats, "threads={threads}");
            assert_eq!(par.dag, base.dag, "threads={threads}");
            assert_eq!(par.views.len(), base.views.len());
            for (a, b) in par.views.iter().zip(&base.views) {
                assert!(a.same_contents(b), "threads={threads}: {} differs", a.id);
            }
        }
    }

    #[test]
    fn view_cap_budget_trims_output_and_flags_partial() {
        let (cat, idx) = setup();
        let q = ExampleQuery::new(vec![
            QueryColumn::of_strs(&["st1", "st2"]),
            QueryColumn::of_strs(&["1001", "2002"]),
        ])
        .unwrap();
        let sel = select(&idx, &q);
        let cfg = SearchConfig::default();
        let all = SearchContext::new(&cat, &idx).search(&sel, &cfg).unwrap();
        assert!(!all.partial, "unlimited budget must not flag partial");
        assert!(all.views.len() > 1);

        let capped = SearchContext::new(&cat, &idx)
            .with_budget(QueryBudget::none().with_max_views(1))
            .search(&sel, &cfg)
            .unwrap();
        assert!(capped.partial, "a cap that bit must flag partial");
        assert_eq!(capped.views.len(), 1);
        // The kept view is the top-ranked one from the uncapped run.
        assert!(capped.views[0].same_contents(&all.views[0]));

        // A cap wider than the output changes nothing and is not partial.
        let loose = SearchContext::new(&cat, &idx)
            .with_budget(QueryBudget::none().with_max_views(1000))
            .search(&sel, &cfg)
            .unwrap();
        assert!(!loose.partial);
        assert_eq!(loose.views.len(), all.views.len());
    }

    #[test]
    fn expired_deadline_degrades_to_empty_partial_output() {
        let (cat, idx) = setup();
        let q = ExampleQuery::new(vec![
            QueryColumn::of_strs(&["st1", "st2"]),
            QueryColumn::of_strs(&["1001", "2002"]),
        ])
        .unwrap();
        let sel = select(&idx, &q);
        let out = SearchContext::new(&cat, &idx)
            .with_budget(QueryBudget::none().with_timeout(std::time::Duration::ZERO))
            .search(&sel, &SearchConfig::default())
            .expect("deadline exhaustion degrades, it does not error");
        assert!(out.partial);
        assert!(out.views.is_empty());
        assert_eq!(out.stats.joinable_groups, 0);
    }

    #[test]
    fn sharded_scatter_gather_is_bit_identical_to_single_search() {
        let (cat, idx) = setup();
        let q = ExampleQuery::new(vec![
            QueryColumn::of_strs(&["st1", "st2"]),
            QueryColumn::of_strs(&["1001", "2002"]),
        ])
        .unwrap();
        let sel = select(&idx, &q);
        let cfg = SearchConfig::default();
        let single = SearchContext::new(&cat, &idx).search(&sel, &cfg).unwrap();
        assert!(single.views.len() > 1, "need a multi-view query");

        for count in [1usize, 2, 3, 4] {
            let caches = crate::cache::SearchCaches::new(1 << 20);
            let outputs: Vec<ShardSearchOutput> = (0..count)
                .map(|shard| {
                    SearchContext::new(&cat, &idx)
                        .with_caches(&caches)
                        .search_shard(&sel, &cfg, shard, count)
                        .unwrap()
                })
                .collect();
            // Ownership partitions the output exactly.
            let total: usize = outputs.iter().map(|o| o.views.len()).sum();
            assert_eq!(total, single.views.len(), "count={count}");
            let merged = merge_shard_outputs(outputs, true);
            assert!(!merged.partial, "count={count}");
            assert_eq!(merged.stats, single.stats, "count={count}");
            assert_eq!(merged.views.len(), single.views.len());
            for (a, b) in merged.views.iter().zip(&single.views) {
                assert_eq!(a.id, b.id, "count={count}");
                assert!(a.same_contents(b), "count={count}: {} differs", a.id);
            }
        }
    }

    #[test]
    fn shard_merge_ignores_shard_order_and_flags_incomplete_sets() {
        let (cat, idx) = setup();
        let q = ExampleQuery::new(vec![
            QueryColumn::of_strs(&["st1", "st2"]),
            QueryColumn::of_strs(&["1001", "2002"]),
        ])
        .unwrap();
        let sel = select(&idx, &q);
        let cfg = SearchConfig::default();
        let single = SearchContext::new(&cat, &idx).search(&sel, &cfg).unwrap();
        let cx = SearchContext::new(&cat, &idx);
        let mut outputs: Vec<ShardSearchOutput> = (0..3)
            .map(|s| cx.search_shard(&sel, &cfg, s, 3).unwrap())
            .collect();
        outputs.reverse();
        let merged = merge_shard_outputs(outputs, true);
        assert!(!merged.partial);
        for (a, b) in merged.views.iter().zip(&single.views) {
            assert!(a.same_contents(b), "shard order leaked into the merge");
        }

        // A dropped scatter leg degrades: still ranked, flagged partial.
        let partial_set: Vec<ShardSearchOutput> = (0..2)
            .map(|s| cx.search_shard(&sel, &cfg, s, 3).unwrap())
            .collect();
        let merged = merge_shard_outputs(partial_set, false);
        assert!(merged.partial, "missing shard must flag partial");
        assert!(merged.views.len() <= single.views.len());
        let scores: Vec<f64> = merged
            .views
            .iter()
            .map(|v| v.provenance.join_score)
            .collect();
        assert!(
            scores.windows(2).all(|w| w[0] >= w[1]),
            "still rank-ordered"
        );
        // Merging nothing (every shard failed) is empty + partial.
        let empty = merge_shard_outputs(Vec::new(), false);
        assert!(empty.partial);
        assert!(empty.views.is_empty());
    }

    #[test]
    fn shard_budgets_degrade_the_scatter_not_error() {
        let (cat, idx) = setup();
        let q = ExampleQuery::new(vec![
            QueryColumn::of_strs(&["st1", "st2"]),
            QueryColumn::of_strs(&["1001", "2002"]),
        ])
        .unwrap();
        let sel = select(&idx, &q);
        let cfg = SearchConfig::default();
        let out = SearchContext::new(&cat, &idx)
            .with_budget(QueryBudget::none().with_timeout(std::time::Duration::ZERO))
            .search_shard(&sel, &cfg, 0, 2)
            .expect("deadline exhaustion degrades per shard");
        assert!(out.partial);
        assert!(out.views.is_empty());
        let merged = merge_shard_outputs(vec![out], false);
        assert!(merged.partial);
    }
}
