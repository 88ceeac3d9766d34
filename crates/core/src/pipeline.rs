//! The Ver pipeline (Algorithm 1) with per-stage timing.
//!
//! Stage labels match Fig. 4(b): `cs` (COLUMN-SELECTION), `jgs`
//! (JOIN-GRAPH-SEARCH), `materialize` (MATERIALIZER), `vd_io` (reading
//! views into the distiller) and `4c` (4C categorisation).

use crate::config::VerConfig;
use crate::spec_select::select_for_spec;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ver_common::budget::QueryBudget;
use ver_common::error::{Result, VerError};
use ver_common::ids::ViewId;
use ver_common::timer::PhaseTimer;
use ver_distill::{distill_budgeted, DistillOutput};
use ver_engine::view::View;
use ver_index::{build_index, DiscoveryIndex};
use ver_present::{fasttopk_rank, PresentationSession, SessionOutcome, SimulatedUser};
use ver_qbe::{ExampleQuery, ViewSpec};
use ver_search::{SearchCaches, SearchContext};
use ver_select::SelectionResult;
use ver_store::catalog::TableCatalog;

/// The assembled system: a catalog plus its discovery index.
///
/// Both are held behind [`Arc`] so a long-lived serving layer (`ver-serve`)
/// can share one catalog and one index across many concurrent readers —
/// queries take `&self`, and [`Ver::catalog_shared`] / [`Ver::index_shared`]
/// hand out cheap clones of the handles. Single-shot callers are
/// unaffected: [`Ver::build`] wraps its inputs and every accessor still
/// returns plain references.
pub struct Ver {
    catalog: Arc<TableCatalog>,
    index: Arc<DiscoveryIndex>,
    config: VerConfig,
}

/// Everything a query run produces.
#[derive(Debug)]
pub struct QueryResult {
    /// Materialised candidate PJ-views (pre-distillation), id order.
    pub views: Vec<View>,
    /// Column-selection details (Fig. 8c statistics).
    pub selection: SelectionResult,
    /// Search statistics (joinable groups / join graphs / views).
    pub search_stats: ver_search::SearchStats,
    /// Full distillation output (4C graph, survivors, contradictions).
    pub distill: DistillOutput,
    /// Overlap-ranked distilled views (Algorithm 1 line 13) — only the
    /// C2 survivors are ranked.
    pub ranked: Vec<(ViewId, usize)>,
    /// Per-stage wall times (`cs`, `jgs`, `materialize`, `vd_io`, `4c`).
    pub timer: PhaseTimer,
    /// `true` when a [`QueryBudget`] degraded this result: the view cap
    /// cut the ranked candidates short, candidates were skipped, the
    /// deadline tripped mid-stage, or distillation was abandoned (in which
    /// case every view counts as a survivor and ranking falls back to join
    /// scores). Budget-free runs are never partial.
    pub partial: bool,
}

impl QueryResult {
    /// The candidate view with this id (`views` is sorted by id: the search
    /// stage numbers them sequentially).
    pub fn view(&self, id: ViewId) -> Option<&View> {
        self.views
            .binary_search_by_key(&id, |v| v.id)
            .ok()
            .map(|i| &self.views[i])
    }

    /// Views surviving distillation, in ranked order.
    pub fn distilled_views(&self) -> Vec<&View> {
        self.ranked
            .iter()
            .filter_map(|&(id, _)| self.view(id))
            .collect()
    }
}

impl Ver {
    /// Offline stage: profile the catalog and build the discovery index.
    pub fn build(catalog: TableCatalog, config: VerConfig) -> Result<Ver> {
        let index = build_index(&catalog, config.index.clone())?;
        Ok(Ver {
            catalog: Arc::new(catalog),
            index: Arc::new(index),
            config,
        })
    }

    /// Assemble from an already-built (e.g. persisted and re-loaded) index
    /// — the warm-start path: no profiling, no sketching, no LSH.
    ///
    /// Fails fast when the index was clearly not built over `catalog` (the
    /// column counts disagree); deeper mismatches are the operator's
    /// contract, exactly as with any persisted-artifact system.
    pub fn from_parts(
        catalog: Arc<TableCatalog>,
        index: Arc<DiscoveryIndex>,
        config: VerConfig,
    ) -> Result<Ver> {
        if index.profiles().len() != catalog.column_count() {
            return Err(VerError::InvalidData(format!(
                "index covers {} columns but catalog has {}",
                index.profiles().len(),
                catalog.column_count()
            )));
        }
        Ok(Ver {
            catalog,
            index,
            config,
        })
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &TableCatalog {
        &self.catalog
    }

    /// The discovery index.
    pub fn index(&self) -> &DiscoveryIndex {
        &self.index
    }

    /// Shared handle to the catalog (for serving layers).
    pub fn catalog_shared(&self) -> Arc<TableCatalog> {
        Arc::clone(&self.catalog)
    }

    /// Shared handle to the index (for serving layers and persistence).
    pub fn index_shared(&self) -> Arc<DiscoveryIndex> {
        Arc::clone(&self.index)
    }

    /// The active configuration.
    pub fn config(&self) -> &VerConfig {
        &self.config
    }

    /// Run the automatic pipeline (Algorithm 1 lines 1-9 and 13) for any
    /// view specification.
    pub fn run(&self, spec: &ViewSpec) -> Result<QueryResult> {
        self.run_cached(spec, None)
    }

    /// [`Ver::run`] with optional cross-query [`SearchCaches`].
    ///
    /// The serving layer threads one cache bundle through every query of a
    /// long-lived engine; output is bit-identical to [`Ver::run`] for any
    /// cache state (see `ver_search::cache` for the contract).
    pub fn run_cached(
        &self,
        spec: &ViewSpec,
        caches: Option<&SearchCaches>,
    ) -> Result<QueryResult> {
        self.run_budgeted(spec, caches, &QueryBudget::none())
    }

    /// [`Ver::run_cached`] under a [`QueryBudget`].
    ///
    /// The budget is threaded through every stage: search checks it once
    /// per new table group enumerated, per join graph scored, per DAG step
    /// and per view projected (skipping candidates that trip), and
    /// distillation checks it per block and per view. Exhaustion degrades
    /// instead of failing — the result keeps whatever ranked views
    /// completed, with [`QueryResult::partial`] set.
    /// If distillation itself runs out of budget (or a distill worker
    /// panics), the views are returned *undistilled*: every view counts as
    /// a C2 survivor and ranking falls back to the non-QBE join-score
    /// order. Errors that are neither deadline nor panic (e.g. genuine
    /// I/O failures) still fail the query. An unlimited budget makes this
    /// byte-identical to [`Ver::run_cached`].
    pub fn run_budgeted(
        &self,
        spec: &ViewSpec,
        caches: Option<&SearchCaches>,
        budget: &QueryBudget,
    ) -> Result<QueryResult> {
        let mut timer = PhaseTimer::new();

        // COLUMN-SELECTION (lines 3-7).
        let selection = timer.time("cs", || {
            select_for_spec(&self.index, spec, &self.config.selection)
        });

        // JOIN-GRAPH-SEARCH + MATERIALIZER (line 8).
        let mut search_cx = SearchContext::new(&self.catalog, &self.index).with_budget(*budget);
        if let Some(caches) = caches {
            search_cx = search_cx.with_caches(caches);
        }
        let search_out = search_cx.search(&selection, &self.config.search)?;
        self.finish_query(spec, budget, timer, selection, search_out)
    }

    /// [`Ver::run_budgeted`] with JOIN-GRAPH-SEARCH + MATERIALIZER
    /// scattered over `shard_count` in-process legs ([`Ver::run_shard_leg`])
    /// and gathered back through the content-based rank order —
    /// determinism invariant 11: the result is **bit-identical** to the
    /// single-engine [`Ver::run_budgeted`] for every shard count (same
    /// views, same [`ViewId`]s, same ranking), because candidate ownership
    /// partitions the globally-ranked candidate list exactly and the
    /// gather merges through the same total order the single path sorts
    /// by. Failure model: see [`Ver::scatter_gather`].
    pub fn run_sharded(
        &self,
        spec: &ViewSpec,
        caches: Option<&SearchCaches>,
        budget: &QueryBudget,
        shard_count: usize,
    ) -> Result<QueryResult> {
        self.scatter_gather(
            spec,
            budget,
            shard_count,
            self.config.search.threads,
            |shard| self.run_shard_leg(spec, caches, budget, shard, shard_count),
            |_, e| e.degrades(),
        )
        .map(|(result, _)| result)
    }

    /// The scatter/gather every sharded path runs: fan `leg(shard)` out
    /// over `threads` workers of `ver_common::pool`, classify each leg,
    /// then finish centrally with [`Ver::gather_shard_outputs`]. Where a
    /// leg runs is the caller's business — [`Ver::run_sharded`] runs
    /// [`Ver::run_shard_leg`] in process, `ver-serve` asks one
    /// `ShardBackend` per shard, which may be a remote `verd`.
    ///
    /// Classification: a leg that answers is reported and merged (its
    /// slice may itself be partial — a deadline trip degrades *inside*
    /// the shard); a leg whose error `degradable(shard, &e)` accepts is
    /// dropped and the merged result flagged [`QueryResult::partial`] —
    /// a shard failure is never an error; any other error fails the
    /// query. Worker panics arrive as [`VerError::Internal`] via
    /// `try_par_map`. The budget's deadline is an absolute instant, so
    /// every leg races the same wall clock. Also returns what happened to
    /// each leg, so a serving layer can keep per-shard health counters.
    pub fn scatter_gather(
        &self,
        spec: &ViewSpec,
        budget: &QueryBudget,
        shard_count: usize,
        threads: usize,
        leg: impl Fn(usize) -> Result<ver_search::ShardSearchOutput> + Sync,
        degradable: impl Fn(usize, &VerError) -> bool,
    ) -> Result<(QueryResult, Vec<ShardLeg>)> {
        assert!(shard_count >= 1, "shard_count must be at least 1");
        let shard_ids: Vec<usize> = (0..shard_count).collect();
        let answers =
            ver_common::pool::ThreadPool::new(threads).try_par_map(&shard_ids, |&shard| leg(shard));
        let mut outputs = Vec::with_capacity(shard_count);
        let mut legs = Vec::with_capacity(shard_count);
        for (shard, answer) in answers.into_iter().enumerate() {
            match answer {
                Ok(out) => {
                    legs.push(ShardLeg {
                        shard,
                        ok: true,
                        partial: out.partial,
                        views: out.views.len(),
                    });
                    outputs.push(out);
                }
                Err(e) if degradable(shard, &e) => legs.push(ShardLeg {
                    shard,
                    ok: false,
                    partial: true,
                    views: 0,
                }),
                Err(e) => return Err(e),
            }
        }
        let complete = legs.iter().all(|l| l.ok);
        self.gather_shard_outputs(spec, budget, outputs, complete)
            .map(|result| (result, legs))
    }

    /// One scatter leg of the sharded search, runnable **in a separate
    /// process** from the gather: COLUMN-SELECTION (deterministic, so
    /// every leg computes the identical selection the gather will) plus
    /// this shard's JOIN-GRAPH-SEARCH + MATERIALIZER slice.
    ///
    /// Selection is recomputed per call so a remote shard server needs
    /// nothing but the spec and its shard identity on the wire; it is a
    /// pure function of (index, spec, config), so every leg and the
    /// gather agree on it bit for bit.
    pub fn run_shard_leg(
        &self,
        spec: &ViewSpec,
        caches: Option<&SearchCaches>,
        budget: &QueryBudget,
        shard: usize,
        shard_count: usize,
    ) -> Result<ver_search::ShardSearchOutput> {
        assert!(
            shard < shard_count,
            "shard {shard} out of range for {shard_count} shards"
        );
        let selection = select_for_spec(&self.index, spec, &self.config.selection);
        let mut cx = SearchContext::new(&self.catalog, &self.index).with_budget(*budget);
        if let Some(caches) = caches {
            cx = cx.with_caches(caches);
        }
        cx.search_shard(&selection, &self.config.search, shard, shard_count)
    }

    /// Gather step over leg outputs produced by [`Ver::run_shard_leg`] —
    /// locally or in remote shard processes: merge the legs through the
    /// content-based rank order, then finish the query centrally (VD-IO,
    /// budgeted distillation, survivor ranking), exactly as the
    /// single-engine path would. Pass `complete = false` when any leg was
    /// dropped; the merged result is then flagged
    /// [`QueryResult::partial`] — a missing leg is never an error. With
    /// every leg present the result is bit-identical to
    /// [`Ver::run_budgeted`] (invariants 11 and 13 build on this).
    pub fn gather_shard_outputs(
        &self,
        spec: &ViewSpec,
        budget: &QueryBudget,
        outputs: Vec<ver_search::ShardSearchOutput>,
        complete: bool,
    ) -> Result<QueryResult> {
        let mut timer = PhaseTimer::new();
        let selection = timer.time("cs", || {
            select_for_spec(&self.index, spec, &self.config.selection)
        });
        let search_out = ver_search::merge_shard_outputs(outputs, complete);
        self.finish_query(spec, budget, timer, selection, search_out)
    }

    /// Shared tail of the single-engine and sharded paths: VD-IO,
    /// budgeted distillation with the undistilled fallback, and survivor
    /// ranking over a search output.
    fn finish_query(
        &self,
        spec: &ViewSpec,
        budget: &QueryBudget,
        mut timer: PhaseTimer,
        selection: SelectionResult,
        search_out: ver_search::SearchOutput,
    ) -> Result<QueryResult> {
        timer.add("jgs", search_out.timer.get("jgs"));
        timer.add("materialize", search_out.timer.get("materialize"));
        let mut partial = search_out.partial;
        let mut views = search_out.views;

        // VD-IO: optionally round-trip the views through CSV on disk, the
        // cost the paper identifies as the distillation bottleneck.
        if self.config.simulate_view_io {
            views = timer.time("vd_io", || roundtrip_views(&views))?;
        } else {
            timer.add("vd_io", std::time::Duration::ZERO);
        }

        // VIEW-DISTILLATION (line 9). Out of budget (or a panicked distill
        // worker) degrades to "no distillation": the ranked views are
        // still useful without 4C labels, and the partial flag tells the
        // caller which contract they got.
        let distill_out = match distill_budgeted(&views, &self.config.distill, budget) {
            Ok(out) => out,
            Err(e) if e.degrades() => {
                partial = true;
                undistilled(&views)
            }
            Err(e) => return Err(e),
        };
        timer.add("4c", distill_out.timer.total());

        // Automatic mode ranking (line 13): overlap score over survivors.
        let ranked = rank_survivors(&views, &distill_out, spec);

        // The row-hash vectors the DAG gave the views were an input of 4C,
        // not part of the answer: whatever caches or ships this result
        // carries none of them (views parked in the view LRU keep theirs
        // for the next miss).
        views.iter_mut().for_each(View::release_row_hashes);

        Ok(QueryResult {
            views,
            selection,
            search_stats: search_out.stats,
            distill: distill_out,
            ranked,
            timer,
            partial,
        })
    }

    /// Run interactively (Algorithm 1 lines 10-11): execute the pipeline,
    /// then drive VIEW-PRESENTATION's question loop with `user`.
    pub fn run_interactive(
        &self,
        spec: &ViewSpec,
        user: &mut dyn SimulatedUser,
    ) -> Result<(QueryResult, SessionOutcome)> {
        let result = self.run(spec)?;
        let outcome = self.present(spec, &result, user);
        Ok((result, outcome))
    }

    /// VIEW-PRESENTATION's question loop (Algorithm 1 lines 10-11) over a
    /// result `spec` already produced, so several users can be driven
    /// over one pipeline run.
    pub fn present(
        &self,
        spec: &ViewSpec,
        result: &QueryResult,
        user: &mut dyn SimulatedUser,
    ) -> SessionOutcome {
        let query = presentation_query(spec);
        let config = self.config.presentation.clone();
        PresentationSession::new(&result.views, &result.distill, &query, config).run(user)
    }
}

/// Outcome of one scatter leg of [`Ver::scatter_gather`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLeg {
    /// Which shard the leg queried.
    pub shard: usize,
    /// `false` when the leg was dropped (worker panic or un-degraded
    /// deadline) and contributed nothing to the merge.
    pub ok: bool,
    /// `true` when the leg's slice was trimmed by the budget (or the leg
    /// was dropped entirely).
    pub partial: bool,
    /// Views the leg contributed to the merge.
    pub views: usize,
}

/// The degraded stand-in for an abandoned distillation: an unlabelled
/// graph where every view survives C1 and C2, so downstream ranking and
/// presentation still have the full candidate set to work with.
fn undistilled(views: &[View]) -> DistillOutput {
    let ids: Vec<ViewId> = views.iter().map(|v| v.id).collect();
    DistillOutput {
        graph: ver_distill::ViewGraph::new(ids.clone()),
        view_keys: Default::default(),
        compatible_groups: Vec::new(),
        survivors_c1: ids.clone(),
        survivors_c2: ids,
        contradictions: Vec::new(),
        complementary_pairs: Vec::new(),
        timer: PhaseTimer::new(),
    }
}

/// Round-trip views through CSV files in a temp dir (VD-IO simulation).
///
/// Each call writes into a directory of its own — process id plus a
/// process-wide call counter — so concurrent queries never read each
/// other's files, and the directory is removed whether or not the round
/// trip succeeded.
fn roundtrip_views(views: &[View]) -> Result<Vec<View>> {
    // Relaxed: the counter only has to hand out distinct values.
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ver_views_{}_{call}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let out = views
        .iter()
        .map(|v| {
            let path = dir.join(format!("view_{}.csv", v.id.0));
            let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
            // Forces the gather: the simulated I/O writes every cell.
            ver_store::csv::write_csv(&v.table, &mut file)?;
            file.flush()?;
            drop(file);
            let file = std::fs::File::open(&path)?;
            let mut table = ver_store::csv::read_csv(v.name(), file, true)?;
            table.infer_types();
            std::fs::remove_file(&path).ok();
            Ok(View::new(v.id, table, v.provenance.clone()))
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// Overlap-ranked survivors (only meaningful for QBE specs; keyword and
/// attribute specs rank by join score).
fn rank_survivors(
    views: &[View],
    distill_out: &DistillOutput,
    spec: &ViewSpec,
) -> Vec<(ViewId, usize)> {
    let survivors = ver_distill::strategy::distilled_views(views, distill_out);
    match spec {
        ViewSpec::Qbe(query) => fasttopk_rank(&survivors, query),
        _ => {
            let mut ranked: Vec<(ViewId, usize)> = survivors
                .iter()
                .map(|v| (v.id, (v.provenance.join_score * 1000.0) as usize))
                .collect();
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            ranked
        }
    }
}

/// The example query driving presentation distances; non-QBE specs get a
/// synthetic one from their terms. Public so callers can build
/// [`PresentationSession`]s over stored results with exactly the query
/// [`Ver::present`] uses.
pub fn presentation_query(spec: &ViewSpec) -> ExampleQuery {
    match spec {
        ViewSpec::Qbe(q) => q.clone(),
        ViewSpec::Keyword(terms) | ViewSpec::Attribute(terms) => {
            let rows: Vec<Vec<&str>> = vec![terms.iter().map(String::as_str).collect()];
            ExampleQuery::from_rows(&rows).unwrap_or_else(|_| {
                ExampleQuery::from_rows(&[vec!["query"]]).expect("static query is valid")
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ver_common::value::Value;
    use ver_store::table::TableBuilder;

    /// airports ⋈ states ⋈ regions plus a conflicting states table.
    fn catalog() -> TableCatalog {
        let mut cat = TableCatalog::new();
        let states: Vec<String> = (0..40).map(|i| format!("st{i}")).collect();

        let mut b = TableBuilder::new("airports", &["iata", "state"]);
        for (i, s) in states.iter().enumerate() {
            b.push_row(vec![Value::text(format!("AP{i}")), Value::text(s.clone())])
                .unwrap();
        }
        cat.add_table(b.build()).unwrap();

        let mut b = TableBuilder::new("state_pop", &["state", "pop"]);
        for (i, s) in states.iter().enumerate() {
            b.push_row(vec![Value::text(s.clone()), Value::Int(1000 + i as i64)])
                .unwrap();
        }
        cat.add_table(b.build()).unwrap();

        let mut b = TableBuilder::new("state_pop_old", &["state", "pop"]);
        for (i, s) in states.iter().enumerate() {
            b.push_row(vec![Value::text(s.clone()), Value::Int(900 + i as i64)])
                .unwrap();
        }
        cat.add_table(b.build()).unwrap();
        cat
    }

    fn qbe(rows: &[Vec<&str>]) -> ViewSpec {
        ViewSpec::Qbe(ExampleQuery::from_rows(rows).unwrap())
    }

    #[test]
    fn end_to_end_automatic_run() {
        let ver = Ver::build(catalog(), VerConfig::fast()).unwrap();
        let spec = qbe(&[vec!["st1", "1001"], vec!["st2", "1002"]]);
        let result = ver.run(&spec).unwrap();
        assert!(result.search_stats.views >= 1);
        assert!(!result.ranked.is_empty());
        // Phase timer covers the Fig. 4b stages.
        for phase in ["cs", "jgs", "materialize", "vd_io", "4c"] {
            assert!(
                result.timer.phases().any(|(p, _)| p == phase),
                "missing phase {phase}"
            );
        }
    }

    #[test]
    fn distillation_prunes_duplicate_pop_views() {
        // Two pop tables produce contradictory (not duplicate) views; both
        // survive distillation but are mutually contradictory.
        let ver = Ver::build(catalog(), VerConfig::fast()).unwrap();
        let spec = qbe(&[vec!["st1", "1001"], vec!["st2", "1002"]]);
        let result = ver.run(&spec).unwrap();
        assert!(result.distill.survivors_c2.len() <= result.views.len());
    }

    #[test]
    fn interactive_run_reaches_target() {
        let ver = Ver::build(catalog(), VerConfig::fast()).unwrap();
        let spec = qbe(&[vec!["st1", "1001"], vec!["st2", "1002"]]);
        let result = ver.run(&spec).unwrap();
        // Oracle targets the top-ranked view.
        let target = result.ranked[0].0;
        let mut user = ver_present::OracleUser::new(target);
        let (_, outcome) = ver.run_interactive(&spec, &mut user).unwrap();
        assert_eq!(outcome.found_view(), Some(target));
    }

    #[test]
    fn keyword_and_attribute_specs_run() {
        let ver = Ver::build(catalog(), VerConfig::fast()).unwrap();
        let kw = ver.run(&ViewSpec::Keyword(vec!["st5".into()])).unwrap();
        assert!(kw.search_stats.views >= 1);
        let attr = ver.run(&ViewSpec::Attribute(vec!["pop".into()])).unwrap();
        assert!(attr.search_stats.views >= 1);
    }

    #[test]
    fn view_io_roundtrip_preserves_row_sets() {
        let mut config = VerConfig::fast();
        config.simulate_view_io = true;
        let ver = Ver::build(catalog(), config).unwrap();
        let spec = qbe(&[vec!["st1", "1001"], vec!["st2", "1002"]]);
        let with_io = ver.run(&spec).unwrap();

        let ver2 = Ver::build(catalog(), VerConfig::fast()).unwrap();
        let without_io = ver2.run(&spec).unwrap();
        assert_eq!(with_io.views.len(), without_io.views.len());
        for (a, b) in with_io.views.iter().zip(&without_io.views) {
            assert_eq!(a.row_set(), b.row_set(), "IO roundtrip changed rows");
        }
    }

    #[test]
    fn concurrent_view_io_runs_do_not_share_files() {
        let mut config = VerConfig::fast();
        config.simulate_view_io = true;
        let ver = Ver::build(catalog(), config).unwrap();
        let specs = [
            qbe(&[vec!["st1", "1001"], vec!["st2", "1002"]]),
            qbe(&[vec!["st3", "903"], vec!["st4", "904"]]),
            ViewSpec::Keyword(vec!["st5".into()]),
            ViewSpec::Attribute(vec!["pop".into()]),
        ];
        let sequential: Vec<QueryResult> = specs.iter().map(|s| ver.run(s).unwrap()).collect();
        // Every thread writes views numbered from 0 at the same moment: in
        // a shared directory they read and delete each other's files.
        let start = std::sync::Barrier::new(specs.len());
        for round in 0..8 {
            let concurrent: Vec<Result<QueryResult>> = std::thread::scope(|scope| {
                let runs: Vec<_> = specs
                    .iter()
                    .map(|spec| {
                        let (ver, start) = (&ver, &start);
                        scope.spawn(move || {
                            start.wait();
                            ver.run(spec)
                        })
                    })
                    .collect();
                runs.into_iter()
                    .map(|run| run.join().expect("query thread"))
                    .collect()
            });
            for (i, (a, b)) in concurrent.iter().zip(&sequential).enumerate() {
                let a = a
                    .as_ref()
                    .unwrap_or_else(|e| panic!("round {round}, spec {i}: {e}"));
                assert_eq!(a.ranked, b.ranked, "round {round}, spec {i}");
                assert_eq!(a.views.len(), b.views.len(), "round {round}, spec {i}");
                for (va, vb) in a.views.iter().zip(&b.views) {
                    assert!(va.same_contents(vb), "round {round}, spec {i}: {}", va.id);
                }
            }
        }
    }

    #[test]
    fn empty_query_result_is_graceful() {
        let ver = Ver::build(catalog(), VerConfig::fast()).unwrap();
        let spec = qbe(&[vec!["does-not-exist"]]);
        let result = ver.run(&spec).unwrap();
        assert_eq!(result.views.len(), 0);
    }

    #[test]
    fn from_parts_reproduces_build_exactly() {
        let built = Ver::build(catalog(), VerConfig::fast()).unwrap();
        let warm = Ver::from_parts(
            built.catalog_shared(),
            built.index_shared(),
            VerConfig::fast(),
        )
        .unwrap();
        let spec = qbe(&[vec!["st1", "1001"], vec!["st2", "1002"]]);
        let a = built.run(&spec).unwrap();
        let b = warm.run(&spec).unwrap();
        assert_eq!(a.ranked, b.ranked);
        assert_eq!(a.views.len(), b.views.len());
        for (va, vb) in a.views.iter().zip(&b.views) {
            assert!(va.same_contents(vb));
        }
    }

    #[test]
    fn from_parts_rejects_mismatched_catalog() {
        let built = Ver::build(catalog(), VerConfig::fast()).unwrap();
        let mut other = TableCatalog::new();
        let mut b = TableBuilder::new("only", &["x"]);
        b.push_row(vec![Value::Int(1)]).unwrap();
        other.add_table(b.build()).unwrap();
        let err = Ver::from_parts(
            std::sync::Arc::new(other),
            built.index_shared(),
            VerConfig::fast(),
        );
        assert!(matches!(err, Err(VerError::InvalidData(_))));
    }

    #[test]
    fn run_cached_matches_run_and_hits_on_repeat() {
        let ver = Ver::build(catalog(), VerConfig::fast()).unwrap();
        let spec = qbe(&[vec!["st1", "1001"], vec!["st2", "1002"]]);
        let base = ver.run(&spec).unwrap();
        let caches = SearchCaches::new(1 << 20);
        for pass in 0..2 {
            let out = ver.run_cached(&spec, Some(&caches)).unwrap();
            assert_eq!(out.ranked, base.ranked, "pass {pass}");
            assert_eq!(out.distill.survivors_c2, base.distill.survivors_c2);
            for (a, b) in out.views.iter().zip(&base.views) {
                assert!(a.same_contents(b), "pass {pass}");
            }
        }
        assert!(caches.view_stats().hits > 0, "repeat pass must hit");
    }

    #[test]
    fn sharded_run_is_bit_identical_for_every_shard_count() {
        let ver = Ver::build(catalog(), VerConfig::fast()).unwrap();
        let spec = qbe(&[vec!["st1", "1001"], vec!["st2", "1002"]]);
        let single = ver.run(&spec).unwrap();
        assert!(single.views.len() > 1, "need a multi-view query");
        for count in [1usize, 2, 4] {
            let caches = SearchCaches::new(1 << 20);
            let sharded = ver
                .run_sharded(&spec, Some(&caches), &QueryBudget::none(), count)
                .unwrap();
            assert!(!sharded.partial, "count={count}");
            assert_eq!(sharded.ranked, single.ranked, "count={count}");
            assert_eq!(sharded.search_stats, single.search_stats, "count={count}");
            assert_eq!(
                sharded.distill.survivors_c2, single.distill.survivors_c2,
                "count={count}"
            );
            assert_eq!(sharded.views.len(), single.views.len());
            for (a, b) in sharded.views.iter().zip(&single.views) {
                assert_eq!(a.id, b.id, "count={count}");
                assert!(a.same_contents(b), "count={count}: {} differs", a.id);
            }
        }
    }

    #[test]
    fn shard_leg_plus_gather_reproduces_the_single_run() {
        // The process-separable decomposition: independent `run_shard_leg`
        // calls (each recomputing selection) gathered by
        // `gather_shard_outputs` must be bit-identical to `run`.
        let ver = Ver::build(catalog(), VerConfig::fast()).unwrap();
        let spec = qbe(&[vec!["st1", "1001"], vec!["st2", "1002"]]);
        let single = ver.run(&spec).unwrap();
        for count in [1usize, 2, 4] {
            let outputs: Vec<_> = (0..count)
                .map(|s| {
                    ver.run_shard_leg(&spec, None, &QueryBudget::none(), s, count)
                        .unwrap()
                })
                .collect();
            let gathered = ver
                .gather_shard_outputs(&spec, &QueryBudget::none(), outputs, true)
                .unwrap();
            assert!(!gathered.partial, "count={count}");
            assert_eq!(gathered.ranked, single.ranked, "count={count}");
            assert_eq!(gathered.search_stats, single.search_stats);
            assert_eq!(gathered.views.len(), single.views.len());
            for (a, b) in gathered.views.iter().zip(&single.views) {
                assert_eq!(a.id, b.id, "count={count}");
                assert!(a.same_contents(b), "count={count}: {} differs", a.id);
            }
        }

        // A dropped leg (complete = false) degrades the gather to a
        // partial result — never an error.
        let survivor = ver
            .run_shard_leg(&spec, None, &QueryBudget::none(), 0, 2)
            .unwrap();
        let partial = ver
            .gather_shard_outputs(&spec, &QueryBudget::none(), vec![survivor], false)
            .unwrap();
        assert!(partial.partial, "missing leg must flag the merge partial");
        assert!(partial.views.len() <= single.views.len());
    }

    #[test]
    fn scatter_gather_drops_degradable_legs_and_reports_them() {
        let ver = Ver::build(catalog(), VerConfig::fast()).unwrap();
        let spec = qbe(&[vec!["st1", "1001"], vec!["st2", "1002"]]);
        let budget = QueryBudget::none();
        let healthy = |shard| ver.run_shard_leg(&spec, None, &budget, shard, 2);
        let leg0_views = healthy(0).unwrap().views.len();

        // Leg 1 fails with an error its backend calls degradable: the
        // slice is dropped, the leg reported, the merge flagged partial.
        let one_down = |shard| match shard {
            1 => Err(VerError::Io("leg down".into())),
            _ => healthy(shard),
        };
        let (result, legs) = ver
            .scatter_gather(&spec, &budget, 2, 2, one_down, |_, e| {
                matches!(e, VerError::Io(_))
            })
            .expect("a degradable leg failure is never an error");
        assert!(result.partial);
        assert_eq!(result.views.len(), leg0_views);
        let report = |shard, ok, partial, views| ShardLeg {
            shard,
            ok,
            partial,
            views,
        };
        assert_eq!(
            legs,
            vec![
                report(0, true, false, leg0_views),
                report(1, false, true, 0)
            ]
        );

        // A panicking leg arrives as `Internal`, which the in-process
        // default drops as well.
        let one_panics = |shard| match shard {
            0 => panic!("leg worker dies"),
            _ => healthy(shard),
        };
        let (result, legs) = ver
            .scatter_gather(&spec, &budget, 2, 2, one_panics, |_, e| e.degrades())
            .unwrap();
        assert!(result.partial);
        assert!(!legs[0].ok && legs[1].ok);
    }

    #[test]
    fn scatter_gather_fails_the_query_on_a_non_degradable_leg_error() {
        let ver = Ver::build(catalog(), VerConfig::fast()).unwrap();
        let spec = qbe(&[vec!["st1", "1001"], vec!["st2", "1002"]]);
        let budget = QueryBudget::none();
        let one_down = |shard| match shard {
            1 => Err(VerError::Io("leg down".into())),
            _ => ver.run_shard_leg(&spec, None, &budget, shard, 2),
        };
        let err = ver.scatter_gather(&spec, &budget, 2, 2, one_down, |_, e| e.degrades());
        assert!(matches!(err, Err(VerError::Io(_))), "{err:?}");
    }

    #[test]
    fn sharded_run_under_expired_deadline_degrades_to_partial() {
        let ver = Ver::build(catalog(), VerConfig::fast()).unwrap();
        let spec = qbe(&[vec!["st1", "1001"], vec!["st2", "1002"]]);
        let budget = QueryBudget::none().with_timeout(std::time::Duration::ZERO);
        let out = ver
            .run_sharded(&spec, None, &budget, 2)
            .expect("budget exhaustion degrades, never errors");
        assert!(out.partial);
        assert!(out.views.is_empty());
    }

    #[test]
    fn distilled_views_follow_ranking() {
        let ver = Ver::build(catalog(), VerConfig::fast()).unwrap();
        let spec = qbe(&[vec!["st1", "1001"], vec!["st2", "1002"]]);
        let result = ver.run(&spec).unwrap();
        let distilled = result.distilled_views();
        assert_eq!(distilled.len(), result.ranked.len());
        if distilled.len() >= 2 {
            assert_eq!(distilled[0].id, result.ranked[0].0);
        }
    }
}
