//! The traced run: spans recorded from outside the product.
//!
//! This change may not touch `crates/`, so a layer is timed by calling its
//! public entry points in pipeline order on the same inputs, next to the
//! real operation: each spec runs the real operation under an `op` span,
//! then a `replay` span whose children are the layers that operation went
//! through. Sub-phases a layer reports itself (`SearchOutput.timer`,
//! `DistillOutput.timer`) become children marked `"src": "timer"`.
//!
//! Within one operation a metric's value is the summed duration of the
//! spans carrying its name. A time is then reported as the mean over specs
//! of each spec's fastest pass (the floor statistic of the end-to-end
//! latencies, but a mean, so that layers sum to their operation); counts
//! and ratios are medians over operations. Spans stay in memory until the
//! run ends and are then written as JSON lines.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use ver_common::budget::QueryBudget;
use ver_common::error::Result;
use ver_core::spec_select::select_for_spec;
use ver_core::Ver;
use ver_distill::distill;
use ver_engine::view::View;
use ver_present::fasttopk_rank;
use ver_qbe::ViewSpec;
use ver_search::{SearchCaches, SearchContext};
use ver_serve::net::frame::{decode_frame, encode_frame};
use ver_serve::net::{Page, QueryHead, Response, WireResult};
use ver_serve::{ServeConfig, ServeEngine};

use crate::inputs::Inputs;
use crate::json::Json;
use crate::names::PER_LAYER;
use crate::stats::{median, spec_floors};
use crate::workloads::{
    measure, timed_op, Answer, Engine, SpanSink, Window, FOLLOW_UP_PAGES, PAGE_SIZE, SHARD_COUNT,
};

/// Traced passes are at least this many, however short the window.
const MIN_TRACED_PASSES: usize = 5;

struct Span {
    name: &'static str,
    op: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    from_timer: bool,
    /// Where the next timer-reported child is placed.
    cursor_ns: u64,
}

#[derive(Default)]
pub struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
    counts: Vec<(&'static str, u32, f64)>,
}

impl Tracer {
    fn now_ns(&mut self) -> u64 {
        self.epoch
            .get_or_insert_with(Instant::now)
            .elapsed()
            .as_nanos() as u64
    }

    fn next_op(&mut self) {
        self.op += 1;
    }

    fn dur_ms(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e6
    }

    /// A child of `parent` whose duration the product measured itself.
    fn timer_child(&mut self, parent: usize, name: &'static str, duration: Duration) {
        let start_ns = self.spans[parent].cursor_ns;
        let end_ns = start_ns + duration.as_nanos() as u64;
        self.spans[parent].cursor_ns = end_ns;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: Some(parent),
            start_ns,
            end_ns,
            from_timer: true,
            cursor_ns: start_ns,
        });
    }

    /// Names of the spans directly under the root spans called `root`.
    fn child_names(&self, root: &str) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == root))
            .map(|s| s.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// A per-operation value that is not a duration.
    fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push((name, self.op, value));
    }

    /// One value per operation: summed span durations (ms) and counts
    /// recorded under `name`.
    fn series(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<u32, f64> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            if span.name == name {
                *by_op.entry(span.op).or_default() += self.dur_ms(id);
            }
        }
        for (n, op, value) in &self.counts {
            if *n == name {
                *by_op.entry(*op).or_default() += value;
            }
        }
        by_op.into_values().collect()
    }

    /// One JSON object per span; `self_ns` is the span's duration minus
    /// what its direct children cover.
    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::str(span.name)),
                ("op", Json::Num(f64::from(span.op))),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
                (
                    "self_ns",
                    Json::Num((span.end_ns - span.start_ns).saturating_sub(child_ns[id]) as f64),
                ),
                (
                    "src",
                    Json::str(if span.from_timer { "timer" } else { "span" }),
                ),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

impl SpanSink for Tracer {
    fn open(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
            from_timer: false,
            cursor_ns: start_ns,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        id
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }
}

/// `select → search → distill → rank`, as `Ver::run` chains them.
fn replay_pipeline(tr: &mut Tracer, ver: &Ver, spec: &ViewSpec) -> Result<()> {
    let config = ver.config();
    let id = tr.open("select.select_ms");
    let selection = select_for_spec(ver.index(), spec, &config.selection);
    tr.close(id);
    tr.count("select.columns_selected", selection.total_selected() as f64);

    let search_id = tr.open("search.search_ms");
    let found = SearchContext::new(ver.catalog(), ver.index()).search(&selection, &config.search);
    tr.close(search_id);
    let found = found?;
    tr.timer_child(search_id, "search.jgs_ms", found.timer.get("jgs"));
    tr.timer_child(
        search_id,
        "engine.materialize_ms",
        found.timer.get("materialize"),
    );
    tr.count("search.combinations", found.stats.combinations as f64);
    tr.count("search.join_graphs", found.stats.join_graphs as f64);
    tr.count("search.views", found.stats.views as f64);
    tr.count("engine.dag_distinct_steps", found.dag.distinct_steps as f64);
    if found.dag.total_steps > 0 {
        tr.count(
            "engine.dag_shared_ratio",
            found.dag.shared_hits as f64 / found.dag.total_steps as f64,
        );
    }

    let id = tr.open("distill.distill_ms");
    let distilled = distill(&found.views, &config.distill);
    tr.close(id);
    for (phase, name) in [
        ("schema_partition", "distill.schema_partition_ms"),
        ("hash_c1", "distill.hash_c1_ms"),
        ("c2", "distill.c2_ms"),
        ("c3_c4", "distill.c3_c4_ms"),
    ] {
        tr.timer_child(id, name, distilled.timer.get(phase));
    }
    if !found.views.is_empty() {
        tr.count(
            "distill.survivor_ratio",
            distilled.survivors_c2.len() as f64 / found.views.len() as f64,
        );
    }

    // The copy of the survivors is `Ver::run`'s own glue, not ranking.
    let survivors: Vec<View> = found
        .views
        .iter()
        .filter(|v| distilled.survivors_c2.contains(&v.id))
        .cloned()
        .collect();
    if let ViewSpec::Qbe(query) = spec {
        let id = tr.open("present.rank_ms");
        let ranked = fasttopk_rank(&survivors, query);
        tr.close(id);
        drop(ranked);
    }
    Ok(())
}

/// What the server does to answer from a warm result LRU and what the
/// client does to read the reply: lookup → to-wire → (paginate) → encode →
/// frame → unframe → decode. Returns the bytes of the reply frames.
fn replay_wire(
    tr: &mut Tracer,
    engine: &ServeEngine,
    spec: &ViewSpec,
    paged: bool,
) -> Result<usize> {
    let id = tr.open("serve.lru_hit_ms");
    let result = engine.query(spec);
    tr.close(id);
    let result = result?;

    let id = tr.open("wire.to_wire_ms");
    let wire = WireResult::from_query_result(&result);
    tr.close(id);

    let WireResult {
        partial,
        stats,
        survivors_c2,
        ranked,
        views,
    } = wire;
    let total = views.len();
    let page = PAGE_SIZE as usize;
    let mut pages = Vec::new();
    let (head_views, page_size, cursor) = if paged && total > page {
        for p in 1..=FOLLOW_UP_PAGES {
            let start = p as usize * page;
            if start >= total {
                break;
            }
            let end = (start + page).min(total);
            pages.push(Response::Page(Page {
                cursor: 1,
                page: p,
                last: end == total,
                views: views[start..end].to_vec(),
            }));
        }
        let head_views = views[..page].to_vec();
        // The server parks the whole result under a new cursor and, with
        // the table at its cap, drops the oldest cursor's parked views.
        let id = tr.open("net.cursor_evict_ms");
        drop(views);
        tr.close(id);
        (head_views, PAGE_SIZE, 1)
    } else {
        (views, 0, 0)
    };
    let mut replies = vec![Response::Query(QueryHead {
        partial,
        stats,
        survivors_c2,
        ranked,
        total_views: total as u32,
        page_size,
        cursor,
        views: head_views,
    })];
    replies.append(&mut pages);

    let mut bytes = 0;
    for reply in &replies {
        let id = tr.open("wire.encode_ms");
        let payload = reply.encode();
        tr.close(id);
        let id = tr.open("frame.encode_ms");
        let frame = encode_frame(&payload);
        tr.close(id);
        bytes += frame.len();
        let id = tr.open("frame.decode_ms");
        let payload = decode_frame(&frame);
        tr.close(id);
        let payload = payload?;
        let id = tr.open("wire.decode_ms");
        let decoded = Response::decode(&payload);
        tr.close(id);
        decoded?;
    }
    Ok(bytes)
}

/// The scatter legs one after the other, then the gather — what
/// `ShardedEngine::query` does on a miss with one query thread.
fn replay_shard(tr: &mut Tracer, ver: &Ver, caches: &SearchCaches, spec: &ViewSpec) -> Result<()> {
    let budget = QueryBudget::none();
    let mut outputs = Vec::with_capacity(SHARD_COUNT);
    let mut slowest: f64 = 0.0;
    for shard in 0..SHARD_COUNT {
        let id = tr.open("shard.leg_sum_ms");
        let leg = ver.run_shard_leg(spec, Some(caches), &budget, shard, SHARD_COUNT);
        tr.close(id);
        slowest = slowest.max(tr.dur_ms(id));
        outputs.push(leg?);
    }
    tr.count("shard.leg_max_ms", slowest);
    let id = tr.open("shard.gather_ms");
    let gathered = ver.gather_shard_outputs(spec, &budget, outputs, true);
    tr.close(id);
    gathered.map(drop)
}

fn ratio(part: u64, rest: u64) -> f64 {
    if part + rest == 0 {
        0.0
    } else {
        part as f64 / (part + rest) as f64
    }
}

pub struct Traced {
    /// Per-layer metrics the traced passes measured (others stay 0).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Every real operation of the run, untraced and traced passes.
    pub window: Window,
    /// Result-LRU lookups made, for the window-condition check.
    pub lookups: u64,
}

/// Untraced passes for a quarter of `seconds` (the base of the overhead
/// ratio), then traced passes for the rest.
pub fn run_traced(
    engine: &mut Engine,
    inputs: &Inputs,
    totals: &[usize],
    seconds: f64,
    spans_path: &Path,
) -> Result<Traced> {
    let n_specs = inputs.specs.len();
    // Means over specs, unlike the end-to-end medians: the specs differ
    // several-fold in cost, and only means of parts sum to the mean of the
    // whole.
    let floor_mean = |series: &[f64]| {
        let floors = spec_floors(series, n_specs);
        floors.iter().sum::<f64>() / floors.len() as f64
    };
    let mut window = measure(engine, inputs, totals, seconds / 4.0);
    let untraced_p50 = floor_mean(&window.latencies_ms);
    let untraced_ops = window.latencies_ms.len();

    let serve_before = engine.serve_stats();
    let net_before = engine.net_stats();
    let shards_before = match engine {
        Engine::Shard(e) => e.shard_stats(),
        _ => Vec::new(),
    };
    // The replayed legs share caches of the engine's size across queries,
    // as the engine's own legs do.
    let replay_caches = SearchCaches::new(ServeConfig::default().view_cache_capacity);

    let mut tr = Tracer::default();
    let start = Instant::now();
    let limit = Duration::from_secs_f64(seconds * 0.75);
    let mut passes = 0;
    while passes < MIN_TRACED_PASSES || start.elapsed() < limit {
        for (spec, &total) in inputs.specs.iter().zip(totals) {
            tr.next_op();
            let op_id = tr.open("op");
            let answer = timed_op(engine, spec, total, &mut tr, &mut window);
            tr.close(op_id);

            // Views the replies carried, then the client's drop.
            match answer {
                Some(Answer::Wire(result)) => {
                    tr.count("wire.views_per_op", result.views.len() as f64);
                    let id = tr.open("client.drop_ms");
                    drop(result);
                    tr.close(id);
                }
                Some(Answer::Paged(head, pages)) => {
                    let views =
                        head.views.len() + pages.iter().map(|p| p.views.len()).sum::<usize>();
                    tr.count("wire.views_per_op", views as f64);
                    let id = tr.open("client.drop_ms");
                    drop((head, pages));
                    tr.close(id);
                }
                other => drop(other),
            }

            let root = tr.open("replay");
            match engine {
                Engine::Lib(ver) => replay_pipeline(&mut tr, ver, spec)?,
                Engine::Wire {
                    engine: serve,
                    paged,
                    ..
                } => {
                    let bytes = replay_wire(&mut tr, serve, spec, *paged)?;
                    tr.count("wire.bytes_per_op", bytes as f64);
                }
                Engine::Shard(sharded) => {
                    replay_shard(&mut tr, sharded.ver(), &replay_caches, spec)?
                }
            }
            tr.close(root);
            if let Engine::Shard(sharded) = engine {
                // The single-engine pipeline on the same spec, outside the
                // coverage sum: the base of the redundancy ratio.
                let single = tr.open("replay.single");
                replay_pipeline(&mut tr, sharded.ver(), spec)?;
                tr.close(single);
            }
        }
        passes += 1;
    }
    let traced_ops = window.latencies_ms.len() - untraced_ops;

    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (name, _, _) in PER_LAYER {
        let series = tr.series(name);
        if series.is_empty() {
            continue;
        }
        let value = if name.ends_with("_ms") {
            floor_mean(&series)
        } else {
            median(&series)
        };
        metrics.insert(name, value);
    }
    metrics.insert(
        "harness.trace_overhead_ratio",
        floor_mean(&tr.series("op")) / untraced_p50,
    );
    // Derived from the reported figures, so the parts of an operation sum
    // to the whole: the operation is what the `op` spans contain, its
    // layers what the `replay` spans contain, the residual what no replayed
    // layer covers (pipeline glue, or socket, syscalls and thread hand-off).
    let reported = |root: &str| -> f64 {
        tr.child_names(root)
            .iter()
            .map(|name| metrics.get(name).copied().unwrap_or(0.0))
            .sum()
    };
    let (op_ms, layers_ms) = (reported("op"), reported("replay"));
    metrics.insert("trace.coverage_ratio", layers_ms / op_ms);
    match engine {
        Engine::Lib(_) => {
            metrics.insert("core.glue_ms", op_ms - layers_ms);
        }
        Engine::Wire { .. } => {
            metrics.insert("net.transport_ms", op_ms - layers_ms);
        }
        Engine::Shard(_) => {
            metrics.insert(
                "shard.redundancy_ratio",
                metrics["shard.leg_sum_ms"] / metrics["search.search_ms"],
            );
        }
    }

    let mut lookups = untraced_ops as u64 + traced_ops as u64;
    if let (Some(b), Some(a)) = (serve_before, engine.serve_stats()) {
        if matches!(engine, Engine::Wire { .. }) {
            lookups += traced_ops as u64; // the replayed lookups
        }
        metrics.insert(
            "serve.result_hit_ratio",
            ratio(
                a.result_cache.hits - b.result_cache.hits,
                a.result_cache.misses - b.result_cache.misses,
            ),
        );
        metrics.insert(
            "serve.view_hit_ratio",
            ratio(
                a.view_cache.hits - b.view_cache.hits,
                a.view_cache.misses - b.view_cache.misses,
            ),
        );
        metrics.insert(
            "serve.score_memo_hit_ratio",
            ratio(
                a.score_memo.hits - b.score_memo.hits,
                a.score_memo.misses - b.score_memo.misses,
            ),
        );
        metrics.insert("serve.cached_views", a.cached_views as f64);
    }
    if let (Some(b), Some(a)) = (net_before, engine.net_stats()) {
        let per_op = |delta: u64| delta as f64 / traced_ops as f64;
        metrics.insert("net.frames_per_op", per_op(a.frames_out - b.frames_out));
        metrics.insert(
            "net.cursors_evicted_per_op",
            per_op(a.cursors_evicted - b.cursors_evicted),
        );
        metrics.insert("net.cursors_open", a.cursors_open as f64);
        metrics.insert(
            "net.protocol_errors",
            (a.protocol_errors - b.protocol_errors) as f64,
        );
    }
    if let Engine::Shard(sharded) = engine {
        let after = sharded.shard_stats();
        let views: Vec<f64> = after
            .iter()
            .zip(&shards_before)
            .map(|(a, b)| (a.views - b.views) as f64)
            .collect();
        let mean = views.iter().sum::<f64>() / views.len() as f64;
        if mean > 0.0 {
            metrics.insert(
                "shard.skew_ratio",
                views.iter().copied().fold(0.0, f64::max) / mean,
            );
        }
        let failed: u64 = after
            .iter()
            .zip(&shards_before)
            .map(|(a, b)| a.failed - b.failed)
            .sum();
        metrics.insert("shard.failed_legs", failed as f64);
    }

    tr.write_jsonl(spans_path)?;
    Ok(Traced {
        metrics,
        window,
        lookups,
    })
}
