//! The four workloads: set-up from persisted artifacts, the operation each
//! one repeats, the verification pass and the measured window.
//!
//! Only calls into the product are timed. Set-up time is the sum of those
//! calls up to the end of warm-up (cache fill included, so work moved into
//! set-up shows); generating inputs and comparing answers is harness work.

use std::borrow::Cow;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ver_common::error::Result;
use ver_common::timer::PhaseTimer;
use ver_core::{QueryResult, Ver};
use ver_index::build_index;
use ver_index::persist::{load_index, save_index};
use ver_index::shard::{load_sharded_index, partition_index, save_shard, shard_file_name};
use ver_qbe::ViewSpec;
use ver_serve::net::{
    Backend, Client, NetConfig, NetStats, Page, QueryHead, Server, ServerHandle, WireResult,
};
use ver_serve::{ServeConfig, ServeEngine, ServeStats, ShardedEngine};

use crate::inputs::{pipeline_config, Inputs};
use crate::names::WORKLOADS;
use crate::reference;
use crate::stats::run_window;

/// Views per page in `wire_paged`; a user reads the head and two more.
pub const PAGE_SIZE: u32 = 16;
pub const FOLLOW_UP_PAGES: u32 = 2;
pub const SHARD_COUNT: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    LibCold,
    WireHot,
    WirePaged,
    ShardMiss,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::LibCold,
        Kind::WireHot,
        Kind::WirePaged,
        Kind::ShardMiss,
    ];

    /// The stable name, from the same table `BENCHMARK.json` mirrors.
    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].0
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Warm-up passes of the measured operation after the first pass of
    /// whole answers. `wire_paged` needs more than `max_cursors` paginated
    /// operations before the cursor table sits at its cap: its first
    /// passes run several times slower while the table fills.
    fn extra_warmup_passes(self) -> usize {
        match self {
            Kind::WirePaged => 3,
            _ => 1,
        }
    }
}

/// Where a span starts and ends. The unit sink compiles to nothing, so the
/// untraced window runs the same operation code as the traced run.
pub trait SpanSink {
    fn open(&mut self, name: &'static str) -> usize;
    fn close(&mut self, id: usize);
}

impl SpanSink for () {
    fn open(&mut self, _name: &'static str) -> usize {
        0
    }
    fn close(&mut self, _id: usize) {}
}

/// A workload's system under test, opened from its artifact.
pub enum Engine {
    Lib(Ver),
    Wire {
        client: Client,
        server: ServerHandle,
        engine: Arc<ServeEngine>,
        paged: bool,
    },
    Shard(Arc<ShardedEngine>),
}

/// What one operation leaves in the caller's hands.
// Boxing the large variant would put a harness allocation inside the
// timed operation.
#[allow(clippy::large_enum_variant)]
pub enum Answer {
    Lib(QueryResult),
    Wire(WireResult),
    Paged(QueryHead, Vec<Page>),
    Shard(Arc<QueryResult>),
}

impl Answer {
    /// `(views in the whole answer, views delivered, partial)`.
    fn shape(&self) -> (usize, usize, bool) {
        match self {
            Answer::Lib(r) => (r.views.len(), r.views.len(), r.partial),
            Answer::Shard(r) => (r.views.len(), r.views.len(), r.partial),
            Answer::Wire(w) => (w.views.len(), w.views.len(), w.partial),
            Answer::Paged(head, pages) => (
                head.total_views as usize,
                head.views.len() + pages.iter().map(|p| p.views.len()).sum::<usize>(),
                head.partial,
            ),
        }
    }

    /// The whole answer in wire form (`None` for a paginated prefix).
    fn to_wire(&self) -> Option<Cow<'_, WireResult>> {
        match self {
            Answer::Lib(r) => Some(Cow::Owned(WireResult::from_query_result(r))),
            Answer::Shard(r) => Some(Cow::Owned(WireResult::from_query_result(r))),
            Answer::Wire(w) => Some(Cow::Borrowed(w)),
            Answer::Paged(..) => None,
        }
    }
}

impl Engine {
    fn kind(&self) -> Kind {
        match self {
            Engine::Lib(_) => Kind::LibCold,
            Engine::Wire { paged: false, .. } => Kind::WireHot,
            Engine::Wire { paged: true, .. } => Kind::WirePaged,
            Engine::Shard(_) => Kind::ShardMiss,
        }
    }

    /// The measured operation. Spans mark each call into the product.
    pub fn op(&mut self, spec: &ViewSpec, spans: &mut impl SpanSink) -> Result<Answer> {
        match self {
            Engine::Lib(ver) => {
                let id = spans.open("core.run_ms");
                let result = ver.run(spec);
                spans.close(id);
                result.map(Answer::Lib)
            }
            Engine::Wire {
                client,
                paged: false,
                ..
            } => {
                let id = spans.open("net.roundtrip_ms");
                let result = client.query(spec, 0, 0);
                spans.close(id);
                result.map(Answer::Wire)
            }
            Engine::Wire { client, .. } => {
                let id = spans.open("net.head_ms");
                let head = client.query_head(spec, PAGE_SIZE, 0);
                spans.close(id);
                let head = head?;
                let mut pages = Vec::with_capacity(FOLLOW_UP_PAGES as usize);
                if head.cursor != 0 {
                    for page in 1..=FOLLOW_UP_PAGES {
                        let id = spans.open("net.page_ms");
                        let fetched = client.fetch_page(head.cursor, page);
                        spans.close(id);
                        let fetched = fetched?;
                        let last = fetched.last;
                        pages.push(fetched);
                        if last {
                            break;
                        }
                    }
                }
                // The cursor is abandoned here: the user has read enough.
                Ok(Answer::Paged(head, pages))
            }
            Engine::Shard(engine) => {
                let id = spans.open("serve.query_ms");
                let result = engine.query(spec);
                spans.close(id);
                result.map(Answer::Shard)
            }
        }
    }

    /// The whole answer along the workload's own path, for verification:
    /// the measured operation, except that `wire_paged` reassembles every
    /// page.
    fn whole_answer(&mut self, spec: &ViewSpec) -> Result<Answer> {
        match self {
            Engine::Wire {
                client,
                paged: true,
                ..
            } => client.query(spec, PAGE_SIZE, 0).map(Answer::Wire),
            _ => self.op(spec, &mut ()),
        }
    }

    /// Views an operation must deliver for an answer of `total` views.
    fn delivered(&self, total: usize) -> usize {
        match self {
            Engine::Wire { paged: true, .. } => {
                total.min((PAGE_SIZE * (1 + FOLLOW_UP_PAGES)) as usize)
            }
            _ => total,
        }
    }

    pub fn serve_stats(&self) -> Option<ServeStats> {
        match self {
            Engine::Lib(_) => None,
            Engine::Wire { engine, .. } => Some(engine.stats()),
            Engine::Shard(engine) => Some(engine.stats()),
        }
    }

    pub fn net_stats(&self) -> Option<NetStats> {
        match self {
            Engine::Wire { server, .. } => Some(server.net_stats()),
            _ => None,
        }
    }
}

/// One set-up: product time, one phase per `setup_s` component and named
/// after the per-layer metric that reports it; the artifact size; the
/// reference slices that ran between the warm-up operations; and the view
/// count of each spec's whole answer, as the first warm-up pass saw it.
#[derive(Debug, Default)]
pub struct SetUp {
    pub timer: PhaseTimer,
    pub artifact_kb: f64,
    pub reference_ms: Vec<f64>,
    pub totals: Vec<usize>,
}

/// Outcome of the verification pass (the correctness gate).
#[derive(Debug, Default)]
pub struct Verification {
    pub gt_hits: usize,
    pub violations: Vec<String>,
}

/// The verification pass. Invariants 11/12, checked by the benchmark
/// itself: along the workload's own path every spec's whole answer equals
/// the in-process `Ver::run` answer, row data included, and renders
/// byte-equal. Every spec must produce views, or a "miss" workload would
/// time nothing. `totals` are the view counts the window's operations were
/// held to.
///
/// Runs after the window and after peak memory is read: comparing answers
/// holds several copies of one, more than the product itself ever does.
pub fn verify(engine: &mut Engine, inputs: &Inputs, totals: &[usize]) -> Result<Verification> {
    let mut v = Verification::default();
    let render = |w: &WireResult| {
        let mut out = String::new();
        w.render(&mut out, "q");
        out
    };
    for (i, spec) in inputs.specs.iter().enumerate() {
        let answer = engine.whole_answer(spec)?;
        let got = answer.to_wire().expect("a whole answer");
        let (want, hit) = inputs.reference_answer(i)?;
        if *got != want || render(&got) != render(&want) {
            v.violations
                .push(format!("spec {i}: answer differs from in-process Ver::run"));
        }
        if got.views.is_empty() {
            v.violations.push(format!("spec {i}: no views"));
        }
        if got.partial {
            v.violations.push(format!("spec {i}: partial answer"));
        }
        if got.views.len() != totals[i] {
            v.violations
                .push(format!("spec {i}: view count changed since warm-up"));
        }
        v.gt_hits += usize::from(hit);
    }
    Ok(v)
}

/// Build the index, persist it, open the workload's engine from the
/// artifact and warm it up: one pass of whole answers, then passes of the
/// measured operation. A reference slice follows every warm-up operation.
pub fn set_up(kind: Kind, inputs: &Inputs, dir: &Path) -> Result<(Engine, SetUp)> {
    let mut setup = SetUp::default();
    let t = &mut setup.timer;
    let config = pipeline_config();
    let serve_config = ServeConfig {
        pipeline: config.clone(),
        ..ServeConfig::default()
    }
    .with_query_threads(1);
    let catalog = Arc::clone(&inputs.catalog);
    let index = t.time("index.build_ms", || {
        build_index(&catalog, config.index.clone())
    })?;

    let mut artifacts = Vec::new();
    let loaded = if kind == Kind::ShardMiss {
        // `save_sharded_index`, taken apart so each half gets its own span.
        let shards = t.time("index.partition_ms", || {
            partition_index(&index, SHARD_COUNT)
        });
        for shard in &shards {
            let path = dir.join(shard_file_name(shard.shard(), shard.shard_count()));
            t.time("index.save_ms", || save_shard(shard, &path))?;
            artifacts.push(path);
        }
        t.time("index.load_ms", || load_sharded_index(dir, SHARD_COUNT))?
    } else {
        let path = dir.join("index.veridx");
        t.time("index.save_ms", || save_index(&index, &path))?;
        artifacts.push(path.clone());
        t.time("index.load_ms", || load_index(&path))?
    };
    drop(index);
    for path in &artifacts {
        setup.artifact_kb += std::fs::metadata(path)?.len() as f64 / 1024.0;
    }
    let loaded = Arc::new(loaded);

    let mut engine = match kind {
        Kind::LibCold => {
            Engine::Lib(t.time("serve.open_ms", || Ver::from_parts(catalog, loaded, config))?)
        }
        Kind::ShardMiss => {
            let serve_config = ServeConfig {
                result_cache_capacity: 0,
                ..serve_config
            };
            Engine::Shard(Arc::new(t.time("serve.open_ms", || {
                ShardedEngine::warm_start(catalog, loaded, serve_config, SHARD_COUNT)
            })?))
        }
        Kind::WireHot | Kind::WirePaged => {
            let engine = Arc::new(t.time("serve.open_ms", || {
                ServeEngine::warm_start(catalog, loaded, serve_config)
            })?);
            let net_config = NetConfig {
                addr: "127.0.0.1:0".parse().expect("loopback address"),
                ..NetConfig::default()
            };
            let (server, client) = t.time("net.bind_ms", || -> Result<_> {
                let server =
                    Server::bind(Backend::Single(Arc::clone(&engine)), net_config)?.spawn();
                let client = Client::connect(server.addr())?;
                Ok((server, client))
            })?;
            Engine::Wire {
                client,
                server,
                engine,
                paged: kind == Kind::WirePaged,
            }
        }
    };

    for spec in &inputs.specs {
        let answer = t.time("serve.warmup_ms", || engine.whole_answer(spec))?;
        setup.totals.push(answer.shape().0);
        drop(answer);
        setup.reference_ms.push(reference::slice());
    }
    for _ in 0..kind.extra_warmup_passes() {
        for spec in &inputs.specs {
            drop(t.time("serve.warmup_ms", || engine.op(spec, &mut ()))?);
            setup.reference_ms.push(reference::slice());
        }
    }
    Ok((engine, setup))
}

/// One pass-aligned run of the measured operation. The series are in
/// operation order, so entry `k` belongs to spec `k % specs`.
#[derive(Debug, Default)]
pub struct Window {
    /// Operation latency: the clock stops with the answer in hand.
    pub latencies_ms: Vec<f64>,
    /// Turnaround: the operation, its check and dropping the answer —
    /// what a closed-loop client waits before it can ask again.
    pub turnarounds_ms: Vec<f64>,
    /// The reference slice that followed each operation.
    pub reference_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
}

/// Run one operation, stop its clock when the answer is in hand, make the
/// O(1) check, then drop the answer (inside the window, outside the clock).
pub fn timed_op(
    engine: &mut Engine,
    spec: &ViewSpec,
    total: usize,
    spans: &mut impl SpanSink,
    window: &mut Window,
) -> Option<Answer> {
    let start = Instant::now();
    let answer = engine.op(spec, spans);
    window
        .latencies_ms
        .push(start.elapsed().as_secs_f64() * 1e3);
    window.attempted += 1;
    match answer {
        Ok(a) if a.shape() == (total, engine.delivered(total), false) => Some(a),
        _ => {
            window.failed += 1;
            None
        }
    }
}

/// Replay the spec list in whole passes for at least `seconds`.
pub fn measure(engine: &mut Engine, inputs: &Inputs, totals: &[usize], seconds: f64) -> Window {
    let mut window = Window::default();
    let start = Instant::now();
    let closed = run_window(
        Duration::from_secs_f64(seconds),
        inputs.specs.len(),
        || start.elapsed(),
        |i| {
            let begun = Instant::now();
            drop(timed_op(
                engine,
                &inputs.specs[i],
                totals[i],
                &mut (),
                &mut window,
            ));
            window
                .turnarounds_ms
                .push(begun.elapsed().as_secs_f64() * 1e3);
            window.reference_ms.push(reference::slice());
        },
    );
    window.wall_s = closed.as_secs_f64();
    window
}

/// The cache and transport conditions a window must have run under:
/// `wire_*` all result-LRU hits, `shard_miss` none, no protocol errors.
pub fn window_conditions(
    engine: &Engine,
    before: (Option<ServeStats>, Option<NetStats>),
    queries: u64,
) -> Vec<String> {
    let mut violations = Vec::new();
    if let (Some(b), Some(a)) = (before.0, engine.serve_stats()) {
        let hits = a.result_cache.hits - b.result_cache.hits;
        let misses = a.result_cache.misses - b.result_cache.misses;
        let want_hits = if engine.kind() == Kind::ShardMiss {
            0
        } else {
            queries
        };
        if hits != want_hits || misses != 0 {
            violations.push(format!(
                "{}: {hits} result-LRU hits and {misses} misses over {queries} queries",
                engine.kind().name()
            ));
        }
        if a.partial_results != b.partial_results || a.rejected != b.rejected {
            violations.push("partial or rejected queries in the window".into());
        }
    }
    if let (Some(b), Some(a)) = (before.1, engine.net_stats()) {
        if a.protocol_errors != b.protocol_errors
            || a.dropped_conns != b.dropped_conns
            || a.handler_panics != b.handler_panics
        {
            violations.push(format!("transport faults in the window: {a:?}"));
        }
    }
    violations
}
