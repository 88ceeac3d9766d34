//! Chaos suite: drives the serving stack through the `ver_common::fault`
//! injection harness and checks the failure model end to end.
//!
//! The contract under test (see ARCHITECTURE.md, "Failure model & graceful
//! degradation"):
//!
//! * a worker panic is isolated to its item — the query degrades to a
//!   `partial: true` result or a typed error, the engine survives, and the
//!   very next query answers completely;
//! * injected I/O errors surface as typed `VerError::Io`, untranslated;
//! * persistence faults never leave temp files behind and never let a
//!   corrupt artifact load (`VerError::Serde` instead);
//! * a slow stage under a deadline budget degrades rather than hangs;
//! * with **no** faults armed, output through the compiled-in harness is
//!   bit-identical to the golden snapshot (determinism invariant 10).
//!
//! Fault state is process-global, so every test here serialises on one
//! mutex and resets the registry on entry and exit.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use ver_bench::golden::{
    golden_catalog, golden_queries, render_query, snapshot_with, SNAPSHOT_PATH,
};
use ver_common::budget::QueryBudget;
use ver_common::error::VerError;
use ver_common::fault::{self, points, FaultKind};
use ver_common::sync::lock_unpoisoned;
use ver_index::persist::{load_index, save_index};
use ver_index::{build_index, DiscoveryIndex, IndexConfig};
use ver_qbe::ViewSpec;
use ver_serve::{ServeConfig, ServeEngine};
use ver_store::catalog::TableCatalog;

/// Fault state is global to the test binary; chaos scenarios must not
/// interleave. Poisoning is irrelevant — a panicking scenario still resets.
fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    lock_unpoisoned(&LOCK)
}

fn catalog() -> Arc<TableCatalog> {
    static CAT: OnceLock<Arc<TableCatalog>> = OnceLock::new();
    Arc::clone(CAT.get_or_init(|| Arc::new(golden_catalog())))
}

fn index() -> Arc<DiscoveryIndex> {
    static IDX: OnceLock<Arc<DiscoveryIndex>> = OnceLock::new();
    Arc::clone(IDX.get_or_init(|| {
        Arc::new(build_index(&catalog(), IndexConfig::default()).expect("index build"))
    }))
}

/// Fresh engine over the shared index: chaos scenarios must not share
/// caches (a result-cache hit would bypass the very fault under test).
fn engine() -> ServeEngine {
    ServeEngine::warm_start(catalog(), index(), ServeConfig::default()).expect("warm start")
}

fn workload() -> Vec<(String, ViewSpec)> {
    golden_queries(&catalog())
}

/// Canonical rendering of one query result, for byte-level comparisons.
fn render(name: &str, result: &ver_core::QueryResult) -> String {
    let mut out = String::new();
    render_query(&mut out, name, result);
    out
}

#[test]
fn scoring_panic_degrades_to_partial_and_engine_recovers() {
    let _g = guard();
    fault::reset();
    let engine = engine();
    let (name, spec) = &workload()[0];

    // Baseline on a clean engine (also proves the spec answers at all).
    let clean = engine.query(spec).expect("clean query");
    assert!(!clean.partial);
    let expected = render(name, &clean);

    // A second engine so the result LRU cannot mask the fault.
    let engine = self::engine();
    fault::arm_times(points::SEARCH_SCORE, FaultKind::Panic, 1);
    let degraded = engine
        .query(spec)
        .expect("one worker panic must not fail the query");
    assert!(
        degraded.partial,
        "a panicked candidate must flag the result partial"
    );
    assert_eq!(engine.stats().partial_results, 1);
    fault::reset();

    // Partial results are never cached: the retry recomputes, completely.
    let retry = engine.query(spec).expect("retry");
    assert!(!retry.partial, "fault cleared, retry must be complete");
    assert_eq!(
        render(name, &retry),
        expected,
        "post-recovery output must match the clean run byte-for-byte"
    );
    assert_eq!(
        engine.stats().result_cache.hits,
        0,
        "partial was not cached"
    );
}

#[test]
fn dag_and_distill_panics_degrade_across_the_whole_workload() {
    let _g = guard();
    fault::reset();
    let engine = engine();
    let queries = workload();

    // Every DAG join step and every distill unit panics. Queries with
    // join candidates lose those views (partial); single-table answers
    // still lose distillation (partial via the undistilled fallback).
    fault::arm(points::DAG_STEP, FaultKind::Panic);
    fault::arm(points::DISTILL_VIEW, FaultKind::Panic);
    let mut partials = 0usize;
    for (name, spec) in &queries {
        let result = engine
            .query(spec)
            .unwrap_or_else(|e| panic!("{name}: panics must degrade, got {e:?}"));
        if result.partial {
            partials += 1;
        }
    }
    assert!(
        partials > 0,
        "workload under blanket panics produced no partial results"
    );
    fault::reset();

    // Engine survives: the same workload now reproduces the golden
    // snapshot exactly (nothing partial was cached along the way).
    let expected = std::fs::read_to_string(SNAPSHOT_PATH).expect("golden snapshot");
    let rendered = snapshot_with(&queries, |spec| engine.query(spec));
    assert_eq!(
        rendered, expected,
        "post-chaos workload diverged from the golden snapshot"
    );
}

#[test]
fn injected_io_error_is_typed_and_transient() {
    let _g = guard();
    fault::reset();
    let engine = engine();
    let (_, spec) = &workload()[0];

    fault::arm_times(points::SERVE_QUERY, FaultKind::IoError, 1);
    match engine.query(spec) {
        Err(VerError::Io(m)) => assert!(m.contains(points::SERVE_QUERY), "{m}"),
        other => panic!("expected typed Io error, got {other:?}"),
    }
    // One-shot fault consumed; the engine is healthy again.
    let result = engine.query(spec).expect("engine must recover");
    assert!(!result.partial);

    // An I/O error inside scoring is NOT degradation material — it must
    // propagate, typed and untranslated (only deadline/panic degrade).
    fault::arm_times(points::SEARCH_SCORE, FaultKind::IoError, 1);
    let engine = self::engine();
    match engine.query(spec) {
        Err(VerError::Io(m)) => assert!(m.contains(points::SEARCH_SCORE), "{m}"),
        other => panic!("expected typed Io error from scoring, got {other:?}"),
    }
    fault::reset();
}

#[test]
fn persistence_faults_never_leave_debris_or_load_garbage() {
    let _g = guard();
    fault::reset();
    let dir = std::env::temp_dir().join(format!("ver_chaos_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("chaos_index.bin");
    let idx = index();

    // Injected save failure: no artifact, no temp-file debris.
    fault::arm_times(points::PERSIST_SAVE, FaultKind::IoError, 1);
    match save_index(&idx, &path) {
        Err(VerError::Io(m)) => assert!(m.contains(points::PERSIST_SAVE), "{m}"),
        other => panic!("expected injected save failure, got {other:?}"),
    }
    assert!(!path.exists(), "failed save must not create the artifact");
    let debris: Vec<_> = std::fs::read_dir(&dir)
        .expect("read temp dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp."))
        .collect();
    assert!(
        debris.is_empty(),
        "temp-file debris after failed save: {debris:?}"
    );

    // Torn write: the bytes are corrupted on their way to disk. The save
    // "succeeds" (the fault models silent media corruption, not an I/O
    // error) but the checksummed format refuses to load the result.
    fault::arm_times(points::PERSIST_BYTES, FaultKind::CorruptByte, 1);
    save_index(&idx, &path).expect("corrupting save still writes");
    match load_index(&path) {
        Err(VerError::Serde(_)) => {}
        other => panic!("corrupt artifact must fail with Serde, got {other:?}"),
    }

    // Injected load failure on a *good* artifact: typed, transient.
    save_index(&idx, &path).expect("clean save");
    fault::arm_times(points::PERSIST_LOAD, FaultKind::IoError, 1);
    match load_index(&path) {
        Err(VerError::Io(m)) => assert!(m.contains(points::PERSIST_LOAD), "{m}"),
        other => panic!("expected injected load failure, got {other:?}"),
    }
    let loaded = load_index(&path).expect("fault consumed, load must succeed");
    assert!(loaded.same_contents(&idx));

    std::fs::remove_dir_all(&dir).ok();
    fault::reset();
}

#[test]
fn slow_stage_under_deadline_degrades_instead_of_hanging() {
    let _g = guard();
    fault::reset();
    let engine = engine();
    let (_, spec) = &workload()[0];

    // Every candidate score stalls 25ms; the budget allows 5ms total.
    // The first stall burns the deadline, after which every stage
    // boundary trips `DeadlineExceeded` and is skipped — the query
    // returns (degraded), it does not hang for candidates x 25ms.
    fault::arm(points::SEARCH_SCORE, FaultKind::Slow(25));
    let budget = QueryBudget::none().with_timeout(Duration::from_millis(5));
    let result = engine
        .query_with_budget(spec, &budget)
        .expect("deadline exhaustion must degrade, not error");
    assert!(result.partial, "deadline-starved query must be partial");
    fault::reset();

    // Unbudgeted retry on the same engine: complete, and only now cached.
    let retry = engine.query(spec).expect("retry");
    assert!(!retry.partial);
    let stats = engine.stats();
    assert_eq!(stats.partial_results, 1);
    assert_eq!(stats.result_cache.hits, 0, "partial result was not cached");
}

#[test]
fn shard_panic_degrades_the_gather_to_partial_never_an_error() {
    let _g = guard();
    fault::reset();
    let (name, spec) = &workload()[0];

    // Baseline: the sharded engine answers this spec completely, and
    // bit-identically to the single-engine run (invariant 11).
    let single = engine().query(spec).expect("single-engine baseline");
    let sharded =
        ver_serve::ShardedEngine::warm_start(catalog(), index(), ServeConfig::default(), 2)
            .expect("sharded warm start");
    let clean = sharded.query(spec).expect("clean sharded query");
    assert!(!clean.partial);
    let expected = render(name, &clean);
    assert_eq!(expected, render(name, &single), "sharded != single engine");

    // One whole scatter leg panics (the fault point sits before the
    // per-candidate isolation). The gather drops that shard and returns
    // the healthy shards' views, flagged partial — never an error.
    let sharded =
        ver_serve::ShardedEngine::warm_start(catalog(), index(), ServeConfig::default(), 2)
            .expect("sharded warm start");
    fault::arm_times(points::SEARCH_SHARD, FaultKind::Panic, 1);
    let degraded = sharded
        .query(spec)
        .expect("a panicked shard must not fail the query");
    assert!(
        degraded.partial,
        "dropped shard must flag the merge partial"
    );
    assert!(
        degraded.views.len() <= clean.views.len(),
        "a dropped shard cannot add views"
    );
    assert_eq!(sharded.stats().partial_results, 1);
    let failed_legs: u64 = sharded.shard_stats().iter().map(|s| s.failed).sum();
    assert_eq!(failed_legs, 1, "exactly one leg was dropped");
    fault::reset();

    // Partial results are never cached: the retry recomputes completely
    // and matches the clean run byte-for-byte.
    let retry = sharded.query(spec).expect("retry");
    assert!(!retry.partial, "fault cleared, retry must be complete");
    assert_eq!(render(name, &retry), expected);
    assert_eq!(sharded.stats().result_cache.hits, 0, "partial not cached");
}

#[test]
fn shard_deadline_trips_degrade_the_gather_to_partial() {
    let _g = guard();
    fault::reset();
    let (_, spec) = &workload()[0];
    let sharded =
        ver_serve::ShardedEngine::warm_start(catalog(), index(), ServeConfig::default(), 2)
            .expect("sharded warm start");

    // Every candidate score stalls 25ms against a 5ms budget. Both legs
    // race the same absolute deadline, trip it, and degrade inside their
    // shards; the merge is partial, the query never hangs or errors.
    fault::arm(points::SEARCH_SCORE, FaultKind::Slow(25));
    let budget = QueryBudget::none().with_timeout(Duration::from_millis(5));
    let result = sharded
        .query_with_budget(spec, &budget)
        .expect("deadline exhaustion must degrade, not error");
    assert!(result.partial, "deadline-starved scatter must be partial");
    fault::reset();

    // Unbudgeted retry: complete, and only now cached.
    let retry = sharded.query(spec).expect("retry");
    assert!(!retry.partial);
    let stats = sharded.stats();
    assert_eq!(stats.partial_results, 1);
    assert_eq!(stats.result_cache.hits, 0, "partial result was not cached");
}

// ---------------------------------------------------------------------------
// Socket-level chaos: the `verd` network front end. The blast radius of
// any single connection's failure — peer death mid-frame, a slow-loris
// reader, an injected fault at `net.accept` / `net.read` / `net.write`,
// a panicking handler — is that connection alone: the accept loop and
// every other client keep going, and `NetStats` counts the casualty.
// ---------------------------------------------------------------------------

use std::io::Write as _;
use ver_serve::net::{frame, Backend, Client, NetConfig, NetStats, Request, Server, ServerHandle};

/// Spawn a server over a fresh engine on an ephemeral port.
fn spawn_net(mut config: NetConfig) -> ServerHandle {
    config.addr = "127.0.0.1:0".parse().expect("addr");
    Server::bind(Backend::Single(Arc::new(engine())), config)
        .expect("bind")
        .spawn()
}

/// Poll live counters until `pred` holds — the server accounts for a
/// dying connection asynchronously, after its thread unwinds.
fn wait_for(handle: &ServerHandle, what: &str, pred: impl Fn(&NetStats) -> bool) -> NetStats {
    for _ in 0..500 {
        let stats = handle.net_stats();
        if pred(&stats) {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for {what}: {:?}", handle.net_stats());
}

#[test]
fn peer_death_mid_frame_drops_only_that_connection() {
    let _g = guard();
    fault::reset();
    let handle = spawn_net(NetConfig::default());

    // A frame header promising 64 payload bytes, then death after 3:
    // the server sees EOF mid-frame, which is a protocol error (the
    // stream can never be frame-aligned again), not a crash.
    {
        let mut dying = std::net::TcpStream::connect(handle.addr()).expect("connect");
        let mut partial = Vec::new();
        partial.extend_from_slice(frame::MAGIC);
        partial.extend_from_slice(&64u32.to_le_bytes());
        partial.extend_from_slice(&[1, 2, 3]);
        dying.write_all(&partial).expect("partial frame");
        let _ = dying.flush();
    }

    let stats = wait_for(&handle, "mid-frame death accounted", |s| {
        s.protocol_errors >= 1
    });
    assert_eq!(stats.protocol_errors, 1, "{stats:?}");
    assert_eq!(stats.dropped_conns, 1, "{stats:?}");
    assert_eq!(stats.handler_panics, 0, "{stats:?}");

    // Blast radius check: the next client gets clean golden bytes.
    let (name, spec) = &workload()[0];
    let mut client = Client::connect(handle.addr()).expect("connect");
    let result = client.query(spec, 0, 0).expect("query after peer death");
    let mut rendered = String::new();
    result.render(&mut rendered, name);
    let expected = std::fs::read_to_string(SNAPSHOT_PATH).expect("golden snapshot");
    assert!(
        expected.contains(&rendered),
        "post-death result diverged from the golden snapshot:\n{rendered}"
    );
}

#[test]
fn slow_loris_reader_trips_the_write_timeout_not_the_server() {
    let _g = guard();
    fault::reset();
    let handle = spawn_net(NetConfig {
        write_timeout: Duration::from_millis(200),
        ..NetConfig::default()
    });
    let (_, spec) = &workload()[0];
    let request = Request::Query {
        spec: spec.clone(),
        page_size: 0,
        timeout_ms: 0,
    }
    .encode();

    let loris = std::net::TcpStream::connect(handle.addr()).expect("connect");
    loris
        .set_write_timeout(Some(Duration::from_millis(500)))
        .expect("timeout");
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");

    // One measured exchange to learn the response size, then queue
    // enough unread responses to overrun both socket buffers many times
    // over — and never read again. The server's blocked write must trip
    // its 200ms write timeout, not stall the process.
    frame::write_frame(&mut &loris, &request).expect("request");
    let resp_len = match frame::read_frame(&mut &loris).expect("response") {
        frame::ReadOutcome::Frame(p) => p.len() + frame::MAGIC.len() + 12,
        eof => panic!("expected a response frame, got {eof:?}"),
    };
    let needed = ((8 << 20) / resp_len + 64).min(50_000);
    for _ in 0..needed {
        if frame::write_frame(&mut &loris, &request).is_err() {
            break; // buffers already full of our own requests — enough
        }
    }

    let stats = wait_for(&handle, "write timeout tripped", |s| s.dropped_conns >= 1);
    assert_eq!(stats.dropped_conns, 1, "{stats:?}");
    assert_eq!(stats.handler_panics, 0, "{stats:?}");
    assert_eq!(stats.protocol_errors, 0, "{stats:?}");

    // The accept loop never blocked behind the stalled writer.
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.health().expect("server must still serve");
    drop(loris);
}

#[test]
fn injected_handler_panic_costs_one_connection_and_is_counted() {
    let _g = guard();
    fault::reset();
    let handle = spawn_net(NetConfig::default());
    let (name, spec) = &workload()[0];

    // The query handler panics mid-request; the connection thread's
    // catch_unwind eats it. The doomed client sees its exchange die —
    // never a hang, never a torn frame.
    fault::arm_times(points::SERVE_QUERY, FaultKind::Panic, 1);
    let mut doomed = Client::connect(handle.addr()).expect("connect");
    assert!(
        doomed.query(spec, 0, 0).is_err(),
        "a panicked handler must kill the exchange"
    );
    drop(doomed);
    fault::reset();

    let stats = wait_for(&handle, "handler panic accounted", |s| {
        s.handler_panics >= 1
    });
    assert_eq!(stats.handler_panics, 1, "{stats:?}");
    assert_eq!(stats.dropped_conns, 1, "{stats:?}");

    // The next connection gets a complete, golden-identical answer, and
    // the casualty is visible in the wire-level stats.
    let mut client = Client::connect(handle.addr()).expect("connect");
    let result = client.query(spec, 0, 0).expect("query after handler panic");
    let mut rendered = String::new();
    result.render(&mut rendered, name);
    let expected = std::fs::read_to_string(SNAPSHOT_PATH).expect("golden snapshot");
    assert!(
        expected.contains(&rendered),
        "post-panic result diverged from the golden snapshot:\n{rendered}"
    );
    let wire_stats = client.stats().expect("stats");
    assert_eq!(wire_stats.net.handler_panics, 1);
}

#[test]
fn injected_net_faults_each_cost_exactly_one_connection() {
    let _g = guard();
    fault::reset();
    let handle = spawn_net(NetConfig::default());

    // net.accept: the connection dies at birth, before any frame moves.
    fault::arm_times(points::NET_ACCEPT, FaultKind::IoError, 1);
    let mut c1 = Client::connect(handle.addr()).expect("connect");
    assert!(c1.health().is_err());
    let stats = wait_for(&handle, "accept fault accounted", |s| s.dropped_conns >= 1);
    assert_eq!(stats.protocol_errors, 0, "{stats:?}");
    fault::reset();

    // net.read: dies before reading the next frame.
    fault::arm_times(points::NET_READ, FaultKind::IoError, 1);
    let mut c2 = Client::connect(handle.addr()).expect("connect");
    assert!(c2.health().is_err());
    let stats = wait_for(&handle, "read fault accounted", |s| s.dropped_conns >= 2);
    assert_eq!(stats.handler_panics, 0, "{stats:?}");
    fault::reset();

    // net.write: the request is read and handled; dies before the reply.
    fault::arm_times(points::NET_WRITE, FaultKind::IoError, 1);
    let mut c3 = Client::connect(handle.addr()).expect("connect");
    assert!(c3.health().is_err());
    let stats = wait_for(&handle, "write fault accounted", |s| s.dropped_conns >= 3);
    assert_eq!(stats.dropped_conns, 3, "{stats:?}");
    assert_eq!(stats.protocol_errors, 0, "{stats:?}");
    fault::reset();

    // Three dead connections later, the server itself never flinched.
    let mut c4 = Client::connect(handle.addr()).expect("connect");
    c4.health().expect("server must still serve");
}

// ---------------------------------------------------------------------------
// Process-level chaos: remote shard legs as real `verd` child processes.
// The router's failure domain is a whole OS process — `kill -9` included.
// Invariant 13: with every leg healthy, a router fanning the scatter out
// to remote `verd` processes answers byte-identically to the in-process
// sharded engine and the single engine; with a leg dead, the merge
// degrades to `partial: true` (never an error, never cached) and returns
// to byte-identical answers the moment the leg is back.
// ---------------------------------------------------------------------------

use std::io::BufRead as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use ver_serve::net::RetryPolicy;
use ver_serve::RouterEngine;

/// The `verd` binary in the same target directory as this test
/// executable. Root-package integration tests don't get
/// `CARGO_BIN_EXE_verd` (the binary belongs to `ver-serve`), but a
/// workspace `cargo test` or `cargo build` puts it right next to us.
fn verd_path() -> PathBuf {
    let exe = std::env::current_exe().expect("test exe path");
    let target = exe
        .parent()
        .and_then(|p| p.parent())
        .expect("target directory");
    let verd = target.join(format!("verd{}", std::env::consts::EXE_SUFFIX));
    assert!(
        verd.exists(),
        "verd binary not found at {} — build it first (`cargo build -p ver-serve --bin verd`; \
         a workspace `cargo test` builds it as a side effect)",
        verd.display()
    );
    verd
}

/// Everything the multi-process scenarios share: the golden corpus as a
/// CSV directory + persisted index on disk (what `verd` consumes), and
/// the same catalog/index reloaded in-process through the **same** code
/// path `verd` uses. CSV filenames sort differently than the in-memory
/// golden catalog's insertion order, so `TableId`s — and therefore
/// rendered bytes — only match between parties that loaded from this
/// directory; the reference snapshot comes from an in-process single
/// engine over the reloaded corpus, not from the golden snapshot file.
struct ProcFixture {
    data_dir: PathBuf,
    index_path: PathBuf,
    catalog: Arc<TableCatalog>,
    index: Arc<DiscoveryIndex>,
    queries: Vec<(String, ViewSpec)>,
    /// Full-workload snapshot from a single in-process engine.
    expected: String,
}

/// Mirror of `verd`'s `--data` loader: every `*.csv`, sorted by
/// filename, stem as table name.
fn load_csv_dir(dir: &Path) -> TableCatalog {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read data dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .collect();
    paths.sort();
    let mut catalog = TableCatalog::new();
    for path in paths {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("csv name")
            .to_string();
        let file = std::fs::File::open(&path).expect("open csv");
        let table =
            ver_store::csv::read_csv(&name, std::io::BufReader::new(file), true).expect("csv");
        catalog.add_table(table).expect("add table");
    }
    catalog
}

fn proc_fixture() -> &'static ProcFixture {
    static FIX: OnceLock<ProcFixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("ver_chaos_proc_{}", std::process::id()));
        let data_dir = dir.join("data");
        std::fs::create_dir_all(&data_dir).expect("fixture dir");
        for table in catalog().tables() {
            let csv = ver_store::csv::to_csv_string(table);
            std::fs::write(data_dir.join(format!("{}.csv", table.name())), csv).expect("write csv");
        }
        let reloaded = Arc::new(load_csv_dir(&data_dir));
        let index = Arc::new(
            build_index(&reloaded, IndexConfig::default()).expect("index over reloaded corpus"),
        );
        let index_path = dir.join("index.bin");
        save_index(&index, &index_path).expect("persist index");

        let queries = golden_queries(&reloaded);
        let single = ServeEngine::warm_start(
            Arc::clone(&reloaded),
            Arc::clone(&index),
            ServeConfig::default(),
        )
        .expect("reference engine");
        let expected = snapshot_with(&queries, |spec| single.query(spec));
        ProcFixture {
            data_dir,
            index_path,
            catalog: reloaded,
            index,
            queries,
            expected,
        }
    })
}

/// One live `verd` shard-leg process. Killed on drop so a panicking
/// scenario never leaks children.
struct LegProcess {
    child: Child,
    addr: SocketAddr,
}

impl Drop for LegProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl LegProcess {
    /// SIGKILL — no drain, no goodbye frame, sockets reset mid-stream.
    fn kill9(&mut self) {
        self.child.kill().expect("kill -9 leg");
        self.child.wait().expect("reap leg");
    }
}

/// Spawn a `verd --shard-leg` over the fixture corpus. `addr` is an
/// explicit bind address or `127.0.0.1:0`; the actual address is parsed
/// from the `verd listening on …` banner. Returns `None` if the process
/// exited before printing it (e.g. the port is still in TIME_WAIT after
/// a kill — callers retry).
fn try_spawn_leg(addr: &str, envs: &[(&str, &str)]) -> Option<LegProcess> {
    let fix = proc_fixture();
    let mut cmd = Command::new(verd_path());
    cmd.arg("--data")
        .arg(&fix.data_dir)
        .arg("--index")
        .arg(&fix.index_path)
        .arg("--shard-leg")
        .arg("--addr")
        .arg(addr)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("spawn verd");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut banner = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut banner)
        .expect("read verd banner");
    let Some(addr) = banner
        .trim()
        .strip_prefix("verd listening on ")
        .and_then(|a| a.parse().ok())
    else {
        let _ = child.kill();
        let _ = child.wait();
        return None;
    };
    Some(LegProcess { child, addr })
}

fn spawn_leg(addr: &str, envs: &[(&str, &str)]) -> LegProcess {
    for _ in 0..50 {
        if let Some(leg) = try_spawn_leg(addr, envs) {
            return leg;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    panic!("verd leg would not come up on {addr}");
}

/// A router engine (in this process) over the given live legs.
fn router_over(addrs: &[SocketAddr]) -> RouterEngine {
    let fix = proc_fixture();
    RouterEngine::warm_start(
        Arc::clone(&fix.catalog),
        Arc::clone(&fix.index),
        ServeConfig::default(),
        addrs,
        RetryPolicy::default(),
    )
    .expect("router warm start")
}

#[test]
fn router_over_live_verd_processes_matches_the_single_engine() {
    let _g = guard();
    fault::reset();
    let fix = proc_fixture();

    // Four real leg processes; shard counts 1, 2, 4 are routers over
    // prefixes of the same fleet (a leg serves any (shard, shard_count)
    // it is asked for — the slice is in the request, not the process).
    let legs: Vec<LegProcess> = (0..4).map(|_| spawn_leg("127.0.0.1:0", &[])).collect();
    let addrs: Vec<SocketAddr> = legs.iter().map(|l| l.addr).collect();

    // Cross-check the reference: the in-process sharded engine over the
    // same reloaded corpus agrees with the single engine (invariant 11).
    let sharded = ver_serve::ShardedEngine::warm_start(
        Arc::clone(&fix.catalog),
        Arc::clone(&fix.index),
        ServeConfig::default(),
        2,
    )
    .expect("sharded warm start");
    assert_eq!(
        snapshot_with(&fix.queries, |spec| sharded.query(spec)),
        fix.expected,
        "in-process sharded engine diverged from the single engine"
    );

    for n in [1usize, 2, 4] {
        let router = router_over(&addrs[..n]);
        let snapshot = snapshot_with(&fix.queries, |spec| router.query(spec));
        assert_eq!(
            snapshot, fix.expected,
            "router over {n} live verd processes diverged from the single engine"
        );
        for leg in router.leg_stats() {
            assert_eq!(leg.failovers, 0, "healthy fleet had a failover: {leg:?}");
            assert_eq!(leg.failures, 0, "{leg:?}");
        }
    }
}

#[test]
fn killing_a_leg_process_degrades_to_partial_and_recovery_is_byte_identical() {
    let _g = guard();
    fault::reset();
    let fix = proc_fixture();
    let (name, spec) = &fix.queries[0];

    // Leg 1 answers every ShardQuery 400ms late, so the kill below lands
    // mid-query: the router is parked in read_frame on a live exchange
    // when the process dies and the socket resets under it.
    let leg0 = spawn_leg("127.0.0.1:0", &[]);
    let mut leg1 = spawn_leg("127.0.0.1:0", &[("VER_FAULT", "serve.query=slow:400")]);
    let addrs = [leg0.addr, leg1.addr];
    let leg1_addr = leg1.addr;
    let router = router_over(&addrs);

    // Reference bytes for this query, from the in-process single engine.
    let reference = {
        let single = ServeEngine::warm_start(
            Arc::clone(&fix.catalog),
            Arc::clone(&fix.index),
            ServeConfig::default(),
        )
        .expect("reference engine");
        render(name, &single.query(spec).expect("reference query"))
    };

    // kill -9 the slow leg 100ms into the scatter.
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        leg1.kill9();
        leg1
    });
    let degraded = router
        .query(spec)
        .expect("a leg killed mid-query must degrade the merge, not error it");
    let _leg1 = killer.join().expect("killer thread");
    assert!(degraded.partial, "killed leg must flag the merge partial");
    assert_eq!(router.stats().partial_results, 1);
    assert_eq!(router.leg_stats()[1].failovers, 1);

    // Restart the leg on the same address, fault-free. The partial was
    // never cached, so the same spec recomputes — and the answer is
    // byte-identical to the single engine again.
    let _leg1 = spawn_leg(&leg1_addr.to_string(), &[]);
    let recovered = router.query(spec).expect("query after leg restart");
    assert!(!recovered.partial, "leg is back, result must be complete");
    assert_eq!(
        render(name, &recovered),
        reference,
        "post-recovery routed result diverged from the single engine"
    );
    assert_eq!(
        router.stats().result_cache.hits,
        0,
        "the partial result must never have been cached"
    );
}

#[test]
fn concurrent_clients_over_a_router_with_a_dead_leg_all_get_partial_answers() {
    let _g = guard();
    fault::reset();
    let fix = proc_fixture();

    // A router front end over two leg processes, one of them killed
    // before any traffic: every scatter loses leg 1 for good.
    let leg0 = spawn_leg("127.0.0.1:0", &[]);
    let mut leg1 = spawn_leg("127.0.0.1:0", &[]);
    let router = router_over(&[leg0.addr, leg1.addr]);
    leg1.kill9();
    let mut handle = Server::bind(
        Backend::Router(Arc::new(router)),
        NetConfig {
            addr: "127.0.0.1:0".parse().expect("addr"),
            ..NetConfig::default()
        },
    )
    .expect("bind router front end")
    .spawn();

    // Never-seen keyword specs (one per distinct column header of the
    // corpus), so every request is a result-cache miss that scatters.
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 3;
    let mut terms: Vec<String> = fix
        .catalog
        .tables()
        .iter()
        .flat_map(|t| t.schema.columns.iter())
        .filter_map(|c| c.name.as_deref().map(str::to_string))
        .collect();
    terms.sort();
    terms.dedup();
    assert!(terms.len() >= CLIENTS * PER_CLIENT, "{} terms", terms.len());

    let addr = handle.addr();
    std::thread::scope(|s| {
        for mine in terms.chunks(PER_CLIENT).take(CLIENTS) {
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect to router");
                for term in mine {
                    let result = client
                        .query(&ViewSpec::Keyword(vec![term.clone()]), 0, 0)
                        .expect("a dead leg must degrade the answer, never fail it");
                    assert!(result.partial, "{term}: dead leg must flag partial");
                }
            });
        }
    });

    let stats = Client::connect(addr)
        .expect("connect")
        .stats()
        .expect("stats");
    assert_eq!(stats.serve.partial_results, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.net.protocol_errors, 0, "{:?}", stats.net);
    assert_eq!(stats.net.dropped_conns, 0, "{:?}", stats.net);
    assert_eq!(stats.net.handler_panics, 0, "{:?}", stats.net);
    assert!(stats.router[1].failovers > 0, "{:?}", stats.router);
    assert_eq!(stats.router[0].failovers, 0, "{:?}", stats.router);
    handle.stop();
}

#[test]
fn a_transient_leg_connection_fault_is_retried_not_degraded() {
    let _g = guard();
    fault::reset();
    let fix = proc_fixture();
    let (name, spec) = &fix.queries[1];

    // Leg 0's server kills the first connection at `net.read` — the
    // router's first exchange dies mid-stream. One reconnect-and-retry
    // later the query completes; the casualty is a counter, not a
    // partial result.
    let leg0 = spawn_leg("127.0.0.1:0", &[("VER_FAULT", "net.read=io*1")]);
    let leg1 = spawn_leg("127.0.0.1:0", &[]);
    let router = router_over(&[leg0.addr, leg1.addr]);

    let reference = {
        let single = ServeEngine::warm_start(
            Arc::clone(&fix.catalog),
            Arc::clone(&fix.index),
            ServeConfig::default(),
        )
        .expect("reference engine");
        render(name, &single.query(spec).expect("reference query"))
    };

    let result = router
        .query(spec)
        .expect("a transient connection fault must be absorbed by the retry envelope");
    assert!(
        !result.partial,
        "one faulted read must not degrade the merge"
    );
    assert_eq!(render(name, &result), reference);
    let legs = router.leg_stats();
    assert!(
        legs[0].retries >= 1,
        "the faulted exchange was retried: {legs:?}"
    );
    assert_eq!(legs[0].failovers, 0, "{legs:?}");
    assert_eq!(legs[1].failures, 0, "{legs:?}");
}

#[test]
fn a_verd_router_process_serves_the_full_stack_end_to_end() {
    let _g = guard();
    fault::reset();
    let fix = proc_fixture();

    // The complete deployment: two leg processes, one router *process*
    // (`verd --route`), one client — three processes deep, every hop a
    // real socket. The bytes must still match the single engine.
    let leg0 = spawn_leg("127.0.0.1:0", &[]);
    let mut leg1 = spawn_leg("127.0.0.1:0", &[]);
    let route = format!("{},{}", leg0.addr, leg1.addr);

    let mut cmd = Command::new(verd_path());
    cmd.arg("--data")
        .arg(&fix.data_dir)
        .arg("--index")
        .arg(&fix.index_path)
        .arg("--route")
        .arg(&route)
        .arg("--addr")
        .arg("127.0.0.1:0")
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = cmd.spawn().expect("spawn router verd");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut banner = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut banner)
        .expect("router banner");
    let addr: SocketAddr = banner
        .trim()
        .strip_prefix("verd listening on ")
        .expect("router banner")
        .parse()
        .expect("router addr");
    let mut router = LegProcess { child, addr };

    let mut client = Client::connect(router.addr).expect("connect to router");
    let health = client.health().expect("health");
    assert_eq!(health.shards, 2, "router must report one shard per leg");

    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(out, "# golden online-path snapshot (see golden_online.rs)");
    let _ = writeln!(out);
    for (name, spec) in &fix.queries {
        let result = client.query(spec, 0, 0).expect("routed wire query");
        assert!(!result.partial);
        result.render(&mut out, name);
    }
    assert_eq!(
        out, fix.expected,
        "three-process routed bytes diverged from the single engine"
    );
    let stats = client.stats().expect("stats");
    assert_eq!(stats.router.len(), 2);
    for leg in &stats.router {
        assert!(leg.attempts > 0, "{leg:?}");
        assert_eq!(leg.failures, 0, "{leg:?}");
    }

    // Kill a leg out from under the router process: the next answer
    // through the wire degrades to partial, the router process survives.
    leg1.kill9();
    let (_, fresh_spec) = &fix.queries[2];
    // The earlier complete result for this spec is cached on the router —
    // a cache hit must *still* be complete. Ask, then verify the flag.
    let cached = client.query(fresh_spec, 0, 0).expect("cached routed query");
    assert!(
        !cached.partial,
        "cache hits stay complete after a leg death"
    );

    // An uncached spec must scatter, lose leg 1, and come back partial.
    let novel = ViewSpec::Keyword(vec!["state".into()]);
    let partial = client.query(&novel, 0, 0).expect("degraded routed query");
    assert!(
        partial.partial,
        "dead leg must flag the wire result partial"
    );
    let stats = client.stats().expect("stats");
    assert!(stats.router[1].failovers >= 1, "{:?}", stats.router);
    assert_eq!(stats.serve.partial_results, 1);

    // Clean shutdown of the router process over the wire.
    client.shutdown().expect("router shutdown ack");
    let status = router.child.wait().expect("router exit");
    assert!(status.success(), "router exited {status:?}");
}

#[test]
fn fault_free_run_through_the_harness_matches_the_golden_snapshot() {
    // Determinism invariant 10: with the harness compiled in but nothing
    // armed, serving output is bit-identical to the pre-harness golden
    // snapshot — a disarmed fault point costs one atomic load and must
    // never perturb results.
    let _g = guard();
    fault::reset();
    assert!(!fault::enabled());
    let engine = engine();
    let queries = workload();
    let expected = std::fs::read_to_string(SNAPSHOT_PATH).expect("golden snapshot");
    let rendered = snapshot_with(&queries, |spec| engine.query(spec));
    assert_eq!(
        rendered, expected,
        "compiled-in (disarmed) fault harness changed query output"
    );
}
