//! The `verd` server core: a thread-per-connection accept loop over the
//! framed protocol of [`super::frame`] / [`super::wire`].
//!
//! Deliberately std-only — `TcpListener` + OS threads, no async runtime
//! (the ROADMAP's vendored-deps constraint). Each connection gets one
//! thread that reads frames in a loop; the heavy lifting inside a query
//! still fans out over `ver_common::pool` exactly as in-process callers
//! do, so thread-per-connection costs one mostly-blocked thread per
//! client, not one core.
//!
//! **Blast-radius contract** (mirrors the engine's): any single
//! connection's failure — peer death mid-frame, protocol garbage, a
//! tripped read/write timeout, even a panicking handler — ends *that
//! connection only*. The accept loop, every other connection, and the
//! engine keep going, and `NetStats` counts what happened. The
//! socket-level chaos tests in `tests/chaos.rs` pin this through the
//! `net.accept` / `net.read` / `net.write` fault points.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ver_common::budget::QueryBudget;
use ver_common::error::{Result, VerError};
use ver_common::fault::{self, points};
use ver_common::fxhash::FxHashMap;
use ver_common::sync::lock_unpoisoned;
use ver_core::QueryResult;

use super::config::{NetConfig, MAX_CURSORS};
use super::frame::{read_frame, write_frame, ReadOutcome, MAX_FRAME_LEN};
use super::wire::{
    encode_page, encode_query_head, HealthReply, NetStats, Request, Response, StatsReply,
    WireRouterLeg, PROTOCOL_VERSION,
};
use crate::{Engine, MissBackend, RouterEngine, ServeEngine, ShardedEngine};

/// The engine a server fronts: a single [`ServeEngine`], an in-process
/// [`ShardedEngine`], or a [`RouterEngine`] scattering to remote shard
/// `verd`s — same wire surface every way (scatter/gather is invisible to
/// clients, as invariants 11 and 13 require). All three are one
/// [`Engine`] front; the connection loop picks the instantiation once per
/// request and everything downstream is generic over it.
#[derive(Clone)]
pub enum Backend {
    Single(Arc<ServeEngine>),
    Sharded(Arc<ShardedEngine>),
    Router(Arc<RouterEngine>),
}

/// Lifetime counters, lock-free on the hot path.
#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    active: AtomicU64,
    rejected_conns: AtomicU64,
    dropped_conns: AtomicU64,
    protocol_errors: AtomicU64,
    handler_panics: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    queries_ok: AtomicU64,
    queries_err: AtomicU64,
    pages_served: AtomicU64,
    cursors_evicted: AtomicU64,
}

impl Counters {
    fn snapshot(&self, cursors_open: u64) -> NetStats {
        NetStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            active: self.active.load(Ordering::Relaxed),
            rejected_conns: self.rejected_conns.load(Ordering::Relaxed),
            dropped_conns: self.dropped_conns.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            handler_panics: self.handler_panics.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            queries_ok: self.queries_ok.load(Ordering::Relaxed),
            queries_err: self.queries_err.load(Ordering::Relaxed),
            pages_served: self.pages_served.load(Ordering::Relaxed),
            cursors_open,
            cursors_evicted: self.cursors_evicted.load(Ordering::Relaxed),
        }
    }
}

/// One paginated result held server-side between `FetchPage`s: a handle
/// on the very `QueryResult` the engine returned (and its result LRU
/// holds), not a wire copy of it. Opening a cursor is a refcount bump;
/// each page writes — and gathers — only its own slice of views.
struct CursorState {
    result: Arc<QueryResult>,
    page_size: u32,
}

/// Open cursors, FIFO-evicted at [`MAX_CURSORS`] (a cursor leak from
/// clients that never finish paging must not grow without bound).
#[derive(Default)]
struct CursorTable {
    map: FxHashMap<u64, CursorState>,
    order: std::collections::VecDeque<u64>,
}

struct Shared {
    backend: Backend,
    config: NetConfig,
    counters: Counters,
    cursors: Mutex<CursorTable>,
    next_cursor: AtomicU64,
    shutdown: AtomicBool,
    started: Instant,
    /// Actual bound address (resolves `:0` ephemeral binds).
    addr: SocketAddr,
}

impl Shared {
    fn net_stats(&self) -> NetStats {
        let open = lock_unpoisoned(&self.cursors).map.len();
        self.counters.snapshot(open as u64)
    }

    /// Set the shutdown flag and nudge the accept loop awake with a
    /// throwaway connection (std has no selectable listener).
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Ok(s) = TcpStream::connect(self.addr) {
            drop(s);
        }
    }
}

/// A bound-but-not-yet-running server. [`Server::run`] serves on the
/// calling thread; [`Server::spawn`] serves on a background thread and
/// returns a [`ServerHandle`].
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind `config.addr` (use port 0 for an ephemeral port — the real
    /// address is available from [`Server::local_addr`]).
    pub fn bind(backend: Backend, config: NetConfig) -> Result<Server> {
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                backend,
                config,
                counters: Counters::default(),
                cursors: Mutex::new(CursorTable::default()),
                next_cursor: AtomicU64::new(1),
                shutdown: AtomicBool::new(false),
                started: Instant::now(),
                addr,
            }),
        })
    }

    /// The address actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Serve until a `Shutdown` request (or [`ServerHandle::stop`])
    /// lands. Connection threads are detached; in-flight requests on
    /// other connections finish writing, but no new connection is
    /// accepted once the flag is up.
    pub fn run(self) -> Result<()> {
        let shared = self.shared;
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let (stream, _peer) = match self.listener.accept() {
                Ok(conn) => conn,
                Err(_) if shared.shutdown.load(Ordering::SeqCst) => break,
                Err(_) => continue,
            };
            if shared.shutdown.load(Ordering::SeqCst) {
                break; // the wake-up connection itself
            }
            shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
            let cap = shared.config.max_conns;
            if cap > 0 && shared.counters.active.load(Ordering::Relaxed) >= cap as u64 {
                shared
                    .counters
                    .rejected_conns
                    .fetch_add(1, Ordering::Relaxed);
                reject_overloaded(stream, &shared.config);
                continue;
            }
            shared.counters.active.fetch_add(1, Ordering::Relaxed);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                // A panicking handler (or injected `net.*` panic) costs
                // this connection, nothing else.
                let result = catch_unwind(AssertUnwindSafe(|| serve_conn(&stream, &shared)));
                if result.is_err() {
                    shared
                        .counters
                        .handler_panics
                        .fetch_add(1, Ordering::Relaxed);
                    shared
                        .counters
                        .dropped_conns
                        .fetch_add(1, Ordering::Relaxed);
                }
                shared.counters.active.fetch_sub(1, Ordering::Relaxed);
            });
        }
        Ok(())
    }

    /// Serve on a background thread; the handle stops (and joins) the
    /// accept loop on demand and exposes live counters for tests.
    pub fn spawn(self) -> ServerHandle {
        let shared = Arc::clone(&self.shared);
        let join = std::thread::spawn(move || self.run());
        ServerHandle {
            shared,
            join: Some(join),
        }
    }
}

/// Control handle for a spawned [`Server`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    join: Option<std::thread::JoinHandle<Result<()>>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Live network counters (the same snapshot `Stats` returns on the
    /// wire).
    pub fn net_stats(&self) -> NetStats {
        self.shared.net_stats()
    }

    /// Stop accepting and join the accept loop. Idempotent.
    pub fn stop(&mut self) {
        self.shared.begin_shutdown();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Tell an over-cap peer why it is being turned away — best-effort, with
/// a short write timeout so a full socket cannot stall the accept loop.
fn reject_overloaded(mut stream: TcpStream, config: &NetConfig) {
    let _ = stream.set_write_timeout(Some(config.write_timeout.min(Duration::from_secs(1))));
    let resp = Response::Error {
        code: VerError::Overloaded(String::new()).wire_code(),
        message: format!("connection cap ({}) reached", config.max_conns),
    };
    let _ = write_frame(&mut &stream, &resp.encode());
    let _ = stream.flush();
}

/// Serve one connection until the peer closes, errors out, or asks for
/// shutdown.
fn serve_conn(stream: &TcpStream, shared: &Shared) {
    let c = &shared.counters;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(nonzero(shared.config.read_timeout));
    let _ = stream.set_write_timeout(nonzero(shared.config.write_timeout));
    if fault::hit(points::NET_ACCEPT).is_err() {
        c.dropped_conns.fetch_add(1, Ordering::Relaxed);
        return;
    }
    loop {
        if fault::hit(points::NET_READ).is_err() {
            c.dropped_conns.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let payload = match read_frame(&mut &*stream) {
            Ok(ReadOutcome::Eof) => return, // clean close between frames
            Ok(ReadOutcome::Frame(p)) => {
                c.frames_in.fetch_add(1, Ordering::Relaxed);
                p
            }
            Err(VerError::Protocol(_)) => {
                // Bad preamble / oversized length / checksum mismatch /
                // death mid-frame: the stream can no longer be trusted
                // to be frame-aligned. Best-effort error frame, then cut.
                c.protocol_errors.fetch_add(1, Ordering::Relaxed);
                c.dropped_conns.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Error {
                    code: VerError::Protocol(String::new()).wire_code(),
                    message: "malformed frame".into(),
                };
                let _ = write_frame(&mut &*stream, &resp.encode());
                return;
            }
            Err(_) => {
                // Socket error or read timeout.
                c.dropped_conns.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let request = Request::decode(&payload);
        let shutdown_after = matches!(request, Ok(Request::Shutdown));
        let reply = match request {
            Ok(req) => match &shared.backend {
                Backend::Single(e) => handle_request(shared, e.as_ref(), req),
                Backend::Sharded(e) => handle_request(shared, e.as_ref(), req),
                Backend::Router(e) => handle_request(shared, e.as_ref(), req),
            },
            Err(e) => {
                // The frame checksum passed, so framing is still aligned
                // — report the typed error and keep the connection.
                c.protocol_errors.fetch_add(1, Ordering::Relaxed);
                error_reply(&e)
            }
        };
        if fault::hit(points::NET_WRITE).is_err() {
            c.dropped_conns.fetch_add(1, Ordering::Relaxed);
            return;
        }
        match write_reply(&mut &*stream, c, reply) {
            Ok(()) => {
                c.frames_out.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                // Write failure or tripped write timeout (slow-loris
                // peer): this connection is done.
                c.dropped_conns.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        if shutdown_after {
            shared.begin_shutdown();
            return;
        }
    }
}

/// Whether a reply payload fits in one frame.
fn fits_frame(payload: &[u8]) -> bool {
    payload.len() <= MAX_FRAME_LEN as usize
}

/// Frame and write one reply payload. A payload past [`MAX_FRAME_LEN`]
/// cannot be framed (the peer could not read it), so the peer gets a typed
/// `InvalidQuery` in its place, counted in `queries_err`, telling it to
/// page; the connection stays frame-aligned and open.
fn write_reply(w: &mut impl Write, c: &Counters, payload: Vec<u8>) -> Result<()> {
    if fits_frame(&payload) {
        return write_frame(w, &payload);
    }
    c.queries_err.fetch_add(1, Ordering::Relaxed);
    let e = VerError::InvalidQuery(format!(
        "reply of {} bytes exceeds the {MAX_FRAME_LEN}-byte frame cap; request page_size > 0",
        payload.len()
    ));
    write_frame(w, &error_reply(&e))
}

fn nonzero(d: Duration) -> Option<Duration> {
    if d.is_zero() {
        None
    } else {
        Some(d)
    }
}

/// Map a `VerError` onto the payload of a typed wire status frame. The
/// message carries the error's rendered form minus the variant prefix the
/// client will re-attach via `from_wire` → `Display`.
fn error_reply(e: &VerError) -> Vec<u8> {
    let rendered = e.to_string();
    let message = match rendered.split_once(": ") {
        Some((_prefix, m)) => m.to_string(),
        None => rendered,
    };
    Response::Error {
        code: e.wire_code(),
        message,
    }
    .encode()
}

/// A query budget from a wire deadline in milliseconds (`0` = none).
fn budget_from_ms(ms: u64) -> QueryBudget {
    if ms == 0 {
        QueryBudget::none()
    } else {
        QueryBudget::none().with_timeout(Duration::from_millis(ms))
    }
}

/// Answer one request with the payload to frame.
fn handle_request<B: MissBackend>(shared: &Shared, engine: &Engine<B>, req: Request) -> Vec<u8> {
    let c = &shared.counters;
    match req {
        Request::Query {
            spec,
            page_size,
            timeout_ms,
        } => {
            match engine.query_with_budget(&spec, &budget_from_ms(timeout_ms)) {
                Ok(result) => {
                    let reply = paginate(shared, &result, page_size);
                    // An over-cap reply is refused, and counted, by `write_reply`.
                    if fits_frame(&reply) {
                        c.queries_ok.fetch_add(1, Ordering::Relaxed);
                    }
                    reply
                }
                Err(e) => {
                    c.queries_err.fetch_add(1, Ordering::Relaxed);
                    error_reply(&e)
                }
            }
        }
        Request::ShardQuery {
            spec,
            shard,
            shard_count,
            budget_ms,
        } => {
            // The wire carries the budget *remaining at the router*; the
            // leg rebuilds a local deadline from it.
            let budget = budget_from_ms(budget_ms);
            match engine.shard_query(&spec, shard as usize, shard_count as usize, &budget) {
                Ok(out) => {
                    let reply = Response::ShardOutput(out).encode();
                    if fits_frame(&reply) {
                        c.queries_ok.fetch_add(1, Ordering::Relaxed);
                    }
                    reply
                }
                Err(e) => {
                    c.queries_err.fetch_add(1, Ordering::Relaxed);
                    error_reply(&e)
                }
            }
        }
        Request::FetchPage { cursor, page } => fetch_page(shared, cursor, page),
        Request::Stats => Response::Stats(StatsReply {
            serve: engine.stats(),
            net: shared.net_stats(),
            router: engine
                .leg_stats()
                .into_iter()
                .map(|l| WireRouterLeg {
                    addr: l.addr,
                    attempts: l.attempts,
                    retries: l.retries,
                    failures: l.failures,
                    failovers: l.failovers,
                    breaker: l.breaker.wire_tag(),
                })
                .collect(),
        })
        .encode(),
        Request::Health => {
            let catalog = engine.ver().catalog();
            Response::Health(HealthReply {
                protocol_version: PROTOCOL_VERSION,
                tables: catalog.table_count() as u64,
                columns: catalog.column_count() as u64,
                shards: engine.shard_count() as u32,
                uptime_ms: shared.started.elapsed().as_millis() as u64,
            })
            .encode()
        }
        Request::Shutdown => Response::ShutdownAck.encode(),
    }
}

/// Split a result into a head (+ optional server-side cursor for the
/// remaining pages) and write the head's payload. A paginated head writes
/// only its first page; an inline one the whole result.
fn paginate(shared: &Shared, result: &Arc<QueryResult>, requested_page_size: u32) -> Vec<u8> {
    let page_size = if requested_page_size == 0 {
        shared.config.default_page_size
    } else {
        requested_page_size
    };
    let total = result.views.len() as u32;
    let (cursor, effective, shipped) = if page_size == 0 || total <= page_size {
        (0, 0, total)
    } else {
        (open_cursor(shared, result, page_size), page_size, page_size)
    };
    encode_query_head(result, &result.views[..shipped as usize], effective, cursor)
}

/// Park a handle on `result` under a fresh cursor id, FIFO-evicting the
/// oldest cursors past [`MAX_CURSORS`].
fn open_cursor(shared: &Shared, result: &Arc<QueryResult>, page_size: u32) -> u64 {
    let id = shared.next_cursor.fetch_add(1, Ordering::Relaxed);
    let mut evicted = Vec::new();
    let mut table = lock_unpoisoned(&shared.cursors);
    table.map.insert(
        id,
        CursorState {
            result: Arc::clone(result),
            page_size,
        },
    );
    table.order.push_back(id);
    while table.map.len() > MAX_CURSORS {
        if let Some(old) = table.order.pop_front() {
            if let Some(state) = table.map.remove(&old) {
                evicted.push(state);
                shared
                    .counters
                    .cursors_evicted
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    // The result LRU usually still holds an evicted cursor's result, but
    // when it has let go the cursor holds the last reference: free it
    // after the lock, not under it.
    drop(table);
    drop(evicted);
    id
}

fn fetch_page(shared: &Shared, cursor: u64, page: u32) -> Vec<u8> {
    // Under the lock: look up, bounds-check, take a handle, and retire the
    // cursor on its last page. No view is gathered or written here.
    let mut table = lock_unpoisoned(&shared.cursors);
    let Some(state) = table.map.get(&cursor) else {
        return error_reply(&VerError::NotFound(format!(
            "cursor {cursor} (expired, drained, or never issued)"
        )));
    };
    let page_size = state.page_size as usize;
    let total = state.result.views.len();
    let start = (page as usize).saturating_mul(page_size);
    if start >= total {
        return error_reply(&VerError::InvalidQuery(format!(
            "page {page} out of range for cursor {cursor} ({total} views, page size {page_size})"
        )));
    }
    let end = (start + page_size).min(total);
    let result = Arc::clone(&state.result);
    let last = end == total;
    if last {
        // Dropping the table's handle cannot free the result: `result`
        // holds one until this page is written, after the lock.
        table.map.remove(&cursor);
        table.order.retain(|c| *c != cursor);
    }
    drop(table);
    let reply = encode_page(cursor, page, last, &result.views[start..end]);
    shared.counters.pages_served.fetch_add(1, Ordering::Relaxed);
    reply
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{catalog, config, spec};
    use crate::net::wire::{QueryHead, WireResult, WireView};
    use crate::ServeConfig;
    use ver_qbe::{ExampleQuery, ViewSpec};

    #[test]
    fn a_panic_under_the_cursor_lock_does_not_brick_pagination() {
        let engine = ServeEngine::build(catalog(), config()).unwrap();
        let result = engine.query(&spec()).unwrap();
        assert!(result.views.len() >= 2, "need a result worth paginating");
        let net = NetConfig {
            addr: "127.0.0.1:0".parse().unwrap(),
            ..NetConfig::default()
        };
        let server = Server::bind(Backend::Single(Arc::new(engine)), net).unwrap();
        let shared = &server.shared;

        let holder = catch_unwind(AssertUnwindSafe(|| {
            let _table = shared.cursors.lock().unwrap();
            panic!("handler dies holding the cursor table");
        }));
        assert!(holder.is_err() && shared.cursors.is_poisoned());

        // Later paginated queries still park cursors, pages still serve,
        // and the open-cursor gauge still reads the table.
        let head = decode_head(paginate(shared, &result, 1));
        assert_ne!(head.cursor, 0);
        assert_eq!(head.views.len(), 1);
        assert_eq!(shared.net_stats().cursors_open, 1);
        let page = decode(fetch_page(shared, head.cursor, 1));
        assert!(matches!(page, Response::Page(ref p) if p.views.len() == 1));
    }

    fn server_on(engine: Arc<ServeEngine>) -> Server {
        let net = NetConfig {
            addr: "127.0.0.1:0".parse().unwrap(),
            ..NetConfig::default()
        };
        Server::bind(Backend::Single(engine), net).unwrap()
    }

    /// A reply as the client reads it: the payload the server would frame.
    fn decode(payload: Vec<u8>) -> Response {
        Response::decode(&payload).expect("the server writes decodable replies")
    }

    fn decode_head(payload: Vec<u8>) -> QueryHead {
        match decode(payload) {
            Response::Query(head) => head,
            other => panic!("expected a head, got {other:?}"),
        }
    }

    fn page_views(resp: Response) -> Vec<WireView> {
        match resp {
            Response::Page(p) => p.views,
            other => panic!("expected a page, got {other:?}"),
        }
    }

    fn gathered(result: &QueryResult) -> Vec<bool> {
        result.views.iter().map(|v| v.table.is_gathered()).collect()
    }

    #[test]
    fn pages_gather_only_the_views_they_ship() {
        let engine = Arc::new(ServeEngine::build(catalog(), config()).unwrap());
        let result = engine.query(&spec()).unwrap();
        let before = gathered(&result);
        assert!(
            before.iter().filter(|g| !**g).count() >= 3,
            "need ungathered views beyond the two pages served: {before:?}"
        );
        let server = server_on(Arc::clone(&engine));
        let head = decode_head(paginate(&server.shared, &result, 1));
        assert_eq!(head.views.len(), 1);
        assert_eq!(
            page_views(decode(fetch_page(&server.shared, head.cursor, 1))).len(),
            1
        );

        let expected: Vec<bool> = before
            .iter()
            .enumerate()
            .map(|(i, g)| *g || i < 2)
            .collect();
        assert_eq!(gathered(&result), expected);
    }

    #[test]
    fn a_cursor_is_one_handle_on_the_result() {
        let engine = Arc::new(ServeEngine::build(catalog(), config()).unwrap());
        let result = engine.query(&spec()).unwrap();
        assert!(result.views.len() > 2, "need three pages of two");
        let base = Arc::strong_count(&result);

        let server = server_on(Arc::clone(&engine));
        let shared = &server.shared;
        let cursors: Vec<u64> = (1..=3)
            .map(|open| {
                let head = decode_head(paginate(shared, &result, 2));
                assert_eq!(Arc::strong_count(&result), base + open);
                head.cursor
            })
            .collect();
        for (drained, &cursor) in cursors.iter().enumerate() {
            let mut page = 1;
            while matches!(decode(fetch_page(shared, cursor, page)), Response::Page(ref p) if !p.last)
            {
                page += 1;
            }
            assert_eq!(Arc::strong_count(&result), base + 2 - drained);
        }

        // A FIFO eviction lets go of the handle too.
        let server = server_on(engine);
        let shared = &server.shared;
        let first = decode_head(paginate(shared, &result, 2)).cursor;
        for _ in 0..MAX_CURSORS {
            paginate(shared, &result, 2);
        }
        assert_eq!(Arc::strong_count(&result), base + MAX_CURSORS);
        assert!(matches!(
            decode(fetch_page(shared, first, 1)),
            Response::Error { .. }
        ));
        assert_eq!(shared.net_stats().cursors_evicted, 1);
    }

    #[test]
    fn a_cursor_outlives_the_result_lru() {
        let one_result = ServeConfig {
            result_cache_capacity: 1,
            ..config()
        };
        let engine = Arc::new(ServeEngine::build(catalog(), one_result).unwrap());
        let server = server_on(Arc::clone(&engine));
        let result = engine.query(&spec()).unwrap();
        let inline = WireResult::from_query_result(&result);
        let head = decode_head(paginate(&server.shared, &result, 2));
        let weak = Arc::downgrade(&result);
        drop(result);

        // Another spec takes the LRU's only slot: the cursor is now the
        // result's sole owner.
        let other = ViewSpec::Qbe(
            ExampleQuery::from_rows(&[vec!["AP1", "st1"], vec!["AP2", "st2"]]).unwrap(),
        );
        engine.query(&other).unwrap();
        assert_eq!(weak.strong_count(), 1);

        let views = page_views(decode(fetch_page(&server.shared, head.cursor, 1)));
        assert_eq!(views, inline.views[2..4]);
        let last = page_views(decode(fetch_page(&server.shared, head.cursor, 2)));
        assert_eq!(last, inline.views[4..]);
        assert_eq!(weak.strong_count(), 0, "the drained cursor frees it");
    }

    #[test]
    fn an_over_cap_reply_is_a_typed_error_and_the_connection_stays() {
        let counters = Counters::default();
        let mut out = Vec::new();
        write_reply(&mut out, &counters, vec![0; MAX_FRAME_LEN as usize + 1]).unwrap();
        let payload = crate::net::frame::decode_frame(&out).unwrap();
        match decode(payload) {
            Response::Error { code, message } => {
                assert_eq!(code, VerError::InvalidQuery(String::new()).wire_code());
                assert!(message.contains("page_size > 0"), "{message}");
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
        assert_eq!(counters.queries_err.load(Ordering::Relaxed), 1);
        assert_eq!(counters.handler_panics.load(Ordering::Relaxed), 0);
    }
}
