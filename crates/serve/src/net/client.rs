//! A blocking client for the `verd` protocol — the `DiscoveryView`
//! counterpart to the server: it can take a whole result in one frame or
//! fetch it incrementally over a server-side cursor, and either way
//! reassembles the exact full [`WireResult`].
//!
//! One `Client` wraps one connection and is intentionally *not* `Sync`:
//! the protocol is strictly request→response per connection, so
//! concurrent callers should each open their own (connections are cheap;
//! the server is thread-per-connection).

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use ver_common::error::{Result, VerError};
use ver_qbe::ViewSpec;
use ver_search::ShardSearchOutput;

use super::frame::{read_frame, write_frame, ReadOutcome};
use super::wire::{HealthReply, Page, QueryHead, Request, Response, StatsReply, WireResult};

/// Blocking `verd` client over one TCP connection.
///
/// **Poisoning.** After any I/O or protocol failure mid-exchange the
/// stream may sit anywhere inside a frame — nothing read after that
/// point can be trusted to be frame-aligned. The first such failure
/// poisons the client: every later call fails fast with a typed
/// [`VerError::Protocol`] telling the caller to reconnect, instead of
/// decoding garbage. Typed `Error` *frames* from the server are clean,
/// completed exchanges and do not poison.
pub struct Client {
    stream: TcpStream,
    poisoned: bool,
}

impl Client {
    /// Connect with 30-second read/write timeouts.
    pub fn connect(addr: SocketAddr) -> Result<Client> {
        Client::connect_with_timeouts(addr, Duration::from_secs(30), Duration::from_secs(30))
    }

    /// Connect with explicit socket timeouts (zero = no timeout).
    pub fn connect_with_timeouts(
        addr: SocketAddr,
        read_timeout: Duration,
        write_timeout: Duration,
    ) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        if !read_timeout.is_zero() {
            stream.set_read_timeout(Some(read_timeout))?;
        }
        if !write_timeout.is_zero() {
            stream.set_write_timeout(Some(write_timeout))?;
        }
        Ok(Client {
            stream,
            poisoned: false,
        })
    }

    /// `true` once an exchange has failed on this connection; every
    /// further call returns a typed error until the caller reconnects.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// One request→response exchange. A server-sent `Error` frame comes
    /// back as the typed [`VerError`] it encodes (and does *not* poison
    /// the connection — the exchange completed cleanly).
    fn call(&mut self, req: &Request) -> Result<Response> {
        if self.poisoned {
            return Err(VerError::Protocol(
                "connection poisoned by an earlier failed exchange; reconnect".into(),
            ));
        }
        let exchanged = (|| {
            write_frame(&mut self.stream, &req.encode())?;
            match read_frame(&mut self.stream)? {
                ReadOutcome::Eof => Err(VerError::Protocol(
                    "server closed the connection mid-exchange".into(),
                )),
                ReadOutcome::Frame(payload) => Response::decode(&payload),
            }
        })();
        match exchanged {
            Ok(Response::Error { code, message }) => Err(VerError::from_wire(code, message)),
            Ok(resp) => Ok(resp),
            Err(e) => {
                // The stream may be mid-frame; nothing after this point
                // is trustworthy on this connection.
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// Run a query and return the response head as-is: first page of
    /// views plus the cursor (if the server paginated). Most callers
    /// want [`Client::query`] instead.
    pub fn query_head(
        &mut self,
        spec: &ViewSpec,
        page_size: u32,
        timeout_ms: u64,
    ) -> Result<QueryHead> {
        match self.call(&Request::Query {
            spec: spec.clone(),
            page_size,
            timeout_ms,
        })? {
            Response::Query(head) => Ok(head),
            other => Err(unexpected("Query", &other)),
        }
    }

    /// Fetch one follow-up page from a cursor.
    pub fn fetch_page(&mut self, cursor: u64, page: u32) -> Result<Page> {
        match self.call(&Request::FetchPage { cursor, page })? {
            Response::Page(p) => Ok(p),
            other => Err(unexpected("Page", &other)),
        }
    }

    /// Run a query and reassemble the complete result, fetching every
    /// follow-up page if the server paginated. `page_size == 0` defers
    /// to the server's default; `timeout_ms == 0` means no deadline.
    pub fn query(
        &mut self,
        spec: &ViewSpec,
        page_size: u32,
        timeout_ms: u64,
    ) -> Result<WireResult> {
        let head = self.query_head(spec, page_size, timeout_ms)?;
        let total = head.total_views as usize;
        let mut result = WireResult {
            partial: head.partial,
            stats: head.stats,
            survivors_c2: head.survivors_c2,
            ranked: head.ranked,
            views: head.views,
        };
        if head.cursor != 0 {
            let mut page = 1u32;
            while result.views.len() < total {
                let p = self.fetch_page(head.cursor, page)?;
                // A page for another cursor or another page number would
                // splice someone else's views into this result.
                if p.cursor != head.cursor || p.page != page {
                    self.poisoned = true;
                    return Err(VerError::Protocol(format!(
                        "asked cursor {} for page {page}, got cursor {} page {}",
                        head.cursor, p.cursor, p.page
                    )));
                }
                let done = p.last;
                // A non-final page that adds no views makes no progress
                // toward `total` — looping again would replay it forever.
                // That's a server-side contract violation, not a state
                // this client can recover from.
                if p.views.is_empty() && !done {
                    self.poisoned = true;
                    return Err(VerError::Protocol(format!(
                        "zero-progress pagination: page {page} was empty but not final"
                    )));
                }
                result.views.extend(p.views);
                page += 1;
                if done {
                    break;
                }
            }
        }
        if result.views.len() != total {
            return Err(VerError::Protocol(format!(
                "paginated reassembly produced {} views, head promised {total}",
                result.views.len()
            )));
        }
        Ok(result)
    }

    /// Run **one scatter leg** of a sharded query on a shard server and
    /// return the raw leg output for a router-side merge. `budget_ms` is
    /// the remaining query budget (`0` = no deadline).
    pub fn shard_query(
        &mut self,
        spec: &ViewSpec,
        shard: u32,
        shard_count: u32,
        budget_ms: u64,
    ) -> Result<ShardSearchOutput> {
        match self.call(&Request::ShardQuery {
            spec: spec.clone(),
            shard,
            shard_count,
            budget_ms,
        })? {
            Response::ShardOutput(o) => Ok(o),
            other => Err(unexpected("ShardOutput", &other)),
        }
    }

    /// Engine + network counters.
    pub fn stats(&mut self) -> Result<StatsReply> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Liveness / deployment-shape probe.
    pub fn health(&mut self) -> Result<HealthReply> {
        match self.call(&Request::Health)? {
            Response::Health(h) => Ok(h),
            other => Err(unexpected("Health", &other)),
        }
    }

    /// Ask the server to shut down; returns once the ack arrives.
    pub fn shutdown(&mut self) -> Result<()> {
        match self.call(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            other => Err(unexpected("ShutdownAck", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> VerError {
    let got = match got {
        Response::Query(_) => "Query",
        Response::Page(_) => "Page",
        Response::Stats(_) => "Stats",
        Response::Health(_) => "Health",
        Response::ShutdownAck => "ShutdownAck",
        Response::ShardOutput(_) => "ShardOutput",
        Response::Error { .. } => "Error",
    };
    VerError::Protocol(format!("expected {wanted} response, got {got}"))
}
