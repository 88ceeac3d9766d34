//! Network front end for the serving layer: the `verd` protocol.
//!
//! Std-only by design (ROADMAP: no tokio, vendored deps only) — a
//! [`TcpListener`](std::net::TcpListener) accept loop with one OS thread
//! per connection, length-prefixed checksummed binary frames, and a
//! blocking [`Client`]. The module tree:
//!
//! * [`frame`] — `VERNET\x01` framing: magic, u32 LE length, payload,
//!   u64 LE checksum (the fold of [`ver_common::codec`], under this
//!   format's own seed).
//! * [`wire`] — request/response codecs: `Query`, `FetchPage`, `Stats`,
//!   `Health`, `Shutdown`; materialized views travel whole so clients
//!   can verify invariant 12 (over-the-wire ≡ in-process) byte-for-byte,
//!   and a decoded view reads its cells in place from its reply's payload.
//! * [`config`] — [`NetConfig`], whose defaults are the constants
//!   [`DEFAULT_ADDR`] / [`DEFAULT_MAX_CONNS`], and the server's open-cursor
//!   cap [`MAX_CURSORS`].
//! * [`server`] — the accept loop, connection cap, timeouts, pagination
//!   cursors, and [`NetStats`] counters behind the `verd` binary.
//! * [`client`] — the blocking [`Client`] used by tests and the repo
//!   benchmark.
//! * [`resilient`] — the [`ResilientClient`] remote-leg envelope:
//!   per-attempt timeouts, reconnect-on-error, jittered exponential
//!   backoff with a retry budget, and a per-leg circuit breaker, all
//!   tuned by the fields of [`RetryPolicy`].
//!
//! Error surface on the wire: every [`VerError`](ver_common::error::VerError)
//! maps to a stable status code ([`VerError::wire_code`](ver_common::error::VerError::wire_code)) in an `Error`
//! frame; the client rebuilds the typed error. Malformed *frames* are
//! [`VerError::Protocol`](ver_common::error::VerError::Protocol) and cost the sender its connection; malformed
//! *payloads* inside a valid frame get a typed error reply and the
//! connection survives.

pub mod client;
pub mod config;
pub mod frame;
pub mod resilient;
pub mod server;
pub mod wire;

pub use client::Client;
pub use config::{NetConfig, DEFAULT_ADDR, DEFAULT_MAX_CONNS, MAX_CURSORS};
pub use resilient::{backoff_delay, Breaker, BreakerState, ResilientClient, RetryPolicy};
pub use server::{Backend, Server, ServerHandle};
pub use wire::{
    Cells, HealthReply, NetStats, Page, QueryHead, Request, Response, RowBlock, StatsReply,
    WireCell, WireResult, WireRouterLeg, WireView, PROTOCOL_VERSION,
};
