//! Shared foundations for the Ver view-discovery system.
//!
//! This crate hosts the pieces every other Ver crate needs:
//!
//! * [`value::Value`] — the dynamically typed cell value used by the
//!   noisy table model (Definition 1 of the paper allows missing headers and
//!   missing cell values, so `Value::Null` is a first-class citizen).
//! * [`fxhash::FxHashMap`] / [`fxhash::FxHasher`] — a
//!   fast, DoS-insensitive hash used on hot paths (row hashing, MinHash,
//!   inverted indexes). Re-implemented locally to keep the dependency
//!   footprint at the approved set.
//! * [`text`] — Levenshtein distance (fuzzy keyword search), tokenisation and
//!   n-gram similarity (question prioritisation distances).
//! * [`ids`] — newtype identifiers for tables, columns and views.
//! * [`pool`] — [`pool::ThreadPool`], an order-preserving parallel map
//!   (`par_map` / `try_par_map` over scoped threads, grains claimed from
//!   one shared counter) that the index build, search, materialization, 4C
//!   and the shard scatter all fan out on; `threads: 0` means "use every
//!   available hardware thread".
//! * [`codec`] — the bounds-checked little-endian [`codec::Reader`], its
//!   `put_*` writers and the seeded checksum fold that the three binary
//!   formats (`VERIDX`, `VERSHD`, `VERNET`) are all written on.
//! * [`cache`] — thread-safe LRU and memoization caches with hit/miss
//!   counters, the substrate of the `ver-serve` serving layer.
//! * [`budget`] — per-query wall-clock deadlines and work caps, checked
//!   cooperatively at stage boundaries ([`budget::QueryBudget`]).
//! * [`fault`] — the named-injection-point chaos harness (`VER_FAULT`);
//!   one relaxed atomic load when disarmed, and the only environment
//!   variable the library reads: every config default is a constant.
//! * [`sync`] — [`sync::lock_unpoisoned`], the workspace-wide policy that
//!   a panicked lock holder must never brick a cache, the fault registry
//!   or a server's cursor table.
//! * [`timer`] — phase timers used to reproduce the paper's runtime
//!   breakdowns (Fig. 3 and Fig. 4).
//!
//! Layer 0 of the crate map in the repo-root `ARCHITECTURE.md` — every
//! other crate rests on this one.

#![forbid(unsafe_code)]

pub mod budget;
pub mod cache;
pub mod codec;
pub mod error;
pub mod fault;
pub mod fxhash;
pub mod ids;
pub mod pool;
pub mod sync;
pub mod text;
pub mod timer;
pub mod value;

pub use budget::QueryBudget;
pub use error::{Result, VerError};
pub use fxhash::{fx_hash_bytes, fx_hash_u64, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{ColumnId, ColumnRef, TableId, ViewId};
pub use pool::ThreadPool;
pub use sync::lock_unpoisoned;
pub use value::{DataType, Value};
