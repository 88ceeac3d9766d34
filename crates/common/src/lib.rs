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
//! * [`pool`] — a chunk-stealing parallel runtime (`par_map` /
//!   `par_for_each` over scoped threads) shared by the offline build paths;
//!   `threads: 0` means "use every available hardware thread".
//! * [`simd`] — fixed-width `u64` lane blocks and runtime backend dispatch
//!   for the MinHash/LSH sketching kernels (`VER_SIMD=0` forces the scalar
//!   reference path; output is bit-identical either way).
//! * [`codec`] — the bounds-checked little-endian [`codec::Reader`], its
//!   `put_*` writers and the seeded checksum fold that the three binary
//!   formats (`VERIDX`, `VERSHD`, `VERNET`) are all written on.
//! * [`cache`] — thread-safe LRU and memoization caches with hit/miss
//!   counters, the substrate of the `ver-serve` serving layer.
//! * [`budget`] — per-query wall-clock deadlines and work caps, checked
//!   cooperatively at stage boundaries ([`budget::QueryBudget`]).
//! * [`fault`] — the named-injection-point chaos harness (`VER_FAULT`);
//!   one relaxed atomic load when disarmed.
//! * [`mod@env`] — warn-once `VER_*` environment-knob resolution
//!   ([`env::EnvKnob`]); malformed knobs warn once and fall back, never
//!   abort.
//! * [`sync`] — [`sync::lock_unpoisoned`], the workspace-wide policy that
//!   a panicked lock holder must never brick a cache or registry.
//! * [`timer`] — phase timers used to reproduce the paper's runtime
//!   breakdowns (Fig. 3 and Fig. 4).
//!
//! Layer 0 of the crate map in the repo-root `ARCHITECTURE.md` — every
//! other crate rests on this one.

pub mod budget;
pub mod cache;
pub mod codec;
pub mod env;
pub mod error;
pub mod fault;
pub mod fxhash;
pub mod ids;
pub mod pool;
pub mod simd;
pub mod sync;
pub mod text;
pub mod timer;
pub mod value;

pub use budget::QueryBudget;
pub use error::{Result, VerError};
pub use fxhash::{fx_hash_bytes, fx_hash_u64, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{ColumnId, ColumnRef, TableId, ViewId};
pub use pool::{par_for_each, par_map, resolve_threads, ThreadPool};
pub use simd::{active_backend, simd_enabled, SimdBackend};
pub use sync::lock_unpoisoned;
pub use value::{DataType, Value};
