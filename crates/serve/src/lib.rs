//! `ver-serve` — the long-lived serving layer: **many users, one index**.
//!
//! Everything upstream of this crate is single-shot: build an index, answer
//! one query, exit. A deployment instead keeps one [`ServeEngine`] alive
//! and pushes every user's queries through it:
//!
//! * **warm-start** — the engine loads a [persisted discovery
//!   index](ver_index::persist) instead of re-profiling and re-sketching
//!   the catalog ([`ServeEngine::open`] / [`ServeEngine::warm_start`]);
//!   cold building remains available as [`ServeEngine::build`];
//! * **concurrent readers** — catalog and index sit behind `Arc`, every
//!   serving entry point takes `&self`, and each query fans out onto
//!   `ver_common::pool` under the configured per-query thread budget
//!   ([`ServeConfig::with_query_threads`]);
//! * **two bounded caches on the hot path** — a whole-result LRU keyed by
//!   the canonical query form, plus the cross-query materialized-view LRU
//!   in [`SearchCaches`](ver_search::SearchCaches), both surfaced with
//!   hit/miss counters in [`ServeStats`];
//! * **interaction without server state** — `ver-present`'s Algorithm-2
//!   question loop runs over a shared cached answer
//!   (`engine.ver().present(&spec, &result, &mut user)`), so any number
//!   of users can be driven over one materialization.
//!
//! [`ServeEngine`] is one instantiation of the generic front
//! [`Engine`]`<B>`, which owns the whole serving policy (result LRU,
//! admission gate, partial-is-never-cached, deadline fallback, stats) and is parameterised only by how a miss is computed
//! ([`MissBackend`]): in process ([`ServeEngine`]), scattered over
//! in-process shard legs ([`ShardedEngine`]), or scattered over remote
//! `verd` processes ([`RouterEngine`]).
//!
//! Serving preserves the pipeline's determinism contract: a warm-started,
//! cache-hitting engine answers every query **bit-identically** to a cold
//! `Ver::run` (pinned by `tests/serve_warm_start.rs` against the golden
//! snapshot). See ARCHITECTURE.md ("Serving layer") for how this crate
//! sits on top of the offline → online pipeline.
//!
//! ```
//! use std::sync::Arc;
//! use ver_core::VerConfig;
//! use ver_present::OracleUser;
//! use ver_qbe::{ExampleQuery, ViewSpec};
//! use ver_serve::{ServeConfig, ServeEngine};
//! use ver_store::catalog::TableCatalog;
//! use ver_store::table::TableBuilder;
//!
//! let mut catalog = TableCatalog::new();
//! let mut t = TableBuilder::new("airports", &["iata", "state"]);
//! for (i, s) in [("IND", "Indiana"), ("ATL", "Georgia"), ("ORD", "Illinois")] {
//!     t.push_row(vec![i.into(), s.into()]).unwrap();
//! }
//! catalog.add_table(t.build()).unwrap();
//!
//! // Offline, once: cold-build and persist the index.
//! let config = ServeConfig {
//!     pipeline: VerConfig::fast(),
//!     ..ServeConfig::default()
//! };
//! let cold = ServeEngine::build(catalog, config.clone()).unwrap();
//! let dir = std::env::temp_dir().join(format!("ver_serve_doc_{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("index.bin");
//! cold.save_index(&path).unwrap();
//!
//! // Every later process: warm-start and serve.
//! let engine = ServeEngine::open(cold.catalog_shared(), &path, config).unwrap();
//! let spec = ViewSpec::Qbe(ExampleQuery::from_rows(&[vec!["IND", "Indiana"]]).unwrap());
//! let first = engine.query(&spec).unwrap();
//! let second = engine.query(&spec).unwrap(); // served from the result cache
//! assert!(Arc::ptr_eq(&first, &second));
//! assert_eq!(engine.stats().result_cache.hits, 1);
//!
//! // Algorithm 2's question loop over the cached answer: a simulated user
//! // who knows the view they want finds it. The engine holds no state for it.
//! let target = first.ranked[0].0;
//! let outcome = engine.ver().present(&spec, &first, &mut OracleUser::new(target));
//! assert_eq!(outcome.found_view(), Some(target));
//! std::fs::remove_file(&path).ok();
//! ```
//!
//! Layer 5 of the crate map in the repo-root `ARCHITECTURE.md` — the
//! serving layer; see its "Determinism invariants" before changing
//! anything on the query path.

#![forbid(unsafe_code)]

pub mod engine;
pub mod net;
pub mod remote;
pub mod sharded;

pub use engine::{Engine, InProcess, MissBackend, ServeConfig, ServeEngine, ServeStats};
pub use remote::{RemoteLeg, RouterEngine, RouterLegStats};
pub use sharded::{LocalLeg, Scatter, ShardBackend, ShardStats, ShardedEngine};

/// The one unit-test fixture every engine flavour is exercised on.
#[cfg(test)]
pub(crate) mod fixture {
    use crate::ServeConfig;
    use ver_common::value::Value;
    use ver_core::VerConfig;
    use ver_qbe::{ExampleQuery, ViewSpec};
    use ver_store::catalog::TableCatalog;
    use ver_store::table::TableBuilder;

    /// airports ⋈ state_pop plus a conflicting state_pop_old (mirrors the
    /// ver-core pipeline fixture so serving output can be compared 1:1).
    pub(crate) fn catalog() -> TableCatalog {
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

    pub(crate) fn config() -> ServeConfig {
        ServeConfig {
            pipeline: VerConfig::fast(),
            ..ServeConfig::default()
        }
    }

    pub(crate) fn spec() -> ViewSpec {
        ViewSpec::Qbe(ExampleQuery::from_rows(&[vec!["st1", "1001"], vec!["st2", "1002"]]).unwrap())
    }
}
