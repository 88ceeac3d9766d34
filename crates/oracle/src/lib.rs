//! The reference materializer: an independent, deliberately plain PJ-plan
//! executor that every production view is checked against.
//!
//! The production materializer is `ver_engine::dag::materialize_batch`
//! (row-index join states over a shared sub-join DAG, cells gathered on
//! first read). This crate executes the same plans the textbook way, one
//! candidate at a time over whole tables:
//!
//! * [`join`] — hash equi-join between two tables ([`join::hash_join`]);
//! * [`project`] — column projection;
//! * [`dedup`] — set-semantics row deduplication (candidate PJ-views are
//!   row *sets*);
//! * [`exec`] — [`execute_plan`] chains the three over a plan, and
//!   [`reexecute`] re-derives a view from the plan its provenance records.
//!
//! Invariant 9 in the repo-root `ARCHITECTURE.md` is the contract between
//! the two: the DAG returns, for every plan, exactly the view
//! [`execute_plan`] returns — same rows in the same order. The differential
//! tests live here (`dag`, `tests/`), in `ver-search` and in the repo-root
//! suite.
//!
//! **Test-only.** No crate lists `ver-oracle` under `[dependencies]`; it is
//! reached through `[dev-dependencies]` alone, which
//! `ver_common::sync`'s lint tests enforce. Nothing here runs in a
//! production path.

#![forbid(unsafe_code)]

pub mod dedup;
pub mod exec;
pub mod join;
pub mod project;

mod dag;

pub use exec::{execute_plan, reexecute};
