//! Relational materializer substrate for Ver.
//!
//! The paper's MATERIALIZER executes project-join (PJ) queries over noisy
//! tables (the authors used pandas and note it "could be optimized by using
//! a database"). This crate is that component, built from scratch:
//!
//! * [`join`] — hash equi-join between two tables.
//! * [`project`] — column projection.
//! * [`dedup`] — set-semantics row deduplication (candidate PJ-views are row
//!   *sets*; 4C categorisation in the paper compares views as sets of rows).
//! * [`rowhash`] — the row-wise hash function `H` of Algorithm 3, the one
//!   row-set form (`row_set`) and the one set relation (`relation`).
//! * [`plan`] / [`exec`] — PJ plans (a join tree linearised into steps plus a
//!   projection list) and their executor, producing materialized [`View`]s.
//! * [`dag`] — the row-index join core behind shared sub-join execution:
//!   [`JoinState`] intermediates that many plans with a
//!   common prefix reuse, bit-identical to [`exec`]'s independent path.
//!
//! Layer 2 of the crate map in the repo-root `ARCHITECTURE.md`: the
//! relational executor under the MATERIALIZER and distillation.

pub mod dag;
pub mod dedup;
pub mod exec;
pub mod join;
pub mod plan;
pub mod project;
pub mod rowhash;
pub mod view;

pub use dag::{materialize_state, ColumnHashes, JoinState};
pub use exec::execute_plan;
pub use plan::{JoinStep, PjPlan};
pub use view::{Provenance, View};
