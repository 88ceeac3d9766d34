//! Relational materializer substrate for Ver.
//!
//! The paper's MATERIALIZER executes project-join (PJ) queries over noisy
//! tables (the authors used pandas and note it "could be optimized by using
//! a database"). This crate is that component, built from scratch:
//!
//! * [`plan`] — PJ plans: a join tree linearised into steps plus a
//!   projection list ([`PjPlan::from_edges`] is the one linearisation).
//! * [`dag`] — the one materializer: [`materialize_batch`] executes a batch
//!   of plans over a shared sub-join DAG of row-index join states, each
//!   distinct step prefix once, and returns lazily gathered [`View`]s.
//! * [`rowhash`] — the row-wise hash function `H` of Algorithm 3, the one
//!   row-set form (`row_set`) and the one set relation (`relation`).
//! * [`view`] — candidate PJ-views: a table handle plus provenance.
//!
//! The independent reference executor the DAG is checked against (whole
//! table hash join, project, dedup) is the test-only `ver-oracle` crate.
//!
//! Layer 2 of the crate map in the repo-root `ARCHITECTURE.md`: the
//! relational executor under the MATERIALIZER and distillation.

pub mod dag;
pub mod plan;
pub mod rowhash;
pub mod view;

pub use dag::{materialize_batch, MaterializeStats};
pub use plan::{JoinStep, PjPlan};
pub use view::{Provenance, View};
