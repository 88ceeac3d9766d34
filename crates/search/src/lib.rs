//! JOIN-GRAPH-SEARCH (Algorithm 5) and view materialization.
//!
//! Takes the candidate columns produced by COLUMN-SELECTION (or a baseline),
//! enumerates combinations (one candidate per query attribute), finds the
//! join graphs connecting each combination's tables through the discovery
//! index (`ρ`-hop bounded), caches provably non-joinable table pairs to
//! skip doomed combinations, ranks join graphs by the discovery engine's
//! join score, and materialises the top-k into candidate PJ-views over a
//! shared sub-join DAG that executes each distinct oriented join step once
//! (on the pinned `wdc120` tier, 21.9 % of all join steps are answered by
//! a prefix another candidate already executed).
//!
//! * [`enumerate`] — combination & joinable-group enumeration with the
//!   non-joinable cache (Algorithm 5 step 1);
//! * [`rank`] — join-score ranking (PK/FK-ness × smaller-is-better);
//! * [`search`] — the end-to-end component behind [`SearchContext`], with
//!   the statistics the paper's figures report (joinable groups / join
//!   graphs / views). Each top-k candidate's join graph is resolved
//!   ([`JoinGraph::column_edges`](ver_index::JoinGraph::column_edges)),
//!   linearised ([`PjPlan::from_edges`](ver_engine::PjPlan::from_edges))
//!   and executed in one
//!   [`materialize_batch`](ver_engine::dag::materialize_batch) over the
//!   shared DAG (Algorithm 5 step 2), whose counters come back as
//!   [`MaterializeStats`].
//!
//! Layer 3 of the crate map in the repo-root `ARCHITECTURE.md`; the
//! [`cache`] module is the serving layer's cross-query reuse point.

#![forbid(unsafe_code)]

pub mod cache;
pub mod enumerate;
mod materialize;
pub mod rank;
pub mod search;

pub use cache::{view_key, SearchCaches, ViewKey};
pub use search::{
    merge_shard_outputs, SearchConfig, SearchContext, SearchOutput, SearchStats, ShardSearchOutput,
};
pub use ver_engine::dag::MaterializeStats;
