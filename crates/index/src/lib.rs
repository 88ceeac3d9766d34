//! Discovery engine & index — Ver's Aurum/Lazo substrate, from scratch.
//!
//! The paper's DISCOVERY ENGINE builds indices over pathless table
//! collections offline and serves them online through three API functions
//! (Appendix A), all implemented here:
//!
//! * `SEARCH-KEYWORD(target, fuzzy)` → [`valueindex`] (exact and
//!   Levenshtein-fuzzy lookup over values and attribute names);
//! * `NEIGHBORS(threshold)` → [`hypergraph`] (joinable columns by estimated
//!   Jaccard containment);
//! * `GENERATE-JOIN-GRAPHS(tables, ρ)` → [`joinpath`] (join-graph trees with
//!   bounded hops).
//!
//! Containment is estimated Lazo-style from MinHash signatures
//! ([`minhash`]). Candidate pairs come from LSH with one-row bands: columns
//! sharing a MinHash value at some position, so only pairs that agree
//! somewhere are ever scored. [`builder`] runs the offline pass on one
//! `ver_common::pool::ThreadPool` (profiles, signatures, keyword indexing
//! and candidate verification all fan out; results are bit-identical for
//! any thread count) and [`engine`] is the online façade, which keeps only
//! what online discovery reads: profiles, keyword postings and the
//! hypergraph. [`persist`] serialises that index to a checksummed binary
//! artifact, and [`shard`] splits it by table.
//!
//! Layer 2 of the crate map in the repo-root `ARCHITECTURE.md` — the
//! offline half of the pipeline; its persisted artifact is what the
//! serving layer warm-starts from.

#![forbid(unsafe_code)]

pub mod builder;
pub mod engine;
pub mod hypergraph;
pub mod joinpath;
pub mod minhash;
pub mod persist;
pub mod shard;
pub mod valueindex;

pub use builder::{build_index, IndexConfig};
pub use engine::DiscoveryIndex;
pub use hypergraph::JoinHypergraph;
pub use joinpath::{canon_into, JoinGraph, JoinGraphEdge};
pub use minhash::{
    estimated_containment, estimated_containment_max, estimated_jaccard, exact_containment,
    exact_jaccard, hashed_containment, hashed_containment_max, hashed_jaccard, MinHashSignature,
    MinHasher,
};
pub use shard::{
    load_shard, load_sharded_index, merge_shards, partition_index, save_shard, save_sharded_index,
    shard_from_bytes, shard_of_table, shard_to_bytes, IndexShard,
};
pub use valueindex::{Fuzziness, SearchTarget};
