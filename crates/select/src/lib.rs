//! COLUMN-SELECTION (Algorithm 4) and its baselines.
//!
//! Given the user's example values for each query attribute, this stage
//! retrieves candidate columns from the discovery index, clusters them by
//! connected components over the join hypergraph, scores clusters by their
//! best overlap with the examples, and keeps the top-θ score levels
//! (`θ = 1` keeps the best-overlap clusters and their ties; `θ = ∞`
//! degenerates to any non-empty overlap). The clustering is what makes the
//! component robust to noisy inputs: a noise value pulls in a noise column,
//! but that column is joinable with — hence clustered with — the true
//! column, so the true column survives selection.
//!
//! Baselines (§VI "RQ3"):
//! * [`baselines::select_all`] — any column containing ≥ 1 example
//!   (FastTopK-style);
//! * [`baselines::select_best`] — the column(s) with the maximum example
//!   overlap (SQuID-style), which the paper shows "crumbles" under noise.
//!
//! Layer 3 of the crate map in the repo-root `ARCHITECTURE.md` — the
//! first online stage after VIEW-SPECIFICATION.

#![forbid(unsafe_code)]

pub mod baselines;
pub mod cluster;
pub mod column_selection;

pub use column_selection::{
    column_selection, AttributeCandidates, CandidateColumn, SelectionConfig, SelectionResult,
};
