//! Synthetic pathless table collections for the Ver evaluation.
//!
//! The paper evaluates on ChEMBL, a WDC web-table sample, and 69K open-data
//! tables — none of which ship with this repository. Per the substitution
//! policy in the README's "Paper experiments", this crate generates corpora that preserve the
//! *structural* properties each experiment depends on:
//!
//! * [`chembl`] — ~70 relational tables with shared FK-like key columns, a
//!   one-to-one alias pair (`cell_name`/`cell_description`, the paper's
//!   compatible-view cause), and ambiguous description columns that create
//!   wrong join paths (the contradiction cause in ChEMBL Q4's insight);
//! * [`wdc`] — thousands of tiny web tables over shared vocabularies
//!   (states, cities, countries) with varying key coverage (the
//!   complementary-union cause) and conflicting fact tables (census-style
//!   contradictions);
//! * [`opendata`] — a size-parameterised corpus with *nested* 25/50/75/100%
//!   subsamples for the scalability experiments (Fig. 3);
//! * [`vocab`] — the deterministic vocabularies behind all generators;
//! * [`workload`] — ground-truth queries, noise-column discovery via the
//!   index, noisy workloads (150-query Table V setup), and ground-truth
//!   view identification for hit-ratio measurement.
//!
//! Layer 5 of the crate map in the repo-root `ARCHITECTURE.md`:
//! evaluation infrastructure, not product code.

#![forbid(unsafe_code)]

pub mod chembl;
pub mod opendata;
pub mod vocab;
pub mod wdc;
pub mod workload;

pub use chembl::{generate_chembl, ChemblConfig};
pub use opendata::{generate_opendata, OpenDataConfig};
pub use wdc::{generate_wdc, WdcConfig};
pub use workload::{
    attach_noise_columns, find_ground_truth_view, generate_workload, materialize_ground_truth,
    WorkloadQuery,
};
