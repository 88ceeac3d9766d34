//! View specification for Ver.
//!
//! The VIEW-SPECIFICATION component is the human-facing entry of the
//! reference architecture. Ver's default interface is **query-by-example**
//! (Definition 3: a noisy example table χ of `l` tuples over `τ`
//! attributes), but the architecture supports keyword and attribute-name
//! interfaces too — the paper's §VI-C1 evaluates all three. This crate
//! models:
//!
//! * [`query`] — the QBE example table [`ExampleQuery`];
//! * [`spec`] — the [`ViewSpec`] enum covering QBE, keyword
//!   and attribute interfaces;
//! * [`noise`] — the paper's noisy-query generator (§VI-B): sample example
//!   values from ground-truth columns and, for medium/high noise, from a
//!   *noise column* (a column with Jaccard containment ≥ 0.8 w.r.t. the
//!   ground-truth column);
//! * [`groundtruth`] — ground-truth bookkeeping shared by workload
//!   generation and the experiment harness.
//!
//! Layer 4 of the crate map in the repo-root `ARCHITECTURE.md`: the
//! query vocabulary shared by selection, search, serving and datagen.

#![forbid(unsafe_code)]

pub mod groundtruth;
pub mod noise;
pub mod query;
pub mod spec;

pub use groundtruth::GroundTruth;
pub use noise::{generate_noisy_query, NoiseLevel};
pub use query::{ExampleQuery, QueryColumn};
pub use spec::ViewSpec;
