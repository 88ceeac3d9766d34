//! Ver — view discovery over pathless table collections.
//!
//! This crate is the end-to-end system of the paper (Algorithm 1): it wires
//! the reference architecture's components into a pipeline,
//!
//! ```text
//! VIEW-SPECIFICATION → COLUMN-SELECTION → JOIN-GRAPH-SEARCH + MATERIALIZER
//!                    → VIEW-DISTILLATION → VIEW-PRESENTATION
//! ```
//!
//! with the discovery index built offline. Quickstart:
//!
//! ```
//! use ver_core::{Ver, VerConfig};
//! use ver_qbe::{ExampleQuery, ViewSpec};
//! use ver_store::table::TableBuilder;
//! use ver_store::catalog::TableCatalog;
//!
//! // A tiny pathless collection.
//! let mut catalog = TableCatalog::new();
//! let mut t = TableBuilder::new("airports", &["iata", "state"]);
//! for (i, s) in [("IND", "Indiana"), ("ATL", "Georgia"), ("ORD", "Illinois")] {
//!     t.push_row(vec![i.into(), s.into()]).unwrap();
//! }
//! catalog.add_table(t.build()).unwrap();
//!
//! // Offline: build the discovery index. Online: ask by example.
//! let ver = Ver::build(catalog, VerConfig::fast()).unwrap();
//! let query = ExampleQuery::from_rows(&[vec!["IND", "Indiana"]]).unwrap();
//! let result = ver.run(&ViewSpec::Qbe(query)).unwrap();
//! assert!(!result.views.is_empty());
//! ```
//!
//! Layer 4 of the crate map in the repo-root `ARCHITECTURE.md`: the
//! single-process facade that `ver-serve` wraps for long-lived serving.

#![forbid(unsafe_code)]

pub mod config;
pub mod pipeline;
pub mod spec_select;

pub use config::VerConfig;
pub use pipeline::{presentation_query, QueryResult, ShardLeg, Ver};

// Re-export the component crates under one roof for downstream users.
pub use ver_common as common;
pub use ver_distill as distill;
pub use ver_engine as engine;
pub use ver_index as index;
pub use ver_present as present;
pub use ver_qbe as qbe;
pub use ver_search as search;
pub use ver_select as select;
pub use ver_store as store;
