//! Noisy table store for pathless table collections.
//!
//! Implements Definition 1 and 2 of the paper: a *pathless table collection*
//! is a set of noisy tables — schemas may lack header names, cells may be
//! missing, and no join-path (PK/FK) information exists. This crate provides:
//!
//! * [`schema`] — table schemas whose column names are `Option`al (a missing
//!   header is the paper's `Ai = φ`).
//! * [`column`](mod@crate::column) — typed, column-major value storage with cached per-column
//!   statistics (distinct count, null count, inferred type).
//! * [`table`] — the noisy table plus a row-oriented builder.
//! * [`catalog`] — the collection itself: id assignment, name lookup, and
//!   global column enumeration used by the discovery index.
//! * [`csv`] — plain CSV reader/writer with pandas-style type inference.
//! * [`profile`] — compact per-column profiles consumed by index
//!   construction.
//!
//! Layer 1 of the crate map in the repo-root `ARCHITECTURE.md`: the data
//! substrate under both the offline build and the online executor.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod column;
pub mod csv;
pub mod profile;
pub mod schema;
pub mod table;

pub use catalog::TableCatalog;
pub use column::Column;
pub use profile::ColumnProfile;
pub use schema::{ColumnMeta, TableSchema};
pub use table::{Table, TableBuilder};
