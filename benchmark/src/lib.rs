//! `ver-benchmark` — the repository's benchmark.
//!
//! Four long single-threaded workloads over one pinned corpus tier, six
//! end-to-end metrics measured with tracing off, and a traced variant that
//! times every layer from outside through its public entry points. See
//! `README.md` in this directory for definitions and how the metrics
//! interact; `BENCHMARK.json` at the repository root lists the names.

pub mod inputs;
pub mod json;
pub mod names;
pub mod reference;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
