//! Prints the paper's evaluation: `exp <name>` runs one artifact, `exp all`
//! runs every one. Names: table1–table5, fig2–fig8, e2e_spec, qs_squid.
//!
//! Each artifact prints its tables, then one line per claim of the paper
//! with its verdict. The exit status is non-zero when a verdict differs
//! from the one the reproduction is pinned to.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use ver_bench::experiments::ALL;

fn main() -> ExitCode {
    let arg = std::env::args().nth(1).unwrap_or_default();
    let chosen: Vec<_> = ALL
        .iter()
        .filter(|(name, _)| arg == "all" || arg == *name)
        .collect();
    if chosen.is_empty() {
        let names: Vec<&str> = ALL.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: exp <name> | all\nnames: {}", names.join(", "));
        return ExitCode::from(2);
    }
    let mut pinned = true;
    for (_, run) in chosen {
        let report = run();
        print!("{report}");
        pinned &= report.pins_hold();
    }
    if pinned {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
