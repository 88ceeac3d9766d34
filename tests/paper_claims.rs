//! The paper's count-based claims, pinned: every check an experiment of
//! `ver_bench::experiments` computes must reach the verdict it is pinned
//! to — agreement with the paper, or a recorded divergence.
//!
//! Covers the artifacts cheap enough for a debug test run. Table III,
//! Table V and §VI-C1 are pinned through `exp all`, which CI runs on the
//! release build and which exits non-zero on a moved verdict.

use ver_bench::experiments::{self, Report};

fn assert_pinned(report: Report) {
    assert!(!report.checks.is_empty(), "no claim was checked");
    assert!(report.pins_hold(), "a verdict moved:\n{report}");
}

#[test]
fn table1_datasets() {
    assert_pinned(experiments::table1());
}

#[test]
fn table2_study_tasks() {
    assert_pinned(experiments::table2());
}

#[test]
fn table4_distillation() {
    assert_pinned(experiments::table4());
}

#[test]
fn fig2_contradiction_steps() {
    assert_pinned(experiments::fig2());
}

#[test]
fn fig5_search_space_chembl() {
    assert_pinned(experiments::fig5());
}

#[test]
fn fig6_search_space_wdc() {
    assert_pinned(experiments::fig6());
}

#[test]
fn fig8_microbenchmarks() {
    assert_pinned(experiments::fig8());
}

#[test]
fn qs_squid_alpha_db() {
    assert_pinned(experiments::qs_squid());
}
