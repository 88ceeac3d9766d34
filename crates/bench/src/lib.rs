//! The paper's evaluation and the workloads the tests and benches share.
//!
//! Every table and figure of the paper's evaluation is a function of
//! [`experiments`], printed by the `exp` binary (`exp <name>`, `exp all`)
//! and pinned by `tests/paper_claims.rs`; the README's "Paper experiments"
//! indexes them. This module holds what they share: corpus construction
//! and the three column-retrieval strategies of RQ3.
//!
//! Layer 6 of the crate map in the repo-root `ARCHITECTURE.md`: the
//! experiment harness; also hosts the repo-root integration tests that
//! pin the determinism invariants.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod golden;
pub mod stats;

use ver_core::{Ver, VerConfig};
use ver_datagen::chembl::{generate_chembl, ChemblConfig};
use ver_datagen::opendata::{generate_opendata, OpenDataConfig};
use ver_datagen::wdc::{generate_wdc, WdcConfig};
use ver_datagen::workload::{attach_noise_columns, chembl_ground_truths, wdc_ground_truths};
use ver_index::DiscoveryIndex;
use ver_qbe::groundtruth::GroundTruth;
use ver_qbe::query::ExampleQuery;
use ver_search::{SearchConfig, SearchContext, SearchOutput};
use ver_select::baselines::{select_all, select_best};
use ver_select::{column_selection, SelectionConfig};
use ver_store::catalog::TableCatalog;

/// A corpus prepared for evaluation: system + ground truths with attached
/// noise columns.
pub struct EvalSetup {
    /// Corpus label ("ChEMBL" / "WDC" / "OpenData").
    pub label: &'static str,
    /// The built system.
    pub ver: Ver,
    /// Ground-truth queries with noise columns attached.
    pub gts: Vec<GroundTruth>,
}

/// Standard evaluation scale for the ChEMBL-like corpus.
pub fn setup_chembl() -> EvalSetup {
    let cat = generate_chembl(&ChemblConfig {
        n_compounds: 150,
        n_tables: 70,
        seed: 0xC4EB,
    })
    .expect("chembl generation");
    build_setup("ChEMBL", cat, |cat| {
        chembl_ground_truths(cat).expect("gt resolve")
    })
}

/// Standard evaluation scale for the WDC-like corpus.
pub fn setup_wdc() -> EvalSetup {
    let cat = generate_wdc(&WdcConfig {
        n_tables: 250,
        ..Default::default()
    })
    .expect("wdc generation");
    build_setup("WDC", cat, |cat| {
        wdc_ground_truths(cat).expect("gt resolve")
    })
}

/// Open-data corpus at a sample portion (Fig. 3 / Fig. 4 setting).
pub fn setup_opendata(portion: f64) -> EvalSetup {
    let cat = generate_opendata(&OpenDataConfig {
        full_tables: 600,
        portion,
        seed: 0x0DA7A,
    })
    .expect("opendata generation");
    // Open-data ground truths: five state/city/country fact queries picked
    // from the generated templates (they exist at every portion because
    // portions are prefixes).
    build_setup("OpenData", cat, |cat| {
        let mut gts = Vec::new();
        for (i, t) in [
            "od_state_facts_0",
            "od_city_budget_1",
            "od_country_index_2",
            "od_state_facts_5",
            "od_city_budget_6",
        ]
        .iter()
        .enumerate()
        {
            if let Some(table) = cat.table_by_name(t) {
                gts.push(GroundTruth::new(
                    format!("OD-Q{}", i + 1),
                    vec![
                        ver_common::ids::ColumnRef {
                            table: table.id,
                            ordinal: 0,
                        },
                        ver_common::ids::ColumnRef {
                            table: table.id,
                            ordinal: 1,
                        },
                    ],
                ));
            }
        }
        gts
    })
}

fn build_setup(
    label: &'static str,
    cat: TableCatalog,
    gts_fn: impl Fn(&TableCatalog) -> Vec<GroundTruth>,
) -> EvalSetup {
    // Exact verification only for corpora small enough to afford it; the
    // open-data corpus relies on Lazo estimation (that is what the sketches
    // are for at scale).
    let verify_exact = cat.table_count() <= 300;
    let config = VerConfig {
        index: ver_index::IndexConfig {
            threads: 0, // auto: one worker per hardware thread
            verify_exact,
            ..Default::default()
        },
        ..VerConfig::default()
    };
    let ver = Ver::build(cat, config).expect("index build");
    let gts = gts_fn(ver.catalog())
        .into_iter()
        .map(|g| attach_noise_columns(ver.catalog(), ver.index(), g, 0.75))
        .collect();
    EvalSetup { label, ver, gts }
}

/// The three column-retrieval strategies compared in RQ3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Ver's COLUMN-SELECTION (Algorithm 4).
    ColumnSelection,
    /// FastTopK-style SELECT-ALL.
    SelectAll,
    /// SQuID-style SELECT-BEST.
    SelectBest,
}

impl Strategy {
    /// All strategies in reporting order (SA, SB, CS — as in Table V).
    pub fn all() -> [Strategy; 3] {
        [
            Strategy::SelectAll,
            Strategy::SelectBest,
            Strategy::ColumnSelection,
        ]
    }

    /// Short label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::ColumnSelection => "CS",
            Strategy::SelectAll => "SA",
            Strategy::SelectBest => "SB",
        }
    }
}

/// Run one strategy + join-graph search for a query.
pub fn run_strategy(
    ver: &Ver,
    query: &ExampleQuery,
    strategy: Strategy,
    search: &SearchConfig,
) -> SearchOutput {
    let index: &DiscoveryIndex = ver.index();
    let selection = match strategy {
        Strategy::ColumnSelection => column_selection(index, query, &SelectionConfig::default()),
        Strategy::SelectAll => select_all(index, query),
        Strategy::SelectBest => select_best(index, query),
    };
    SearchContext::new(ver.catalog(), index)
        .search(&selection, search)
        .expect("search succeeds")
}

/// Search configuration used by the experiments (paper defaults with a
/// combination cap so SELECT-ALL stays bounded).
pub fn eval_search_config() -> SearchConfig {
    SearchConfig {
        max_combinations: 20_000,
        ..SearchConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ver_qbe::noise::{generate_noisy_query, NoiseLevel};

    #[test]
    fn chembl_setup_is_ready_for_experiments() {
        let s = setup_chembl();
        assert_eq!(s.ver.catalog().table_count(), 70);
        assert_eq!(s.gts.len(), 5);
        // At least Q2 has a noise column (compound_synonyms).
        assert!(s
            .gts
            .iter()
            .any(|g| g.noise_columns.iter().any(Option::is_some)));
    }

    #[test]
    fn strategies_run_over_a_noisy_query() {
        let s = setup_chembl();
        let q = generate_noisy_query(s.ver.catalog(), &s.gts[4], NoiseLevel::Zero, 3, 1).unwrap();
        for strat in Strategy::all() {
            let out = run_strategy(&s.ver, &q, strat, &eval_search_config());
            assert!(out.stats.views >= 1, "{} found nothing", strat.label());
        }
    }

    #[test]
    fn opendata_portions_nest() {
        let quarter = setup_opendata(0.25);
        let half = setup_opendata(0.5);
        assert!(quarter.ver.catalog().table_count() < half.ver.catalog().table_count());
        assert!(!quarter.gts.is_empty());
    }
}
