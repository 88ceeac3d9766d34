//! The evaluation's ground truth comes from the production materializer:
//! `materialize_ground_truth` runs its plan as a one-plan
//! `materialize_batch`, and that view must equal what the reference
//! executor makes of the same plan — table, provenance and row hashes —
//! for every WDC (`n_tables` 40 and 120) and ChEMBL ground truth.

use ver_datagen::chembl::{generate_chembl, ChemblConfig};
use ver_datagen::wdc::{generate_wdc, WdcConfig};
use ver_datagen::workload::{
    chembl_ground_truths, ground_truth_plan, materialize_ground_truth, wdc_ground_truths,
};
use ver_index::{build_index, IndexConfig};
use ver_oracle::execute_plan;

/// ρ as the evaluation and the benchmark run it.
const RHO: usize = 2;

#[test]
fn ground_truth_views_equal_the_reference_execution() {
    let mut corpora = Vec::new();
    for n_tables in [40, 120] {
        let catalog = generate_wdc(&WdcConfig {
            n_tables,
            ..WdcConfig::default()
        })
        .expect("wdc corpus");
        let gts = wdc_ground_truths(&catalog).expect("wdc ground truths");
        corpora.push((format!("wdc{n_tables}"), catalog, gts));
    }
    let catalog = generate_chembl(&ChemblConfig::default()).expect("chembl corpus");
    let gts = chembl_ground_truths(&catalog).expect("chembl ground truths");
    corpora.push(("chembl".to_string(), catalog, gts));

    for (corpus, catalog, gts) in &corpora {
        let index = build_index(catalog, IndexConfig::default()).expect("index builds");
        assert!(!gts.is_empty(), "{corpus}: no ground truths");
        for gt in gts {
            let view = materialize_ground_truth(catalog, &index, gt, RHO).expect("ground truth");
            let plan = ground_truth_plan(catalog, &index, gt, RHO).expect("ground-truth plan");
            let reference = execute_plan(catalog, &plan, 1.0).expect("reference execution");
            let at = format!("{corpus} {}", gt.name);
            assert!(view.row_count() > 0, "{at}: empty ground truth");
            assert_eq!(view.table, reference.table, "{at}: table");
            assert_eq!(view.provenance, reference.provenance, "{at}: provenance");
            assert_eq!(
                view.row_hashes(),
                reference.row_hashes(),
                "{at}: row hashes"
            );
        }
    }
}
