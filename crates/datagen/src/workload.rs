//! Ground-truth queries and noisy workloads (§VI-B).
//!
//! The evaluation pipeline is: pick a ground-truth PJ-query → materialise
//! its ground-truth view → generate noisy example queries from its columns
//! (and their noise columns) → run a system → check whether the
//! ground-truth view appears among the candidates (Ground Truth Hit Ratio).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use ver_common::budget::QueryBudget;
use ver_common::error::{Result, VerError};
use ver_common::ids::ColumnRef;
use ver_common::pool::ThreadPool;
use ver_engine::dag::materialize_batch;
use ver_engine::plan::PjPlan;
use ver_engine::rowhash::{relation, SetRelation};
use ver_engine::view::View;
use ver_index::DiscoveryIndex;
use ver_qbe::groundtruth::GroundTruth;
use ver_qbe::noise::{generate_noisy_query, NoiseLevel};
use ver_qbe::query::ExampleQuery;
use ver_store::catalog::TableCatalog;

/// One generated workload entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadQuery {
    /// Name ("ChEMBL-Q3/med/2").
    pub name: String,
    /// The ground truth it was generated from.
    pub gt: GroundTruth,
    /// Noise level.
    pub level: NoiseLevel,
    /// The noisy example query.
    pub query: ExampleQuery,
}

/// Resolve `(table, column)` names into a [`ColumnRef`].
pub fn resolve_column(catalog: &TableCatalog, table: &str, column: &str) -> Result<ColumnRef> {
    let t = catalog
        .table_by_name(table)
        .ok_or_else(|| VerError::NotFound(format!("table '{table}'")))?;
    let ordinal = t
        .schema
        .ordinal_of(column)
        .ok_or_else(|| VerError::NotFound(format!("column '{table}.{column}'")))?;
    Ok(ColumnRef {
        table: t.id,
        ordinal: ordinal as u16,
    })
}

/// The five ChEMBL ground-truth queries (2 attributes each, per §VI-B).
pub fn chembl_ground_truths(catalog: &TableCatalog) -> Result<Vec<GroundTruth>> {
    let gt = |name: &str, cols: [(&str, &str); 2]| -> Result<GroundTruth> {
        Ok(GroundTruth::new(
            name,
            vec![
                resolve_column(catalog, cols[0].0, cols[0].1)?,
                resolve_column(catalog, cols[1].0, cols[1].1)?,
            ],
        ))
    };
    Ok(vec![
        gt(
            "ChEMBL-Q1",
            [("assays", "cell_name"), ("assays", "assay_type")],
        )?,
        gt(
            "ChEMBL-Q2",
            [
                ("compounds", "compound_name"),
                ("activities", "standard_value"),
            ],
        )?,
        gt(
            "ChEMBL-Q3",
            [("cell_dictionary", "cell_name"), ("assays", "assay_type")],
        )?,
        gt(
            "ChEMBL-Q4",
            [
                ("component_sequences", "organism"),
                ("target_dictionary", "pref_name"),
            ],
        )?,
        gt(
            "ChEMBL-Q5",
            [("compounds", "compound_name"), ("compounds", "mw")],
        )?,
    ])
}

/// The five WDC ground-truth queries (mirroring Table II's tasks).
pub fn wdc_ground_truths(catalog: &TableCatalog) -> Result<Vec<GroundTruth>> {
    let gt = |name: &str, cols: [(&str, &str); 2]| -> Result<GroundTruth> {
        Ok(GroundTruth::new(
            name,
            vec![
                resolve_column(catalog, cols[0].0, cols[0].1)?,
                resolve_column(catalog, cols[1].0, cols[1].1)?,
            ],
        ))
    };
    Ok(vec![
        gt("WDC-Q1", [("airports", "state"), ("airports", "iata")])?,
        gt(
            "WDC-Q2",
            [
                ("state_subset_0", "state"),
                ("newspapers", "newspaper_title"),
            ],
        )?,
        gt(
            "WDC-Q3",
            [
                ("population_camp0_src0", "country"),
                ("population_camp0_src0", "population"),
            ],
        )?,
        gt(
            "WDC-Q4",
            [("churches", "state"), ("churches", "church_name")],
        )?,
        gt(
            "WDC-Q5",
            [
                ("births_rates", "country"),
                ("births_rates", "births_per_1000"),
            ],
        )?,
    ])
}

/// Find a noise column for every ground-truth attribute: a different column
/// with Jaccard containment ≥ `threshold` w.r.t. the ground-truth column
/// that also carries at least one novel value (otherwise sampling noise
/// from it is impossible). Leaves the slot `None` when no such column
/// exists — the noisy-query generator then falls back to clean sampling.
pub fn attach_noise_columns(
    catalog: &TableCatalog,
    index: &DiscoveryIndex,
    mut gt: GroundTruth,
    threshold: f64,
) -> GroundTruth {
    for (i, cref) in gt.columns.clone().iter().enumerate() {
        let Ok(cid) = catalog.column_id(*cref) else {
            continue;
        };
        let Ok(gt_col) = catalog.column(*cref) else {
            continue;
        };
        // Borrow the ground-truth column's values instead of cloning them
        // into an owned set (`distinct_values()` clones every `Value`).
        let gt_values: ver_common::fxhash::FxHashSet<&ver_common::value::Value> =
            gt_col.non_null().collect();
        let mut best: Option<(f32, ColumnRef)> = None;
        for (ncid, score) in index.neighbors(cid, threshold) {
            let Ok(ncref) = catalog.column_ref(ncid) else {
                continue;
            };
            let Ok(ncol) = catalog.column(ncref) else {
                continue;
            };
            let has_novel = ncol.non_null().any(|v| !gt_values.contains(v));
            if !has_novel {
                continue;
            }
            if best.is_none_or(|(s, _)| score > s) {
                best = Some((score, ncref));
            }
        }
        if let Some((_, ncref)) = best {
            gt = gt.with_noise_column(i, ncref);
        }
    }
    gt
}

/// The ground truth's plan: the best-scoring join graph over its tables
/// (mean containment over `1 + hops`), linearised to project its columns.
pub fn ground_truth_plan(
    catalog: &TableCatalog,
    index: &DiscoveryIndex,
    gt: &GroundTruth,
    rho: usize,
) -> Result<PjPlan> {
    let graphs = index.generate_join_graphs(&gt.tables, rho);
    let best = graphs
        .iter()
        .max_by(|a, b| {
            let sa = a.mean_score() / (1.0 + a.hops() as f64);
            let sb = b.mean_score() / (1.0 + b.hops() as f64);
            sa.partial_cmp(&sb).expect("finite")
        })
        .ok_or_else(|| {
            VerError::JoinError(format!(
                "ground truth '{}' tables are not joinable",
                gt.name
            ))
        })?;
    PjPlan::from_edges(&best.column_edges(catalog)?, &gt.columns)
}

/// Materialise the ground-truth view: [`ground_truth_plan`] as a batch of
/// one through the materializer every candidate view comes from.
pub fn materialize_ground_truth(
    catalog: &TableCatalog,
    index: &DiscoveryIndex,
    gt: &GroundTruth,
    rho: usize,
) -> Result<View> {
    let plan = ground_truth_plan(catalog, index, gt, rho)?;
    let (mut views, _) = materialize_batch(
        catalog,
        &[(plan, 1.0)],
        ThreadPool::new(1),
        &QueryBudget::none(),
    );
    views.pop().expect("one plan in, one view out")
}

/// Does any candidate view *hit* the ground truth? A hit is a candidate
/// whose row set equals — or is a superset of — the ground-truth view's
/// rows with the same arity (supersets arise when a candidate was built
/// from a broader but correct join). Equality is preferred: the first equal
/// candidate wins, else the first superset. Both are decided by
/// [`rowhash::relation`](ver_engine::rowhash::relation) over
/// [`View::row_set`], the relation 4C uses.
pub fn find_ground_truth_view(views: &[View], gt_view: &View) -> Option<ver_common::ids::ViewId> {
    let gt_set = gt_view.row_set();
    if gt_set.is_empty() {
        return None;
    }
    let arity = gt_view.schema().arity();
    let mut superset: Option<ver_common::ids::ViewId> = None;
    for v in views {
        if v.schema().arity() != arity {
            continue;
        }
        // Forces the gather on a view whose row hashes were released (any
        // finished `QueryResult`): the set is then hashed from the cells.
        match relation(&gt_set, &v.row_set()) {
            SetRelation::Equal => return Some(v.id),
            SetRelation::LeftInRight if superset.is_none() => superset = Some(v.id),
            _ => {}
        }
    }
    superset
}

/// Generate the §VI-B workload: `per_gt` noisy queries per ground truth per
/// noise level (the paper: 5 GT × 3 levels × 5 queries × 2 corpora = 150).
pub fn generate_workload(
    catalog: &TableCatalog,
    gts: &[GroundTruth],
    per_gt: usize,
    rows: usize,
    seed: u64,
) -> Result<Vec<WorkloadQuery>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(gts.len() * 3 * per_gt);
    for gt in gts {
        for level in NoiseLevel::all() {
            for rep in 0..per_gt {
                let qseed = rng.gen::<u64>();
                let query = generate_noisy_query(catalog, gt, level, rows, qseed)?;
                out.push(WorkloadQuery {
                    name: format!("{}/{}/{}", gt.name, level.label(), rep),
                    gt: gt.clone(),
                    level,
                    query,
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chembl::{generate_chembl, ChemblConfig};
    use crate::wdc::{generate_wdc, WdcConfig};
    use ver_index::{build_index, IndexConfig};

    fn chembl_small() -> (TableCatalog, DiscoveryIndex) {
        let cat = generate_chembl(&ChemblConfig {
            n_compounds: 80,
            n_tables: 14,
            seed: 5,
        })
        .unwrap();
        let idx = build_index(
            &cat,
            IndexConfig {
                threads: 1,
                verify_exact: true,
                ..Default::default()
            },
        )
        .unwrap();
        (cat, idx)
    }

    #[test]
    fn chembl_ground_truths_resolve() {
        let (cat, _) = chembl_small();
        let gts = chembl_ground_truths(&cat).unwrap();
        assert_eq!(gts.len(), 5);
        assert!(gts.iter().all(|g| g.arity() == 2));
    }

    #[test]
    fn wdc_ground_truths_resolve() {
        let cat = generate_wdc(&WdcConfig {
            n_tables: 40,
            ..Default::default()
        })
        .unwrap();
        let gts = wdc_ground_truths(&cat).unwrap();
        assert_eq!(gts.len(), 5);
    }

    #[test]
    fn noise_columns_attach_where_available() {
        let (cat, idx) = chembl_small();
        let gts = chembl_ground_truths(&cat).unwrap();
        // Q2 gt[0] = compounds.compound_name; compound_synonyms.synonym is
        // its designated noise column (containment ≈ 0.8, novel values).
        let q2 = attach_noise_columns(&cat, &idx, gts[1].clone(), 0.75);
        let syn = resolve_column(&cat, "compound_synonyms", "synonym").unwrap();
        assert_eq!(q2.noise_columns[0], Some(syn));
    }

    #[test]
    fn ground_truth_view_materialises() {
        let (cat, idx) = chembl_small();
        let gts = chembl_ground_truths(&cat).unwrap();
        for gt in &gts {
            let v = materialize_ground_truth(&cat, &idx, gt, 2).unwrap();
            assert!(v.row_count() > 0, "{} produced empty view", gt.name);
            assert_eq!(v.table.column_count(), 2);
        }
    }

    #[test]
    fn hit_detection_accepts_equal_and_superset() {
        let (cat, idx) = chembl_small();
        let gts = chembl_ground_truths(&cat).unwrap();
        let gt_view = materialize_ground_truth(&cat, &idx, &gts[4], 2).unwrap();
        // Identity: the gt view hits itself.
        assert!(find_ground_truth_view(std::slice::from_ref(&gt_view), &gt_view).is_some());
        // A disjoint view misses.
        let other = materialize_ground_truth(&cat, &idx, &gts[3], 2).unwrap();
        assert!(find_ground_truth_view(std::slice::from_ref(&other), &gt_view).is_none());
    }

    #[test]
    fn workload_has_expected_shape() {
        let (cat, idx) = chembl_small();
        let gts: Vec<GroundTruth> = chembl_ground_truths(&cat)
            .unwrap()
            .into_iter()
            .map(|g| attach_noise_columns(&cat, &idx, g, 0.75))
            .collect();
        let wl = generate_workload(&cat, &gts, 5, 3, 42).unwrap();
        assert_eq!(
            wl.len(),
            5 * 3 * 5,
            "5 GT × 3 levels × 5 reps = 75 per corpus"
        );
        assert!(wl
            .iter()
            .all(|w| w.query.arity() == 2 && w.query.rows() == 3));
        // Deterministic.
        let wl2 = generate_workload(&cat, &gts, 5, 3, 42).unwrap();
        assert_eq!(wl[10].query, wl2[10].query);
    }
}
