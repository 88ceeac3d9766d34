//! The one pinned input tier (`wdc120`) and the reference answers.
//!
//! Corpus size and corpus seed are frozen; `--seed` changes only which
//! example rows the 30 QBE specs carry. Everything here is harness work
//! and is excluded from every metric.

use std::sync::Arc;
use ver_common::error::Result;
use ver_core::{Ver, VerConfig};
use ver_datagen::wdc::{generate_wdc, WdcConfig};
use ver_datagen::workload::{
    find_ground_truth_view, generate_workload, materialize_ground_truth, wdc_ground_truths,
};
use ver_engine::view::View;
use ver_index::build_index;
use ver_qbe::ViewSpec;
use ver_serve::net::WireResult;
use ver_store::catalog::TableCatalog;

pub const TIER: &str = "wdc120";
const N_TABLES: usize = 120;
/// Queries per ground truth per noise level: 5 × 3 × 2 = 30 specs.
const PER_GT: usize = 2;
const EXAMPLE_ROWS: usize = 3;

/// Every product thread count is pinned to 1: with the one closed-loop
/// client that leaves at most two runnable threads on a two-thread box.
pub fn pipeline_config() -> VerConfig {
    VerConfig::default().with_threads(1)
}

pub struct Inputs {
    pub catalog: Arc<TableCatalog>,
    pub specs: Vec<ViewSpec>,
    /// In-process pipeline over an index built in this process — the
    /// answer every workload's path must reproduce.
    reference: Ver,
    /// Ground-truth view of each spec.
    gt_views: Vec<Arc<View>>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Result<Inputs> {
        let catalog = Arc::new(generate_wdc(&WdcConfig {
            n_tables: N_TABLES,
            ..WdcConfig::default()
        })?);
        let gts = wdc_ground_truths(&catalog)?;
        let workload = generate_workload(&catalog, &gts, PER_GT, EXAMPLE_ROWS, seed)?;
        let config = pipeline_config();
        let index = Arc::new(build_index(&catalog, config.index.clone())?);
        let mut by_gt = Vec::with_capacity(gts.len());
        for gt in &gts {
            let view = materialize_ground_truth(&catalog, &index, gt, config.search.rho)?;
            by_gt.push((gt.name.clone(), Arc::new(view)));
        }
        let gt_views = workload
            .iter()
            .map(|w| {
                let (_, view) = by_gt
                    .iter()
                    .find(|(name, _)| *name == w.gt.name)
                    .expect("workload entries come from the listed ground truths");
                Arc::clone(view)
            })
            .collect();
        Ok(Inputs {
            specs: workload
                .into_iter()
                .map(|w| ViewSpec::Qbe(w.query))
                .collect(),
            reference: Ver::from_parts(Arc::clone(&catalog), index, config)?,
            catalog,
            gt_views,
        })
    }

    /// The in-process `Ver::run` answer to spec `i` in wire form, and
    /// whether it contains the spec's ground-truth view. Computed on
    /// demand and dropped by the caller, so reference results never sit in
    /// the measured process's peak memory.
    pub fn reference_answer(&self, i: usize) -> Result<(WireResult, bool)> {
        let result = self.reference.run(&self.specs[i])?;
        let hit = find_ground_truth_view(&result.views, &self.gt_views[i]).is_some();
        Ok((WireResult::from_query_result(&result), hit))
    }
}
