//! PJ-plan execution: chain hash joins, project, deduplicate.
//!
//! This is the MATERIALIZE-VIEWS step of Algorithm 5. The executor keeps a
//! map from source table to its column offset inside the growing
//! intermediate, so join keys and projections written against original
//! [`ColumnRef`](ver_common::ids::ColumnRef)s resolve at any point of the chain.

use crate::dedup::dedup_rows;
use crate::join::hash_join;
use crate::project::project;
use ver_common::error::{Result, VerError};
use ver_common::fxhash::FxHashMap;
use ver_common::ids::{TableId, ViewId};
use ver_engine::plan::{JoinStep, PjPlan};
use ver_engine::view::{Provenance, View};
use ver_store::catalog::TableCatalog;
use ver_store::table::Table;

/// Execute `plan` against `catalog`, producing a deduplicated view.
///
/// The returned view has `ViewId::default()`; the search stage assigns the
/// real id. `join_score` is carried into the provenance.
pub fn execute_plan(catalog: &TableCatalog, plan: &PjPlan, join_score: f64) -> Result<View> {
    plan.validate()?;

    let base = catalog.table(plan.base)?;
    let mut acc: Table = base.clone();
    // table id → offset of its first column in `acc`.
    let mut offsets: FxHashMap<TableId, usize> = FxHashMap::default();
    offsets.insert(plan.base, 0);

    for step in &plan.joins {
        let left_offset = *offsets.get(&step.left.table).ok_or_else(|| {
            VerError::JoinError(format!(
                "table {} missing from intermediate",
                step.left.table
            ))
        })?;
        let left_ordinal = left_offset + step.left.ordinal as usize;
        let right_table = catalog.table(step.right.table)?;
        let width_before = acc.column_count();
        acc = hash_join(&acc, left_ordinal, right_table, step.right.ordinal as usize)?;
        offsets.insert(step.right.table, width_before);
    }

    let ordinals: Vec<usize> = plan
        .projection
        .iter()
        .map(|p| {
            offsets
                .get(&p.table)
                .map(|off| off + p.ordinal as usize)
                .ok_or_else(|| {
                    VerError::JoinError(format!("projected table {} not in plan", p.table))
                })
        })
        .collect::<Result<_>>()?;

    let projected = project(&acc, &ordinals)?;
    let deduped = dedup_rows(&projected);

    Ok(View::new(
        ViewId::default(),
        deduped,
        Provenance {
            join_edges: plan.joins.iter().map(|j| (j.left, j.right)).collect(),
            source_tables: plan.tables(),
            projection: plan.projection.clone(),
            join_score,
        },
    ))
}

/// Re-derive a view from the plan its `provenance` records (base table,
/// join steps in execution order, projection, score) through
/// [`execute_plan`]. This is invariant 9's oracle: a view the shared
/// sub-join DAG materialized must equal its re-execution here — same
/// table, same provenance.
pub fn reexecute(catalog: &TableCatalog, provenance: &Provenance) -> Result<View> {
    let base = *provenance
        .source_tables
        .first()
        .ok_or_else(|| VerError::InvalidData("provenance names no source table".into()))?;
    let plan = PjPlan {
        base,
        joins: provenance
            .join_edges
            .iter()
            .map(|&(left, right)| JoinStep { left, right })
            .collect(),
        projection: provenance.projection.clone(),
    };
    execute_plan(catalog, &plan, provenance.join_score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ver_common::ids::ColumnRef;
    use ver_common::value::Value;
    use ver_store::table::TableBuilder;

    fn cref(t: u32, o: u16) -> ColumnRef {
        ColumnRef {
            table: TableId(t),
            ordinal: o,
        }
    }

    /// airports(iata, state) ⋈ states(name, pop) ⋈ regions(state, region)
    fn catalog() -> TableCatalog {
        let mut cat = TableCatalog::new();
        let mut b = TableBuilder::new("airports", &["iata", "state"]);
        for (i, s) in [("IND", "Indiana"), ("ATL", "Georgia"), ("SAV", "Georgia")] {
            b.push_row(vec![i.into(), s.into()]).unwrap();
        }
        cat.add_table(b.build()).unwrap();

        let mut b = TableBuilder::new("states", &["name", "pop"]);
        for (s, p) in [("Indiana", 6_800_000i64), ("Georgia", 10_700_000)] {
            b.push_row(vec![s.into(), Value::Int(p)]).unwrap();
        }
        cat.add_table(b.build()).unwrap();

        let mut b = TableBuilder::new("regions", &["state", "region"]);
        for (s, r) in [("Indiana", "Midwest"), ("Georgia", "South")] {
            b.push_row(vec![s.into(), r.into()]).unwrap();
        }
        cat.add_table(b.build()).unwrap();
        cat
    }

    #[test]
    fn single_table_projection() {
        let cat = catalog();
        let plan = PjPlan::single(TableId(0), vec![cref(0, 0)]);
        let v = execute_plan(&cat, &plan, 1.0).unwrap();
        assert_eq!(v.row_count(), 3);
        assert_eq!(v.attribute_names(), vec!["iata"]);
    }

    #[test]
    fn two_hop_chain_joins_and_projects() {
        let cat = catalog();
        let plan = PjPlan {
            base: TableId(0),
            joins: vec![
                JoinStep {
                    left: cref(0, 1),
                    right: cref(1, 0),
                },
                JoinStep {
                    left: cref(1, 0),
                    right: cref(2, 0),
                },
            ],
            projection: vec![cref(0, 0), cref(1, 1), cref(2, 1)],
        };
        let v = execute_plan(&cat, &plan, 0.5).unwrap();
        assert_eq!(v.row_count(), 3);
        assert_eq!(v.attribute_names(), vec!["iata", "pop", "region"]);
        assert_eq!(v.provenance.hops(), 2);
        assert_eq!(v.provenance.join_score, 0.5);
        // Georgia appears twice (ATL, SAV) with the same pop/region.
        let regions: Vec<String> = (0..v.row_count())
            .map(|r| v.table.cell(r, 2).unwrap().to_string())
            .collect();
        assert_eq!(regions.iter().filter(|r| *r == "South").count(), 2);
    }

    #[test]
    fn provenance_records_the_whole_plan() {
        // Bushy plan, reordered projection: re-executing the provenance
        // reproduces table and provenance exactly.
        let cat = catalog();
        let plan = PjPlan {
            base: TableId(0),
            joins: vec![
                JoinStep {
                    left: cref(0, 1),
                    right: cref(1, 0),
                },
                JoinStep {
                    left: cref(0, 1),
                    right: cref(2, 0),
                },
            ],
            projection: vec![cref(2, 1), cref(0, 0), cref(1, 1)],
        };
        let v = execute_plan(&cat, &plan, 0.25).unwrap();
        let again = reexecute(&cat, &v.provenance).unwrap();
        assert_eq!((&again.table, &again.provenance), (&v.table, &v.provenance));
        // A provenance that names no base table cannot be a plan.
        assert!(reexecute(&cat, &Provenance::default()).is_err());
    }

    #[test]
    fn projection_dedups_row_sets() {
        // Project only state-level attributes: duplicates collapse.
        let cat = catalog();
        let plan = PjPlan {
            base: TableId(0),
            joins: vec![JoinStep {
                left: cref(0, 1),
                right: cref(1, 0),
            }],
            projection: vec![cref(1, 0), cref(1, 1)],
        };
        let v = execute_plan(&cat, &plan, 1.0).unwrap();
        assert_eq!(
            v.row_count(),
            2,
            "ATL and SAV rows collapse after projection"
        );
    }

    #[test]
    fn star_plan_joins_both_arms_onto_base() {
        let cat = catalog();
        let plan = PjPlan {
            base: TableId(0),
            joins: vec![
                JoinStep {
                    left: cref(0, 1),
                    right: cref(1, 0),
                },
                JoinStep {
                    left: cref(0, 1),
                    right: cref(2, 0),
                },
            ],
            projection: vec![cref(0, 0), cref(2, 1)],
        };
        let v = execute_plan(&cat, &plan, 1.0).unwrap();
        assert_eq!(v.row_count(), 3);
    }

    #[test]
    fn invalid_plan_is_rejected_before_execution() {
        let cat = catalog();
        let plan = PjPlan::single(TableId(0), vec![]);
        assert!(execute_plan(&cat, &plan, 1.0).is_err());
    }

    #[test]
    fn missing_table_errors() {
        let cat = catalog();
        let plan = PjPlan::single(TableId(42), vec![cref(42, 0)]);
        assert!(execute_plan(&cat, &plan, 1.0).is_err());
    }
}
