//! Project-join plans: a linearised join tree plus a projection list.
//!
//! A *join graph* from the discovery engine is a tree over tables whose
//! edges are inclusion-dependency column pairs. The search stage linearises
//! it into a [`PjPlan`]: a base table and a sequence of [`JoinStep`]s, each
//! attaching one new table to the partial result by an equi-join. The plan
//! validates its own shape (each step's left table already present, right
//! table new) before execution.

use serde::{Deserialize, Serialize};
use ver_common::error::{Result, VerError};
use ver_common::ids::{ColumnRef, TableId};

/// One join step: `left` is a column of a table already in the plan,
/// `right` a column of the newly attached table.
///
/// `Hash` because an oriented step doubles as a node key in the shared
/// sub-join DAG (`ver_search::materialize::materialize_batch`) and as part
/// of the plan-derived view-cache key (`ver_search::cache::ViewKey`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct JoinStep {
    /// Join column on the accumulated side.
    pub left: ColumnRef,
    /// Join column on the newly attached table.
    pub right: ColumnRef,
}

/// A project-join plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PjPlan {
    /// The first table of the chain.
    pub base: TableId,
    /// Join steps in execution order.
    pub joins: Vec<JoinStep>,
    /// Output columns (qualified by original table).
    pub projection: Vec<ColumnRef>,
}

impl PjPlan {
    /// Single-table plan (projection only).
    pub fn single(base: TableId, projection: Vec<ColumnRef>) -> Self {
        PjPlan {
            base,
            joins: Vec::new(),
            projection,
        }
    }

    /// All tables touched by the plan, base first, in join order.
    pub fn tables(&self) -> Vec<TableId> {
        let mut out = Vec::with_capacity(1 + self.joins.len());
        out.push(self.base);
        out.extend(self.joins.iter().map(|j| j.right.table));
        out
    }

    /// Validate the chain shape:
    /// * every step's `left` table is already in the plan,
    /// * every step's `right` table is new (no self-joins / cycles),
    /// * every projected column's table is in the plan.
    pub fn validate(&self) -> Result<()> {
        let mut present = vec![self.base];
        for (i, step) in self.joins.iter().enumerate() {
            if !present.contains(&step.left.table) {
                return Err(VerError::JoinError(format!(
                    "step {i}: left table {} not yet joined",
                    step.left.table
                )));
            }
            if present.contains(&step.right.table) {
                return Err(VerError::JoinError(format!(
                    "step {i}: right table {} already in plan (cycles/self-joins unsupported)",
                    step.right.table
                )));
            }
            present.push(step.right.table);
        }
        if self.projection.is_empty() {
            return Err(VerError::InvalidQuery("empty projection".into()));
        }
        for p in &self.projection {
            if !present.contains(&p.table) {
                return Err(VerError::JoinError(format!(
                    "projected column {p} references a table outside the plan"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cref(t: u32, o: u16) -> ColumnRef {
        ColumnRef {
            table: TableId(t),
            ordinal: o,
        }
    }

    #[test]
    fn valid_chain_passes() {
        let plan = PjPlan {
            base: TableId(0),
            joins: vec![
                JoinStep {
                    left: cref(0, 1),
                    right: cref(1, 0),
                },
                JoinStep {
                    left: cref(1, 2),
                    right: cref(2, 0),
                },
            ],
            projection: vec![cref(0, 0), cref(2, 1)],
        };
        assert!(plan.validate().is_ok());
        assert_eq!(plan.tables(), vec![TableId(0), TableId(1), TableId(2)]);
    }

    #[test]
    fn left_table_must_be_present() {
        let plan = PjPlan {
            base: TableId(0),
            joins: vec![JoinStep {
                left: cref(5, 0),
                right: cref(1, 0),
            }],
            projection: vec![cref(0, 0)],
        };
        assert!(plan.validate().is_err());
    }

    #[test]
    fn right_table_must_be_new() {
        let plan = PjPlan {
            base: TableId(0),
            joins: vec![JoinStep {
                left: cref(0, 0),
                right: cref(0, 1),
            }],
            projection: vec![cref(0, 0)],
        };
        assert!(plan.validate().is_err());
    }

    #[test]
    fn projection_tables_must_be_in_plan() {
        let plan = PjPlan::single(TableId(0), vec![cref(3, 0)]);
        assert!(plan.validate().is_err());
    }

    #[test]
    fn empty_projection_rejected() {
        let plan = PjPlan::single(TableId(0), vec![]);
        assert!(plan.validate().is_err());
    }

    #[test]
    fn bushy_tree_linearises() {
        // star: 1 and 2 both join onto 0.
        let plan = PjPlan {
            base: TableId(0),
            joins: vec![
                JoinStep {
                    left: cref(0, 1),
                    right: cref(1, 0),
                },
                JoinStep {
                    left: cref(0, 2),
                    right: cref(2, 0),
                },
            ],
            projection: vec![cref(1, 1), cref(2, 1)],
        };
        assert!(plan.validate().is_ok());
    }
}
