//! The shared sub-join DAG against the reference executor: every test
//! here runs plans through `ver_engine::dag::materialize_batch` and
//! compares the views with [`execute_plan`](crate::exec::execute_plan)'s —
//! same rows in the same order (invariant 9).

#[cfg(test)]
mod tests {
    use crate::exec::execute_plan;
    use ver_common::budget::QueryBudget;
    use ver_common::ids::{ColumnRef, TableId};
    use ver_common::pool::ThreadPool;
    use ver_common::value::Value;
    use ver_engine::dag::{materialize_batch, MaterializeStats};
    use ver_engine::plan::{JoinStep, PjPlan};
    use ver_engine::view::View;
    use ver_store::catalog::TableCatalog;
    use ver_store::table::TableBuilder;

    fn cref(t: u32, o: u16) -> ColumnRef {
        ColumnRef {
            table: TableId(t),
            ordinal: o,
        }
    }

    /// Skewed many-to-many catalog: row order and build-side selection both
    /// matter. airports (6 rows) ⋈ states (2 rows) ⋈ regions (8 rows).
    fn catalog() -> TableCatalog {
        let mut cat = TableCatalog::new();
        let mut b = TableBuilder::new("airports", &["iata", "state"]);
        for (i, s) in [
            ("IND", "Indiana"),
            ("ATL", "Georgia"),
            ("SAV", "Georgia"),
            ("GRY", "Indiana"),
            ("XNA", "Arkansas"),
            ("MCN", "Georgia"),
        ] {
            b.push_row(vec![i.into(), s.into()]).unwrap();
        }
        cat.add_table(b.build()).unwrap();

        let mut b = TableBuilder::new("states", &["name", "pop"]);
        for (s, p) in [("Indiana", 6_800_000i64), ("Georgia", 10_700_000)] {
            b.push_row(vec![s.into(), Value::Int(p)]).unwrap();
        }
        cat.add_table(b.build()).unwrap();

        let mut b = TableBuilder::new("regions", &["state", "region"]);
        for (s, r) in [
            ("Indiana", "Midwest"),
            ("Georgia", "South"),
            ("Georgia", "Southeast"),
            ("Texas", "South"),
            ("Indiana", "Rust Belt"),
            ("Arkansas", "South"),
            ("Georgia", "Atlantic"),
            ("Indiana", "Central"),
        ] {
            b.push_row(vec![s.into(), r.into()]).unwrap();
        }
        cat.add_table(b.build()).unwrap();
        cat
    }

    fn chain_plan() -> PjPlan {
        PjPlan {
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
        }
    }

    /// `plans` as one batch on one thread, every plan expected to succeed.
    fn batch(
        cat: &TableCatalog,
        plans: &[&PjPlan],
        join_score: f64,
    ) -> (Vec<View>, MaterializeStats) {
        let plans: Vec<(PjPlan, f64)> = plans.iter().map(|&p| (p.clone(), join_score)).collect();
        let (views, stats) =
            materialize_batch(cat, &plans, ThreadPool::new(1), &QueryBudget::none());
        (views.into_iter().map(|v| v.unwrap()).collect(), stats)
    }

    /// `plan` alone, as a batch of one — the production path for a single
    /// view.
    fn execute_shared(cat: &TableCatalog, plan: &PjPlan, join_score: f64) -> View {
        batch(cat, &[plan], join_score).0.pop().unwrap()
    }

    /// The contract everything above relies on: the shared-kernel executor
    /// reproduces `execute_plan` *including row order* (Table is PartialEq
    /// over schema and cell values in order).
    #[test]
    fn shared_execution_is_bit_identical_to_execute_plan() {
        let cat = catalog();
        let plans = [
            PjPlan::single(TableId(0), vec![cref(0, 1), cref(0, 0)]),
            PjPlan {
                base: TableId(0),
                joins: vec![JoinStep {
                    left: cref(0, 1),
                    right: cref(1, 0),
                }],
                projection: vec![cref(0, 0), cref(1, 1)],
            },
            chain_plan(),
            // Star: both arms off the base; projection reordered + repeated.
            PjPlan {
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
                projection: vec![cref(2, 1), cref(0, 0), cref(2, 1)],
            },
            // Projection collapsing to few distinct rows exercises dedup
            // order sensitivity.
            PjPlan {
                base: TableId(0),
                joins: vec![JoinStep {
                    left: cref(0, 1),
                    right: cref(2, 0),
                }],
                projection: vec![cref(2, 1)],
            },
        ];
        for (i, plan) in plans.iter().enumerate() {
            let a = execute_plan(&cat, plan, 0.7).unwrap();
            let b = execute_shared(&cat, plan, 0.7);
            assert_eq!(a.row_count(), b.row_count(), "plan {i}: row counts differ");
            assert_eq!(a.schema(), b.schema(), "plan {i}: schemas differ");
            assert!(!b.table.is_gathered(), "plan {i}: gathered before any read");
            assert_eq!(a.table, b.table, "plan {i}: tables differ");
            assert_eq!(a.provenance, b.provenance, "plan {i}: provenance differs");
            assert_eq!(a.table.name(), b.table.name(), "plan {i}: name differs");
            // The dedup hashes the DAG hands the view are `H` of its rows:
            // what `execute_plan`'s hash-less view computes from the cells.
            assert_eq!(b.row_hashes(), a.row_hashes(), "plan {i}: row hashes");
            for (r, &h) in b.row_hashes().iter().enumerate() {
                assert_eq!(h, ver_engine::rowhash::hash_table_row(&b.table, r));
            }
        }
    }

    #[test]
    fn build_side_swap_still_matches_reference() {
        // Base smaller than attached table AND base larger than attached
        // table, same data — both sides of hash_join's build-side pivot.
        let cat = catalog();
        let small_base = PjPlan {
            base: TableId(1), // 2 rows, attaches 8-row regions
            joins: vec![JoinStep {
                left: cref(1, 0),
                right: cref(2, 0),
            }],
            projection: vec![cref(1, 1), cref(2, 1)],
        };
        let large_base = PjPlan {
            base: TableId(2), // 8 rows, attaches 2-row states
            joins: vec![JoinStep {
                left: cref(2, 0),
                right: cref(1, 0),
            }],
            projection: vec![cref(2, 1), cref(1, 1)],
        };
        for plan in [&small_base, &large_base] {
            let a = execute_plan(&cat, plan, 1.0).unwrap();
            let b = execute_shared(&cat, plan, 1.0);
            assert_eq!(a.table, b.table);
        }
    }

    #[test]
    fn null_and_typed_keys_match_reference() {
        let mut cat = TableCatalog::new();
        let mut b = TableBuilder::new("l", &["k", "x"]);
        b.push_row(vec![Value::Null, "a".into()]).unwrap();
        b.push_row(vec![Value::Int(1), "b".into()]).unwrap();
        b.push_row(vec![Value::text("1"), "c".into()]).unwrap();
        cat.add_table(b.build()).unwrap();
        let mut b = TableBuilder::new("r", &["k", "y"]);
        b.push_row(vec![Value::Int(1), "p".into()]).unwrap();
        b.push_row(vec![Value::Null, "q".into()]).unwrap();
        cat.add_table(b.build()).unwrap();
        let plan = PjPlan {
            base: TableId(0),
            joins: vec![JoinStep {
                left: cref(0, 0),
                right: cref(1, 0),
            }],
            projection: vec![cref(0, 1), cref(1, 1)],
        };
        let a = execute_plan(&cat, &plan, 1.0).unwrap();
        let b = execute_shared(&cat, &plan, 1.0);
        assert_eq!(a.table, b.table);
        assert_eq!(a.row_count(), 1, "only Int(1) keys join");
    }

    #[test]
    fn states_share_across_prefixes() {
        // Two plans sharing the one-hop prefix: computing the prefix once
        // and branching reproduces both independent executions.
        let cat = catalog();
        let plan_a = PjPlan {
            base: TableId(0),
            joins: vec![JoinStep {
                left: cref(0, 1),
                right: cref(1, 0),
            }],
            projection: vec![cref(0, 0), cref(1, 1)],
        };
        let plan_b = chain_plan();
        let (views, stats) = batch(&cat, &[&plan_a, &plan_b], 0.5);
        assert_eq!(stats.distinct_steps, 2, "the one-hop prefix executes once");
        assert_eq!(stats.shared_hits, 1);

        let independent = execute_plan(&cat, &plan_a, 0.5).unwrap();
        assert_eq!(views[0].table, independent.table);

        let independent = execute_plan(&cat, &plan_b, 0.5).unwrap();
        assert_eq!(views[1].table, independent.table);
    }

    #[test]
    fn empty_prefix_short_circuits_and_stays_identical() {
        let mut cat = catalog();
        let mut b = TableBuilder::new("nomatch", &["state"]);
        b.push_row(vec!["Nowhere".into()]).unwrap();
        cat.add_table(b.build()).unwrap();
        let plan = PjPlan {
            base: TableId(3),
            joins: vec![
                JoinStep {
                    left: cref(3, 0),
                    right: cref(1, 0),
                },
                JoinStep {
                    left: cref(1, 0),
                    right: cref(2, 0),
                },
            ],
            projection: vec![cref(3, 0), cref(2, 1)],
        };
        let (views, stats) = batch(&cat, &[&plan], 1.0);
        assert_eq!(
            stats.empty_pruned, 1,
            "the empty prefix short-circuits its child"
        );
        let a = execute_plan(&cat, &plan, 1.0).unwrap();
        assert_eq!(a.table, views[0].table);
        assert_eq!(a.row_count(), 0);
    }
}
