//! Join graph → PJ plan → view, end to end through the production path:
//! `JoinGraph::column_edges` resolves a graph's edges, `PjPlan::from_edges`
//! linearises them by BFS from the base table (the first projected
//! column's table, each edge oriented so its `left` endpoint is already
//! materialised), and `ver_engine::dag::materialize_batch` executes the
//! plans over the shared sub-join DAG. Two tests compare the batch with
//! the reference executor (`ver_oracle`, a dev-dependency).

#[cfg(test)]
mod tests {
    use ver_common::budget::QueryBudget;
    use ver_common::error::Result;
    use ver_common::ids::{ColumnId, ColumnRef, TableId};
    use ver_common::pool::ThreadPool;
    use ver_common::value::Value;
    use ver_engine::dag::{materialize_batch, MaterializeStats};
    use ver_engine::plan::{JoinStep, PjPlan};
    use ver_engine::view::View;
    use ver_index::{build_index, DiscoveryIndex, IndexConfig, JoinGraph};
    use ver_oracle::execute_plan;
    use ver_store::catalog::TableCatalog;
    use ver_store::table::TableBuilder;

    /// airports(iata, state) ⟷ states(state, pop) ⟷ regions(state, region)
    fn setup() -> (TableCatalog, DiscoveryIndex) {
        let mut cat = TableCatalog::new();
        let states: Vec<String> = (0..30).map(|i| format!("st{i}")).collect();
        let mut b = TableBuilder::new("airports", &["iata", "state"]);
        for (i, s) in states.iter().enumerate() {
            b.push_row(vec![Value::text(format!("A{i}")), Value::text(s.clone())])
                .unwrap();
        }
        cat.add_table(b.build()).unwrap();
        let mut b = TableBuilder::new("states", &["state", "pop"]);
        for (i, s) in states.iter().enumerate() {
            b.push_row(vec![Value::text(s.clone()), Value::Int(1000 + i as i64)])
                .unwrap();
        }
        cat.add_table(b.build()).unwrap();
        let mut b = TableBuilder::new("regions", &["state", "region"]);
        for (i, s) in states.iter().enumerate() {
            b.push_row(vec![
                Value::text(s.clone()),
                Value::text(format!("R{}", i % 3)),
            ])
            .unwrap();
        }
        cat.add_table(b.build()).unwrap();
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

    fn cref(t: u32, o: u16) -> ColumnRef {
        ColumnRef {
            table: TableId(t),
            ordinal: o,
        }
    }

    /// One join graph through the production path: linearise, then a batch
    /// of one.
    fn materialize_one(
        cat: &TableCatalog,
        graph: &JoinGraph,
        projection: &[ColumnRef],
        join_score: f64,
    ) -> Result<View> {
        let plan = linearise(cat, graph, projection)?;
        let (mut views, _) = batch(cat, &[(plan, join_score)], 1);
        views.pop().expect("one candidate in, one result out")
    }

    /// One join graph to a plan: resolve its edges, then linearise.
    fn linearise(
        cat: &TableCatalog,
        graph: &JoinGraph,
        projection: &[ColumnRef],
    ) -> Result<PjPlan> {
        PjPlan::from_edges(&graph.column_edges(cat)?, projection)
    }

    fn batch(
        cat: &TableCatalog,
        plans: &[(PjPlan, f64)],
        threads: usize,
    ) -> (Vec<Result<View>>, MaterializeStats) {
        materialize_batch(cat, plans, ThreadPool::new(threads), &QueryBudget::none())
    }

    #[test]
    fn single_table_graph_materialises_projection() {
        let (cat, _) = setup();
        let graph = JoinGraph::default();
        let v = materialize_one(&cat, &graph, &[cref(0, 0), cref(0, 1)], 1.0).unwrap();
        assert_eq!(v.row_count(), 30);
        assert_eq!(v.attribute_names(), vec!["iata", "state"]);
    }

    #[test]
    fn one_hop_graph_joins_two_tables() {
        let (cat, idx) = setup();
        let graphs = idx.generate_join_graphs(&[TableId(0), TableId(1)], 2);
        assert!(!graphs.is_empty());
        let direct = graphs.iter().find(|g| g.hops() == 1).expect("direct join");
        let v = materialize_one(&cat, direct, &[cref(0, 0), cref(1, 1)], 0.9).unwrap();
        assert_eq!(v.row_count(), 30);
        assert_eq!(v.attribute_names(), vec!["iata", "pop"]);
        assert_eq!(v.provenance.join_score, 0.9);
    }

    #[test]
    fn projection_order_decides_base_table() {
        let (cat, idx) = setup();
        let graphs = idx.generate_join_graphs(&[TableId(0), TableId(1)], 2);
        let direct = graphs.iter().find(|g| g.hops() == 1).unwrap();
        // Projection starting from states → base = states.
        let plan = linearise(&cat, direct, &[cref(1, 1), cref(0, 0)]).unwrap();
        assert_eq!(plan.base, TableId(1));
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn two_hop_chain_linearises_correctly() {
        let (cat, idx) = setup();
        // airports—states—regions requires an intermediate hop
        // (airports.state joins regions.state directly too, but pick a
        // 2-hop graph through states if present).
        let graphs = idx.generate_join_graphs(&[TableId(0), TableId(2)], 2);
        assert!(!graphs.is_empty());
        let two_hop = graphs.iter().find(|g| g.hops() == 2);
        if let Some(g) = two_hop {
            let v = materialize_one(&cat, g, &[cref(0, 0), cref(2, 1)], 0.8).unwrap();
            assert_eq!(v.row_count(), 30);
            assert_eq!(v.provenance.hops(), 2);
        }
    }

    #[test]
    fn disconnected_graph_errors() {
        let (cat, idx) = setup();
        // Fabricate a graph whose edge does not touch the base table's tree.
        let graphs = idx.generate_join_graphs(&[TableId(1), TableId(2)], 2);
        let g = graphs.iter().find(|g| g.hops() == 1).unwrap();
        // Base from a projection on airports, but edges only link states—regions:
        // BFS can never attach the first edge.
        let err = linearise(&cat, g, &[cref(0, 0)]);
        assert!(err.is_err());
    }

    #[test]
    fn deduplication_happens_inside_views() {
        let (cat, idx) = setup();
        let graphs = idx.generate_join_graphs(&[TableId(0), TableId(2)], 2);
        let direct = graphs.iter().find(|g| g.hops() == 1).unwrap();
        // Project only the region column: 30 rows collapse to 3 regions.
        let v = materialize_one(&cat, direct, &[cref(2, 1)], 1.0).unwrap();
        assert_eq!(v.row_count(), 3);
    }

    #[test]
    fn empty_projection_is_invalid() {
        let (cat, _) = setup();
        assert!(linearise(&cat, &JoinGraph::default(), &[]).is_err());
    }

    #[test]
    fn column_ids_resolve_through_catalog() {
        let (cat, _) = setup();
        // ColumnId(3) = states.pop (airports has 2 columns).
        let cref = cat.column_ref(ColumnId(3)).unwrap();
        assert_eq!(cref.table, TableId(1));
        assert_eq!(cref.ordinal, 1);
    }

    /// All prefix-sharing shapes at once: the batch must return exactly
    /// what independent execution returns, while executing fewer steps.
    #[test]
    fn plan_batch_matches_independent_execution_and_shares_prefixes() {
        let (cat, _) = setup();
        let step_as = JoinStep {
            left: cref(0, 1),
            right: cref(1, 0),
        };
        let step_sr = JoinStep {
            left: cref(1, 0),
            right: cref(2, 0),
        };
        let step_ar = JoinStep {
            left: cref(0, 1),
            right: cref(2, 0),
        };
        let plans: Vec<(PjPlan, f64)> = vec![
            // Three candidates over the same 1-hop prefix...
            (
                PjPlan {
                    base: TableId(0),
                    joins: vec![step_as],
                    projection: vec![cref(0, 0), cref(1, 1)],
                },
                0.9,
            ),
            (
                PjPlan {
                    base: TableId(0),
                    joins: vec![step_as],
                    projection: vec![cref(0, 0), cref(1, 0)],
                },
                0.8,
            ),
            // ...one extending it by a second hop...
            (
                PjPlan {
                    base: TableId(0),
                    joins: vec![step_as, step_sr],
                    projection: vec![cref(0, 0), cref(2, 1)],
                },
                0.7,
            ),
            // ...one on a different prefix, and a projection-only plan.
            (
                PjPlan {
                    base: TableId(0),
                    joins: vec![step_ar],
                    projection: vec![cref(0, 0), cref(2, 1)],
                },
                0.6,
            ),
            (PjPlan::single(TableId(2), vec![cref(2, 1)]), 1.0),
        ];

        for threads in [1usize, 2, 0] {
            let (views, stats) = batch(&cat, &plans, threads);
            assert_eq!(views.len(), plans.len());
            for ((plan, score), view) in plans.iter().zip(&views) {
                let independent = execute_plan(&cat, plan, *score).unwrap();
                let batched = view.as_ref().expect("batch result");
                assert_eq!(batched.table, independent.table, "threads={threads}");
                assert_eq!(batched.provenance, independent.provenance);
            }
            assert_eq!(stats.candidates, 5);
            assert_eq!(stats.total_steps, 5, "1+1+2+1 joins");
            assert_eq!(stats.distinct_steps, 3, "as, as→sr, ar");
            assert_eq!(
                stats.shared_hits, 2,
                "second as-candidate and the two-hop prefix both reuse"
            );
            assert_eq!(stats.empty_pruned, 0);
        }
    }

    #[test]
    fn plan_batch_isolates_per_candidate_failures() {
        let (cat, _) = setup();
        let good = PjPlan::single(TableId(0), vec![cref(0, 0)]);
        let invalid = PjPlan::single(TableId(0), vec![]); // fails validate()
        let missing = PjPlan::single(TableId(42), vec![cref(42, 0)]); // no table
        let (views, stats) = batch(&cat, &[(good, 1.0), (invalid, 1.0), (missing, 1.0)], 1);
        assert!(views[0].is_ok());
        assert!(views[1].is_err());
        assert!(views[2].is_err());
        assert_eq!(stats.candidates, 3);
    }

    #[test]
    fn plan_batch_prunes_descendants_of_empty_prefixes() {
        let (mut cat, _) = setup();
        let mut b = TableBuilder::new("nomatch", &["state"]);
        b.push_row(vec!["Nowhere".into()]).unwrap();
        cat.add_table(b.build()).unwrap();
        // nomatch ⋈ states is empty; the second hop must be pruned, and the
        // resulting view is still the (empty) one independent execution
        // produces.
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
        let (views, stats) = batch(&cat, &[(plan.clone(), 0.5)], 1);
        let batched = views[0].as_ref().unwrap();
        let independent = execute_plan(&cat, &plan, 0.5).unwrap();
        assert_eq!(batched.table, independent.table);
        assert_eq!(batched.row_count(), 0);
        assert_eq!(stats.empty_pruned, 1, "second hop never probed");
    }
}
