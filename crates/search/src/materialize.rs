//! Join graph → PJ plan → materialized view (MATERIALIZE-VIEWS), batched
//! over a shared sub-join DAG.
//!
//! A join graph is a *tree* over tables; the executor wants a *chain* of
//! join steps. [`plan_from_join_graph`] linearises by BFS from the base
//! table (the first projected column's table), orienting each edge so
//! `left` is already materialised.
//!
//! The top-k candidates of one query share join prefixes — Algorithm 5
//! enumerates combinations over the same join paths. [`materialize_batch`]
//! folds every plan's oriented step sequence into a prefix trie (the
//! shared sub-join DAG) whose roots are the base tables, executes each
//! distinct step **once** on [`JoinState`] row-index intermediates, and
//! projects each candidate to the source rows that survive dedup — no cell
//! is copied here; a view gathers its own on first read
//! (`ver_engine::view`). Candidates whose shared prefix matched nothing
//! are pruned without executing their remaining steps.
//!
//! How much is shared depends on the query: a step is shared when
//! candidates start with the same oriented column edge off the same base.
//! Over the 30 pinned `wdc120` specs (ρ = 2, no caches) the DAG answers
//! 23 829 of 108 644 join steps (21.9 %) from a shared prefix — 41–43 % on
//! every WDC-Q3 spec, 26 % on WDC-Q5, none on Q1, Q2 and Q4. The golden
//! workload shares 20.8 %, `chembl70` 17 %, open data at 25 % 49 %, and
//! ρ = 3 44–48 %. [`MaterializeStats`] reports the counters per query;
//! `crates/bench/src/golden.rs` pins them for the golden workload.
//!
//! Output is **bit-identical** to materialising every candidate
//! independently through [`execute_plan`](ver_engine::exec::execute_plan)
//! — same rows in the same order, same names, same provenance (the
//! `ver_engine::dag` module documents why). `execute_plan` stays in the
//! tree as the reference implementation;
//! `crates/search/tests/materialize_equivalence.rs` plus the repo-root
//! determinism suite pin the equivalence (invariant 9).

use std::sync::Arc;
use ver_common::budget::QueryBudget;
use ver_common::error::{Result, VerError};
use ver_common::fxhash::FxHashMap;
use ver_common::ids::{ColumnRef, TableId};
use ver_common::pool::ThreadPool;
use ver_engine::dag::{materialize_state, ColumnHashes, JoinState};
use ver_engine::plan::{JoinStep, PjPlan};
use ver_engine::view::View;
use ver_index::JoinGraph;
use ver_store::catalog::TableCatalog;

/// Build a [`PjPlan`] for `graph` projecting `projection`.
///
/// The base table is the first projected column's table; edges are consumed
/// BFS-style, each oriented so its `left` endpoint is already in the plan.
/// Errors when the graph is not a connected tree over the base.
pub fn plan_from_join_graph(
    catalog: &TableCatalog,
    graph: &JoinGraph,
    projection: &[ColumnRef],
) -> Result<PjPlan> {
    let base = projection
        .first()
        .ok_or_else(|| VerError::InvalidQuery("empty projection".into()))?
        .table;
    if graph.edges.is_empty() {
        return Ok(PjPlan::single(base, projection.to_vec()));
    }

    // Resolve edges to (table, cref) endpoints once.
    struct Edge {
        a_table: TableId,
        a: ColumnRef,
        b_table: TableId,
        b: ColumnRef,
    }
    let edges: Vec<Edge> = graph
        .edges
        .iter()
        .map(|e| -> Result<Edge> {
            let a = catalog.column_ref(e.left)?;
            let b = catalog.column_ref(e.right)?;
            Ok(Edge {
                a_table: a.table,
                a,
                b_table: b.table,
                b,
            })
        })
        .collect::<Result<_>>()?;

    // BFS from base, consuming one edge per step.
    let mut joins = Vec::with_capacity(edges.len());
    let mut present = vec![base];
    let mut remaining: Vec<&Edge> = edges.iter().collect();
    while !remaining.is_empty() {
        let pos = remaining
            .iter()
            .position(|e| present.contains(&e.a_table) != present.contains(&e.b_table));
        match pos {
            Some(i) => {
                let e = remaining.remove(i);
                let (left, right, new_table) = if present.contains(&e.a_table) {
                    (e.a, e.b, e.b_table)
                } else {
                    (e.b, e.a, e.a_table)
                };
                joins.push(JoinStep { left, right });
                present.push(new_table);
            }
            None => {
                return Err(VerError::JoinError(
                    "join graph is not a connected tree over the base table".into(),
                ));
            }
        }
    }

    Ok(PjPlan {
        base,
        joins,
        projection: projection.to_vec(),
    })
}

/// Counters from one [`materialize_batch`] call — how much join work the
/// shared sub-join DAG saved. Reported per query in
/// [`SearchOutput::dag`](crate::search::SearchOutput); the repo benchmark
/// reads them as `engine.dag_distinct_steps` / `engine.dag_shared_ratio`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaterializeStats {
    /// Candidate plans executed by the batch (cache hits never reach it).
    pub candidates: usize,
    /// Join steps summed over all candidate plans — what the independent
    /// path would execute.
    pub total_steps: usize,
    /// Distinct DAG nodes (unique oriented step prefixes) — what the
    /// batch actually executed.
    pub distinct_steps: usize,
    /// Steps served by a shared prefix instead of re-executed
    /// (`total_steps − distinct_steps`).
    pub shared_hits: usize,
    /// DAG nodes short-circuited because their parent prefix was already
    /// empty — joins that were never probed at all.
    pub empty_pruned: usize,
}

impl MaterializeStats {
    /// Merge counters from another batch (bench aggregation across queries).
    pub fn accumulate(&mut self, other: MaterializeStats) {
        self.candidates += other.candidates;
        self.total_steps += other.total_steps;
        self.distinct_steps += other.distinct_steps;
        self.shared_hits += other.shared_hits;
        self.empty_pruned += other.empty_pruned;
    }
}

/// What one DAG node computes: a root is the identity state over a base
/// table, every other node one distinct oriented step applied to its
/// parent node's state.
enum Node {
    Root(TableId),
    Step(usize, JoinStep),
}

/// Execute a batch of `(plan, join_score)` candidates over the shared
/// sub-join DAG.
///
/// Each distinct oriented step prefix is executed once as a
/// [`JoinState`]; every plan sharing it reuses the row-index arrays.
/// Prefixes that matched nothing prune all their descendants. Results
/// come back in input order, each bit-identical to what
/// [`execute_plan`](ver_engine::exec::execute_plan) would produce for
/// that plan alone; per-plan failures surface as that plan's `Err`
/// without affecting the rest of the batch.
///
/// Node execution fans out level-by-level on `pool` (order-preserving,
/// pure per-node work), so the output is identical for every thread
/// count. The cooperative deadline is checked at every join node (the
/// per-edge stage boundary) and every final projection. A node that trips
/// returns `Err(VerError::DeadlineExceeded)`, which propagates to every
/// candidate whose plan depends on it — candidates whose chains completed
/// earlier still come back `Ok`, which is what lets the search path return
/// partial results. A panic inside node execution or projection is
/// likewise confined to the affected candidates as
/// `Err(VerError::Internal)`. With an unlimited budget and no injected
/// faults the checks are a no-op.
pub fn materialize_batch(
    catalog: &TableCatalog,
    candidates: &[(PjPlan, f64)],
    pool: ThreadPool,
    budget: &QueryBudget,
) -> (Vec<Result<View>>, MaterializeStats) {
    let mut stats = MaterializeStats {
        candidates: candidates.len(),
        ..Default::default()
    };

    // Build the DAG: a trie over (base table, oriented step sequence) in one
    // node table, roots included. Sequential over candidates in input
    // (rank) order, so node ids and level membership are deterministic.
    // Trie edges are per-node lists of (step, child id): fan-out per prefix
    // is tiny, so a linear scan of the parent's own list beats hashing into
    // one global map — this walk runs once per step of every candidate.
    // Every key and projection column is hashed here, before anything runs.
    let mut nodes: Vec<Node> = Vec::new();
    let mut children: Vec<Vec<(JoinStep, usize)>> = Vec::new();
    let mut levels: Vec<Vec<usize>> = vec![Vec::new()];
    let mut roots: FxHashMap<TableId, usize> = FxHashMap::default();
    let mut hashes = ColumnHashes::new();
    let leaves: Vec<Result<usize>> = candidates
        .iter()
        .map(|(plan, _)| {
            plan.validate()?;
            hashes.ensure(catalog, plan);
            stats.total_steps += plan.joins.len();
            let mut at = *roots.entry(plan.base).or_insert_with(|| {
                nodes.push(Node::Root(plan.base));
                children.push(Vec::new());
                levels[0].push(nodes.len() - 1);
                nodes.len() - 1
            });
            for (depth, &step) in plan.joins.iter().enumerate() {
                at = match children[at].iter().find(|&&(s, _)| s == step) {
                    Some(&(_, id)) => id,
                    None => {
                        let id = nodes.len();
                        children[at].push((step, id));
                        nodes.push(Node::Step(at, step));
                        children.push(Vec::new());
                        if levels.len() == depth + 1 {
                            levels.push(Vec::new());
                        }
                        levels[depth + 1].push(id);
                        id
                    }
                };
            }
            Ok(at)
        })
        .collect();
    stats.distinct_steps = nodes.len() - roots.len();
    stats.shared_hits = stats.total_steps - stats.distinct_steps;

    // Execute one level at a time, roots first. Each level's nodes depend
    // only on completed states, so they fan out on the pool; `try_par_map`
    // is order-preserving and every node is a pure function of its parent,
    // so results are thread-count independent, and an injected (or
    // genuine) panic in one node degrades to that node's
    // `Err(VerError::Internal)` instead of unwinding the query. The
    // cooperative deadline and the `dag.step` fault point sit at the same
    // per-edge boundary: join nodes, never roots.
    let mut states: Vec<Option<Result<JoinState>>> = (0..nodes.len()).map(|_| None).collect();
    for level in &levels {
        let computed = pool.try_par_map(level, |&id| {
            let (parent, step) = match nodes[id] {
                Node::Root(table) => return Ok((JoinState::base(catalog, table), false)),
                Node::Step(parent, step) => (parent, step),
            };
            ver_common::fault::hit(ver_common::fault::points::DAG_STEP)?;
            budget.check("dag.step")?;
            Ok(
                match states[parent].as_ref().expect("parent level completed") {
                    Err(e) => (Err(e.clone()), false),
                    Ok(prefix) => (prefix.step(catalog, step, &hashes), prefix.is_empty()),
                },
            )
        });
        for (&id, node) in level.iter().zip(computed) {
            let (state, pruned) = node.unwrap_or_else(|e| (Err(e), false));
            states[id] = Some(state);
            stats.empty_pruned += usize::from(pruned);
        }
    }

    // Chain each leaf's `a⋈b⋈c` view name once; every candidate projecting
    // that leaf shares the `Arc<str>` instead of re-walking the catalog.
    let mut names: Vec<Option<Result<Arc<str>>>> = vec![None; nodes.len()];
    for &id in leaves.iter().flatten() {
        if let (None, Some(Ok(state))) = (&names[id], &states[id]) {
            names[id] = Some(state.joined_name(catalog));
        }
    }
    // Project every candidate off its leaf state (order-preserving fan-out;
    // dedup over row indices is the only per-candidate work left).
    let idx: Vec<usize> = (0..candidates.len()).collect();
    let views = pool.try_par_map(&idx, |&i| {
        budget.check("dag.project")?;
        let id = leaves[i].clone()?;
        let state = states[id].as_ref().expect("leaf level completed");
        let state = state.as_ref().map_err(VerError::clone)?;
        let name = names[id].clone().expect("an executed leaf is named")?;
        let (plan, score) = &candidates[i];
        materialize_state(catalog, state, plan, *score, &hashes, name)
    });
    (views, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ver_common::ids::ColumnId;
    use ver_common::value::Value;
    use ver_engine::exec::execute_plan;
    use ver_index::{build_index, DiscoveryIndex, IndexConfig};
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
        let plan = plan_from_join_graph(cat, graph, projection)?;
        let (mut views, _) = batch(cat, &[(plan, join_score)], 1);
        views.pop().expect("one candidate in, one result out")
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
        let plan = plan_from_join_graph(&cat, direct, &[cref(1, 1), cref(0, 0)]).unwrap();
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
        let err = plan_from_join_graph(&cat, g, &[cref(0, 0)]);
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
        assert!(plan_from_join_graph(&cat, &JoinGraph::default(), &[]).is_err());
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
