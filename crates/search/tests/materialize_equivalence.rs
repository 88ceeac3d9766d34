//! Property tests for invariant 9: the shared sub-join DAG executor is
//! bit-identical to independent per-candidate execution.
//!
//! Two levels, both over randomly generated catalogs:
//!
//! * **Planner level** — random batches of valid [`PjPlan`]s (overlapping
//!   prefixes, empty joins, projection-only plans) run through
//!   [`materialize_batch`] must reproduce
//!   [`execute_plan`]'s per-candidate output *exactly* — same rows in the
//!   same order, same schema, same provenance — for every thread count.
//! * **Search level** — every ranked view [`SearchContext::search`]
//!   returns must equal its own plan re-executed through the reference
//!   executor ([`reexecute`]), and the views it drops as empty must be
//!   exactly the ones the reference finds empty — for random queries,
//!   top-k cuts, and thread counts.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use ver_common::budget::QueryBudget;
use ver_common::ids::{ColumnRef, TableId};
use ver_common::pool::ThreadPool;
use ver_common::value::Value;
use ver_engine::exec::{execute_plan, reexecute};
use ver_engine::plan::{JoinStep, PjPlan};
use ver_index::{build_index, DiscoveryIndex, IndexConfig};
use ver_qbe::query::{ExampleQuery, QueryColumn};
use ver_search::{materialize_batch, SearchConfig, SearchContext};
use ver_select::{column_selection, SelectionConfig};
use ver_store::catalog::TableCatalog;
use ver_store::table::TableBuilder;

fn cref(t: u32, o: u16) -> ColumnRef {
    ColumnRef {
        table: TableId(t),
        ordinal: o,
    }
}

/// Random joinable corpus: `n_tables` two-column tables ("k", "v") whose
/// keys draw from a small shared domain. A random per-table domain offset
/// makes some pairs overlap fully, some partially, and some not at all, so
/// generated joins exercise matching, skew (duplicate keys on both sides),
/// and empty intermediates.
fn random_catalog(seed: u64, n_tables: usize) -> TableCatalog {
    let mut rng = StdRng::seed_from_u64(seed);
    let domain = rng.gen_range(3..8usize);
    let mut cat = TableCatalog::new();
    for t in 0..n_tables {
        let offset = rng.gen_range(0..3usize) * (domain / 2);
        let rows = rng.gen_range(6..30usize);
        let mut b = TableBuilder::new(format!("t{t}"), &["k", "v"]);
        for _ in 0..rows {
            let k = offset + rng.gen_range(0..domain);
            let v = rng.gen_range(0..5i64);
            b.push_row(vec![Value::text(format!("k{k}")), Value::Int(v)])
                .unwrap();
        }
        cat.add_table(b.build()).unwrap();
    }
    cat
}

/// Random batch of plans guaranteed to pass `PjPlan::validate`: each plan
/// grows a join tree over distinct tables (every step's left table already
/// joined, right table new) and projects 1-3 in-plan columns. Small table
/// counts make prefix collisions — the DAG's sharing opportunity — common.
fn random_plans(seed: u64, n_tables: usize, n_plans: usize) -> Vec<(PjPlan, f64)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let mut plans = Vec::with_capacity(n_plans);
    for _ in 0..n_plans {
        let base = rng.gen_range(0..n_tables as u32);
        let mut visited = vec![base];
        let mut joins = Vec::new();
        for _ in 0..rng.gen_range(0..3usize) {
            if visited.len() == n_tables {
                break;
            }
            let left = visited[rng.gen_range(0..visited.len())];
            let right = loop {
                let r = rng.gen_range(0..n_tables as u32);
                if !visited.contains(&r) {
                    break r;
                }
            };
            visited.push(right);
            joins.push(JoinStep {
                left: cref(left, 0),
                right: cref(right, 0),
            });
        }
        let projection = (0..rng.gen_range(1..4usize))
            .map(|_| {
                let t = visited[rng.gen_range(0..visited.len())];
                cref(t, rng.gen_range(0..2u16))
            })
            .collect();
        let score = rng.gen_range(0.0..1.0f64);
        plans.push((
            PjPlan {
                base: TableId(base),
                joins,
                projection,
            },
            score,
        ));
    }
    plans
}

fn index_for(cat: &TableCatalog) -> DiscoveryIndex {
    build_index(
        cat,
        IndexConfig {
            threads: 1,
            verify_exact: true,
            ..Default::default()
        },
    )
    .expect("index build")
}

// Planner level: batched DAG execution ≡ independent execution,
// table-exact (rows AND row order), for every thread count.
proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn plan_batch_reproduces_independent_execution(
        seed in 0u64..1_000_000,
        n_tables in 3usize..6,
        n_plans in 1usize..8,
    ) {
        let cat = random_catalog(seed, n_tables);
        let plans = random_plans(seed, n_tables, n_plans);
        for threads in [1usize, 2, 0] {
            let (views, stats) =
                materialize_batch(&cat, &plans, ThreadPool::new(threads), &QueryBudget::none());
            prop_assert_eq!(views.len(), plans.len());
            prop_assert_eq!(stats.candidates, plans.len());
            prop_assert_eq!(stats.shared_hits, stats.total_steps - stats.distinct_steps);
            for ((plan, score), batched) in plans.iter().zip(&views) {
                let independent = execute_plan(&cat, plan, *score).expect("valid plan");
                let batched = batched.as_ref().expect("batch result");
                prop_assert_eq!(
                    &batched.table, &independent.table,
                    "threads={}: batched rows/order/schema differ", threads
                );
                prop_assert_eq!(&batched.provenance, &independent.provenance);
            }
        }
    }
}

// Search level: production search (batched over the DAG) returns exactly
// what per-candidate reference execution of the same ranked plans would —
// across random corpora, k, threads. Search-level cases build a discovery
// index each, so fewer cases.
proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    #[test]
    fn search_output_matches_reference_execution(
        seed in 0u64..1_000_000,
        k in 1usize..10,
        thread_pick in 0usize..3,
    ) {
        let threads = [1usize, 2, 0][thread_pick];
        let cat = random_catalog(seed, 4);
        let idx = index_for(&cat);
        let query = ExampleQuery::new(vec![
            QueryColumn::of_strs(&["k1", "k2"]),
            QueryColumn::of_strs(&["1", "2"]),
        ]).unwrap();
        let sel = column_selection(&idx, &query, &SelectionConfig::default());
        let cx = SearchContext::new(&cat, &idx);
        let run = |drop_empty_views: bool| {
            cx.search(&sel, &SearchConfig {
                k,
                threads,
                drop_empty_views,
                ..Default::default()
            }).expect("search")
        };
        // With empties kept, the output is the whole top-k cut: each view
        // must be table-exact against its reference execution.
        let all = run(false);
        for v in &all.views {
            let reference = reexecute(&cat, &v.provenance).expect("reference execution");
            prop_assert_eq!(
                &v.table, &reference.table,
                "k={} threads={}: view {} differs from the reference", k, threads, v.id
            );
            prop_assert_eq!(&v.provenance, &reference.provenance);
        }
        // The default output is that list minus exactly the empty views.
        let kept = run(true);
        let non_empty: Vec<_> = all.views.iter().filter(|v| v.row_count() > 0).collect();
        prop_assert_eq!(kept.views.len(), non_empty.len());
        prop_assert_eq!(kept.stats.join_graphs, all.stats.join_graphs);
        for (a, b) in kept.views.iter().zip(non_empty) {
            prop_assert_eq!(&a.table, &b.table);
            prop_assert_eq!(&a.provenance, &b.provenance);
        }
    }
}
