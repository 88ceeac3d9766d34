//! Row hashes fall out of the DAG: a view materialised by the shared
//! sub-join DAG carries `H` of its rows, and 4C reads that vector instead
//! of hashing cells.
//!
//! Two things must hold for that to change nothing but time, checked here
//! on the golden workload and on the random corpora of
//! `crates/search/tests/materialize_equivalence.rs`:
//!
//! * the stored vector **is** `hash_table_row` of every row — equivalently,
//!   what a hash-less `View::new` over the same table computes;
//! * `distill` over hash-carrying views equals `distill` over the same
//!   views stripped of their hashes, field by field.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::borrow::Cow;
use ver_bench::golden::{golden_catalog, golden_queries};
use ver_common::budget::QueryBudget;
use ver_common::ids::{ColumnRef, TableId, ViewId};
use ver_common::pool::ThreadPool;
use ver_common::value::Value;
use ver_core::spec_select::select_for_spec;
use ver_core::{Ver, VerConfig};
use ver_distill::{distill, DistillConfig, DistillOutput};
use ver_engine::plan::{JoinStep, PjPlan};
use ver_engine::rowhash::hash_table_row;
use ver_engine::view::View;
use ver_search::{materialize_batch, SearchContext};
use ver_store::catalog::TableCatalog;
use ver_store::table::TableBuilder;

/// The same view with nothing but its cells to hash from.
fn stripped(v: &View) -> View {
    View::new(v.id, v.table.clone(), v.provenance.clone())
}

/// `v` came out of the DAG with its row hashes, and they are `H` of its
/// rows.
fn assert_carries_h(v: &View) {
    assert!(
        matches!(v.row_hashes(), Cow::Borrowed(_)),
        "view {} lost the DAG's row hashes",
        v.id
    );
    assert!(matches!(stripped(v).row_hashes(), Cow::Owned(_)));
    assert_eq!(v.row_hashes(), stripped(v).row_hashes(), "view {}", v.id);
    assert_eq!(v.row_hashes().len(), v.row_count());
    for (r, &h) in v.row_hashes().iter().enumerate() {
        assert_eq!(h, hash_table_row(&v.table, r), "view {} row {r}", v.id);
    }
}

fn assert_same_distillation(a: &DistillOutput, b: &DistillOutput) {
    assert_eq!(a.graph.nodes(), b.graph.nodes());
    assert_eq!(a.graph.edges(), b.graph.edges());
    assert_eq!(a.view_keys, b.view_keys);
    assert_eq!(a.compatible_groups, b.compatible_groups);
    assert_eq!(a.survivors_c1, b.survivors_c1);
    assert_eq!(a.survivors_c2, b.survivors_c2);
    assert_eq!(a.contradictions, b.contradictions);
    assert_eq!(a.complementary_pairs, b.complementary_pairs);
}

#[test]
fn golden_workload_views_carry_h_and_distill_the_same_without_it() {
    let cat = golden_catalog();
    let queries = golden_queries(&cat);
    let ver = Ver::build(cat, VerConfig::default()).expect("index build");
    let mut candidates = 0;
    for (name, spec) in &queries {
        let selection = select_for_spec(ver.index(), spec, &ver.config().selection);
        let out = SearchContext::new(ver.catalog(), ver.index())
            .search(&selection, &ver.config().search)
            .expect("search");
        assert!(!out.views.is_empty(), "{name}: no candidates");
        candidates += out.views.len();
        out.views.iter().for_each(assert_carries_h);

        let bare: Vec<View> = out.views.iter().map(stripped).collect();
        let config = &ver.config().distill;
        assert_same_distillation(&distill(&out.views, config), &distill(&bare, config));

        // What the pipeline hands back has given the vectors up again.
        let result = ver.run(spec).expect("run");
        assert_eq!(result.views.len(), out.views.len());
        for (v, carried) in result.views.iter().zip(&out.views) {
            assert!(matches!(v.row_hashes(), Cow::Owned(_)), "{name}: {}", v.id);
            assert_eq!(v.row_hashes(), carried.row_hashes());
        }
    }
    assert!(candidates > 100, "golden workload shrank to {candidates}");
}

// --- The generators of crates/search/tests/materialize_equivalence.rs. ---

fn cref(t: u32, o: u16) -> ColumnRef {
    ColumnRef {
        table: TableId(t),
        ordinal: o,
    }
}

/// Random joinable corpus: two-column tables whose keys draw from a small
/// shared domain at random offsets (full, partial and no overlap).
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

/// Random batch of valid plans: join trees over distinct tables projecting
/// 1-3 in-plan columns, so prefixes collide and projections repeat.
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn random_batches_carry_h_and_distill_the_same_without_it(
        seed in 0u64..1_000_000,
        n_tables in 3usize..6,
        n_plans in 2usize..12,
        threads in 1usize..3,
    ) {
        let cat = random_catalog(seed, n_tables);
        let plans = random_plans(seed, n_tables, n_plans);
        let (views, _) =
            materialize_batch(&cat, &plans, ThreadPool::new(threads), &QueryBudget::none());
        // Ids as the search stage would assign them (the batch itself
        // leaves every view on the default id).
        let views: Vec<View> = views
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                let mut v = v.expect("valid plan");
                v.id = ViewId(i as u32);
                v
            })
            .collect();
        views.iter().for_each(assert_carries_h);
        let bare: Vec<View> = views.iter().map(stripped).collect();
        let config = DistillConfig::default();
        assert_same_distillation(&distill(&views, &config), &distill(&bare, &config));
    }
}
