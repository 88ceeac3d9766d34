//! Criterion: the MATERIALIZER as production runs it — one
//! `materialize_batch` over the shared sub-join DAG, the dominant online
//! cost of Fig. 4(b). Two batches over the same tables and the same number
//! of join steps: chain plans that all share their first step, and chain
//! plans that share none. Plus `rowhash_set`: sorting one joined view's row
//! hashes into the row set 4C compares.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ver_common::budget::QueryBudget;
use ver_common::ids::{ColumnRef, TableId};
use ver_common::pool::ThreadPool;
use ver_common::value::Value;
use ver_engine::materialize_batch;
use ver_engine::plan::{JoinStep, PjPlan};
use ver_engine::rowhash::row_set;
use ver_store::catalog::TableCatalog;
use ver_store::table::TableBuilder;

/// Tables `t0..t9`, each `(k, v)` with every key on two rows.
fn catalog(rows: usize) -> TableCatalog {
    let mut cat = TableCatalog::new();
    for t in 0..10 {
        let mut b = TableBuilder::new(format!("t{t}"), &["k", "v"]);
        for i in 0..rows {
            b.push_row(vec![
                Value::Int((i % (rows / 2)) as i64),
                Value::text(format!("val{i}")),
            ])
            .unwrap();
        }
        cat.add_table(b.build()).unwrap();
    }
    cat
}

/// Eight two-step chains `t0 ⋈ a ⋈ b` projecting `t0.v, b.v`.
fn chains(hops: impl Fn(u32) -> (u32, u32)) -> Vec<(PjPlan, f64)> {
    let key = |t| ColumnRef {
        table: TableId(t),
        ordinal: 0,
    };
    let val = |t| ColumnRef {
        table: TableId(t),
        ordinal: 1,
    };
    (0..8)
        .map(|i| {
            let (a, b) = hops(i);
            let plan = PjPlan {
                base: TableId(0),
                joins: vec![
                    JoinStep {
                        left: key(0),
                        right: key(a),
                    },
                    JoinStep {
                        left: key(a),
                        right: key(b),
                    },
                ],
                projection: vec![val(0), val(b)],
            };
            (plan, 1.0)
        })
        .collect()
}

fn bench_materializer(c: &mut Criterion) {
    let mut group = c.benchmark_group("materializer");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    let pool = ThreadPool::new(1);
    for rows in [1_000usize, 10_000] {
        let cat = catalog(rows);
        // 16 join steps each: 9 distinct when the first is shared, 16 not.
        let shared = chains(|i| (1, 2 + i));
        let unshared = chains(|i| (2 + i, 1));
        for (name, batch) in [("batch_shared", &shared), ("batch_unshared", &unshared)] {
            group.bench_with_input(BenchmarkId::new(name, rows), &rows, |b, _| {
                b.iter(|| materialize_batch(&cat, batch, pool, &QueryBudget::none()))
            });
        }
        // The row set 4C compares, from the row hashes a DAG-built view
        // carries: `t0 ⋈ t1` projecting every column of both.
        let cref = |table, ordinal| ColumnRef {
            table: TableId(table),
            ordinal,
        };
        let join = PjPlan {
            base: TableId(0),
            joins: vec![JoinStep {
                left: cref(0, 0),
                right: cref(1, 0),
            }],
            projection: vec![cref(0, 0), cref(0, 1), cref(1, 0), cref(1, 1)],
        };
        let (mut views, _) = materialize_batch(&cat, &[(join, 1.0)], pool, &QueryBudget::none());
        let hashes = views.pop().unwrap().unwrap().row_hashes().into_owned();
        group.bench_with_input(BenchmarkId::new("rowhash_set", rows), &rows, |b, _| {
            b.iter(|| row_set(&hashes))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_materializer);
criterion_main!(benches);
