//! Criterion: 4C distillation scaling in the number of candidate views —
//! the measurement behind Fig. 3's "4C Runtime" series — and 4C's first
//! phase (`HashCache::prefill` plus C1) over what production feeds it: the
//! golden workload's candidates, built by the shared sub-join DAG and
//! carrying their row hashes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ver_bench::golden::{golden_catalog, golden_queries};
use ver_common::ids::ViewId;
use ver_common::pool::ThreadPool;
use ver_common::value::Value;
use ver_core::spec_select::select_for_spec;
use ver_core::{Ver, VerConfig};
use ver_distill::algo::compatible_sweep;
use ver_distill::blocks::schema_blocks;
use ver_distill::hashes::HashCache;
use ver_distill::{distill, DistillConfig};
use ver_engine::view::{Provenance, View};
use ver_search::SearchContext;
use ver_store::table::TableBuilder;

/// Synthesise `n` views over a shared schema with controlled overlap:
/// compatibles (i % 7 == 1 duplicates its predecessor), containments and
/// contradictions mixed in.
fn views(n: usize, rows: usize) -> Vec<View> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let mut b = TableBuilder::new("v", &["k", "x"]);
        let base = if i % 7 == 1 { i - 1 } else { i };
        for r in 0..rows {
            let key = (base * 3 + r) % (rows * 2);
            // every 5th view disagrees on the value for shared keys
            let val = if i % 5 == 0 { key * 10 } else { key * 10 + 1 };
            b.push_row(vec![Value::Int(key as i64), Value::Int(val as i64)])
                .unwrap();
        }
        out.push(View::new(
            ViewId(i as u32),
            b.build(),
            Provenance::default(),
        ));
    }
    out
}

fn bench_distill(c: &mut Criterion) {
    let mut group = c.benchmark_group("distill_4c");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    for n in [50usize, 200, 500] {
        let vs = views(n, 40);
        group.bench_with_input(BenchmarkId::new("views", n), &n, |b, _| {
            b.iter(|| distill(&vs, &DistillConfig::default()))
        });
    }
    group.finish();
}

fn bench_prefill_c1(c: &mut Criterion) {
    let mut group = c.benchmark_group("distill_4c_prefill_c1");
    group.sample_size(20);
    let config = VerConfig::default();
    let catalog = golden_catalog();
    let queries = golden_queries(&catalog);
    let ver = Ver::build(catalog, config.clone()).expect("index build");
    let pool = ThreadPool::new(config.distill.threads);
    for (name, spec) in &queries {
        let selection = select_for_spec(ver.index(), spec, &config.selection);
        let views = SearchContext::new(ver.catalog(), ver.index())
            .search(&selection, &config.search)
            .expect("search")
            .views;
        let blocks = schema_blocks(&views);
        group.bench_with_input(BenchmarkId::new("golden", name), &views, |b, views| {
            b.iter(|| {
                let cache = HashCache::prefill(views, &pool);
                blocks
                    .iter()
                    .map(|block| compatible_sweep(&block.members, &cache).0.len())
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_distill, bench_prefill_c1);
criterion_main!(benches);
