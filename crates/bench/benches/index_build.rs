//! Criterion: offline discovery-index construction (profiles + MinHash +
//! candidate pairs + hypergraph) across corpus shapes — the cost amortised
//! by the paper's offline stage.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ver_datagen::chembl::{generate_chembl, ChemblConfig};
use ver_datagen::wdc::{generate_wdc, WdcConfig};
use ver_index::{build_index, IndexConfig};

fn bench_index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_build");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));

    let chembl = generate_chembl(&ChemblConfig {
        n_compounds: 100,
        n_tables: 30,
        seed: 1,
    })
    .unwrap();
    group.bench_function(BenchmarkId::new("chembl", "30t"), |b| {
        b.iter(|| {
            build_index(
                &chembl,
                IndexConfig {
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap()
        })
    });

    let wdc = generate_wdc(&WdcConfig {
        n_tables: 150,
        ..Default::default()
    })
    .unwrap();
    group.bench_function(BenchmarkId::new("wdc", "150t"), |b| {
        b.iter(|| {
            build_index(
                &wdc,
                IndexConfig {
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap()
        })
    });

    // Exact verification: every candidate pair is checked against the
    // true distinct sets — the path the allocation diet (profile-stored
    // sorted hash vectors, merge-based containment) targets.
    group.bench_function(BenchmarkId::new("wdc_verify_exact", "150t"), |b| {
        b.iter(|| {
            build_index(
                &wdc,
                IndexConfig {
                    threads: 1,
                    verify_exact: true,
                    ..Default::default()
                },
            )
            .unwrap()
        })
    });

    // Parallel speed-up checks: fixed worker count and the `0 = auto`
    // convention (one worker per hardware thread).
    group.bench_function(BenchmarkId::new("wdc_parallel", "150t"), |b| {
        b.iter(|| {
            build_index(
                &wdc,
                IndexConfig {
                    threads: 4,
                    ..Default::default()
                },
            )
            .unwrap()
        })
    });
    group.bench_function(BenchmarkId::new("wdc_auto_threads", "150t"), |b| {
        b.iter(|| {
            build_index(
                &wdc,
                IndexConfig {
                    threads: 0,
                    ..Default::default()
                },
            )
            .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_index_build);
criterion_main!(benches);
