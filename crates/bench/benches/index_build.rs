//! Criterion: offline discovery-index construction (profiles + MinHash +
//! candidate pairs + hypergraph) across corpus shapes — the cost amortised
//! by the paper's offline stage — and the two sketching kernels inside it,
//! each as the dispatched SIMD path against its scalar reference (the one
//! measurement the repo benchmark under `benchmark/` does not make; their
//! bit-identity is asserted in `crates/index/tests/minhash_equivalence.rs`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ver_datagen::chembl::{generate_chembl, ChemblConfig};
use ver_datagen::wdc::{generate_wdc, WdcConfig};
use ver_index::{
    build_index, hashed_containment_max, hashed_containment_scalar, IndexConfig, MinHasher,
};

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

fn bench_sketch_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("sketch_kernels");
    group.sample_size(10);

    // Every column of a WDC-like corpus: mixed cardinalities and skew, as
    // the builder sees them.
    let wdc = generate_wdc(&WdcConfig {
        n_tables: 150,
        ..Default::default()
    })
    .unwrap();
    let hash_sets: Vec<Vec<u64>> = wdc
        .all_columns()
        .map(|(_, cref)| wdc.column(cref).unwrap().distinct_hashes())
        .collect();
    let k = ver_index::minhash::DEFAULT_K;
    let hasher = MinHasher::new(k, 0x5eed);

    // MinHash sketch: k seed lanes folded over every distinct value.
    group.bench_function(BenchmarkId::new("minhash", "scalar"), |b| {
        b.iter(|| {
            hash_sets
                .iter()
                .map(|h| hasher.signature_of_hashes_scalar(h.iter().copied(), h.len()))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function(BenchmarkId::new("minhash", "simd"), |b| {
        b.iter(|| {
            hash_sets
                .iter()
                .map(|h| hasher.signature_of_hash_slice(h, h.len()))
                .collect::<Vec<_>>()
        })
    });

    // Containment over adjacent column pairs: a full scalar merge per
    // direction against the single shared merge with its galloping and
    // block fast paths.
    let pairs: Vec<(&[u64], &[u64])> = hash_sets
        .windows(2)
        .map(|w| (w[0].as_slice(), w[1].as_slice()))
        .collect();
    group.bench_function(BenchmarkId::new("containment", "scalar"), |b| {
        b.iter(|| {
            pairs
                .iter()
                .map(|(a, b)| hashed_containment_scalar(a, b).max(hashed_containment_scalar(b, a)))
                .sum::<f64>()
        })
    });
    group.bench_function(BenchmarkId::new("containment", "simd"), |b| {
        b.iter(|| {
            pairs
                .iter()
                .map(|(a, b)| hashed_containment_max(a, b))
                .sum::<f64>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_index_build, bench_sketch_kernels);
criterion_main!(benches);
