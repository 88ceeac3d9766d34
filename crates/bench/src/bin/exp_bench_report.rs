//! `exp_bench_report` — the per-PR perf trajectory.
//!
//! Times the hot paths this repo optimises — offline index build
//! (1 / 2 / auto threads), the online query path (join-graph search,
//! view materialization, and the 4C distillation pass, each at 1 / 2 /
//! auto threads), the sketching kernels (MinHash signature, LSH band
//! hashing, containment merge — SIMD vs. scalar reference over the full
//! corpus), the shared sub-join DAG executor against the independent
//! per-candidate materializer (with the DAG's shared-edge hit counters),
//! and the hash-join micro-kernel — on the standard corpora, and
//! writes a machine-readable `BENCH_<n>.json` so successive PRs accumulate
//! a comparable perf series. Every report embeds the bench host's hardware
//! context (thread count, CPU features, active SIMD backend).
//!
//! ```text
//! cargo run --release --bin exp_bench_report                 # full corpora → BENCH_<pr>.json
//! cargo run --release --bin exp_bench_report -- --smoke      # reduced corpora (CI)
//! cargo run --release --bin exp_bench_report -- --pr 3       # label for PR 3 → BENCH_3.json
//! cargo run --release --bin exp_bench_report -- --out p.json # custom output path
//! ```

use std::fmt::Write as _;
use std::time::Instant;
use ver_bench::{eval_search_config, hardware_json, run_strategy, verify_exact_for, Strategy};
use ver_common::fxhash::fx_hash_u64;
use ver_common::pool::resolve_threads;
use ver_core::{Ver, VerConfig};
use ver_datagen::chembl::{generate_chembl, ChemblConfig};
use ver_datagen::wdc::{generate_wdc, WdcConfig};
use ver_datagen::workload::{chembl_ground_truths, wdc_ground_truths};
use ver_distill::{distill, DistillConfig};
use ver_engine::join::hash_join;
use ver_index::{
    build_index, hashed_containment, hashed_containment_scalar, IndexConfig, LshIndex, MinHasher,
};
use ver_qbe::groundtruth::GroundTruth;
use ver_qbe::noise::{generate_noisy_query, NoiseLevel};
use ver_search::{MaterializeStats, SearchConfig};
use ver_store::catalog::TableCatalog;
use ver_store::table::{Table, TableBuilder};

/// Best-of-`reps` wall time of `f`, in milliseconds.
fn best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(&out);
        best = best.min(ms);
    }
    best
}

/// One online pass over the ground-truth queries at a fixed worker count:
/// summed JGS, materialization, and 4C wall times (the Fig. 4b split plus
/// distillation).
#[derive(Debug, Clone, Copy, Default)]
struct OnlineTimes {
    jgs_ms: f64,
    materialize_ms: f64,
    distill_4c_ms: f64,
}

/// Shared sub-join DAG vs. independent per-candidate materialization over
/// one corpus's workload: accumulated DAG counters (PR 6) plus the
/// materialize-phase wall clock of both executors at one worker thread.
#[derive(Debug, Clone, Copy, Default)]
struct DagReport {
    stats: MaterializeStats,
    dag_ms: f64,
    independent_ms: f64,
}

impl DagReport {
    fn speedup(&self) -> f64 {
        self.independent_ms / self.dag_ms
    }
}

/// End-to-end query latency of the scatter/gather path at one shard count.
#[derive(Debug, Clone, Copy)]
struct ShardTimes {
    shards: usize,
    query_ms: f64,
}

/// PR 8's sharded serving section: the full pipeline run single-engine vs.
/// scattered over 1 / 2 / 4 logical shards, outputs asserted bit-identical
/// (determinism invariant 11) while timing.
#[derive(Debug, Clone, Default)]
struct ShardingReport {
    queries: usize,
    single_ms: f64,
    per_count: Vec<ShardTimes>,
}

struct CorpusReport {
    name: &'static str,
    tables: usize,
    columns: usize,
    rows: usize,
    build_ms_1: f64,
    build_ms_2: f64,
    build_ms_auto: f64,
    queries: usize,
    views: usize,
    online_1: OnlineTimes,
    online_2: OnlineTimes,
    online_auto: OnlineTimes,
    dag: DagReport,
    sharding: ShardingReport,
}

fn index_config(threads: usize, verify_exact: bool) -> IndexConfig {
    IndexConfig {
        threads,
        verify_exact,
        ..Default::default()
    }
}

/// Run every ground-truth query once with search + 4C pinned to `threads`
/// workers; returns summed stage times plus (queries, views) counters.
fn online_pass(ver: &Ver, gts: &[GroundTruth], threads: usize) -> (OnlineTimes, usize, usize) {
    let search_cfg = SearchConfig {
        threads,
        ..eval_search_config()
    };
    let distill_cfg = DistillConfig {
        threads,
        ..Default::default()
    };
    let mut t = OnlineTimes::default();
    let (mut queries, mut views) = (0usize, 0usize);
    for gt in gts {
        let Ok(query) = generate_noisy_query(ver.catalog(), gt, NoiseLevel::Zero, 3, 1) else {
            continue;
        };
        let out = run_strategy(ver, &query, Strategy::ColumnSelection, &search_cfg);
        t.jgs_ms += out.timer.get("jgs").as_secs_f64() * 1e3;
        t.materialize_ms += out.timer.get("materialize").as_secs_f64() * 1e3;
        let d = distill(&out.views, &distill_cfg);
        t.distill_4c_ms += d.timer.total().as_secs_f64() * 1e3;
        views += out.stats.views;
        queries += 1;
    }
    (t, queries, views)
}

/// Head-to-head materialization: every ground-truth query materialized by
/// production search (the shared sub-join DAG) and again, plan by plan,
/// through the reference executor (`ver_engine::exec::reexecute`) — with
/// the outputs asserted bit-identical while timing. Empty views are kept so
/// both arms cover the whole top-k cut. Best-of-`reps` materialize-phase
/// wall clock per query per arm, summed; DAG counters (distinct steps,
/// shared-edge hits, empty-pruned views) accumulated from the DAG arm.
fn dag_pass(ver: &Ver, gts: &[GroundTruth], reps: usize) -> DagReport {
    let cfg = SearchConfig {
        threads: 1,
        drop_empty_views: false,
        ..eval_search_config()
    };
    let mut r = DagReport::default();
    for gt in gts {
        let Ok(query) = generate_noisy_query(ver.catalog(), gt, NoiseLevel::Zero, 3, 1) else {
            continue;
        };
        let (mut dag_best, mut ind_best) = (f64::INFINITY, f64::INFINITY);
        let mut dag_stats = MaterializeStats::default();
        for _ in 0..reps.max(1) {
            let out = run_strategy(ver, &query, Strategy::ColumnSelection, &cfg);
            dag_best = dag_best.min(out.timer.get("materialize").as_secs_f64() * 1e3);
            let start = Instant::now();
            let reference: Vec<_> = out
                .views
                .iter()
                .map(|v| {
                    ver_engine::exec::reexecute(ver.catalog(), &v.provenance)
                        .expect("reference execution")
                })
                .collect();
            ind_best = ind_best.min(start.elapsed().as_secs_f64() * 1e3);
            // The invariant behind the timing: both executors produce the
            // identical views — enforced even here.
            for (a, b) in out.views.iter().zip(&reference) {
                assert!(
                    a.table == b.table && a.provenance == b.provenance,
                    "DAG executor diverged from independent reference on {}",
                    gt.name
                );
            }
            dag_stats = out.dag;
        }
        r.stats.accumulate(dag_stats);
        r.dag_ms += dag_best;
        r.independent_ms += ind_best;
    }
    r
}

/// Sharded scatter/gather vs. the single-engine pipeline over every
/// ground-truth query: best-of-`reps` end-to-end wall clock per query per
/// shard count, summed — with the merged output asserted bit-identical to
/// the single-engine run at every count (invariant 11), enforced even
/// here.
fn shard_pass(ver: &Ver, gts: &[GroundTruth], reps: usize) -> ShardingReport {
    let budget = ver_common::budget::QueryBudget::none();
    let mut report = ShardingReport {
        per_count: [1usize, 2, 4]
            .iter()
            .map(|&shards| ShardTimes {
                shards,
                query_ms: 0.0,
            })
            .collect(),
        ..Default::default()
    };
    for gt in gts {
        let Ok(query) = generate_noisy_query(ver.catalog(), gt, NoiseLevel::Zero, 3, 1) else {
            continue;
        };
        let spec = ver_qbe::ViewSpec::Qbe(query);
        let mut single = None;
        report.single_ms += best_ms(reps, || {
            single = Some(ver.run_budgeted(&spec, None, &budget).expect("single run"));
        });
        let single = single.unwrap();
        for entry in report.per_count.iter_mut() {
            let mut sharded = None;
            entry.query_ms += best_ms(reps, || {
                sharded = Some(
                    ver.run_sharded(&spec, None, &budget, entry.shards)
                        .expect("sharded run"),
                );
            });
            let sharded = sharded.unwrap();
            assert!(!sharded.partial, "{}: healthy scatter is complete", gt.name);
            assert_eq!(
                sharded.ranked, single.ranked,
                "{}: sharded ranking diverged at {} shards",
                gt.name, entry.shards
            );
            assert_eq!(sharded.views.len(), single.views.len());
            for (a, b) in sharded.views.iter().zip(&single.views) {
                assert!(
                    a.same_contents(b),
                    "{}: sharded view {} diverged at {} shards",
                    gt.name,
                    a.id,
                    entry.shards
                );
            }
        }
        report.queries += 1;
    }
    report
}

/// Time index builds (1/2/auto threads) and the online path (JGS +
/// materialization + 4C, likewise at 1/2/auto threads) over the corpus's
/// ground-truth queries.
fn report_corpus(
    name: &'static str,
    cat: TableCatalog,
    gts: Vec<GroundTruth>,
    reps: usize,
) -> CorpusReport {
    let verify_exact = verify_exact_for(&cat);
    let build_ms_1 = best_ms(reps, || {
        build_index(&cat, index_config(1, verify_exact)).unwrap()
    });
    let build_ms_2 = best_ms(reps, || {
        build_index(&cat, index_config(2, verify_exact)).unwrap()
    });
    let build_ms_auto = best_ms(reps, || {
        build_index(&cat, index_config(0, verify_exact)).unwrap()
    });

    let (tables, columns, rows) = (cat.table_count(), cat.column_count(), cat.total_rows());
    let config = VerConfig {
        index: index_config(0, verify_exact),
        ..VerConfig::default()
    };
    let ver = Ver::build(cat, config).expect("index build");

    let (online_1, queries, views) = online_pass(&ver, &gts, 1);
    let (online_2, ..) = online_pass(&ver, &gts, 2);
    let (online_auto, ..) = online_pass(&ver, &gts, 0);
    let dag = dag_pass(&ver, &gts, reps);
    let sharding = shard_pass(&ver, &gts, reps);

    CorpusReport {
        name,
        tables,
        columns,
        rows,
        build_ms_1,
        build_ms_2,
        build_ms_auto,
        queries,
        views,
        online_1,
        online_2,
        online_auto,
        dag,
        sharding,
    }
}

/// One kernel's scalar-vs-SIMD timing.
#[derive(Debug, Clone, Copy)]
struct KernelTimes {
    scalar_ms: f64,
    simd_ms: f64,
}

impl KernelTimes {
    fn speedup(&self) -> f64 {
        self.scalar_ms / self.simd_ms
    }
}

struct SketchKernelReport {
    columns: usize,
    values: usize,
    k: usize,
    minhash: KernelTimes,
    band_hash: KernelTimes,
    containment: KernelTimes,
}

/// Microbenchmark the three sketching kernels over every column of the
/// given corpora: the dispatched SIMD path against the scalar reference the
/// pre-SIMD builder ran. Outputs are asserted identical while timing — the
/// determinism invariant, enforced even here.
fn sketch_kernel_report(corpora: &[&TableCatalog], reps: usize) -> SketchKernelReport {
    let k = ver_index::minhash::DEFAULT_K;
    let hasher = MinHasher::new(k, 0x5eed);
    let hash_sets: Vec<Vec<u64>> = corpora
        .iter()
        .flat_map(|cat| cat.all_columns().map(|(_, cref)| cat.column(cref)))
        .map(|col| col.expect("registered column").distinct_hashes())
        .collect();
    let values: usize = hash_sets.iter().map(Vec::len).sum();

    // MinHash sketch: k seed lanes folded over every distinct value.
    let minhash = KernelTimes {
        scalar_ms: best_ms(reps, || {
            hash_sets
                .iter()
                .map(|h| hasher.signature_of_hashes_scalar(h.iter().copied(), h.len()))
                .collect::<Vec<_>>()
        }),
        simd_ms: best_ms(reps, || {
            hash_sets
                .iter()
                .map(|h| hasher.signature_of_hash_slice(h, h.len()))
                .collect::<Vec<_>>()
        }),
    };

    // LSH band hashing over the whole signature set (the builder's r = 1
    // containment-friendly banding: k bands of one row). The scalar arm is
    // the PR 4 insert path — one fx hash per band; the SIMD arm the batched
    // kernel. Both write a reused buffer so the hashing is what's timed.
    let signatures: Vec<_> = hash_sets
        .iter()
        .map(|h| hasher.signature_of_hash_slice(h, h.len()))
        .collect();
    let lsh = LshIndex::new(k, 1);
    let mut scratch: Vec<u64> = Vec::new();
    let band_hash = KernelTimes {
        scalar_ms: best_ms(reps, || {
            let mut acc = 0u64;
            for sig in &signatures {
                scratch.clear();
                scratch.extend((0..k).map(|band| fx_hash_u64(&sig.sig[band..band + 1])));
                acc ^= scratch[k - 1];
            }
            acc
        }),
        simd_ms: best_ms(reps, || {
            let mut acc = 0u64;
            for sig in &signatures {
                lsh.band_hashes_into(sig, &mut scratch);
                acc ^= scratch[k - 1];
            }
            acc
        }),
    };

    // Containment scoring over adjacent column pairs (mixed cardinality
    // skew, as verify_exact hypergraph construction sees it). The scalar
    // arm is the PR 4 builder's scoring — a full scalar merge per
    // direction; the SIMD arm is today's single shared merge with
    // galloping/block fast paths (`hashed_containment_max`).
    let pairs: Vec<(&[u64], &[u64])> = hash_sets
        .windows(2)
        .map(|w| (w[0].as_slice(), w[1].as_slice()))
        .collect();
    let containment = KernelTimes {
        scalar_ms: best_ms(reps, || {
            pairs
                .iter()
                .map(|(a, b)| hashed_containment_scalar(a, b).max(hashed_containment_scalar(b, a)))
                .sum::<f64>()
        }),
        simd_ms: best_ms(reps, || {
            pairs
                .iter()
                .map(|(a, b)| ver_index::hashed_containment_max(a, b))
                .sum::<f64>()
        }),
    };

    // The invariant behind all the timing: SIMD ≡ scalar, bit for bit.
    for (h, sig) in hash_sets.iter().zip(&signatures) {
        assert_eq!(
            &hasher.signature_of_hashes_scalar(h.iter().copied(), h.len()),
            sig,
            "SIMD sketch diverged from scalar reference"
        );
    }
    for (a, b) in &pairs {
        assert_eq!(
            hashed_containment_scalar(a, b).to_bits(),
            hashed_containment(a, b).to_bits(),
            "SIMD containment diverged from scalar reference"
        );
        assert_eq!(
            hashed_containment_scalar(a, b)
                .max(hashed_containment_scalar(b, a))
                .to_bits(),
            ver_index::hashed_containment_max(a, b).to_bits(),
            "symmetric-max containment diverged from two-call scalar form"
        );
    }

    SketchKernelReport {
        columns: hash_sets.len(),
        values,
        k,
        minhash,
        band_hash,
        containment,
    }
}

fn write_kernel(json: &mut String, label: &str, t: &KernelTimes, last: bool) {
    let _ = writeln!(
        json,
        "    \"{label}\": {{\"scalar_ms\": {:.3}, \"simd_ms\": {:.3}, \"speedup\": {:.3}}}{}",
        t.scalar_ms,
        t.simd_ms,
        t.speedup(),
        if last { "" } else { "," }
    );
}

fn join_table(name: &str, rows: usize) -> Table {
    let mut b = TableBuilder::new(name, &["k", "v"]);
    for i in 0..rows {
        b.push_row(vec![
            ver_common::value::Value::Int((i % (rows / 2).max(1)) as i64),
            ver_common::value::Value::text(format!("val{i}")),
        ])
        .unwrap();
    }
    b.build()
}

fn write_online(json: &mut String, label: &str, t: &OnlineTimes, last: bool) {
    let _ = writeln!(
        json,
        "        \"{label}\": {{\"jgs_ms\": {:.3}, \"materialize_ms\": {:.3}, \"distill_4c_ms\": {:.3}}}{}",
        t.jgs_ms,
        t.materialize_ms,
        t.distill_4c_ms,
        if last { "" } else { "," }
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let pr: u32 = args
        .iter()
        .position(|a| a == "--pr")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--pr takes a number"))
        .unwrap_or(6);
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| format!("BENCH_{pr}.json"));
    let reps = if smoke { 1 } else { 3 };
    let hw = resolve_threads(0);

    let (wdc_tables, chembl_tables, chembl_compounds, join_rows) = if smoke {
        (60, 20, 60, 5_000)
    } else {
        (250, 70, 150, 20_000)
    };

    eprintln!("exp_bench_report: hardware_threads={hw} smoke={smoke} reps={reps}");

    let wdc = generate_wdc(&WdcConfig {
        n_tables: wdc_tables,
        ..Default::default()
    })
    .expect("wdc generation");
    let chembl = generate_chembl(&ChemblConfig {
        n_compounds: chembl_compounds,
        n_tables: chembl_tables,
        seed: 0xC4EB,
    })
    .expect("chembl generation");

    // Kernel microbenchmarks run over both corpora's columns before the
    // catalogs are consumed by the end-to-end passes.
    let kernels = sketch_kernel_report(&[&wdc, &chembl], reps.max(3));

    let wdc_gts = wdc_ground_truths(&wdc).expect("wdc ground truths");
    let wdc_report = report_corpus("WDC", wdc, wdc_gts, reps);
    let chembl_gts = chembl_ground_truths(&chembl).expect("chembl ground truths");
    let chembl_report = report_corpus("ChEMBL", chembl, chembl_gts, reps);

    let left = join_table("l", join_rows);
    let right = join_table("r", join_rows);
    let hash_join_ms = best_ms(reps.max(3), || hash_join(&left, 0, &right, 0).unwrap());

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"exp_bench_report\",");
    let _ = writeln!(json, "  \"pr\": {pr},");
    let _ = writeln!(json, "  \"hardware\": {},", hardware_json());
    let _ = writeln!(json, "  \"hardware_threads\": {hw},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    // Sketching kernels: dispatched SIMD path vs. the scalar reference the
    // pre-SIMD builder ran, over every column of both corpora.
    json.push_str("  \"sketch_kernels\": {\n");
    let _ = writeln!(
        json,
        "    \"k\": {}, \"columns\": {}, \"values\": {},",
        kernels.k, kernels.columns, kernels.values
    );
    write_kernel(&mut json, "minhash_signature", &kernels.minhash, false);
    write_kernel(&mut json, "lsh_band_hash", &kernels.band_hash, false);
    write_kernel(&mut json, "containment_merge", &kernels.containment, true);
    json.push_str("  },\n");
    json.push_str("  \"corpora\": [\n");
    for (i, r) in [&wdc_report, &chembl_report].iter().enumerate() {
        let speedup = r.build_ms_1 / r.build_ms_auto;
        json.push_str("    {\n");
        let _ = writeln!(json, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(json, "      \"tables\": {},", r.tables);
        let _ = writeln!(json, "      \"columns\": {},", r.columns);
        let _ = writeln!(json, "      \"rows\": {},", r.rows);
        let _ = writeln!(
            json,
            "      \"index_build_ms\": {{\"threads_1\": {:.3}, \"threads_2\": {:.3}, \"threads_auto\": {:.3}}},",
            r.build_ms_1, r.build_ms_2, r.build_ms_auto
        );
        let _ = writeln!(json, "      \"auto_threads\": {hw},");
        let _ = writeln!(json, "      \"build_speedup_auto_vs_1\": {speedup:.3},");
        let _ = writeln!(json, "      \"search_queries\": {},", r.queries);
        let _ = writeln!(json, "      \"views_found\": {},", r.views);
        // Online query path (one pass over the ground-truth workload per
        // worker count; bit-identical output, so the times are comparable).
        json.push_str("      \"online\": {\n");
        write_online(&mut json, "threads_1", &r.online_1, false);
        write_online(&mut json, "threads_2", &r.online_2, false);
        write_online(&mut json, "threads_auto", &r.online_auto, true);
        json.push_str("      },\n");
        // Shared sub-join DAG vs. independent per-candidate execution
        // (both at one worker thread, outputs asserted bit-identical).
        json.push_str("      \"materialize_dag\": {\n");
        let _ = writeln!(
            json,
            "        \"candidates\": {}, \"total_steps\": {}, \"distinct_steps\": {}, \"shared_hits\": {}, \"empty_pruned\": {},",
            r.dag.stats.candidates,
            r.dag.stats.total_steps,
            r.dag.stats.distinct_steps,
            r.dag.stats.shared_hits,
            r.dag.stats.empty_pruned
        );
        let _ = writeln!(
            json,
            "        \"dag_ms\": {:.3}, \"independent_ms\": {:.3}, \"speedup\": {:.3}",
            r.dag.dag_ms,
            r.dag.independent_ms,
            r.dag.speedup()
        );
        json.push_str("      },\n");
        // Sharded scatter/gather: end-to-end pipeline latency per shard
        // count, outputs asserted bit-identical to the single-engine run
        // at every count (invariant 11).
        json.push_str("      \"sharding\": {\n");
        let _ = writeln!(
            json,
            "        \"queries\": {}, \"single_engine_ms\": {:.3},",
            r.sharding.queries, r.sharding.single_ms
        );
        let _ = writeln!(json, "        \"bit_identical\": true,");
        json.push_str("        \"per_shard_count\": [\n");
        for (j, t) in r.sharding.per_count.iter().enumerate() {
            let _ = writeln!(
                json,
                "          {{\"shards\": {}, \"query_ms\": {:.3}}}{}",
                t.shards,
                t.query_ms,
                if j + 1 == r.sharding.per_count.len() {
                    ""
                } else {
                    ","
                }
            );
        }
        json.push_str("        ]\n");
        json.push_str("      }\n");
        json.push_str(if i == 0 { "    },\n" } else { "    }\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"hash_join\": {{\"rows_per_side\": {join_rows}, \"ms\": {hash_join_ms:.3}}}"
    );
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write bench report");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
