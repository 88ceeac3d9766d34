//! Determinism contract of the parallel runtime, offline AND online.
//!
//! Offline: the discovery index must be bit-identical for every thread
//! count — signatures, hypergraph edge set + scores, keyword postings,
//! profiles (with stored hash vectors). Online: `Ver::run` must produce
//! the identical `QueryResult` — same views (ids, rows, provenance), same
//! search statistics, same distillation labels and survivors, same final
//! ranking — whether search scoring/materialization and the 4C pass run
//! on 1, 2, or auto worker threads, and whether the top-k candidates
//! materialise over the shared sub-join DAG (default) or independently
//! per candidate (invariant 9). Runs over a generated WDC-style corpus so
//! the skewed column sizes actually exercise grain claiming.

use ver_core::{QueryResult, Ver, VerConfig};
use ver_datagen::wdc::{generate_wdc, WdcConfig};
use ver_datagen::workload::wdc_ground_truths;
use ver_index::{build_index, DiscoveryIndex, IndexConfig};
use ver_qbe::noise::{generate_noisy_query, NoiseLevel};
use ver_qbe::ViewSpec;
use ver_store::catalog::TableCatalog;

fn corpus() -> TableCatalog {
    generate_wdc(&WdcConfig {
        n_tables: 60,
        ..Default::default()
    })
    .expect("wdc generation")
}

fn build(cat: &TableCatalog, threads: usize, verify_exact: bool) -> DiscoveryIndex {
    build_index(
        cat,
        IndexConfig {
            threads,
            verify_exact,
            ..Default::default()
        },
    )
    .expect("index build")
}

#[test]
fn one_thread_and_eight_threads_build_identical_indexes() {
    let cat = corpus();
    for verify_exact in [false, true] {
        let seq = build(&cat, 1, verify_exact);
        let par = build(&cat, 8, verify_exact);

        // Signatures: bit-identical per column.
        assert_eq!(
            seq.profiles().len(),
            par.profiles().len(),
            "profile count (verify_exact={verify_exact})"
        );
        for (cid, _) in cat.all_columns() {
            assert_eq!(
                seq.signature(cid),
                par.signature(cid),
                "signature of {cid} (verify_exact={verify_exact})"
            );
            assert_eq!(seq.profile(cid).hashes, par.profile(cid).hashes);
        }

        // Hypergraph: same edge set with the same scores, in the same order.
        let seq_edges: Vec<_> = seq.hypergraph().edges().collect();
        let par_edges: Vec<_> = par.hypergraph().edges().collect();
        assert_eq!(
            seq_edges, par_edges,
            "hypergraph edges (verify_exact={verify_exact})"
        );

        // Keyword postings: identical maps, including posting-list order.
        assert_eq!(
            seq.keyword_index(),
            par.keyword_index(),
            "keyword index (verify_exact={verify_exact})"
        );

        // And the one-shot blanket check used by unit tests.
        assert!(seq.same_contents(&par));
    }
}

#[test]
fn auto_threads_matches_sequential() {
    let cat = corpus();
    let seq = build(&cat, 1, false);
    let auto = build(&cat, 0, false);
    assert!(
        seq.same_contents(&auto),
        "threads: 0 (auto) must reproduce the sequential index"
    );
}

/// Assert two pipeline runs are bit-identical in everything the user (or a
/// downstream stage) can observe.
fn assert_same_result(a: &QueryResult, b: &QueryResult, label: &str) {
    assert_eq!(a.search_stats, b.search_stats, "{label}: search stats");
    assert_eq!(a.views.len(), b.views.len(), "{label}: view count");
    for (va, vb) in a.views.iter().zip(&b.views) {
        assert!(
            va.same_contents(vb),
            "{label}: view {} differs (id/schema/provenance/rows)",
            va.id
        );
    }
    assert_eq!(
        a.distill.survivors_c1, b.distill.survivors_c1,
        "{label}: C1 survivors"
    );
    assert_eq!(
        a.distill.survivors_c2, b.distill.survivors_c2,
        "{label}: C2 survivors"
    );
    assert_eq!(
        a.distill.compatible_groups, b.distill.compatible_groups,
        "{label}: compatible groups"
    );
    assert_eq!(
        a.distill.contradictions, b.distill.contradictions,
        "{label}: contradictions"
    );
    assert_eq!(
        a.distill.complementary_pairs, b.distill.complementary_pairs,
        "{label}: complementary pairs"
    );
    assert_eq!(a.ranked, b.ranked, "{label}: final ranking");
}

#[test]
fn online_path_is_identical_across_thread_counts() {
    let cat = corpus();
    let gts = wdc_ground_truths(&cat).expect("wdc ground truths");

    // One Ver per thread count; the offline builds are already proven
    // identical above, so any divergence below is the online path's.
    let build = |threads: usize| {
        Ver::build(cat.clone(), VerConfig::default().with_threads(threads)).expect("build")
    };
    let seq = build(1);
    let two = build(2);
    let auto = build(0);

    let mut compared = 0;
    for (qi, gt) in gts.iter().enumerate() {
        let Ok(query) = generate_noisy_query(&cat, gt, NoiseLevel::Zero, 3, 7 + qi as u64) else {
            continue;
        };
        let spec = ViewSpec::Qbe(query);
        let r1 = seq.run(&spec).expect("run threads=1");
        let r2 = two.run(&spec).expect("run threads=2");
        let ra = auto.run(&spec).expect("run threads=auto");
        assert_same_result(&r2, &r1, &format!("{} threads=2 vs 1", gt.name));
        assert_same_result(&ra, &r1, &format!("{} threads=auto vs 1", gt.name));
        if !r1.views.is_empty() {
            compared += 1;
        }
    }
    assert!(
        compared >= 2,
        "determinism check needs non-trivial queries, got {compared}"
    );
}

#[test]
fn sharded_scatter_is_identical_across_shard_and_thread_counts() {
    // Invariant 11: scattering a query over N logical shards and merging
    // through the content-based rank order reproduces the single-engine
    // result bit-for-bit — for every shard count, at every thread count,
    // and through the shard-index partition/merge roundtrip.
    let cat = corpus();
    let gts = wdc_ground_truths(&cat).expect("wdc ground truths");
    let build = |threads: usize| {
        Ver::build(cat.clone(), VerConfig::default().with_threads(threads)).expect("build")
    };
    let seq = build(1);
    let auto = build(0);

    // The index partition itself roundtrips on this corpus too.
    for count in [2usize, 4] {
        let shards = ver_index::partition_index(seq.index(), count);
        let merged = ver_index::merge_shards(&shards).expect("merge");
        assert!(
            merged.same_contents(seq.index()),
            "index partition/merge diverged at {count} shards"
        );
    }

    let budget = ver_common::budget::QueryBudget::none();
    let mut compared = 0;
    for (qi, gt) in gts.iter().enumerate().take(4) {
        let Ok(query) = generate_noisy_query(&cat, gt, NoiseLevel::Zero, 3, 7 + qi as u64) else {
            continue;
        };
        let spec = ViewSpec::Qbe(query);
        let single = seq.run(&spec).expect("single-engine run");
        for count in [1usize, 2, 4] {
            let sharded = seq
                .run_sharded(&spec, None, &budget, count)
                .expect("sharded run");
            assert!(!sharded.partial, "{}: shards={count} partial", gt.name);
            assert_same_result(
                &sharded,
                &single,
                &format!("{} shards={count} vs single", gt.name),
            );
            let sharded_auto = auto
                .run_sharded(&spec, None, &budget, count)
                .expect("sharded run, auto threads");
            assert_same_result(
                &sharded_auto,
                &single,
                &format!("{} shards={count} threads=auto vs single", gt.name),
            );
        }
        if !single.views.is_empty() {
            compared += 1;
        }
    }
    assert!(
        compared >= 2,
        "shard determinism check needs non-trivial queries, got {compared}"
    );
}

#[test]
fn shard_leg_outputs_survive_the_wire_codec_bit_identically() {
    // Invariant 13, codec half: run each scatter leg in-process, push its
    // raw `ShardSearchOutput` through the full VERNET response codec
    // (encode → frame bytes → decode → rebuild), and merge the decoded
    // copies. The result must be bit-identical to the single-engine run —
    // the wire is allowed to drop per-process diagnostics (timers, DAG
    // counters), never anything that feeds the merge.
    use ver_serve::net::Response;

    let cat = corpus();
    let gts = wdc_ground_truths(&cat).expect("wdc ground truths");
    let ver = Ver::build(cat.clone(), VerConfig::default()).expect("build");
    let budget = ver_common::budget::QueryBudget::none();

    let mut compared = 0;
    for (qi, gt) in gts.iter().enumerate().take(4) {
        let Ok(query) = generate_noisy_query(&cat, gt, NoiseLevel::Zero, 3, 7 + qi as u64) else {
            continue;
        };
        let spec = ViewSpec::Qbe(query);
        let single = ver.run(&spec).expect("single-engine run");
        for count in [1usize, 2, 4] {
            let outputs: Vec<_> = (0..count)
                .map(|shard| {
                    let out = ver
                        .run_shard_leg(&spec, None, &budget, shard, count)
                        .expect("leg run");
                    assert!(!out.partial, "{}: leg {shard}/{count} partial", gt.name);
                    let bytes = Response::ShardOutput(out).encode();
                    match Response::decode(&bytes).expect("decode leg output") {
                        Response::ShardOutput(out) => out,
                        other => panic!("expected ShardOutput, got {other:?}"),
                    }
                })
                .collect();
            let merged = ver
                .gather_shard_outputs(&spec, &budget, outputs, true)
                .expect("gather");
            assert_same_result(
                &merged,
                &single,
                &format!("{} wire-roundtripped shards={count} vs single", gt.name),
            );
        }
        if !single.views.is_empty() {
            compared += 1;
        }
    }
    assert!(
        compared >= 2,
        "wire-codec determinism check needs non-trivial queries, got {compared}"
    );
}

#[test]
fn dag_materialization_is_identical_to_independent_execution() {
    // Invariant 9: the shared sub-join DAG executor produces, for every
    // thread count, exactly what executing each ranked plan on its own
    // through the reference executor (`ver_oracle`) does — over a
    // corpus large enough that candidates actually share join prefixes.
    let cat = corpus();
    let gts = wdc_ground_truths(&cat).expect("wdc ground truths");

    let build = |threads: usize| {
        Ver::build(cat.clone(), VerConfig::default().with_threads(threads)).expect("build")
    };
    let dag_seq = build(1);
    let dag_auto = build(0);

    let mut compared = 0;
    for (qi, gt) in gts.iter().enumerate().take(4) {
        let Ok(query) = generate_noisy_query(&cat, gt, NoiseLevel::Zero, 3, 7 + qi as u64) else {
            continue;
        };
        let spec = ViewSpec::Qbe(query);
        let rd = dag_seq.run(&spec).expect("run dag threads=1");
        let ra = dag_auto.run(&spec).expect("run dag threads=auto");
        assert_same_result(&ra, &rd, &format!("{} dag-auto vs dag-seq", gt.name));
        for v in &rd.views {
            let independent =
                ver_oracle::reexecute(&cat, &v.provenance).expect("reference execution");
            assert_eq!(
                (&v.table, &v.provenance),
                (&independent.table, &independent.provenance),
                "{} view {} dag vs independent",
                gt.name,
                v.id
            );
        }
        if !rd.views.is_empty() {
            compared += 1;
        }
    }
    assert!(
        compared >= 2,
        "equivalence check needs non-trivial queries, got {compared}"
    );
}

#[test]
fn thread_count_does_not_change_search_results() {
    let cat = corpus();
    let seq = build(&cat, 1, false);
    let par = build(&cat, 8, false);
    // Spot-check the online API on top of both indexes.
    for (cid, _) in cat.all_columns().take(40) {
        assert_eq!(seq.neighbors(cid, 0.8), par.neighbors(cid, 0.8));
    }
    let tables: Vec<_> = cat.tables().iter().take(4).map(|t| t.id).collect();
    let a = seq.generate_join_graphs(&tables, 2);
    let b = par.generate_join_graphs(&tables, 2);
    assert_eq!(a.len(), b.len());
    for (ga, gb) in a.iter().zip(&b) {
        assert_eq!(ga.hops(), gb.hops());
    }
}
