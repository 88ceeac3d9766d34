//! The shared golden-snapshot workload and renderer.
//!
//! Two integration suites pin the online path's output against
//! `tests/golden/online_snapshot.txt`: `tests/golden_online.rs` (the
//! rebuild path, `Ver::run`) and `tests/serve_warm_start.rs` (the
//! persisted-index serving path). Both must render **the same workload the
//! same way** for "bit-identical" to mean anything, so the corpus, the
//! queries, and the renderer live here once.

use std::fmt::Write as _;
use ver_core::QueryResult;
use ver_datagen::wdc::{generate_wdc, WdcConfig};
use ver_datagen::workload::wdc_ground_truths;
use ver_qbe::noise::{generate_noisy_query, NoiseLevel};
use ver_qbe::ViewSpec;
use ver_store::catalog::TableCatalog;

/// Repo-relative path of the golden snapshot file.
pub const SNAPSHOT_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/online_snapshot.txt"
);

/// The fixed seeded corpus behind the snapshot: a 60-table WDC-style
/// collection.
pub fn golden_catalog() -> TableCatalog {
    generate_wdc(&WdcConfig {
        n_tables: 60,
        ..Default::default()
    })
    .expect("wdc generation")
}

/// The fixed workload: the five WDC ground-truth queries at zero noise with
/// pinned per-query seeds, as named `(label, spec)` pairs.
pub fn golden_queries(catalog: &TableCatalog) -> Vec<(String, ViewSpec)> {
    let gts = wdc_ground_truths(catalog).expect("ground truths");
    gts.iter()
        .enumerate()
        .map(|(qi, gt)| {
            let query = generate_noisy_query(catalog, gt, NoiseLevel::Zero, 3, 7 + qi as u64)
                .expect("query generation");
            (gt.name.clone(), ViewSpec::Qbe(query))
        })
        .collect()
}

/// Render the observable online-path output for one query.
pub fn render_query(out: &mut String, name: &str, result: &QueryResult) {
    let s = &result.search_stats;
    let _ = writeln!(out, "# query {name}");
    let _ = writeln!(
        out,
        "stats combinations={} groups={} graphs={} views={}",
        s.combinations, s.joinable_groups, s.join_graphs, s.views
    );
    for v in &result.views {
        let tables: Vec<String> = v
            .provenance
            .source_tables
            .iter()
            .map(|t| t.to_string())
            .collect();
        let _ = writeln!(
            out,
            "view {} score={:.6} rows={} cols={} hops={} tables={}",
            v.id,
            v.provenance.join_score,
            v.row_count(),
            v.schema().arity(),
            v.provenance.hops(),
            tables.join(",")
        );
    }
    let survivors: Vec<String> = result
        .distill
        .survivors_c2
        .iter()
        .map(|v| v.to_string())
        .collect();
    let _ = writeln!(out, "survivors_c2 {}", survivors.join(" "));
    let ranked: Vec<String> = result
        .ranked
        .iter()
        .map(|(v, score)| format!("{v}:{score}"))
        .collect();
    let _ = writeln!(out, "ranked {}", ranked.join(" "));
    let _ = writeln!(out);
}

/// Render the full snapshot by driving each golden query through `run` —
/// the rebuild path passes `Ver::run` (owned results), the serving path
/// passes `ServeEngine::query` (shared `Arc` results).
pub fn snapshot_with<T, E>(
    queries: &[(String, ViewSpec)],
    mut run: impl FnMut(&ViewSpec) -> Result<T, E>,
) -> String
where
    T: std::borrow::Borrow<QueryResult>,
    E: std::fmt::Debug,
{
    let mut out = String::new();
    let _ = writeln!(out, "# golden online-path snapshot (see golden_online.rs)");
    let _ = writeln!(out);
    for (name, spec) in queries {
        let result = run(spec).expect("pipeline run");
        render_query(&mut out, name, result.borrow());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ver_common::ids::ViewId;
    use ver_core::{Ver, VerConfig};

    #[test]
    fn ranked_ids_resolve_by_binary_search_to_what_a_scan_finds() {
        let catalog = golden_catalog();
        let queries = golden_queries(&catalog);
        let ver = Ver::build(catalog, VerConfig::default()).expect("index build");
        for (name, spec) in &queries {
            let result = ver.run(spec).expect("pipeline run");
            assert!(!result.ranked.is_empty(), "{name}: nothing ranked");
            let by_scan = result.ranked.iter().map(|&(id, _)| {
                let found = result.views.iter().find(|v| v.id == id);
                found.expect("ranked view is a candidate")
            });
            let resolved = result.distilled_views();
            assert_eq!(resolved.len(), result.ranked.len(), "{name}");
            for (by_search, by_scan) in resolved.into_iter().zip(by_scan) {
                assert!(std::ptr::eq(by_search, by_scan), "{name}: {}", by_scan.id);
            }
            assert!(result.view(ViewId(result.views.len() as u32)).is_none());
            assert!(result.view(ViewId(u32::MAX)).is_none());
        }
    }

    /// Pins how much join work the shared sub-join DAG saves on the golden
    /// workload, per query: `(candidates, total_steps, distinct_steps,
    /// shared_hits, empty_pruned)`. Q3 and Q5 share a prefix on 41 % and
    /// 29 % of their steps; Q1, Q2 and Q4 share nothing. A rewrite of the
    /// trie that keeps the views but loses the sharing fails here.
    #[test]
    fn dag_sharing_on_the_golden_workload_is_pinned() {
        let catalog = golden_catalog();
        let queries = golden_queries(&catalog);
        let config = VerConfig::default();
        let ver = Ver::build(catalog, config.clone()).expect("index build");
        let expected = [
            ("WDC-Q1", (402, 782, 782, 0, 0)),
            ("WDC-Q2", (374, 728, 728, 0, 0)),
            ("WDC-Q3", (1050, 2020, 1201, 819, 0)),
            ("WDC-Q4", (410, 798, 798, 0, 0)),
            ("WDC-Q5", (521, 1007, 715, 292, 0)),
        ];
        assert_eq!(queries.len(), expected.len());
        for ((name, spec), (want_name, want)) in queries.iter().zip(expected) {
            assert_eq!(name, want_name);
            let selection =
                ver_core::spec_select::select_for_spec(ver.index(), spec, &config.selection);
            let out = ver_search::SearchContext::new(ver.catalog(), ver.index())
                .search(&selection, &config.search)
                .expect("search");
            let d = out.dag;
            let got = (
                d.candidates,
                d.total_steps,
                d.distinct_steps,
                d.shared_hits,
                d.empty_pruned,
            );
            assert_eq!(got, want, "{name}");
        }
    }

    /// Pins what 4C decides on the golden workload, per query: the counts
    /// `(original, survivors_c1, survivors_c2, compatible_groups,
    /// complementary_pairs, contradictions)` and one digest over the
    /// labelled edges of `G`, the compatible groups, the contradiction
    /// groups and the complementary pairs. The snapshot pins only C2's
    /// survivors; a rewrite of C1, the labels or the contradiction index
    /// that keeps those fails here.
    #[test]
    fn distillation_on_the_golden_workload_is_pinned() {
        use std::hash::{Hash, Hasher};
        use ver_common::fxhash::FxHasher;

        let catalog = golden_catalog();
        let queries = golden_queries(&catalog);
        let ver = Ver::build(catalog, VerConfig::default()).expect("index build");
        let expected = [
            ("WDC-Q1", (402, 87, 65, 20, 433, 50), 0x5fd4_bd4c_f0b5_49b8),
            ("WDC-Q2", (374, 79, 57, 20, 330, 50), 0x1239_4908_066d_2464),
            ("WDC-Q3", (1050, 52, 6, 52, 15, 5), 0x3f33_0ae0_460f_9c12),
            ("WDC-Q4", (410, 95, 73, 20, 548, 50), 0x8e63_f323_eb90_c2b2),
            ("WDC-Q5", (521, 97, 42, 55, 26, 134), 0xdbc4_b9ef_1524_c1b7),
        ];
        let mut got = Vec::new();
        for (name, spec) in &queries {
            let d = ver.run(spec).expect("pipeline run").distill;
            let counts = (
                d.original_count(),
                d.survivors_c1.len(),
                d.survivors_c2.len(),
                d.compatible_groups.len(),
                d.complementary_pairs.len(),
                d.contradictions.len(),
            );
            let mut h = FxHasher::default();
            d.graph.edges().hash(&mut h);
            d.compatible_groups.hash(&mut h);
            for c in &d.contradictions {
                (&c.key, &c.groups).hash(&mut h);
            }
            d.complementary_pairs.hash(&mut h);
            got.push((name.as_str(), counts, h.finish()));
        }
        assert_eq!(got, expected);
    }
}
