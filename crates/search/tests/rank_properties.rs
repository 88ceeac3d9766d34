//! Property tests for join-graph ranking, run through the functions the
//! search ranks with: [`rank_order`] as the comparator and [`top_k_by`] as
//! the cut. The ranked order is a total order on graph *content* —
//! permutation-invariant (shuffling the candidate input never changes the
//! output order of distinct graphs) with deterministic tie-breaking by
//! canonical edge form — and the cut to any k is the k-prefix of the full
//! ranking. This is the contract the parallel online path needs for
//! bit-identical results across thread counts. The canonical form over
//! column refs, which the scatter/gather merge ranks by, orders graphs as
//! the form over column ids does.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::cmp::Ordering;
use std::sync::OnceLock;
use ver_common::fxhash::FxHashSet;
use ver_common::ids::ColumnId;
use ver_common::value::Value;
use ver_index::{build_index, canon_into, DiscoveryIndex, IndexConfig, JoinGraph, JoinGraphEdge};
use ver_search::rank::{join_score, rank_order, top_k_by};
use ver_store::catalog::TableCatalog;
use ver_store::table::TableBuilder;

const COLUMNS: u32 = 8;

/// Eight columns with distinct ratios spread across (0, 1], so generated
/// edges hit varied key-ness, in three tables of mixed widths, so column
/// ids and column refs differ. Built once; ranking is read-only.
fn fixture() -> &'static (TableCatalog, DiscoveryIndex) {
    static FIXTURE: OnceLock<(TableCatalog, DiscoveryIndex)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut cat = TableCatalog::new();
        let mut column = 0;
        for (t, width) in [3, 1, 4].into_iter().enumerate() {
            let names: Vec<String> = (0..width).map(|i| format!("c{i}")).collect();
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut b = TableBuilder::new(format!("t{t}"), &names);
            // Column c has 1 + 5c distinct classes out of 40 rows: c=0 →
            // all equal, c=7 → near-unique.
            let classes: Vec<usize> = (column..column + width).map(|c| 1 + 5 * c).collect();
            column += width;
            for i in 0..40 {
                let row = classes.iter().map(|k| Value::text(format!("v{}", i % k)));
                b.push_row(row.collect()).unwrap();
            }
            cat.add_table(b.build()).unwrap();
        }
        assert_eq!(cat.column_count(), COLUMNS as usize);
        let index = build_index(
            &cat,
            IndexConfig {
                threads: 1,
                verify_exact: true,
                ..Default::default()
            },
        )
        .expect("index build");
        (cat, index)
    })
}

fn index() -> &'static DiscoveryIndex {
    &fixture().1
}

/// Strategy output → graphs, deduplicated by canonical form so every graph
/// occupies a distinct rank slot (identical graphs are interchangeable by
/// construction, so invariance is only meaningful across distinct ones).
fn graphs_of(raw: Vec<Vec<(u32, u32, f64)>>) -> Vec<JoinGraph> {
    let mut seen: FxHashSet<Vec<(u32, u32)>> = FxHashSet::default();
    let mut graphs = Vec::new();
    for edges in raw {
        let g = JoinGraph {
            edges: edges
                .into_iter()
                .map(|(l, r, s)| JoinGraphEdge {
                    left: ColumnId(l),
                    right: ColumnId(r),
                    score: s as f32,
                })
                .collect(),
        };
        if seen.insert(g.canon()) {
            graphs.push(g);
        }
    }
    graphs
}

/// One rank key per graph, as the search computes it: (score, canon).
fn keys_of(graphs: &[JoinGraph]) -> Vec<(f64, Vec<(u32, u32)>)> {
    let idx = index();
    graphs
        .iter()
        .map(|g| (join_score(idx, g), g.canon()))
        .collect()
}

/// `rank_order` over keyed items.
fn by_key(keys: &[(f64, Vec<(u32, u32)>)], a: usize, b: usize) -> Ordering {
    rank_order(keys[a].0, &keys[a].1, keys[b].0, &keys[b].1)
}

/// Rank `items` (indices into `keys`) and keep the best `k`.
fn ranked(keys: &[(f64, Vec<(u32, u32)>)], mut items: Vec<usize>, k: usize) -> Vec<usize> {
    top_k_by(&mut items, k, |&a, &b| by_key(keys, a, b));
    items
}

fn raw_graphs() -> impl Strategy<Value = Vec<Vec<(u32, u32, f64)>>> {
    prop::collection::vec(
        prop::collection::vec((0u32..COLUMNS, 0u32..COLUMNS, 0.0f64..1.0), 0..4),
        1..16,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn ranking_is_permutation_invariant(raw in raw_graphs(), seed in 0u64..1_000_000) {
        let graphs = graphs_of(raw);
        let keys = keys_of(&graphs);
        let original: Vec<usize> = (0..graphs.len()).collect();
        let mut shuffled = original.clone();
        shuffled.shuffle(&mut StdRng::seed_from_u64(seed));

        let a = ranked(&keys, original, usize::MAX);
        let b = ranked(&keys, shuffled, usize::MAX);
        let canon_a: Vec<_> = a.iter().map(|&i| graphs[i].canon()).collect();
        let canon_b: Vec<_> = b.iter().map(|&i| graphs[i].canon()).collect();
        prop_assert_eq!(canon_a, canon_b, "shuffle changed the ranked order");
    }

    #[test]
    fn ranking_is_a_total_order_with_canonical_ties(raw in raw_graphs()) {
        let idx = index();
        let graphs = graphs_of(raw);
        let keys = keys_of(&graphs);
        let order = ranked(&keys, (0..graphs.len()).collect(), usize::MAX);

        for w in order.windows(2) {
            let (ga, gb) = (&graphs[w[0]], &graphs[w[1]]);
            let (sa, sb) = (join_score(idx, ga), join_score(idx, gb));
            prop_assert!(sa >= sb, "scores must be non-increasing: {} < {}", sa, sb);
            if sa == sb {
                prop_assert!(
                    ga.canon() <= gb.canon(),
                    "equal scores must order by canonical form"
                );
            }
        }

        // The gather's canonical form, over column refs, orders the graphs
        // exactly as the form over column ids does.
        let by_refs = |g: &JoinGraph| {
            let mut canon = Vec::new();
            canon_into(g.column_edges(&fixture().0).unwrap(), &mut canon);
            canon
        };
        let mut by_id: Vec<usize> = (0..graphs.len()).collect();
        by_id.sort_by_key(|&i| graphs[i].canon());
        let mut by_ref: Vec<usize> = (0..graphs.len()).collect();
        by_ref.sort_by_key(|&i| by_refs(&graphs[i]));
        prop_assert_eq!(by_id, by_ref, "column refs must order graphs as column ids do");
    }

    #[test]
    fn ranking_twice_is_idempotent(raw in raw_graphs()) {
        let keys = keys_of(&graphs_of(raw));
        let once = ranked(&keys, (0..keys.len()).collect(), usize::MAX);
        let twice = ranked(&keys, once.clone(), usize::MAX);
        prop_assert_eq!(once, twice, "re-ranking a ranked list must be a no-op");
    }

    #[test]
    fn top_k_cut_equals_sort_then_truncate(
        raw in raw_graphs(),
        k in 0usize..20,
        seed in 0u64..1_000_000,
    ) {
        let keys = keys_of(&graphs_of(raw));
        let mut input: Vec<usize> = (0..keys.len()).collect();
        input.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut sorted = input.clone();
        sorted.sort_by(|&a, &b| by_key(&keys, a, b));
        sorted.truncate(k);
        prop_assert_eq!(ranked(&keys, input, k), sorted, "k={}", k);
    }

    #[test]
    fn ranked_keys_are_strictly_increasing(
        raw in raw_graphs(),
        projections in 1usize..4,
        k in 0usize..40,
    ) {
        // Search candidates: every graph paired with every projection of
        // its group, the projection breaking ties as in `search_filtered`.
        let keys = keys_of(&graphs_of(raw));
        let mut candidates: Vec<(usize, usize)> = (0..keys.len())
            .flat_map(|g| (0..projections).map(move |p| (g, p)))
            .collect();
        let order = |a: &(usize, usize), b: &(usize, usize)| {
            by_key(&keys, a.0, b.0).then_with(|| a.1.cmp(&b.1))
        };
        top_k_by(&mut candidates, k, order);
        prop_assert_eq!(candidates.len(), k.min(keys.len() * projections));
        for w in candidates.windows(2) {
            prop_assert_eq!(order(&w[0], &w[1]), Ordering::Less, "keys must be unique");
        }
    }

    #[test]
    fn rank_order_is_antisymmetric_and_consistent(
        sa in 0.0f64..1.0,
        sb in 0.0f64..1.0,
        ca in prop::collection::vec((0u32..COLUMNS, 0u32..COLUMNS), 0..3),
        cb in prop::collection::vec((0u32..COLUMNS, 0u32..COLUMNS), 0..3),
    ) {
        let ab = rank_order(sa, &ca, sb, &cb);
        let ba = rank_order(sb, &cb, sa, &ca);
        prop_assert_eq!(ab, ba.reverse(), "comparator must be antisymmetric");
        // Equal keys compare equal; distinct keys never do.
        if sa == sb && ca == cb {
            prop_assert_eq!(ab, Ordering::Equal);
        }
        if ab == Ordering::Equal {
            prop_assert!(sa == sb && ca == cb, "only identical keys may tie");
        }
    }
}
