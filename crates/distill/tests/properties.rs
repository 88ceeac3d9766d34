//! Property-based tests: 4C labels must agree with their set-theoretic
//! definitions for arbitrary view collections.

use proptest::prelude::*;
use std::collections::HashSet;
use ver_common::ids::ViewId;
use ver_common::value::Value;
use ver_distill::strategy::{contradiction_steps, distill_counts, CaseChoice};
use ver_distill::{distill, Category, DistillConfig};
use ver_engine::rowhash::table_row_hashes;
use ver_engine::view::{Provenance, View};
use ver_store::table::{Table, TableBuilder};

/// The set of a table's row hashes.
fn row_hash_set(table: &Table) -> HashSet<u64> {
    table_row_hashes(table).into_iter().collect()
}

/// A collection of (k, v) views with keys drawn from a small space so
/// overlaps, containments and conflicts all occur.
fn views_strategy(max_views: usize) -> impl Strategy<Value = Vec<View>> {
    prop::collection::vec(
        prop::collection::vec((0..12i64, 0..4i64), 1..14),
        1..max_views,
    )
    .prop_map(|tables| {
        tables
            .into_iter()
            .enumerate()
            .map(|(i, rows)| {
                let mut b = TableBuilder::new("v", &["k", "x"]);
                for (k, v) in rows {
                    b.push_row(vec![Value::Int(k), Value::Int(v)]).unwrap();
                }
                View::new(ViewId(i as u32), b.build(), Provenance::default())
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn labels_match_set_semantics(views in views_strategy(10)) {
        let out = distill(&views, &DistillConfig::default());
        for (a, b, cat) in out.graph.edges() {
            let va = views.iter().find(|v| v.id == a).unwrap();
            let vb = views.iter().find(|v| v.id == b).unwrap();
            let sa = row_hash_set(&va.table);
            let sb = row_hash_set(&vb.table);
            match cat {
                Category::Compatible => prop_assert_eq!(&sa, &sb),
                Category::Contained => {
                    let (small, large) = if sa.len() < sb.len() { (&sa, &sb) } else { (&sb, &sa) };
                    prop_assert!(small.iter().all(|h| large.contains(h)));
                    prop_assert!(small.len() < large.len());
                }
                Category::Complementary => {
                    // overlapping, neither contained
                    prop_assert!(sa.intersection(&sb).next().is_some());
                    prop_assert!(!sa.iter().all(|h| sb.contains(h)));
                    prop_assert!(!sb.iter().all(|h| sa.contains(h)));
                }
                Category::Contradictory => {
                    // both views carry a shared candidate key
                    prop_assert!(
                        out.view_keys[&a].iter().any(|k| out.view_keys[&b].contains(k))
                    );
                }
            }
        }
    }

    #[test]
    fn funnel_counts_are_monotone(views in views_strategy(12)) {
        let out = distill(&views, &DistillConfig::default());
        let counts = distill_counts(&views, &out);
        prop_assert_eq!(counts.original, views.len());
        prop_assert!(counts.c1 <= counts.original);
        prop_assert!(counts.c2 <= counts.c1);
        prop_assert!(counts.c3_worst <= counts.c2);
        prop_assert!(counts.c3_best <= counts.c3_worst);
        prop_assert!(counts.c3_best >= 1);
    }

    #[test]
    fn distill_is_deterministic(views in views_strategy(8)) {
        let a = distill(&views, &DistillConfig::default());
        let b = distill(&views, &DistillConfig::default());
        prop_assert_eq!(a.survivors_c1.clone(), b.survivors_c1.clone());
        prop_assert_eq!(a.survivors_c2.clone(), b.survivors_c2.clone());
        prop_assert_eq!(a.contradictions.clone(), b.contradictions.clone());
        prop_assert_eq!(a.graph.edges(), b.graph.edges());
    }

    #[test]
    fn contradiction_groups_partition_their_views(views in views_strategy(10)) {
        let out = distill(&views, &DistillConfig::default());
        for c in &out.contradictions {
            prop_assert!(c.groups.len() >= 2);
            let mut seen = HashSet::new();
            for g in &c.groups {
                prop_assert!(!g.is_empty());
                for v in g {
                    prop_assert!(seen.insert(*v), "view {v:?} in two groups");
                }
            }
        }
    }

    #[test]
    fn pruning_steps_never_increase(views in views_strategy(10)) {
        let out = distill(&views, &DistillConfig::default());
        for case in [CaseChoice::Best, CaseChoice::Worst] {
            let steps = contradiction_steps(&out, case, 10);
            prop_assert!(steps.windows(2).all(|w| w[1] <= w[0]));
            prop_assert_eq!(steps[0], out.survivors_c2.len());
        }
    }

    #[test]
    fn survivors_are_pairwise_incomparable(views in views_strategy(10)) {
        let out = distill(&views, &DistillConfig::default());
        let survivors: Vec<&View> = views
            .iter()
            .filter(|v| out.survivors_c2.contains(&v.id))
            .collect();
        for (i, a) in survivors.iter().enumerate() {
            for b in &survivors[i + 1..] {
                let sa = row_hash_set(&a.table);
                let sb = row_hash_set(&b.table);
                prop_assert!(sa != sb, "compatible views must not both survive");
                if !sa.is_empty() && !sb.is_empty() {
                    let a_in_b = sa.iter().all(|h| sb.contains(h));
                    let b_in_a = sb.iter().all(|h| sa.contains(h));
                    prop_assert!(!a_in_b && !b_in_a, "contained views must not both survive");
                }
            }
        }
    }
}
