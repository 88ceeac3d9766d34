//! Property-based integration tests: invariants of the pipeline under
//! arbitrary (seeded) noise, query shapes and corpus sizes.

use proptest::prelude::*;
use ver_core::{Ver, VerConfig};
use ver_datagen::chembl::{generate_chembl, ChemblConfig};
use ver_datagen::workload::chembl_ground_truths;
use ver_distill::strategy::distill_counts;
use ver_qbe::noise::{generate_noisy_query, NoiseLevel};
use ver_qbe::ViewSpec;

fn small_ver(seed: u64) -> Ver {
    let cat = generate_chembl(&ChemblConfig {
        n_compounds: 60,
        n_tables: 12,
        seed,
    })
    .unwrap();
    Ver::build(cat, VerConfig::fast()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case runs a full pipeline; keep the budget sane
        .. ProptestConfig::default()
    })]

    #[test]
    fn pipeline_never_panics_and_funnel_is_monotone(
        corpus_seed in 0u64..3,
        gt_idx in 0usize..5,
        noise in prop_oneof![
            Just(NoiseLevel::Zero),
            Just(NoiseLevel::Medium),
            Just(NoiseLevel::High)
        ],
        query_seed in 0u64..1000,
        rows in 2usize..6,
    ) {
        let ver = small_ver(corpus_seed);
        let gts = chembl_ground_truths(ver.catalog()).unwrap();
        let query = generate_noisy_query(
            ver.catalog(), &gts[gt_idx], noise, rows, query_seed,
        ).unwrap();
        let result = ver.run(&ViewSpec::Qbe(query)).unwrap();

        // Funnel monotonicity (Fig. 1): views ≥ C1 ≥ C2 ≥ C3.
        let counts = distill_counts(&result.views, &result.distill);
        prop_assert!(counts.c1 <= counts.original);
        prop_assert!(counts.c2 <= counts.c1);
        prop_assert!(counts.c3_worst <= counts.c2);
        prop_assert!(counts.c3_best <= counts.c3_worst);

        // Ranking covers exactly the survivors.
        prop_assert_eq!(result.ranked.len(), result.distill.survivors_c2.len());

        // Views are deduplicated row sets.
        for v in &result.views {
            prop_assert_eq!(v.row_set().len(), v.row_count());
        }

        // Search stats consistency.
        prop_assert!(result.search_stats.join_graphs >= result.search_stats.joinable_groups
            || result.search_stats.joinable_groups == 0);
    }

    #[test]
    fn query_generation_respects_noise_fractions(
        gt_idx in 0usize..5,
        query_seed in 0u64..500,
    ) {
        let ver = small_ver(1);
        let gts = chembl_ground_truths(ver.catalog()).unwrap();
        for level in NoiseLevel::all() {
            let q = generate_noisy_query(
                ver.catalog(), &gts[gt_idx], level, 3, query_seed,
            ).unwrap();
            prop_assert_eq!(q.arity(), 2);
            prop_assert_eq!(q.rows(), 3);
        }
    }

    #[test]
    fn distillation_is_idempotent_on_survivors(
        corpus_seed in 0u64..3,
        query_seed in 0u64..100,
    ) {
        let ver = small_ver(corpus_seed);
        let gts = chembl_ground_truths(ver.catalog()).unwrap();
        let query = generate_noisy_query(
            ver.catalog(), &gts[0], NoiseLevel::Zero, 3, query_seed,
        ).unwrap();
        let result = ver.run(&ViewSpec::Qbe(query)).unwrap();

        // Re-distilling only the survivors changes nothing: they are
        // pairwise non-compatible and non-contained.
        let survivors: Vec<ver_engine::view::View> = result
            .views
            .iter()
            .filter(|v| result.distill.survivors_c2.contains(&v.id))
            .cloned()
            .collect();
        let again = ver_distill::distill(&survivors, &ver_distill::DistillConfig::default());
        prop_assert_eq!(again.survivors_c2.len(), survivors.len());
        prop_assert!(again.compatible_groups.is_empty());
    }
}
