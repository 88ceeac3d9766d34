//! Algorithm 3: two-phase 4C categorisation with per-phase timing.
//!
//! Phase timings use the labels of Fig. 4a: `schema_partition`
//! (SCHEMA-BASED-BLOCKS), `hash_c1` (row hashing + compatible detection),
//! `c2` (containment), `c3_c4` (key discovery, complementary marking,
//! inverted key index, contradiction grouping).

use crate::blocks::schema_blocks;
use crate::categories::{Category, ViewGraph};
use crate::hashes::HashCache;
use crate::keys::{find_candidate_keys, key_value_hash, Key};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use ver_common::budget::QueryBudget;
use ver_common::error::Result;
use ver_common::fxhash::{fx_hash_u64, FxHashMap, FxHashSet};
use ver_common::ids::ViewId;
use ver_common::timer::PhaseTimer;
use ver_engine::rowhash::{relation, SetRelation};
use ver_engine::view::View;

/// Key-uniqueness slack of C3's candidate keys (0.0 = exact keys).
const KEY_EPSILON: f64 = 0.0;

/// Maximum width of C3's candidate keys.
const MAX_KEY_WIDTH: usize = 2;

/// Tunables for distillation.
#[derive(Debug, Clone, Default)]
pub struct DistillConfig {
    /// Worker threads for the per-view work — row hashing, candidate-key
    /// discovery, per-key contradiction hashing (`0` = one per available
    /// hardware thread, the default). Output is identical for every value.
    pub threads: usize,
}

/// One contradiction signal: under `key`, the views split into `groups`
/// that disagree about at least one key value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Contradiction {
    /// The candidate key the contradiction is relative to.
    pub key: Key,
    /// Disagreeing groups (each sorted; ≥ 2 groups).
    pub groups: Vec<Vec<ViewId>>,
}

impl Contradiction {
    /// Total views involved.
    pub fn view_count(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }

    /// Degree of discrimination: the number of views that agree with one
    /// side (the largest group) — Fig. 2 sorts contradictions by this,
    /// descending.
    pub fn discrimination(&self) -> usize {
        self.groups.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Output of Algorithm 3.
#[derive(Debug)]
pub struct DistillOutput {
    /// The labelled graph `G`.
    pub graph: ViewGraph,
    /// Candidate keys per view (only for C2 survivors; earlier views are
    /// represented by their compatible/containment representative).
    pub view_keys: FxHashMap<ViewId, Vec<Key>>,
    /// Compatible groups of size ≥ 2 (first member is the representative).
    pub compatible_groups: Vec<Vec<ViewId>>,
    /// Views remaining after compatible dedup (C1).
    pub survivors_c1: Vec<ViewId>,
    /// Views remaining after containment pruning (C2).
    pub survivors_c2: Vec<ViewId>,
    /// Contradiction signals among C2 survivors.
    pub contradictions: Vec<Contradiction>,
    /// Complementary pairs with the shared keys that make them so.
    pub complementary_pairs: Vec<(ViewId, ViewId, Vec<Key>)>,
    /// Per-phase wall times (Fig. 4a).
    pub timer: PhaseTimer,
}

impl DistillOutput {
    /// Number of original views distilled.
    pub fn original_count(&self) -> usize {
        self.graph.nodes().len()
    }
}

/// Run Algorithm 3 over `views`.
///
/// Infallible wrapper over [`distill_budgeted`] with an unlimited budget —
/// the historical entry point, bit-identical to pre-budget builds.
pub fn distill(views: &[View], config: &DistillConfig) -> DistillOutput {
    match distill_budgeted(views, config, &QueryBudget::none()) {
        Ok(out) => out,
        // Unlimited budgets never trip; the only other error source is a
        // worker panic (or an armed fault point), which the unbudgeted
        // entry point propagates as the panic it always was.
        Err(e) => panic!("distill failed: {e}"),
    }
}

/// Run Algorithm 3 over `views` under a [`QueryBudget`].
///
/// The cooperative deadline is checked per schema block in every phase and
/// per view in candidate-key discovery (the dominant per-view cost), so a
/// tripped budget surfaces as [`VerError::DeadlineExceeded`] within one
/// stage step. Distillation output is one connected artifact (a labelled
/// graph over *all* views), so unlike search it cannot drop individual
/// items: exhaustion fails the whole distill and the serving layer
/// degrades by returning ranked views without 4C labels. A panic in
/// per-view work is likewise confined to `Err(VerError::Internal)`.
///
/// [`VerError::DeadlineExceeded`]: ver_common::error::VerError
/// [`VerError::Internal`]: ver_common::error::VerError
pub fn distill_budgeted(
    views: &[View],
    config: &DistillConfig,
    budget: &QueryBudget,
) -> Result<DistillOutput> {
    let mut timer = PhaseTimer::new();
    let pool = ver_common::pool::ThreadPool::new(config.threads);
    let mut graph = ViewGraph::new(views.iter().map(|v| v.id).collect());

    // Phase SP: schema blocks.
    let blocks = timer.time("schema_partition", || schema_blocks(views));

    // Phase Hash + C1: sorting each view's row hashes into its row set fans
    // out per view (views from the DAG bring their row hashes along, so no
    // cell is hashed); the compatible sweep over the prefilled cache stays
    // sequential (it is pure lookups).
    budget.check("distill.hash_c1")?;
    let cache = timer.time("hash_c1", || HashCache::prefill(views, &pool));
    let mut compatible_groups: Vec<Vec<ViewId>> = Vec::new();
    let mut survivors_c1: Vec<usize> = Vec::new(); // indices into `views`
    timer.time("hash_c1", || -> Result<()> {
        for block in &blocks {
            budget.check("distill.c1")?;
            let (reps, matches) = compatible_sweep(&block.members, &cache);
            let mut groups: FxHashMap<usize, Vec<ViewId>> = FxHashMap::default();
            for (rep, vi) in matches {
                graph.label(views[rep].id, views[vi].id, Category::Compatible);
                groups.entry(rep).or_default().push(views[vi].id);
            }
            for rep in &reps {
                if let Some(members) = groups.remove(rep) {
                    let mut g = vec![views[*rep].id];
                    g.extend(members);
                    compatible_groups.push(g);
                }
            }
            survivors_c1.extend(reps);
        }
        // Sorted, so the later phases test membership by binary search.
        survivors_c1.sort_unstable();
        Ok(())
    })?;

    // Phase C2: containment among C1 survivors, per block.
    let mut survivors_c2: Vec<usize> = Vec::new();
    timer.time("c2", || -> Result<()> {
        for block in &blocks {
            budget.check("distill.c2")?;
            let mut members: Vec<usize> = block
                .members
                .iter()
                .copied()
                .filter(|i| survivors_c1.binary_search(i).is_ok())
                .collect();
            // Largest first: a view can only be contained in a larger one.
            members.sort_by_key(|&i| std::cmp::Reverse(cache.set(i).len()));
            let mut kept: Vec<usize> = Vec::new();
            'next_view: for vi in members {
                for &big in &kept {
                    if relation(cache.set(big), cache.set(vi)) == SetRelation::RightInLeft {
                        graph.label(views[big].id, views[vi].id, Category::Contained);
                        continue 'next_view;
                    }
                }
                kept.push(vi);
            }
            survivors_c2.extend(kept);
        }
        survivors_c2.sort_unstable();
        Ok(())
    })?;

    // Phase C3 + C4: keys, complementary marking, contradictions.
    let mut view_keys: FxHashMap<ViewId, Vec<Key>> = FxHashMap::default();
    let mut complementary_pairs: Vec<(ViewId, ViewId, Vec<Key>)> = Vec::new();
    let mut contradictions: Vec<Contradiction> = Vec::new();
    timer.time("c3_c4", || -> Result<()> {
        // Candidate-key discovery is independent per view: fan out, then
        // insert in survivor order (order-preserving par_map keeps the map
        // contents identical to the sequential pass). The per-view closure
        // is the `distill.view` stage boundary: deadline check, fault
        // point, and panic isolation all sit here.
        let found = pool.try_par_map(&survivors_c2, |&vi| {
            ver_common::fault::hit(ver_common::fault::points::DISTILL_VIEW)?;
            budget.check("distill.view")?;
            // Forces the gather: key uniqueness is counted over cells.
            Ok(find_candidate_keys(
                &views[vi].table,
                KEY_EPSILON,
                MAX_KEY_WIDTH,
            ))
        });
        for (&vi, keys) in survivors_c2.iter().zip(found) {
            view_keys.insert(views[vi].id, keys?);
        }

        for block in &blocks {
            budget.check("distill.c3_c4")?;
            let members: Vec<usize> = block
                .members
                .iter()
                .copied()
                .filter(|i| survivors_c2.binary_search(i).is_ok())
                .collect();
            if members.len() < 2 {
                continue;
            }

            // Keys shared by at least two members of the block.
            let mut key_owners: FxHashMap<Key, Vec<usize>> = FxHashMap::default();
            for &vi in &members {
                for k in &view_keys[&views[vi].id] {
                    key_owners.entry(k.clone()).or_default().push(vi);
                }
            }
            let mut shared_keys: Vec<(Key, Vec<usize>)> = key_owners
                .into_iter()
                .filter(|(_, owners)| owners.len() >= 2)
                .collect();
            shared_keys.sort_by(|a, b| a.0.cmp(&b.0));

            // Complementary marking: overlapping pairs sharing ≥ 1 key.
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    let shared: Vec<Key> = view_keys[&views[a].id]
                        .iter()
                        .filter(|k| view_keys[&views[b].id].contains(k))
                        .cloned()
                        .collect();
                    if shared.is_empty() {
                        continue;
                    }
                    if relation(cache.set(a), cache.set(b)) == SetRelation::Overlap {
                        graph.label(views[a].id, views[b].id, Category::Complementary);
                        complementary_pairs.push((views[a].id, views[b].id, shared));
                    }
                }
            }

            // Contradictions: inverted index per shared key. The per-view
            // hashing (key values + row hashes, the expensive part) fans
            // out as ONE flat (key, owner) task list for the whole block —
            // keys typically have 2-3 owners each, so a per-key fan-out
            // would pay thread spawn/join per key for microseconds of
            // work. Each task returns its entries sorted by key value so
            // the sequential merge below inserts in an order determined by
            // content alone, not thread interleaving.
            let tasks: Vec<(usize, usize)> = shared_keys
                .iter()
                .enumerate()
                .flat_map(|(ki, (_, owners))| (0..owners.len()).map(move |oi| (ki, oi)))
                .collect();
            let hashed: Vec<Vec<(u64, u64)>> = pool.par_map(&tasks, |&(ki, oi)| {
                let (key, owners) = &shared_keys[ki];
                // Reads cells (`key_value_hash`); every owner is a C2
                // survivor, gathered by key discovery above.
                let table = &views[owners[oi]].table;
                // key value → set of full-row hashes (sorted → stable hash)
                let mut per_value: FxHashMap<u64, Vec<u64>> = FxHashMap::default();
                for (r, &row_hash) in cache.row_hashes(owners[oi]).iter().enumerate() {
                    let kv = key_value_hash(table, r, key);
                    per_value.entry(kv).or_default().push(row_hash);
                }
                let mut entries: Vec<(u64, u64)> = per_value
                    .into_iter()
                    .map(|(kv, mut rows)| {
                        rows.sort_unstable();
                        rows.dedup();
                        (kv, fx_hash_u64(&rows))
                    })
                    .collect();
                entries.sort_unstable();
                entries
            });
            let mut cursor = 0usize;
            for (key, owners) in &shared_keys {
                // Tasks were emitted key-major, so this key's owners sit at
                // `hashed[cursor..cursor + owners.len()]` in owner order.
                let per_owner = &hashed[cursor..cursor + owners.len()];
                cursor += owners.len();
                // key value hash → view → row-set hash under that key value.
                let mut index: FxHashMap<u64, Vec<(ViewId, u64)>> = FxHashMap::default();
                for (&vi, entries) in owners.iter().zip(per_owner) {
                    for &(kv, row_set_hash) in entries {
                        index
                            .entry(kv)
                            .or_default()
                            .push((views[vi].id, row_set_hash));
                    }
                }
                // Group views per key value by their row-set hash.
                let mut signals: FxHashSet<Vec<Vec<ViewId>>> = FxHashSet::default();
                for entries in index.values() {
                    if entries.len() < 2 {
                        continue;
                    }
                    let mut groups: FxHashMap<u64, Vec<ViewId>> = FxHashMap::default();
                    for &(vid, rh) in entries {
                        groups.entry(rh).or_default().push(vid);
                    }
                    if groups.len() < 2 {
                        continue;
                    }
                    let mut gs: Vec<Vec<ViewId>> = groups.into_values().collect();
                    for g in &mut gs {
                        g.sort_unstable();
                        g.dedup();
                    }
                    gs.sort();
                    // Label all cross-group pairs contradictory.
                    for (gi, ga) in gs.iter().enumerate() {
                        for gb in &gs[gi + 1..] {
                            for &a in ga {
                                for &b in gb {
                                    graph.label(a, b, Category::Contradictory);
                                }
                            }
                        }
                    }
                    // Merge identical group structures into one signal.
                    if signals.insert(gs.clone()) {
                        contradictions.push(Contradiction {
                            key: key.clone(),
                            groups: gs,
                        });
                    }
                }
            }
        }
        // Deterministic order: most discriminative first (Fig. 2 order).
        contradictions.sort_by(|a, b| {
            b.discrimination()
                .cmp(&a.discrimination())
                .then_with(|| a.key.cmp(&b.key))
                .then_with(|| a.groups.cmp(&b.groups))
        });
        complementary_pairs.sort_by_key(|&(a, b, _)| (a, b));
        Ok(())
    })?;

    Ok(DistillOutput {
        graph,
        view_keys,
        compatible_groups,
        survivors_c1: survivors_c1
            .iter()
            .map(|&i| views[i].id)
            .collect::<Vec<_>>()
            .sorted(),
        survivors_c2: survivors_c2
            .iter()
            .map(|&i| views[i].id)
            .collect::<Vec<_>>()
            .sorted(),
        contradictions,
        complementary_pairs,
        timer,
    })
}

/// C1 over one schema block: `(representatives, (representative, member)
/// matches)`, both in block order — a member joins the first earlier
/// member with the same row set, or becomes a representative.
///
/// A map from each row set seen so far to the first member that had it
/// finds that member in one lookup; set equality is an equivalence, so it
/// is the same view a sweep over all representatives would find first.
pub fn compatible_sweep(
    members: &[usize],
    cache: &HashCache<'_>,
) -> (Vec<usize>, Vec<(usize, usize)>) {
    let mut reps: Vec<usize> = Vec::new();
    let mut matches: Vec<(usize, usize)> = Vec::new();
    let mut first: FxHashMap<&[u64], usize> = FxHashMap::default();
    for &vi in members {
        match first.entry(cache.set(vi)) {
            Entry::Occupied(rep) => matches.push((*rep.get(), vi)),
            Entry::Vacant(slot) => {
                slot.insert(vi);
                reps.push(vi);
            }
        }
    }
    (reps, matches)
}

/// Tiny helper: sort-and-return for readability above.
trait Sorted {
    fn sorted(self) -> Self;
}

impl Sorted for Vec<ViewId> {
    fn sorted(mut self) -> Self {
        self.sort_unstable();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ver_common::value::Value;
    use ver_engine::view::Provenance;
    use ver_store::table::TableBuilder;

    /// Build a (state, pop) view from rows.
    fn view(id: u32, rows: &[(&str, i64)]) -> View {
        let mut b = TableBuilder::new("v", &["state", "pop"]);
        for (s, p) in rows {
            b.push_row(vec![Value::text(*s), Value::Int(*p)]).unwrap();
        }
        View::new(ViewId(id), b.build(), Provenance::default())
    }

    #[test]
    fn compatible_views_dedupe_to_one() {
        let views = vec![
            view(0, &[("IN", 1), ("GA", 2)]),
            view(1, &[("GA", 2), ("IN", 1)]), // same rows, different order
            view(2, &[("TX", 3)]),
        ];
        let out = distill(&views, &DistillConfig::default());
        assert_eq!(
            out.graph.get(ViewId(0), ViewId(1)),
            Some(Category::Compatible)
        );
        assert_eq!(out.compatible_groups, vec![vec![ViewId(0), ViewId(1)]]);
        assert_eq!(out.survivors_c1, vec![ViewId(0), ViewId(2)]);
    }

    /// The pairwise C1 sweep the first-seen map replaced: every member
    /// against every representative so far. Kept as the reference.
    fn compatible_sweep_pairwise(
        members: &[usize],
        cache: &HashCache<'_>,
    ) -> (Vec<usize>, Vec<(usize, usize)>) {
        let mut reps: Vec<usize> = Vec::new();
        let mut matches = Vec::new();
        for &vi in members {
            match reps
                .iter()
                .find(|&&rep| relation(cache.set(rep), cache.set(vi)) == SetRelation::Equal)
            {
                Some(&rep) => matches.push((rep, vi)),
                None => reps.push(vi),
            }
        }
        (reps, matches)
    }

    /// `(reps, compatible_groups, compatible labels)` of one block, derived
    /// from a sweep's result exactly as `distill_budgeted` derives them.
    #[allow(clippy::type_complexity)]
    fn c1_outcome(
        (reps, matches): (Vec<usize>, Vec<(usize, usize)>),
    ) -> (Vec<usize>, Vec<Vec<usize>>, Vec<(usize, usize)>) {
        let groups = reps
            .iter()
            .map(|&rep| {
                let mut g = vec![rep];
                g.extend(matches.iter().filter(|m| m.0 == rep).map(|m| m.1));
                g
            })
            .filter(|g| g.len() > 1)
            .collect();
        (reps, groups, matches)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

        // Random blocks full of duplicates, subsets and permuted rows:
        // the one-pass sweep equals the pairwise sweep.
        #[test]
        fn one_pass_c1_equals_the_pairwise_sweep(
            base in prop::collection::vec(prop::collection::vec((0..6i64, 0..3i64), 0..7), 1..6),
            picks in prop::collection::vec((0..64usize, 0..4usize, 0..8usize), 1..24),
        ) {
            // Each view is a base row list rotated (same set, new order),
            // with its head repeated (same set, more rows) or truncated
            // (a subset).
            let names = ["ST0", "ST1", "ST2", "ST3", "ST4", "ST5"];
            let views: Vec<View> = picks
                .iter()
                .map(|&(b, mode, rot)| {
                    let mut rows = base[b % base.len()].clone();
                    if !rows.is_empty() {
                        let k = rot % rows.len();
                        rows.rotate_left(k);
                        match mode {
                            1 => rows.push(rows[0]),
                            2 => rows.truncate(rows.len() - 1),
                            _ => {}
                        }
                    }
                    let rows: Vec<(&str, i64)> =
                        rows.iter().map(|&(s, p)| (names[s as usize], p)).collect();
                    // Shared ids on purpose: nothing may key on them.
                    view(0, &rows)
                })
                .collect();
            let cache = HashCache::prefill(&views, &ver_common::pool::ThreadPool::new(1));
            let members: Vec<usize> = (0..views.len()).collect();
            let expect = c1_outcome(compatible_sweep_pairwise(&members, &cache));
            prop_assert_eq!(c1_outcome(compatible_sweep(&members, &cache)), expect);
        }
    }

    #[test]
    fn contained_views_keep_the_larger() {
        let views = vec![
            view(0, &[("IN", 1)]),
            view(1, &[("IN", 1), ("GA", 2), ("TX", 3)]),
        ];
        let out = distill(&views, &DistillConfig::default());
        assert_eq!(
            out.graph.get(ViewId(0), ViewId(1)),
            Some(Category::Contained)
        );
        assert_eq!(out.survivors_c2, vec![ViewId(1)]);
    }

    #[test]
    fn containment_chain_keeps_only_largest() {
        let views = vec![
            view(0, &[("IN", 1)]),
            view(1, &[("IN", 1), ("GA", 2)]),
            view(2, &[("IN", 1), ("GA", 2), ("TX", 3)]),
        ];
        let out = distill(&views, &DistillConfig::default());
        assert_eq!(out.survivors_c2, vec![ViewId(2)]);
    }

    #[test]
    fn complementary_views_marked_with_shared_key() {
        let views = vec![
            view(0, &[("IN", 1), ("GA", 2)]),
            view(1, &[("GA", 2), ("TX", 3)]), // overlap on GA row, no conflict
        ];
        let out = distill(&views, &DistillConfig::default());
        assert_eq!(
            out.graph.get(ViewId(0), ViewId(1)),
            Some(Category::Complementary)
        );
        assert_eq!(out.complementary_pairs.len(), 1);
        assert!(out.complementary_pairs[0].2.contains(&Key::single(0)));
        assert!(out.contradictions.is_empty());
    }

    #[test]
    fn contradictory_views_detected_and_upgraded() {
        // Same state key "IN" maps to different pops.
        let views = vec![
            view(0, &[("IN", 1), ("GA", 2)]),
            view(1, &[("IN", 999), ("GA", 2)]),
        ];
        let out = distill(&views, &DistillConfig::default());
        assert_eq!(
            out.graph.get(ViewId(0), ViewId(1)),
            Some(Category::Contradictory)
        );
        assert_eq!(out.contradictions.len(), 1);
        let c = &out.contradictions[0];
        assert_eq!(c.key, Key::single(0));
        assert_eq!(c.view_count(), 2);
        assert_eq!(c.discrimination(), 1);
    }

    #[test]
    fn contradiction_groups_cluster_agreeing_views() {
        // Three views agree (IN,1); one dissents (IN,7).
        let views = vec![
            view(0, &[("IN", 1), ("GA", 2)]),
            view(1, &[("IN", 1), ("TX", 3)]),
            view(2, &[("IN", 1), ("CA", 4)]),
            view(3, &[("IN", 7), ("FL", 5)]),
        ];
        let out = distill(&views, &DistillConfig::default());
        let c = out
            .contradictions
            .iter()
            .find(|c| c.view_count() == 4)
            .expect("4-view contradiction on IN");
        assert_eq!(c.discrimination(), 3);
        assert_eq!(c.groups.len(), 2);
        // All cross pairs are contradictory in G.
        assert_eq!(
            out.graph.get(ViewId(0), ViewId(3)),
            Some(Category::Contradictory)
        );
        assert_eq!(
            out.graph.get(ViewId(2), ViewId(3)),
            Some(Category::Contradictory)
        );
    }

    #[test]
    fn different_schemas_never_compare() {
        let a = view(0, &[("IN", 1)]);
        let mut b = TableBuilder::new("v", &["city", "pop"]);
        b.push_row(vec![Value::text("IN"), Value::Int(1)]).unwrap();
        let b = View::new(ViewId(1), b.build(), Provenance::default());
        let out = distill(&[a, b], &DistillConfig::default());
        assert_eq!(out.graph.get(ViewId(0), ViewId(1)), None);
        assert_eq!(out.survivors_c2.len(), 2);
    }

    #[test]
    fn no_shared_key_means_no_complementary() {
        // Views where no column is a key (all values repeat).
        let mk = |id: u32, rows: &[(&str, i64)]| view(id, rows);
        let views = vec![
            mk(0, &[("A", 1), ("A", 2), ("B", 1)]),
            mk(1, &[("A", 1), ("B", 3), ("B", 1)]),
        ];
        let out = distill(&views, &DistillConfig::default());
        // (state) not unique, (pop) not unique, (state,pop) is unique → both
        // views DO share the composite key; overlap on ("A",1)/("B",1) rows.
        // Under the composite key no key value can disagree (key = whole
        // row), so pairs can be complementary but never contradictory.
        assert!(out.contradictions.is_empty());
    }

    #[test]
    fn timer_records_all_phases() {
        let views = vec![view(0, &[("IN", 1)]), view(1, &[("GA", 2)])];
        let out = distill(&views, &DistillConfig::default());
        let phases: Vec<&str> = out.timer.phases().map(|(p, _)| p).collect();
        assert_eq!(phases, vec!["schema_partition", "hash_c1", "c2", "c3_c4"]);
    }

    #[test]
    fn empty_input_is_fine() {
        let out = distill(&[], &DistillConfig::default());
        assert_eq!(out.original_count(), 0);
        assert!(out.survivors_c2.is_empty());
        assert!(out.contradictions.is_empty());
    }

    #[test]
    fn expired_budget_fails_with_deadline_exceeded() {
        use ver_common::error::VerError;
        let views = vec![
            view(0, &[("IN", 1), ("GA", 2)]),
            view(1, &[("IN", 999), ("GA", 2)]),
        ];
        let budget = QueryBudget::none().with_timeout(std::time::Duration::ZERO);
        match distill_budgeted(&views, &DistillConfig::default(), &budget) {
            Err(VerError::DeadlineExceeded(stage)) => {
                assert!(stage.starts_with("distill."), "stage: {stage}")
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn budgeted_distill_with_headroom_matches_unbudgeted() {
        let views = vec![
            view(0, &[("IN", 1), ("GA", 2)]),
            view(1, &[("IN", 999), ("GA", 2)]),
            view(2, &[("TX", 3)]),
        ];
        let cfg = DistillConfig::default();
        let base = distill(&views, &cfg);
        let budget = QueryBudget::none().with_timeout(std::time::Duration::from_secs(3600));
        let budgeted = distill_budgeted(&views, &cfg, &budget).unwrap();
        assert_eq!(budgeted.survivors_c2, base.survivors_c2);
        assert_eq!(budgeted.contradictions, base.contradictions);
        assert_eq!(budgeted.complementary_pairs, base.complementary_pairs);
    }
}
