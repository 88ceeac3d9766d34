//! Distillation strategies: the C1/C2/C3 reductions of Table IV and the
//! contradiction-step pruning of Fig. 2.
//!
//! * **C1** — deduplicate compatible groups (one representative each).
//! * **C2** — keep only the largest of each containment chain.
//! * **C3** — union complementary views; the reduction depends on the
//!   candidate key chosen, so we report the *worst-case* key (least
//!   reduction) and *best-case* key (largest reduction), per the paper.
//! * **C4** — contradictions cannot be resolved automatically; Fig. 2
//!   simulates resolving them one at a time (most discriminative first) and
//!   reports the surviving view count per step, for the best case (the
//!   correct side is the smallest group → maximal pruning) and the worst
//!   case (the largest group → minimal pruning).

use crate::algo::DistillOutput;
use crate::hashes::HashCache;
use crate::keys::Key;
use serde::{Deserialize, Serialize};
use ver_common::fxhash::{FxHashMap, FxHashSet};
use ver_common::ids::ViewId;
use ver_engine::rowhash::{relation, SetRelation};
use ver_engine::view::View;

/// Which side of a contradiction turns out to be correct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseChoice {
    /// The smallest group is correct → prune the most (best case).
    Best,
    /// The largest group is correct → prune the least (worst case).
    Worst,
}

/// The per-query row of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistillCounts {
    /// Views before distillation ("Original").
    pub original: usize,
    /// After compatible dedup ("C1").
    pub c1: usize,
    /// After containment pruning ("C2").
    pub c2: usize,
    /// After complementary union with the worst-case key.
    pub c3_worst: usize,
    /// After complementary union with the best-case key.
    pub c3_best: usize,
}

/// Compute the Table IV counts for one distillation run.
pub fn distill_counts(views: &[View], output: &DistillOutput) -> DistillCounts {
    let (c3_worst, c3_best) = c3_counts(views, output);
    DistillCounts {
        original: output.original_count(),
        c1: output.survivors_c1.len(),
        c2: output.survivors_c2.len(),
        c3_worst,
        c3_best,
    }
}

/// Number of views remaining if complementary views are unioned **under a
/// specific key** within each schema block. Views lacking the key, or pairs
/// contradictory under it, do not union.
pub fn union_complementary(views: &[View], output: &DistillOutput, key: &Key) -> usize {
    let survivors: Vec<&View> = surviving_views(views, output);
    let cache = HashCache::prefill(&survivors, &ver_common::pool::ThreadPool::new(1));

    // Pairs contradictory under this key (they must not union).
    let mut conflict: FxHashSet<(ViewId, ViewId)> = FxHashSet::default();
    for c in &output.contradictions {
        if &c.key != key {
            continue;
        }
        for (i, ga) in c.groups.iter().enumerate() {
            for gb in &c.groups[i + 1..] {
                for &a in ga {
                    for &b in gb {
                        conflict.insert((a.min(b), a.max(b)));
                    }
                }
            }
        }
    }

    // Union-find over survivors.
    let mut parent: Vec<usize> = (0..survivors.len()).collect();
    fn find(p: &mut [usize], mut x: usize) -> usize {
        while p[x] != x {
            p[x] = p[p[x]];
            x = p[x];
        }
        x
    }

    for (i, a) in survivors.iter().enumerate() {
        if !output.view_keys[&a.id].contains(key) {
            continue;
        }
        for (j, b) in survivors.iter().enumerate().skip(i + 1) {
            if !output.view_keys[&b.id].contains(key) {
                continue;
            }
            if a.schema_signature() != b.schema_signature() {
                continue;
            }
            if conflict.contains(&(a.id.min(b.id), a.id.max(b.id))) {
                continue;
            }
            if relation(cache.set(i), cache.set(j)) == SetRelation::Overlap {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri] = rj;
                }
            }
        }
    }

    let roots: FxHashSet<usize> = (0..survivors.len()).map(|i| find(&mut parent, i)).collect();
    roots.len()
}

/// `(worst, best)` C3 counts: per schema block, choose the shared key that
/// unions the least (worst) / most (best); blocks without shared keys keep
/// all their views.
pub fn c3_counts(views: &[View], output: &DistillOutput) -> (usize, usize) {
    // Candidate keys = keys shared by ≥ 2 surviving views.
    let survivors: Vec<&View> = surviving_views(views, output);
    let mut key_count: FxHashMap<&Key, usize> = FxHashMap::default();
    for v in &survivors {
        for k in &output.view_keys[&v.id] {
            *key_count.entry(k).or_insert(0) += 1;
        }
    }
    let mut shared: Vec<&Key> = key_count
        .into_iter()
        .filter(|&(_, n)| n >= 2)
        .map(|(k, _)| k)
        .collect();
    shared.sort();

    if shared.is_empty() {
        let n = survivors.len();
        return (n, n);
    }
    let counts: Vec<usize> = shared
        .iter()
        .map(|k| union_complementary(views, output, k))
        .collect();
    let worst = counts.iter().copied().max().unwrap_or(survivors.len());
    let best = counts.iter().copied().min().unwrap_or(survivors.len());
    (worst, best)
}

/// Fig. 2: surviving view counts per contradiction-resolution step.
///
/// Returns `[initial, after step 1, after step 2, ...]`, at most
/// `max_steps` resolution steps. At each step the most discriminative live
/// contradiction is resolved; `case` decides which side is correct.
pub fn contradiction_steps(
    output: &DistillOutput,
    case: CaseChoice,
    max_steps: usize,
) -> Vec<usize> {
    let mut alive: FxHashSet<ViewId> = output.survivors_c2.iter().copied().collect();
    let mut counts = vec![alive.len()];

    for _ in 0..max_steps {
        // Live contradictions: intersect groups with `alive`.
        let mut best_signal: Option<Vec<Vec<ViewId>>> = None;
        let mut best_disc = 0usize;
        for c in &output.contradictions {
            let live: Vec<Vec<ViewId>> = c
                .groups
                .iter()
                .map(|g| {
                    g.iter()
                        .copied()
                        .filter(|v| alive.contains(v))
                        .collect::<Vec<_>>()
                })
                .filter(|g: &Vec<ViewId>| !g.is_empty())
                .collect();
            if live.len() < 2 {
                continue;
            }
            let disc = live.iter().map(Vec::len).max().unwrap_or(0);
            if disc > best_disc {
                best_disc = disc;
                best_signal = Some(live);
            }
        }
        let Some(mut groups) = best_signal else { break };
        groups.sort_by_key(Vec::len);
        let keep = match case {
            CaseChoice::Best => groups.first().cloned().unwrap_or_default(),
            CaseChoice::Worst => groups.last().cloned().unwrap_or_default(),
        };
        for g in &groups {
            if *g == keep {
                continue;
            }
            for v in g {
                alive.remove(v);
            }
        }
        counts.push(alive.len());
    }
    counts
}

/// Views that survived C2, resolved against the view slice.
fn surviving_views<'a>(views: &'a [View], output: &DistillOutput) -> Vec<&'a View> {
    let set: FxHashSet<ViewId> = output.survivors_c2.iter().copied().collect();
    views.iter().filter(|v| set.contains(&v.id)).collect()
}

/// The distilled view list a downstream component (VIEW-PRESENTATION)
/// receives: C2 survivors, each annotated with whether it participates in
/// contradictions (the paper's "categories … shared with the downstream
/// component").
pub fn distilled_views<'a>(views: &'a [View], output: &DistillOutput) -> Vec<&'a View> {
    surviving_views(views, output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{distill, DistillConfig};
    use ver_common::value::Value;
    use ver_engine::view::Provenance;
    use ver_store::table::TableBuilder;

    fn view(id: u32, rows: &[(&str, i64)]) -> View {
        let mut b = TableBuilder::new("v", &["state", "pop"]);
        for (s, p) in rows {
            b.push_row(vec![Value::text(*s), Value::Int(*p)]).unwrap();
        }
        View::new(ViewId(id), b.build(), Provenance::default())
    }

    #[test]
    fn table_iv_counts_monotone() {
        let views = vec![
            view(0, &[("IN", 1), ("GA", 2)]),
            view(1, &[("GA", 2), ("IN", 1)]), // compatible with 0
            view(2, &[("IN", 1)]),            // contained in 0
            view(3, &[("TX", 3), ("GA", 2)]), // complementary with 0
            view(4, &[("CA", 9), ("NV", 8)]), // disjoint
        ];
        let out = distill(&views, &DistillConfig::default());
        let counts = distill_counts(&views, &out);
        assert_eq!(counts.original, 5);
        assert_eq!(counts.c1, 4);
        assert_eq!(counts.c2, 3);
        assert!(counts.c3_best <= counts.c3_worst);
        assert!(counts.c3_worst <= counts.c2);
        // state key unions {0,3}: 3 views → 2.
        assert_eq!(counts.c3_best, 2);
    }

    #[test]
    fn union_respects_contradictions() {
        let views = vec![
            view(0, &[("IN", 1), ("GA", 2)]),
            view(1, &[("GA", 2), ("IN", 999)]), // overlaps on GA but contradicts on IN
        ];
        let out = distill(&views, &DistillConfig::default());
        let remaining = union_complementary(&views, &out, &Key::single(0));
        assert_eq!(remaining, 2, "contradictory pair must not union");
    }

    #[test]
    fn union_merges_chains_of_complementary_views() {
        let views = vec![
            view(0, &[("A", 1), ("B", 2)]),
            view(1, &[("B", 2), ("C", 3)]),
            view(2, &[("C", 3), ("D", 4)]),
        ];
        let out = distill(&views, &DistillConfig::default());
        let remaining = union_complementary(&views, &out, &Key::single(0));
        assert_eq!(remaining, 1, "chain A-B-C-D unions into one view");
    }

    #[test]
    fn key_choice_changes_reduction() {
        // Under the state key (col 0) views union; under the composite key
        // (0,1) they also overlap... construct a case where pop key exists
        // for only one pair.
        let views = vec![
            view(0, &[("A", 1), ("B", 2)]),
            view(1, &[("B", 2), ("C", 3)]),
            // view 2 has duplicate pops → pop not a key for it
            view(2, &[("C", 5), ("D", 5)]),
        ];
        let out = distill(&views, &DistillConfig::default());
        let (worst, best) = c3_counts(&views, &out);
        assert!(best <= worst);
        assert!(best < 3, "some unioning must happen in the best case");
    }

    #[test]
    fn contradiction_steps_prune_per_case() {
        // Contradiction on IN: {0,1,2} agree vs {3} dissents.
        let views = vec![
            view(0, &[("IN", 1), ("GA", 2)]),
            view(1, &[("IN", 1), ("TX", 3)]),
            view(2, &[("IN", 1), ("CA", 4)]),
            view(3, &[("IN", 7), ("FL", 5)]),
        ];
        let out = distill(&views, &DistillConfig::default());
        let best = contradiction_steps(&out, CaseChoice::Best, 10);
        let worst = contradiction_steps(&out, CaseChoice::Worst, 10);
        assert_eq!(best[0], 4);
        assert_eq!(worst[0], 4);
        // Best case: smallest group {3} is right → prune 3 views → 1 left.
        assert_eq!(best[1], 1);
        // Worst case: {0,1,2} right → prune only view 3 → 3 left.
        assert_eq!(worst[1], 3);
        // Monotone decreasing.
        assert!(best.windows(2).all(|w| w[1] <= w[0]));
        assert!(worst.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn steps_stop_when_no_live_contradictions() {
        let views = vec![view(0, &[("A", 1)]), view(1, &[("B", 2)])];
        let out = distill(&views, &DistillConfig::default());
        let steps = contradiction_steps(&out, CaseChoice::Best, 10);
        assert_eq!(steps, vec![2]);
    }
}
