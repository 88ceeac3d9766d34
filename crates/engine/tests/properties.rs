//! Property-based tests for the row-set form 4C compares views by. (The
//! reference join / project / dedup properties live with the reference
//! executor, in `crates/oracle/tests/properties.rs`.)

use proptest::prelude::*;
use std::collections::HashSet;
use ver_common::fxhash::mix64;
use ver_engine::rowhash::{relation, row_set, SetRelation};

/// The set relation by its definitions, over hash sets: the reference
/// [`relation`] on sorted slices must agree with.
fn relation_by_definition(sa: &HashSet<u64>, sb: &HashSet<u64>) -> SetRelation {
    if sa.len() == sb.len() && sa == sb {
        return SetRelation::Equal;
    }
    let (small, large, small_is_left) = if sa.len() <= sb.len() {
        (sa, sb, true)
    } else {
        (sb, sa, false)
    };
    let inter = small.iter().filter(|h| large.contains(*h)).count();
    if inter == 0 {
        return SetRelation::Disjoint;
    }
    if inter == small.len() && small.len() < large.len() {
        return if small_is_left {
            SetRelation::LeftInRight
        } else {
            SetRelation::RightInLeft
        };
    }
    SetRelation::Overlap
}

/// A pair of hash vectors `(a, b)` in a chosen shape: `b` independent of
/// `a`, the same set in another order with repeats, a subset, a superset,
/// disjoint, or empty; then swapped or not. Values come from a small space
/// (so vectors repeat hashes) spread over the whole `u64` range.
fn hash_pair() -> impl Strategy<Value = (Vec<u64>, Vec<u64>)> {
    (
        prop::collection::vec(0..24u64, 0..16),
        prop::collection::vec(0..24u64, 0..16),
        0..6usize,
        0..2usize,
    )
        .prop_map(|(a, other, shape, swap)| {
            let mut b = match shape {
                0 => other,
                1 => a.iter().rev().chain(a.first()).copied().collect(),
                2 => a[..a.len() / 2].to_vec(),
                3 => a.iter().chain(&other).copied().collect(),
                4 => other.iter().map(|x| x + 100).collect(),
                _ => Vec::new(),
            };
            let mut a = a;
            for x in a.iter_mut().chain(b.iter_mut()) {
                *x = mix64(*x);
            }
            if swap == 1 {
                std::mem::swap(&mut a, &mut b);
            }
            (a, b)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn relation_on_row_sets_matches_the_definitions(pair in hash_pair()) {
        let (a, b) = pair;
        let (sa, sb) = (row_set(&a), row_set(&b));
        let (ha, hb): (HashSet<u64>, HashSet<u64>) =
            (a.iter().copied().collect(), b.iter().copied().collect());
        prop_assert_eq!(relation(&sa, &sb), relation_by_definition(&ha, &hb));
        for (set, hashes) in [(&sa, &ha), (&sb, &hb)] {
            prop_assert!(set.windows(2).all(|w| w[0] < w[1]), "not strictly increasing");
            let mut elements: Vec<u64> = hashes.iter().copied().collect();
            elements.sort_unstable();
            prop_assert_eq!(set, &elements);
        }
    }
}
