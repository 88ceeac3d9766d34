//! Property tests for the parallel map: order preservation and
//! exactly-once visitation under arbitrary input sizes and thread counts.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use ver_common::pool::ThreadPool;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn par_map_preserves_input_order(
        items in prop::collection::vec(any::<u32>(), 0..600),
        threads in 0usize..9,
    ) {
        let out = ThreadPool::new(threads).par_map(&items, |&x| x as u64 + 1);
        let expected: Vec<u64> = items.iter().map(|&x| x as u64 + 1).collect();
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn par_map_visits_every_item_exactly_once(
        n in 0usize..600,
        threads in 0usize..9,
    ) {
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..n).collect();
        let out = ThreadPool::new(threads).par_map(&items, |&i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        prop_assert_eq!(out.len(), n);
        for (i, c) in counts.iter().enumerate() {
            prop_assert_eq!(c.load(Ordering::Relaxed), 1, "item {} visit count", i);
        }
    }

    #[test]
    fn pool_results_agree_across_thread_counts(
        items in prop::collection::vec(any::<u16>(), 1..300),
    ) {
        let seq = ThreadPool::new(1).par_map(&items, |&x| x as u64 * 3);
        for threads in [2usize, 4, 8] {
            let par = ThreadPool::new(threads).par_map(&items, |&x| x as u64 * 3);
            prop_assert_eq!(&par, &seq, "threads = {}", threads);
        }
    }
}
