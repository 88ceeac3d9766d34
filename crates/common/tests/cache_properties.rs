//! Property tests for the shared serving caches.
//!
//! The serving layer sizes its two caches from config — the result LRU in
//! results (charge 1 each), the view LRU in bytes (each view charged the
//! bytes it can come to hold) — including `capacity == 0` (disabled) and
//! tiny capacities where every insert sits on the eviction boundary. The
//! invariants pinned here:
//!
//! * **bounded occupancy** — `len() <= capacity` after every operation,
//!   under arbitrary get/insert interleavings. The subtle boundary:
//!   refreshing an existing key while the map is at capacity skips
//!   eviction (a refresh never grows the map), while a *new* key at
//!   capacity must evict at least one entry first;
//! * **bounded charge** — with random charges, the sum of the charges
//!   stays at or below capacity after every operation;
//! * **oversized entries are refused** — an entry charged more than the
//!   whole capacity is not cached, and nothing is evicted for it;
//! * **a scan that fits is all hits** — a cyclic scan whose total charge
//!   fits the capacity hits every lookup from its second cycle on (an
//!   entry-counted bound would thrash on such a scan as soon as it held
//!   more entries than the count);
//! * **disabled caches observe nothing** — a `capacity == 0` cache
//!   reports zero lookups (no phantom misses) and flags itself
//!   `disabled`, so stats consumers never mistake it for a cold cache.

use proptest::prelude::*;
use ver_common::cache::LruCache;

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    #[test]
    fn len_never_exceeds_capacity_under_interleaved_ops(
        capacity in 0usize..9,
        ops in prop::collection::vec((any::<bool>(), 0u32..24), 0..200),
    ) {
        let cache: LruCache<u32, u32> = LruCache::new(capacity);
        for (i, &(is_insert, key)) in ops.iter().enumerate() {
            if is_insert {
                cache.insert(key, i as u32, 1);
            } else {
                let _ = cache.get(&key);
            }
            prop_assert!(
                cache.len() <= capacity,
                "len {} > capacity {} after op {} ({})",
                cache.len(),
                capacity,
                i,
                if is_insert { "insert" } else { "get" },
            );
        }
        if capacity == 0 {
            let s = cache.stats();
            prop_assert!(s.disabled);
            prop_assert_eq!(s.lookups(), 0, "disabled cache counted lookups");
        }
    }

    #[test]
    fn refresh_heavy_workloads_hold_the_boundary_and_stay_consistent(
        capacity in 1usize..6,
        keys in prop::collection::vec(0u32..4, 1..150),
    ) {
        // A key universe no larger than capacity+3 keeps the cache pinned
        // at the boundary where refresh-vs-evict decisions happen on
        // almost every insert.
        let cache: LruCache<u32, u64> = LruCache::new(capacity);
        for (i, &key) in keys.iter().enumerate() {
            cache.insert(key, i as u64, 1);
            prop_assert!(cache.len() <= capacity);
            // An entry just inserted (fresh or refreshed) is the newest;
            // it must be readable and carry the refreshed value.
            prop_assert_eq!(cache.get(&key), Some(i as u64));
        }
        prop_assert!(!cache.is_empty());
        prop_assert!(!cache.stats().disabled);
    }

    #[test]
    fn charges_never_exceed_capacity_under_interleaved_ops(
        capacity in 0usize..400,
        ops in prop::collection::vec((any::<bool>(), 0u32..32, 0usize..120), 0..300),
    ) {
        let cache: LruCache<u32, u32> = LruCache::new(capacity);
        for (i, &(is_insert, key, charge)) in ops.iter().enumerate() {
            if is_insert {
                cache.insert(key, i as u32, charge);
                // A key that fits is cached right after its insert, with
                // the value it was just given.
                if capacity > 0 && charge <= capacity {
                    prop_assert_eq!(cache.get(&key), Some(i as u32));
                }
            } else {
                let _ = cache.get(&key);
            }
            prop_assert!(
                cache.charged() <= capacity,
                "charged {} > capacity {} after op {}",
                cache.charged(),
                capacity,
                i,
            );
            // Every entry is charged at least 1.
            prop_assert!(cache.len() <= cache.charged());
        }
    }

    #[test]
    fn an_entry_heavier_than_the_capacity_is_refused_and_evicts_nothing(
        capacity in 1usize..200,
        charges in prop::collection::vec(1usize..20, 1..40),
        excess in 1usize..1000,
    ) {
        let cache: LruCache<u32, u32> = LruCache::new(capacity);
        for (k, &c) in charges.iter().enumerate() {
            cache.insert(k as u32, k as u32, c);
        }
        let (len, charged) = (cache.len(), cache.charged());
        let held: Vec<u32> = (0..charges.len() as u32)
            .filter(|k| cache.get(k).is_some())
            .collect();
        cache.insert(u32::MAX, 0, capacity + excess);
        prop_assert_eq!(cache.get(&u32::MAX), None, "an oversized entry was cached");
        prop_assert_eq!((cache.len(), cache.charged()), (len, charged));
        for k in held {
            prop_assert!(cache.get(&k).is_some(), "entry {} evicted for a refused one", k);
        }
    }

    #[test]
    fn a_cyclic_scan_that_fits_hits_from_its_second_cycle_on(
        charges in prop::collection::vec(1usize..64, 1..80),
        slack in 0usize..64,
        cycles in 2usize..5,
    ) {
        let total: usize = charges.iter().sum();
        let cache: LruCache<usize, usize> = LruCache::new(total + slack);
        for cycle in 0..cycles {
            for (k, &c) in charges.iter().enumerate() {
                match cache.get(&k) {
                    Some(v) => prop_assert_eq!(v, k),
                    None => {
                        prop_assert_eq!(cycle, 0, "key {} missed on cycle {}", k, cycle);
                        cache.insert(k, k, c);
                    }
                }
            }
        }
        let s = cache.stats();
        prop_assert_eq!(s.misses as usize, charges.len());
        prop_assert_eq!(s.hits as usize, charges.len() * (cycles - 1));
    }
}
