//! Thread-safe caches for the serving layer.
//!
//! `ver-serve` keeps a long-lived engine warm across many queries and
//! sessions; the caches that make repeated work cheap live here so every
//! layer (search, core, serve) can share one implementation:
//!
//! * [`LruCache`] — a least-recently-used map for values worth keeping
//!   only while hot (materialized candidate views, whole query results),
//!   bounded by the sum of what its entries are charged (1 per result,
//!   bytes per view), with lock-free hit/miss counters so serving stats
//!   can report cache effectiveness without touching the map;
//! * [`CacheStats`] — a snapshot of those counters.
//!
//! The cache takes `&self` for every operation (interior `Mutex`), so it
//! can sit behind an `Arc`'d engine queried from many threads at once.
//! Values are returned **by clone**; callers cache cheaply cloneable values
//! (`Arc`s, or views whose text cells are refcounted `Arc<str>`). See
//! ARCHITECTURE.md ("Serving layer") for where each cache sits on the
//! query path.

use crate::fxhash::FxHashMap;
use crate::sync::lock_unpoisoned;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A point-in-time view of a cache's effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// `true` when the cache is configured off (`capacity == 0`). A
    /// disabled cache observes **zero** lookups — stats consumers must not
    /// read its 0% hit rate as a cold cache.
    pub disabled: bool,
}

impl CacheStats {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]` (0.0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// Interior state of an [`LruCache`]: entries tagged with their charge
/// and a monotonically increasing access tick, plus the sum of the
/// charges. Eviction scans the whole map for the oldest ticks, but evicts
/// a **batch** (down to ⅞ of capacity) per scan, so the scan amortises to
/// O(log n) comparisons per insert — important because the serving
/// layer's materialization fan-out inserts from many pool workers behind
/// this mutex. Batch eviction under-approximates strict LRU by at most one
/// batch, which is irrelevant for a cache.
struct LruInner<K, V> {
    map: FxHashMap<K, Entry<V>>,
    tick: u64,
    charged: usize,
}

/// One cached value, what it was charged, and when it was last touched.
struct Entry<V> {
    value: V,
    charge: usize,
    tick: u64,
}

/// A bounded, thread-safe least-recently-used cache.
///
/// Every entry carries a **charge** (at least 1), and `capacity` bounds
/// the sum of the charges: charge 1 per entry bounds the count of
/// entries, charge = bytes bounds the bytes they hold. `capacity == 0`
/// disables the cache entirely: every `get` misses and `insert` is a
/// no-op, so callers can thread one through unconditionally.
pub struct LruCache<K, V> {
    inner: Mutex<LruInner<K, V>>,
    /// Lookups answered from the map; counted outside the lock.
    hits: AtomicU64,
    /// Lookups that found nothing; counted outside the lock.
    misses: AtomicU64,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> LruCache<K, V> {
    /// Cache whose entries' charges sum to at most `capacity` (`0` =
    /// disabled).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            inner: Mutex::new(LruInner {
                map: FxHashMap::default(),
                tick: 0,
                charged: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            capacity,
        }
    }

    /// Configured capacity, in the unit of the charges.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.inner).map.len()
    }

    /// Sum of the current entries' charges (never above `capacity`).
    pub fn charged(&self) -> usize {
        lock_unpoisoned(&self.inner).charged
    }

    /// `true` when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss snapshot. A disabled cache (`capacity == 0`) reports zero
    /// lookups and `disabled: true` — it never counted phantom misses.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disabled: self.capacity == 0,
        }
    }

    /// Look up `key`, refreshing its recency on hit.
    pub fn get(&self, key: &K) -> Option<V> {
        if self.capacity == 0 {
            // A disabled cache is not a cold cache: counting these as
            // misses would surface phantom 0% hit rates in serving stats
            // for a cache that does not exist.
            return None;
        }
        let mut inner = lock_unpoisoned(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.tick = tick;
                let out = entry.value.clone();
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(out)
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or refresh) `key` at `charge` (0 counts as 1), evicting the
    /// least-recently-used batch of entries when the charges would exceed
    /// capacity. Does not count as a hit or a miss.
    ///
    /// Boundary invariant: `charged() <= capacity` always holds afterwards.
    /// A refresh re-charges its key: the old charge is released before the
    /// new one is placed. Eviction drops the oldest entries until the rest
    /// sum to at most `capacity - max(capacity / 8, 1)` (⅞, rounded up)
    /// and leave room for `charge`. An entry charged more than the whole
    /// capacity is not cached (a refresh drops the key's old value), and
    /// nothing else is evicted for it. Pinned under arbitrary get/insert
    /// interleavings by `tests/cache_properties.rs`.
    pub fn insert(&self, key: K, value: V, charge: usize) {
        if self.capacity == 0 {
            return;
        }
        let charge = charge.max(1);
        let mut inner = lock_unpoisoned(&self.inner);
        if let Some(old) = inner.map.remove(&key) {
            inner.charged -= old.charge;
        }
        if charge > self.capacity {
            return;
        }
        inner.tick += 1;
        let tick = inner.tick;
        if inner.charged + charge > self.capacity {
            // One scan, oldest first, finds the newest tick that has to go
            // for the survivors to sum to the target; everything at or
            // below it is evicted.
            let target = (self.capacity - (self.capacity / 8).max(1)).min(self.capacity - charge);
            let mut ages: Vec<(u64, usize)> =
                inner.map.values().map(|e| (e.tick, e.charge)).collect();
            ages.sort_unstable_by_key(|&(t, _)| t);
            let mut left = inner.charged;
            let mut cutoff = 0;
            for (t, c) in ages {
                if left <= target {
                    break;
                }
                left -= c;
                cutoff = t;
            }
            inner.map.retain(|_, e| e.tick > cutoff);
            inner.charged = left;
        }
        inner.charged += charge;
        inner.map.insert(
            key,
            Entry {
                value,
                charge,
                tick,
            },
        );
    }

    /// Drop every entry (counters are kept).
    pub fn clear(&self) {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.map.clear();
        inner.charged = 0;
    }
}

impl<K: Hash + Eq + Clone, V: Clone> std::fmt::Debug for LruCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = lock_unpoisoned(&self.inner);
        f.debug_struct("LruCache")
            .field("len", &inner.map.len())
            .field("charged", &inner.charged)
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_hits_and_misses_are_counted() {
        let cache: LruCache<u32, String> = LruCache::new(4);
        assert_eq!(cache.get(&1), None);
        cache.insert(1, "one".into(), 1);
        assert_eq!(cache.get(&1).as_deref(), Some("one"));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache: LruCache<u32, u32> = LruCache::new(2);
        cache.insert(1, 10, 1);
        cache.insert(2, 20, 1);
        // Touch 1 so 2 becomes the LRU entry.
        assert_eq!(cache.get(&1), Some(10));
        cache.insert(3, 30, 1);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&2), None, "LRU entry evicted");
        assert_eq!(cache.get(&1), Some(10));
        assert_eq!(cache.get(&3), Some(30));
    }

    #[test]
    fn lru_reinsert_refreshes_without_evicting() {
        let cache: LruCache<u32, u32> = LruCache::new(2);
        cache.insert(1, 10, 1);
        cache.insert(2, 20, 1);
        cache.insert(1, 11, 1); // refresh, not a new entry
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&1), Some(11));
        assert_eq!(cache.get(&2), Some(20));
    }

    #[test]
    fn batch_eviction_drops_the_oldest_entries() {
        let cache: LruCache<u32, u32> = LruCache::new(64);
        for i in 0..64 {
            cache.insert(i, i, 1);
        }
        // Refresh the first 8 so they are the *newest*, then overflow.
        for i in 0..8 {
            assert_eq!(cache.get(&i), Some(i));
        }
        cache.insert(64, 64, 1);
        // One batch (64/8 = 8) of the oldest entries (8..16) is gone; the
        // refreshed ones and the new insert survive.
        assert_eq!(cache.len(), 64 - 8 + 1);
        for i in 0..8 {
            assert_eq!(cache.get(&i), Some(i), "refreshed entry {i} evicted");
        }
        assert_eq!(cache.get(&64), Some(64));
        for i in 8..16 {
            assert_eq!(cache.get(&i), None, "oldest entry {i} survived");
        }
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let cache: LruCache<u32, u32> = LruCache::new(0);
        cache.insert(1, 10, 1);
        assert_eq!(cache.get(&1), None);
        assert!(cache.is_empty());
        let s = cache.stats();
        // Regression: a disabled cache used to count every `get` as a
        // miss, reporting phantom 0% hit rates. It must observe nothing.
        assert_eq!(s.lookups(), 0, "disabled cache must report zero lookups");
        assert!(s.disabled, "disabled cache must say so in its stats");
        assert_eq!(s.hit_rate(), 0.0);
        // Enabled caches do not carry the flag.
        assert!(!LruCache::<u32, u32>::new(1).stats().disabled);
    }

    #[test]
    fn lru_clear_keeps_counters() {
        let cache: LruCache<u32, u32> = LruCache::new(2);
        cache.insert(1, 10, 1);
        let _ = cache.get(&1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn caches_are_usable_across_threads() {
        let cache: LruCache<usize, usize> = LruCache::new(64);
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(|| {
                    for i in 0..100 {
                        cache.insert(i, i * 2, 1);
                        let _ = cache.get(&i);
                    }
                    let _ = t;
                });
            }
        });
        assert!(!cache.is_empty() && cache.len() <= 64);
        assert_eq!(cache.stats().lookups(), 400);
    }

    #[test]
    fn stats_hit_rate_edge_cases() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        let s = CacheStats {
            hits: 3,
            misses: 1,
            disabled: false,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(s.lookups(), 4);
    }
}
