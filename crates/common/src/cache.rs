//! Thread-safe caches for the serving layer.
//!
//! `ver-serve` keeps a long-lived engine warm across many queries and
//! sessions; the caches that make repeated work cheap live here so every
//! layer (search, core, serve) can share one implementation:
//!
//! * [`LruCache`] — a bounded least-recently-used map for values worth
//!   keeping only while hot (materialized candidate views, whole query
//!   results), with lock-free hit/miss counters so serving stats can
//!   report cache effectiveness without touching the map;
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

/// Interior state of an [`LruCache`]: entries tagged with a monotonically
/// increasing access tick. Eviction scans the whole map for the oldest
/// ticks, but evicts a **batch** (1/8 of capacity) per scan, so the scan
/// amortises to O(1) comparisons per insert — important because the
/// serving layer's materialization fan-out inserts from many pool workers
/// behind this mutex. Batch eviction under-approximates strict LRU by at
/// most one batch, which is irrelevant for a cache.
struct LruInner<K, V> {
    map: FxHashMap<K, (V, u64)>,
    tick: u64,
}

/// A bounded, thread-safe least-recently-used cache.
///
/// `capacity == 0` disables the cache entirely: every `get` misses and
/// `insert` is a no-op, so callers can thread one through unconditionally.
pub struct LruCache<K, V> {
    inner: Mutex<LruInner<K, V>>,
    /// Lookups answered from the map; counted outside the lock.
    hits: AtomicU64,
    /// Lookups that found nothing; counted outside the lock.
    misses: AtomicU64,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> LruCache<K, V> {
    /// Cache holding at most `capacity` entries (`0` = disabled).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            inner: Mutex::new(LruInner {
                map: FxHashMap::default(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            capacity,
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.inner).map.len()
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
            Some((v, t)) => {
                *t = tick;
                let out = v.clone();
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

    /// Insert (or refresh) `key`, evicting the least-recently-used batch
    /// of entries when full. Does not count as a hit or a miss.
    ///
    /// Boundary invariant: `len() <= capacity` always holds afterwards.
    /// Refreshing an existing key never grows the map (so skipping
    /// eviction is safe even at capacity), and a *new* key at capacity
    /// evicts at least one entry before inserting. Pinned under arbitrary
    /// get/insert interleavings by `tests/cache_properties.rs`.
    pub fn insert(&self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = lock_unpoisoned(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            // Evict the oldest ~1/8 of the cache in one scan (at least one
            // entry): one O(n) pass per n/8 inserts ⇒ amortised O(1).
            let batch = (self.capacity / 8).max(1);
            let mut ticks: Vec<u64> = inner.map.values().map(|(_, t)| *t).collect();
            let idx = batch.min(ticks.len()) - 1;
            let (_, cutoff, _) = ticks.select_nth_unstable(idx);
            let cutoff = *cutoff;
            inner.map.retain(|_, (_, t)| *t > cutoff);
        }
        inner.map.insert(key, (value, tick));
    }

    /// Drop every entry (counters are kept).
    pub fn clear(&self) {
        lock_unpoisoned(&self.inner).map.clear();
    }
}

impl<K: Hash + Eq + Clone, V: Clone> std::fmt::Debug for LruCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = lock_unpoisoned(&self.inner);
        f.debug_struct("LruCache")
            .field("len", &inner.map.len())
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
        cache.insert(1, "one".into());
        assert_eq!(cache.get(&1).as_deref(), Some("one"));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache: LruCache<u32, u32> = LruCache::new(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        // Touch 1 so 2 becomes the LRU entry.
        assert_eq!(cache.get(&1), Some(10));
        cache.insert(3, 30);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&2), None, "LRU entry evicted");
        assert_eq!(cache.get(&1), Some(10));
        assert_eq!(cache.get(&3), Some(30));
    }

    #[test]
    fn lru_reinsert_refreshes_without_evicting() {
        let cache: LruCache<u32, u32> = LruCache::new(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        cache.insert(1, 11); // refresh, not a new entry
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&1), Some(11));
        assert_eq!(cache.get(&2), Some(20));
    }

    #[test]
    fn batch_eviction_drops_the_oldest_entries() {
        let cache: LruCache<u32, u32> = LruCache::new(64);
        for i in 0..64 {
            cache.insert(i, i);
        }
        // Refresh the first 8 so they are the *newest*, then overflow.
        for i in 0..8 {
            assert_eq!(cache.get(&i), Some(i));
        }
        cache.insert(64, 64);
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
        cache.insert(1, 10);
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
        cache.insert(1, 10);
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
                        cache.insert(i, i * 2);
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
