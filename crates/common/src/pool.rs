//! A small, safe parallel map over scoped threads.
//!
//! Ver fans out on this pool offline (column profiling, MinHash sketching,
//! keyword indexing, candidate-pair verification) and online (join-graph
//! scoring, the materializer's DAG levels, 4C hashing, the shard scatter).
//! The offline work is *skewed*: column sizes in pathless collections follow
//! heavy-tailed distributions, so a static split leaves threads idle behind
//! whichever share drew the giant columns. Instead, workers claim small
//! grains of the index range from one shared atomic counter until it passes
//! the end; a worker stuck on a giant item simply claims nothing more while
//! the others drain the rest.
//!
//! Results are order-preserving — `pool.par_map(items, f)[i] == f(&items[i])`
//! for every `i` — and each item is visited exactly once, so callers that
//! need bit-identical output across thread counts (index determinism) get
//! it for free as long as `f` is pure.
//!
//! Workers are scoped threads ([`std::thread::scope`]), so closures may
//! borrow non-`'static` data (catalogs, hashers) without `Arc` plumbing.
//! The convention across the workspace is `threads: 0` = use
//! [`std::thread::available_parallelism`], resolved once by
//! [`ThreadPool::new`]. It is also every config's default — a caller that
//! wants a fixed degree of parallelism sets the `threads` field.

use crate::error::{Result, VerError};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A resolved degree of parallelism, handed to every parallel stage.
///
/// Construction resolves the `0 = auto` convention once; the pool itself is
/// just a worker count — threads are spawned scoped per call, which keeps
/// lifetimes simple (borrowed inputs work) and costs microseconds against
/// passes that run for milliseconds to minutes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Pool with `threads` workers; `0` means one worker per available
    /// hardware thread, any other value is taken literally.
    pub fn new(threads: usize) -> Self {
        let threads = match threads {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            n => n,
        };
        ThreadPool { threads }
    }

    /// Number of workers this pool schedules onto.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Order-preserving parallel map: `out[i] == f(&items[i])`.
    ///
    /// Runs as a plain sequential map for one worker or at most one item.
    /// If `f` panics, the panic is re-raised on the calling thread with its
    /// original payload after every worker has finished, and every result
    /// already computed is dropped. Callers that want panics degraded to
    /// per-item errors use [`ThreadPool::try_par_map`] instead.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return items.iter().map(f).collect();
        }
        // Small enough to balance skewed items, large enough that the
        // counter is touched about `4 × workers` times; the cap bounds how
        // much work one grain can hide behind a giant item.
        let grain = (n / (workers * 4)).clamp(1, 256);
        // The counter only hands out disjoint ranges; results travel back
        // through `join`, which synchronises on its own, so `Relaxed` is
        // enough.
        let next = AtomicUsize::new(0);
        let work = || {
            let mut grains = Vec::new();
            loop {
                let start = next.fetch_add(grain, Ordering::Relaxed);
                if start >= n {
                    return grains;
                }
                let end = (start + grain).min(n);
                grains.push((start, items[start..end].iter().map(&f).collect::<Vec<R>>()));
            }
        };
        let mut grains = std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            let mut grains = work();
            for handle in spawned {
                match handle.join() {
                    Ok(theirs) => grains.extend(theirs),
                    Err(payload) => resume_unwind(payload),
                }
            }
            grains
        });
        grains.sort_unstable_by_key(|&(start, _)| start);
        let mut out = Vec::with_capacity(n);
        for (_, grain_out) in grains {
            out.extend(grain_out);
        }
        out
    }

    /// Panic-isolating order-preserving parallel map.
    ///
    /// Like [`ThreadPool::par_map`] over a fallible closure, except a panic
    /// in `f` is caught and returned as that item's `Err(VerError::Internal)`
    /// carrying the panic message — the other items complete normally and
    /// the calling thread never unwinds. This is the serving path's
    /// contract: one poisonous candidate degrades to one failed item, not a
    /// dead process.
    pub fn try_par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> Result<R> + Sync,
    {
        self.par_map(items, |item| {
            catch_unwind(AssertUnwindSafe(|| f(item)))
                .unwrap_or_else(|payload| Err(VerError::Internal(panic_message(payload.as_ref()))))
        })
    }
}

/// Render a caught panic payload as a one-line message for
/// `VerError::Internal`.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked (non-string payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn new_resolves_auto_and_literal_thread_counts() {
        let auto = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(ThreadPool::new(0).threads(), auto);
        assert_eq!(ThreadPool::new(5).threads(), 5);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..10_000).collect();
        for threads in [1, 2, 3, 8] {
            let out = ThreadPool::new(threads).par_map(&items, |&x| x * 2 + 1);
            assert_eq!(out.len(), items.len());
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, i as u64 * 2 + 1, "threads={threads} slot {i}");
            }
        }
    }

    #[test]
    fn skewed_workloads_are_balanced() {
        // Item 0 holds its worker until more than n − n/4 of the other
        // items have finished. A static split gives each of 4 workers n/4
        // items, so the other three can finish exactly n − n/4 and item 0
        // stalls; workers that keep claiming grains finish everything but
        // the rest of item 0's own grain.
        let n = 1_000;
        let items: Vec<usize> = (0..n).collect();
        let finished = AtomicUsize::new(0);
        let out = ThreadPool::new(4).par_map(&items, |&i| {
            if i == 0 {
                let deadline = Instant::now() + Duration::from_secs(10);
                loop {
                    let done = finished.load(Ordering::SeqCst);
                    if done > n - n / 4 {
                        break;
                    }
                    assert!(Instant::now() < deadline, "stalled at {done}");
                    std::thread::sleep(Duration::from_millis(1));
                }
            } else {
                finished.fetch_add(1, Ordering::SeqCst);
            }
            i * 3
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * 3));
    }

    #[test]
    fn borrowed_captures_work() {
        // Scoped lifetimes: closures may borrow stack data.
        let base = [100u64, 200, 300];
        let items: Vec<usize> = vec![0, 1, 2, 0, 1];
        let out = ThreadPool::new(2).par_map(&items, |&i| base[i]);
        assert_eq!(out, vec![100, 200, 300, 100, 200]);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let pool = ThreadPool::new(8);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.par_map(&empty, |&x| x).is_empty());
        assert!(pool.try_par_map(&empty, |&x| Ok(x)).is_empty());
        assert_eq!(pool.par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items: Vec<u32> = (0..3).collect();
        assert_eq!(ThreadPool::new(64).par_map(&items, |&x| x), items);
    }

    #[test]
    fn non_copy_results_move_correctly() {
        let items: Vec<u32> = (0..2_000).collect();
        let out = ThreadPool::new(4).par_map(&items, |&x| format!("v{x}"));
        assert_eq!(out[1999], "v1999");
        assert_eq!(out[0], "v0");
    }

    #[test]
    fn try_par_map_degrades_panics_to_per_item_errors() {
        use crate::error::VerError;
        let items: Vec<u32> = (0..500).collect();
        for threads in [1, 4] {
            let out = ThreadPool::new(threads).try_par_map(&items, |&x| {
                if x % 100 == 37 {
                    panic!("poisonous item {x}");
                }
                Ok(x * 2)
            });
            assert_eq!(out.len(), items.len());
            for (i, r) in out.iter().enumerate() {
                if i % 100 == 37 {
                    match r {
                        Err(VerError::Internal(m)) => {
                            assert!(m.contains(&format!("poisonous item {i}")), "msg: {m}")
                        }
                        other => panic!("item {i}: expected Internal, got {other:?}"),
                    }
                } else {
                    assert_eq!(r.as_ref().copied().unwrap(), i as u32 * 2);
                }
            }
        }
    }

    #[test]
    fn par_map_reraises_the_panic_after_workers_finish() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let items: Vec<u32> = (0..800).collect();
        for threads in [1, 4] {
            let visited: Vec<AtomicUsize> = (0..items.len()).map(|_| AtomicUsize::new(0)).collect();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                ThreadPool::new(threads).par_map(&items, |&x| {
                    visited[x as usize].fetch_add(1, Ordering::Relaxed);
                    if x == 123 {
                        panic!("boom at {x}");
                    }
                    x
                })
            }));
            let payload = caught.expect_err("panic must propagate to the caller");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains("boom at 123"), "payload: {msg:?}");
            // No item ran twice, even with a panicking closure.
            assert!(visited.iter().all(|c| c.load(Ordering::Relaxed) <= 1));
        }
    }

    #[test]
    fn a_panicking_map_drops_the_results_it_already_computed() {
        struct Counted<'a>(&'a AtomicUsize);
        impl Drop for Counted<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let items: Vec<u32> = (0..2_000).collect();
        for threads in [1, 4] {
            let alive = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                ThreadPool::new(threads).par_map(&items, |&x| {
                    if x == 1_500 {
                        panic!("boom at {x}");
                    }
                    alive.fetch_add(1, Ordering::SeqCst);
                    Counted(&alive)
                })
            }));
            assert!(caught.is_err(), "threads={threads}: the panic propagates");
            assert_eq!(
                alive.load(Ordering::SeqCst),
                0,
                "threads={threads}: results still alive after the panic"
            );
        }
    }
}
