//! A small work-stealing parallel runtime for the offline build paths.
//!
//! The discovery-index build is embarrassingly parallel but *skewed*: column
//! sizes in pathless collections follow heavy-tailed distributions, so the
//! static chunking previously used in `ver-index::builder` left threads idle
//! behind whichever chunk drew the giant columns. This module provides
//! chunk-stealing [`par_map`] / [`par_for_each`] primitives instead:
//!
//! * the input index range is dealt evenly to one deque per worker;
//! * each worker pops small grains off the **front** of its own range;
//! * a worker that runs dry picks the victim with the most remaining work
//!   and steals the **back half** of its range.
//!
//! Results are order-preserving — `par_map(items, t, f)[i] == f(&items[i])`
//! for every `i` — and each item is visited exactly once, so callers that
//! need bit-identical output across thread counts (index determinism) get
//! it for free as long as `f` is pure.
//!
//! Workers are scoped threads ([`std::thread::scope`]), so closures may
//! borrow non-`'static` data (catalogs, hashers) without `Arc` plumbing.
//! The convention across the workspace is `threads: 0` = use
//! [`std::thread::available_parallelism`]; see [`resolve_threads`]. It is
//! also every config's default — a caller that wants a fixed degree of
//! parallelism sets the `threads` field.

use crate::error::{Result, VerError};
use crate::sync::lock_unpoisoned;
use std::any::Any;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Resolve a configured thread count: `0` means "auto" (one worker per
/// available hardware thread); any other value is taken literally.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    }
}

/// A resolved degree of parallelism, handed around the offline build paths.
///
/// Construction resolves the `0 = auto` convention once; the pool itself is
/// just a worker count — threads are spawned scoped per call, which keeps
/// lifetimes simple (borrowed inputs work) and costs microseconds against
/// build passes that run for milliseconds to minutes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Pool with `threads` workers (`0` = auto, see [`resolve_threads`]).
    pub fn new(threads: usize) -> Self {
        ThreadPool {
            threads: resolve_threads(threads).max(1),
        }
    }

    /// Number of workers this pool schedules onto.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Order-preserving parallel map: `out[i] == f(&items[i])`.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        par_map(items, self.threads, f)
    }

    /// Run `f` once per item, in parallel, in unspecified order.
    pub fn par_for_each<T, F>(&self, items: &[T], f: F)
    where
        T: Sync,
        F: Fn(&T) + Sync,
    {
        par_for_each(items, self.threads, f)
    }

    /// Panic-isolating order-preserving parallel map: a panic in `f`
    /// becomes that item's `Err(VerError::Internal)` instead of
    /// propagating. See [`try_par_map`].
    pub fn try_par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> Result<R> + Sync,
    {
        try_par_map(items, self.threads, f)
    }
}

/// One worker's share of the index space: a half-open `[next, end)` range.
///
/// The owner takes grains off the front; thieves shrink the back. A plain
/// mutex keeps the invariant "every index is claimed exactly once" trivially
/// true — contention is negligible because claims move whole grains, not
/// single items.
type Deque = Mutex<(usize, usize)>;

/// Grain size: small enough to balance skewed workloads, large enough that
/// deque locking is noise. With `4×threads` grains per worker the steady
/// state is ~once-per-grain locking; the cap bounds latency when one grain
/// hides a giant item.
fn grain_for(n: usize, workers: usize) -> usize {
    (n / (workers * 4)).clamp(1, 256)
}

/// Deal `n` items evenly across `workers` deques.
fn deal(n: usize, workers: usize) -> Vec<Deque> {
    let per = n.div_ceil(workers);
    (0..workers)
        .map(|w| Mutex::new(((w * per).min(n), ((w + 1) * per).min(n))))
        .collect()
}

/// Worker loop: drain own deque front-to-back, then steal the back half of
/// the fullest victim. Calls `run(i)` exactly once per claimed index.
fn work(me: usize, deques: &[Deque], grain: usize, run: &(impl Fn(usize) + Sync)) {
    loop {
        // Drain own range, one grain at a time.
        loop {
            let (start, stop) = {
                let mut r = lock_unpoisoned(&deques[me]);
                if r.0 >= r.1 {
                    break;
                }
                let start = r.0;
                r.0 = (r.0 + grain).min(r.1);
                (start, r.0)
            };
            for i in start..stop {
                run(i);
            }
        }
        // Own range dry: pick the victim with the most remaining work.
        let mut victim = None;
        let mut most = 0usize;
        for (v, d) in deques.iter().enumerate() {
            if v == me {
                continue;
            }
            let r = lock_unpoisoned(d);
            let remaining = r.1.saturating_sub(r.0);
            if remaining > most {
                most = remaining;
                victim = Some(v);
            }
        }
        let Some(v) = victim else {
            return; // every deque is empty — all work claimed
        };
        // Steal the back half (re-checked under the victim's lock; the
        // victim may have drained since the scan).
        let stolen = {
            let mut r = lock_unpoisoned(&deques[v]);
            let remaining = r.1.saturating_sub(r.0);
            if remaining == 0 {
                continue; // lost the race — rescan
            }
            let take = remaining.div_ceil(2);
            r.1 -= take;
            (r.1, r.1 + take)
        };
        *lock_unpoisoned(&deques[me]) = stolen;
    }
}

/// Drive `run(i)` exactly once for every `i in 0..n` on `threads` workers.
fn run_indices(n: usize, threads: usize, run: impl Fn(usize) + Sync) {
    let workers = resolve_threads(threads).max(1).min(n);
    if workers <= 1 || n <= 1 {
        for i in 0..n {
            run(i);
        }
        return;
    }
    let grain = grain_for(n, workers);
    let deques = deal(n, workers);
    std::thread::scope(|scope| {
        for me in 1..workers {
            scope.spawn({
                let deques = &deques;
                let run = &run;
                move || work(me, deques, grain, run)
            });
        }
        work(0, &deques, grain, &run);
    });
}

/// Write handle over the output slots; each index is written exactly once
/// (by whichever worker claimed it), so the disjoint raw writes are sound.
struct Slots<R>(*mut MaybeUninit<R>);
unsafe impl<R: Send> Sync for Slots<R> {}

impl<R> Slots<R> {
    /// # Safety
    /// `i` must be in-bounds and written at most once across all threads.
    unsafe fn write(&self, i: usize, v: R) {
        self.0.add(i).write(MaybeUninit::new(v));
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

/// Core of [`par_map`]: map every item, catching per-item panics so one
/// panicking closure cannot poison the deques or tear down sibling
/// workers. Returns the first caught payload (by completion order, not
/// item order) instead of the output vector when any item panicked;
/// results computed for other items are leaked (not dropped) in that case,
/// exactly as the pre-isolation propagating version did.
fn par_map_impl<T, R, F>(
    items: &[T],
    threads: usize,
    f: F,
) -> std::result::Result<Vec<R>, Box<dyn Any + Send>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = resolve_threads(threads).max(1).min(n.max(1));
    if workers <= 1 || n <= 1 {
        let mut out = Vec::with_capacity(n);
        for item in items {
            out.push(catch_unwind(AssertUnwindSafe(|| f(item)))?);
        }
        return Ok(out);
    }
    let mut out: Vec<MaybeUninit<R>> = Vec::with_capacity(n);
    // SAFETY: MaybeUninit<R> needs no initialisation; length equals capacity.
    unsafe { out.set_len(n) };
    let slots = Slots(out.as_mut_ptr());
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    run_indices(n, workers, |i| {
        // The catch keeps the "every claimed index completes" invariant
        // intact under panicking closures: the worker records the payload
        // and moves on to its next grain rather than dying mid-deque.
        match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
            // SAFETY: `run_indices` claims each index exactly once and
            // `i < n`, so this write is in-bounds and races with no other
            // access.
            Ok(v) => unsafe { slots.write(i, v) },
            Err(payload) => {
                let mut slot = lock_unpoisoned(&first_panic);
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        }
    });
    if let Some(payload) = lock_unpoisoned(&first_panic).take() {
        // Panicked slots were never written; `out` drops as
        // `Vec<MaybeUninit<R>>`, leaking the written results.
        return Err(payload);
    }
    // SAFETY: no panic means every slot was initialised above;
    // MaybeUninit<R> and R share layout, so the buffer can be
    // reinterpreted wholesale.
    let mut out = ManuallyDrop::new(out);
    Ok(unsafe { Vec::from_raw_parts(out.as_mut_ptr().cast::<R>(), n, out.capacity()) })
}

/// Order-preserving chunk-stealing parallel map: `out[i] == f(&items[i])`.
///
/// `threads` follows the `0 = auto` convention. Falls back to a plain
/// sequential map for one worker or trivially small inputs. If `f` panics
/// the first caught payload is re-raised on the calling thread after all
/// workers finish; already-computed results are leaked (not dropped) in
/// that case. Callers that want panics degraded to per-item errors use
/// [`try_par_map`] instead.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    match par_map_impl(items, threads, f) {
        Ok(out) => out,
        Err(payload) => resume_unwind(payload),
    }
}

/// Panic-isolating order-preserving parallel map.
///
/// Like [`par_map`] over a fallible closure, except a panic in `f` is
/// caught and returned as that item's `Err(VerError::Internal)` carrying
/// the panic message — the other items complete normally and the calling
/// thread never unwinds. This is the serving path's contract: one
/// poisonous candidate degrades to one failed item, not a dead process.
pub fn try_par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<Result<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Result<R> + Sync,
{
    par_map(items, threads, |item| {
        catch_unwind(AssertUnwindSafe(|| f(item)))
            .unwrap_or_else(|payload| Err(VerError::Internal(panic_message(payload.as_ref()))))
    })
}

/// Run `f` once per item in parallel; no results, no ordering guarantees on
/// execution (use [`par_map`] when output order matters). Panics in `f`
/// are re-raised on the calling thread after all workers finish.
pub fn par_for_each<T, F>(items: &[T], threads: usize, f: F)
where
    T: Sync,
    F: Fn(&T) + Sync,
{
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    run_indices(items.len(), threads, |i| {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
            let mut slot = lock_unpoisoned(&first_panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
    });
    let payload = lock_unpoisoned(&first_panic).take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn resolve_threads_auto_and_literal() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(ThreadPool::new(0).threads(), resolve_threads(0));
        assert_eq!(ThreadPool::new(5).threads(), 5);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..10_000).collect();
        for threads in [1, 2, 3, 8] {
            let out = par_map(&items, threads, |&x| x * 2 + 1);
            assert_eq!(out.len(), items.len());
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, i as u64 * 2 + 1, "threads={threads} slot {i}");
            }
        }
    }

    #[test]
    fn par_for_each_visits_every_item_exactly_once() {
        let n = 5_000;
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_for_each(&(0..n).collect::<Vec<usize>>(), 4, |&i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn skewed_workloads_are_balanced() {
        // One giant item at the front: static chunking would serialise
        // behind it; stealing must still touch everything exactly once.
        let sizes: Vec<usize> = std::iter::once(200_000)
            .chain((0..400).map(|_| 10))
            .collect();
        let out = par_map(&sizes, 4, |&s| (0..s as u64).sum::<u64>());
        assert_eq!(out.len(), sizes.len());
        assert_eq!(out[0], (0..200_000u64).sum::<u64>());
        assert!(out[1..].iter().all(|&v| v == 45));
    }

    #[test]
    fn borrowed_captures_work() {
        // Scoped lifetimes: closures may borrow stack data.
        let base = [100u64, 200, 300];
        let items: Vec<usize> = vec![0, 1, 2, 0, 1];
        let out = par_map(&items, 2, |&i| base[i]);
        assert_eq!(out, vec![100, 200, 300, 100, 200]);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 8, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], 8, |&x| x + 1), vec![8]);
        par_for_each(&empty, 0, |_| unreachable!("no items"));
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items: Vec<u32> = (0..3).collect();
        assert_eq!(par_map(&items, 64, |&x| x), items);
    }

    #[test]
    fn non_copy_results_move_correctly() {
        let items: Vec<u32> = (0..2_000).collect();
        let out = par_map(&items, 4, |&x| format!("v{x}"));
        assert_eq!(out[1999], "v1999");
        assert_eq!(out[0], "v0");
    }

    #[test]
    fn try_par_map_degrades_panics_to_per_item_errors() {
        use crate::error::VerError;
        let items: Vec<u32> = (0..500).collect();
        for threads in [1, 4] {
            let out = try_par_map(&items, threads, |&x| {
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
                par_map(&items, threads, |&x| {
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
            // No item ran twice: the catch keeps the claim-exactly-once
            // invariant intact even with a panicking closure.
            assert!(visited.iter().all(|c| c.load(Ordering::Relaxed) <= 1));
        }
    }

    #[test]
    fn par_for_each_reraises_panics() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let items: Vec<u32> = (0..200).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_for_each(&items, 4, |&x| {
                if x == 7 {
                    panic!("side-effect panic");
                }
            })
        }));
        assert!(caught.is_err());
        // The runtime stays usable afterwards.
        assert_eq!(par_map(&items, 4, |&x| x + 1)[0], 1);
    }
}
