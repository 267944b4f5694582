//! Scoped-thread work pool for workload evaluation.
//!
//! This crate is the bottom layer of the evaluation substrate: a
//! dependency-free fork-join pool built on [`std::thread::scope`]. Its
//! one export that matters is [`par_map`], which fans a slice out over
//! worker threads and returns results **in input order**, so callers are
//! bit-identical to their serial formulation regardless of thread count.
//!
//! # Determinism contract
//!
//! `par_map(items, f)` returns exactly `items.iter().map(f).collect()`
//! as long as `f` is a pure function of its arguments. Work is divided
//! into contiguous chunks claimed from an atomic counter; each chunk
//! records its starting offset and results are stitched back together in
//! offset order. Nothing about scheduling, thread count, or chunk size
//! can leak into the output. Callers whose per-item work consumes
//! randomness must derive a per-item seed *before* fanning out (see
//! `collect_observations_diverse` in `ml4db-optimizer` for the pattern).
//!
//! # Thread-count resolution
//!
//! The pool size is resolved per call, in priority order:
//! 1. a [`with_threads`] override on the calling thread (tests, benchmarks),
//! 2. the `ML4DB_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! `ML4DB_THREADS=1` (or `with_threads(1, ..)`) short-circuits to a plain
//! serial loop on the calling thread — no pool, no atomics.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// This thread's [`with_threads`] override; 0 means "not set".
    static PINNED_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Runs `f` with the pool size pinned to `n` (0 = no override) for
/// [`par_map`] calls made on the calling thread, then restores the
/// previous value — also when `f` unwinds. Calls nest; the innermost wins.
///
/// The override is thread-local and pool workers do not inherit it. That
/// is correct precisely because fork-join is one level deep here: only
/// batch entry points call `par_map`, never a `par_map` worker, so the
/// thread that enters the batch is the only one that resolves a pool size.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            PINNED_THREADS.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(PINNED_THREADS.with(|o| o.replace(n)));
    f()
}

/// The pool size [`par_map`] will use right now: the [`with_threads`]
/// override if set, else `ML4DB_THREADS` if parseable and non-zero, else
/// the hardware's available parallelism (at least 1).
pub fn max_threads() -> usize {
    let o = PINNED_THREADS.with(Cell::get);
    if o > 0 {
        return o;
    }
    if let Ok(s) = std::env::var("ML4DB_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Maps `f` over `items` on up to [`max_threads`] scoped threads,
/// returning results in input order. Bit-identical to
/// `items.iter().map(f).collect()` for pure `f`, at any thread count.
///
/// Must not be called under `ml4db_obs::with_query`: the query context
/// is thread-local, so events emitted by pool workers would lose their
/// query. Fan out *across* queries and enter `with_query` inside `f`.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(items, |_, item| f(item))
}

/// Like [`par_map`], but `f` also receives each item's index. The index
/// is the canonical hook for per-item RNG seeding: derive
/// `seed = base_seed ^ index` (or pre-draw a seed slice serially) so the
/// randomness consumed by one item cannot depend on scheduling.
pub fn par_map_indexed<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = max_threads().min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // Contiguous chunks, claimed work-stealing style from a shared
    // counter; ~4 chunks per worker smooths over uneven item costs
    // without shrinking chunks so far that claim traffic dominates.
    let chunk = items.len().div_ceil(threads * 4).max(1);
    let n_chunks = items.len().div_ceil(chunk);
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Vec<U>)>> = Mutex::new(Vec::with_capacity(n_chunks));

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= n_chunks {
                    break;
                }
                let start = c * chunk;
                let end = (start + chunk).min(items.len());
                let out: Vec<U> =
                    items[start..end].iter().enumerate().map(|(i, t)| f(start + i, t)).collect();
                // Poison-recover: the accumulator only ever holds fully
                // computed chunks, so a sibling worker's panic (which
                // `thread::scope` will re-raise anyway) must not also
                // poison result collection for chunks already finished.
                done.lock().unwrap_or_else(|e| e.into_inner()).push((start, out));
            });
        }
    });

    let mut parts = done.into_inner().unwrap();
    parts.sort_by_key(|(start, _)| *start);
    let mut result = Vec::with_capacity(items.len());
    for (_, mut part) in parts {
        result.append(&mut part);
    }
    debug_assert_eq!(result.len(), items.len());
    result
}

/// Serial reference implementation of [`par_map_indexed`]; exists so
/// tests and benchmarks can compare against the parallel path directly.
pub fn serial_map_indexed<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    F: Fn(usize, &T) -> U,
{
    items.iter().enumerate().map(|(i, t)| f(i, t)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1013).collect();
        let out = with_threads(4, || par_map(&items, |&x| x * 3 + 1));
        let expected: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn par_map_matches_serial_at_every_thread_count() {
        let items: Vec<u64> = (0..257).map(|i| i * 7 + 3).collect();
        let f = |i: usize, x: &u64| {
            // Mix index and value so both order bugs and item bugs show.
            let mut h = *x ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 33;
            h.wrapping_mul(0xFF51_AFD7_ED55_8CCD)
        };
        let serial = serial_map_indexed(&items, f);
        for threads in [1, 2, 3, 4, 8, 32] {
            let out = with_threads(threads, || par_map_indexed(&items, f));
            assert_eq!(out, serial, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        with_threads(4, || {
            let empty: Vec<u32> = vec![];
            assert_eq!(par_map(&empty, |&x| x + 1), Vec::<u32>::new());
            assert_eq!(par_map(&[41u32], |&x| x + 1), vec![42]);
        });
    }

    #[test]
    fn with_threads_zero_lifts_an_outer_override() {
        let baseline = max_threads();
        with_threads(7, || {
            assert_eq!(max_threads(), 7);
            with_threads(0, || assert_eq!(max_threads(), baseline));
            assert_eq!(max_threads(), 7);
        });
        assert_eq!(max_threads(), baseline);
    }

    #[test]
    fn results_can_borrow_from_captured_state() {
        let words = ["plan", "cache", "epoch", "fingerprint"];
        let lens = with_threads(3, || par_map(&words, |w| w.len()));
        assert_eq!(lens, vec![4, 5, 5, 11]);
    }
}
