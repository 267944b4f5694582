//! Property tests for the `ml4db_par` work pool: `par_map` must be an
//! exact drop-in for the serial map — same outputs, same order — at any
//! thread count, over arbitrary inputs — and `with_threads`, the one way
//! to pin that count from code, must be scoped, unwind-safe and per-thread.

use ml4db_core::par;
use proptest::prelude::*;

/// A cheap but order- and value-sensitive function: any dropped, swapped,
/// or duplicated item changes the output vector.
fn mix(i: usize, x: u64) -> u64 {
    (x ^ (i as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `par_map` equals the serial map element-for-element regardless of
    /// input size or thread count (including counts above the item count).
    #[test]
    fn par_map_equals_serial_map(
        items in proptest::collection::vec(0u64..u64::MAX, 0..300),
        threads in 1usize..10,
    ) {
        let serial: Vec<u64> = items.iter().map(|&x| mix(0, x)).collect();
        let parallel = par::with_threads(threads, || par::par_map(&items, |&x| mix(0, x)));
        prop_assert_eq!(parallel, serial);
    }

    /// The indexed variant hands every closure its item's original index.
    #[test]
    fn par_map_indexed_preserves_indices(
        items in proptest::collection::vec(0u64..u64::MAX, 0..300),
        threads in 1usize..10,
    ) {
        let serial: Vec<u64> =
            items.iter().enumerate().map(|(i, &x)| mix(i, x)).collect();
        let parallel =
            par::with_threads(threads, || par::par_map_indexed(&items, |i, &x| mix(i, x)));
        prop_assert_eq!(parallel, serial);
    }

    /// `with_threads` scopes nest to any depth: inside, the innermost
    /// count wins; each level's count is back in force once the inner
    /// levels return — whether they return normally or by panicking.
    #[test]
    fn with_threads_nests_and_survives_unwinding(
        counts in proptest::collection::vec(1usize..64, 1..6),
        unwind in 0u8..2,
    ) {
        let panic_at_bottom = unwind == 1;
        fn descend(counts: &[usize], panic_at_bottom: bool) {
            let Some((&n, rest)) = counts.split_first() else {
                if panic_at_bottom {
                    std::panic::resume_unwind(Box::new("unwind through every scope"));
                }
                return;
            };
            par::with_threads(n, || {
                assert_eq!(par::max_threads(), n);
                let inner = std::panic::catch_unwind(|| descend(rest, panic_at_bottom));
                assert_eq!(par::max_threads(), n, "inner scope leaked its override");
                if let Err(payload) = inner {
                    std::panic::resume_unwind(payload);
                }
            });
        }
        let before = par::max_threads();
        let outcome = std::panic::catch_unwind(|| descend(&counts, panic_at_bottom));
        prop_assert_eq!(outcome.is_err(), panic_at_bottom);
        prop_assert_eq!(par::max_threads(), before);
    }
}

/// Two threads holding different overrides at the same time (the barrier
/// forces the overlap) each resolve their own pool size.
#[test]
fn with_threads_is_per_thread() {
    let both_applied = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for n in [3usize, 11] {
            let both_applied = &both_applied;
            s.spawn(move || {
                par::with_threads(n, || {
                    both_applied.wait();
                    assert_eq!(par::max_threads(), n);
                    let items: Vec<u64> = (0..64).collect();
                    let serial: Vec<u64> = items.iter().map(|&x| mix(0, x)).collect();
                    assert_eq!(par::par_map(&items, |&x| mix(0, x)), serial);
                    both_applied.wait();
                })
            });
        }
    });
}
