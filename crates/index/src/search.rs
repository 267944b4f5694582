//! Last-mile search routines: a branch-free fixed-window search for small
//! error bounds (the phase-2 half of the two-phase lookup API), generic
//! over bare key columns and `(key, value)` entries, and exponential
//! search (the correction step ALEX \[6\] uses).

use crate::KeyValue;

/// Window width at or below which [`last_mile_search`] switches from
/// binary narrowing to a branch-free linear count. Two cache lines of
/// `KeyValue` entries: small enough that the counting loop (no
/// unpredictable branches, no loop-carried dependence on the comparison
/// result) beats the branchy binary tail.
pub const FIXED_WINDOW: usize = 16;

/// One slot of a sorted array the last-mile routines search: a bare key
/// (the key columns secondary indexes and durable runs keep) or a
/// `(key, value)` entry.
pub trait Keyed: Copy {
    /// The slot's key.
    fn key(self) -> u64;
}

impl Keyed for u64 {
    #[inline]
    fn key(self) -> u64 {
        self
    }
}

impl Keyed for KeyValue {
    #[inline]
    fn key(self) -> u64 {
        self.0
    }
}

/// Branch-free search of the half-open window `slots[lo..hi]`: counts
/// slots below `key` with data-independent control flow (the comparison
/// result feeds an add, never a branch), then checks the landing slot.
///
/// Correct **only** when the window is a valid bracket — everything
/// before `lo` is `< key` and everything at or after `hi` is `> key` —
/// which is exactly the guarantee `predict_range` windows carry. Returns
/// the `slice::binary_search` contract over the *whole* array.
#[inline]
pub fn branchfree_window_search<T: Keyed>(
    slots: &[T],
    key: u64,
    lo: usize,
    hi: usize,
) -> Result<usize, usize> {
    let mut below = 0usize;
    for &s in &slots[lo..hi] {
        below += usize::from(s.key() < key);
    }
    let pos = lo + below;
    if pos < hi && slots[pos].key() == key {
        Ok(pos)
    } else {
        Err(pos)
    }
}

/// Phase-2 search of a `predict_range` window `[lo, hi)`: binary-narrows
/// the window until it fits [`FIXED_WINDOW`], then finishes with the
/// branch-free count. Same bracket precondition and return contract as
/// [`branchfree_window_search`]; never allocates.
#[inline]
pub fn last_mile_search<T: Keyed>(
    slots: &[T],
    key: u64,
    lo: usize,
    hi: usize,
) -> Result<usize, usize> {
    let (mut lo, mut hi) = (lo.min(slots.len()), hi.min(slots.len()));
    while hi - lo > FIXED_WINDOW {
        let mid = lo + (hi - lo) / 2;
        match slots[mid].key().cmp(&key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            // Slots are strictly sorted (unique keys), so a hit ends it.
            std::cmp::Ordering::Equal => return Ok(mid),
        }
    }
    branchfree_window_search(slots, key, lo, hi)
}

/// Exponential search outward from a predicted position.
///
/// Doubles the probe radius until the key is bracketed, then searches the
/// bracket. Cost is `O(log error)` rather than `O(log n)` — the reason
/// learned indexes with small model error beat plain binary search.
///
/// Every probe compares before widening: the right-hand walk clamps the
/// probe to `n - 1` and tests it, so a prediction far left of a large
/// array brackets `[last_failed_probe, first_passing_probe]` instead of
/// degrading to `[lo, n - 1]` (a near-full-window binary search), and a
/// key above every entry closes the bracket to width zero in `O(log n)`
/// probes with no binary tail at all.
///
/// Returns the same contract as `slice::binary_search`, plus the total
/// number of key comparisons performed — probe steps *and* the final
/// bracket's search — for instrumentation and regression tests.
pub fn exponential_search(
    entries: &[KeyValue],
    key: u64,
    predicted: usize,
) -> (Result<usize, usize>, usize) {
    if entries.is_empty() {
        return (Err(0), 0);
    }
    let n = entries.len();
    let pos = predicted.min(n - 1);
    let mut steps = 1usize;
    let at = entries[pos].0;
    if at == key {
        return (Ok(pos), steps);
    }
    let (mut lo, mut hi);
    if at < key {
        // Search right: clamp the probe into range and compare *before*
        // deciding the boundary, so the final bracket is always between
        // two compared probes.
        let mut radius = 1usize;
        lo = pos + 1;
        loop {
            steps += 1;
            let probe = pos.saturating_add(radius).min(n - 1);
            if entries[probe].0 >= key {
                hi = probe + 1;
                break;
            }
            lo = probe + 1;
            if probe == n - 1 {
                // Key above every entry: empty bracket at the end.
                hi = n;
                break;
            }
            radius *= 2;
        }
    } else {
        // Search left.
        let mut radius = 1usize;
        hi = pos;
        loop {
            steps += 1;
            let probe = pos - radius.min(pos);
            if entries[probe].0 <= key {
                lo = probe;
                break;
            }
            hi = probe;
            if probe == 0 {
                lo = 0;
                break;
            }
            radius *= 2;
        }
    }
    // Binary search the bracket, counting comparisons.
    while lo < hi {
        steps += 1;
        let mid = lo + (hi - lo) / 2;
        match entries[mid].0.cmp(&key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return (Ok(mid), steps),
        }
    }
    (Err(lo), steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn entries(n: u64) -> Vec<KeyValue> {
        (0..n).map(|k| (k * 2, k)).collect()
    }

    /// The bare key column of `entries` — the other [`Keyed`] layout.
    fn column(entries: &[KeyValue]) -> Vec<u64> {
        entries.iter().map(|e| e.0).collect()
    }

    #[test]
    fn branchfree_window_matches_binary() {
        let e = entries(100);
        for key in 0..210u64 {
            let expected = e.binary_search_by_key(&key, |x| x.0);
            // Build a valid bracket around the answer.
            let at = match expected {
                Ok(i) => i,
                Err(i) => i,
            };
            let lo = at.saturating_sub(5);
            let hi = (at + 5).min(e.len());
            assert_eq!(branchfree_window_search(&e, key, lo, hi), expected, "key {key}");
            assert_eq!(branchfree_window_search(&column(&e), key, lo, hi), expected);
        }
    }

    #[test]
    fn last_mile_handles_wide_and_empty_windows() {
        let e = entries(10_000);
        assert_eq!(last_mile_search(&e, 5000, 0, e.len()), Ok(2500));
        assert_eq!(last_mile_search(&e, 5001, 0, e.len()), Err(2501));
        // Empty window at the end: key above everything.
        assert_eq!(last_mile_search(&e, u64::MAX, e.len(), e.len()), Err(e.len()));
        assert_eq!(last_mile_search(&column(&e), 5001, 0, e.len()), Err(2501));
    }

    #[test]
    fn exponential_search_exact_prediction() {
        let e = entries(1000);
        let (r, steps) = exponential_search(&e, 500, 250);
        assert_eq!(r, Ok(250));
        assert_eq!(steps, 1);
    }

    #[test]
    fn exponential_search_off_prediction() {
        let e = entries(1000);
        // True position 250, predict 600 → must search left.
        let (r, _) = exponential_search(&e, 500, 600);
        assert_eq!(r, Ok(250));
        // Predict 0 → must search right.
        let (r, _) = exponential_search(&e, 500, 0);
        assert_eq!(r, Ok(250));
    }

    #[test]
    fn exponential_search_missing_key() {
        let e = entries(100);
        let (r, _) = exponential_search(&e, 41, 10);
        assert_eq!(r, Err(21));
    }

    #[test]
    fn exponential_search_fewer_steps_for_better_prediction() {
        let e = entries(100_000);
        let (_, near) = exponential_search(&e, 100_000, 50_010);
        let (_, far) = exponential_search(&e, 100_000, 10);
        assert!(near < far, "near {near} !< far {far}");
    }

    #[test]
    fn right_probe_compares_before_widening() {
        // Regression for the unclamped right probe: predicting 0 for a
        // key above every entry used to break to `hi = n - 1` without
        // comparing, leaving a [n/2, n-1] bracket to binary-search. With
        // compare-before-widen the bracket closes to width zero, so total
        // comparisons stay within the doubling probes plus a constant.
        let n = 1u64 << 16;
        let e = entries(n);
        let (r, steps) = exponential_search(&e, 2 * n + 100, 0);
        assert_eq!(r, Err(n as usize));
        let probe_budget = (n as f64).log2().ceil() as usize + 3;
        assert!(
            steps <= probe_budget,
            "steps {steps} exceed probe budget {probe_budget}: the final \
             bracket degraded to a wide binary search"
        );
    }

    #[test]
    fn right_probe_bracket_is_tight_for_interior_keys() {
        // Prediction far left, true position interior: the bracket binary
        // search must cost O(log distance), not O(log n). Distance 1000
        // from prediction 0 needs ~10 doubling probes and ~10 bracket
        // comparisons; the pre-fix worst case paid ~16 extra on the
        // [lo, n-1] bracket when the doubling overran the array end.
        let e = entries(1 << 16);
        let (r, steps) = exponential_search(&e, 2 * 1000, 0);
        assert_eq!(r, Ok(1000));
        assert!(steps <= 25, "steps {steps} not O(log distance)");
    }

    proptest! {
        /// Exponential search from any starting position agrees with plain
        /// binary search.
        #[test]
        fn matches_binary_search(
            keys in proptest::collection::btree_set(0u64..10_000, 1..300),
            probe in 0u64..10_000,
            start in 0usize..400,
        ) {
            let e: Vec<KeyValue> = keys.iter().map(|&k| (k, k)).collect();
            let expected = e.binary_search_by_key(&probe, |x| x.0);
            let (got, _) = exponential_search(&e, probe, start);
            prop_assert_eq!(got, expected);
        }

        /// The branch-free last mile agrees with binary search for any
        /// valid bracket around the answer.
        #[test]
        fn last_mile_matches_binary_search(
            keys in proptest::collection::btree_set(0u64..10_000, 1..300),
            probe in 0u64..10_000,
            slack in 0usize..40,
        ) {
            let e: Vec<KeyValue> = keys.iter().map(|&k| (k, k)).collect();
            let expected = e.binary_search_by_key(&probe, |x| x.0);
            let at = match expected { Ok(i) | Err(i) => i };
            let lo = at.saturating_sub(slack);
            let hi = (at + slack + 1).min(e.len()).max(at);
            prop_assert_eq!(last_mile_search(&e, probe, lo, hi), expected);
            prop_assert_eq!(last_mile_search(&column(&e), probe, lo, hi), expected);
        }
    }
}
