//! Circuit-breaker guardrail for learned one-dimensional indexes.
//!
//! [`GuardedIndex`] serves a learned index ([`ml4db_index::Rmi`], PGM,
//! RadixSpline, …) next to a classical baseline (typically
//! [`ml4db_index::BPlusTree`]) behind the common
//! [`ml4db_index::OrderedIndex`] trait. Correctness signals:
//!
//! * **miss cross-check** — every learned miss is verified against the
//!   classical index before `None` is served. A learned index whose
//!   predictions are displaced by k slots misses present keys; the guard
//!   converts each such miss into the correct classical answer *and* a
//!   breaker failure. Served point lookups are therefore always correct.
//! * **audit schedule** — range results are compared against the
//!   classical index on the deterministic audit schedule: every call
//!   while trust is young (the first 16 learned calls) or probationary
//!   (HalfOpen), then every 8th once the model has earned agreement. Every range result is
//!   additionally invariant-checked (sorted, within bounds) on every call.
//! * **panic containment** — out-of-bound predictions that make the
//!   learned structure panic are caught and judged as failures.
//!
//! While the breaker is Open the classical index serves alone, so the
//! guarded structure is exactly the baseline — the graceful-degradation
//! guarantee the chaos harness asserts.

use ml4db_index::{KeyValue, OrderedIndex, TwoPhaseIndex};

use crate::breaker::{AuditSchedule, BreakerConfig, CircuitBreaker, Judged, TripReason};

/// A learned ordered index guarded by a classical one.
pub struct GuardedIndex<L, C> {
    /// The learned index.
    pub learned: L,
    /// The classical baseline serving fallbacks and audits.
    pub classical: C,
    breaker: CircuitBreaker,
    schedule: AuditSchedule,
}

impl<L: OrderedIndex, C: OrderedIndex> GuardedIndex<L, C> {
    /// Guards `learned` with `classical` under default thresholds.
    ///
    /// # Panics
    /// Panics if the two indexes disagree on entry count — they must be
    /// built over the same data.
    pub fn new(learned: L, classical: C) -> Self {
        assert_eq!(
            learned.len(),
            classical.len(),
            "guarded index requires both sides to index the same data"
        );
        Self {
            learned,
            classical,
            breaker: CircuitBreaker::named("learned_index", BreakerConfig::default()),
            schedule: AuditSchedule::default(),
        }
    }

    /// The breaker, for state inspection and telemetry.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Number of audits performed (for tests and telemetry).
    pub fn audits(&self) -> u64 {
        self.schedule.audits()
    }

    /// Number of audited calls where learned and classical disagreed.
    pub fn mismatches(&self) -> u64 {
        self.schedule.mismatches()
    }
}

impl<L: TwoPhaseIndex, C: OrderedIndex> GuardedIndex<L, C> {
    /// Guarded batched point lookups (two-phase fast path) into a
    /// caller-owned buffer.
    ///
    /// The batch counts as one breaker call. Every learned miss in the
    /// batch is cross-checked against the classical index before `None` is
    /// served (and repaired on disagreement), so served answers are always
    /// correct; on the audit schedule the whole batch is verified.
    pub fn lookup_batch(&self, keys: &[u64], out: &mut Vec<Option<u64>>) {
        self.lookup_batch_impl(keys, out, false);
    }

    /// [`Self::lookup_batch`] for ascending probe keys, using the learned
    /// index's sorted-probe fast path (previous-segment reuse, floored
    /// windows).
    pub fn lookup_batch_sorted(&self, keys: &[u64], out: &mut Vec<Option<u64>>) {
        self.lookup_batch_impl(keys, out, true);
    }

    fn lookup_batch_impl(&self, keys: &[u64], out: &mut Vec<Option<u64>>, sorted: bool) {
        let served = self.breaker.guarded_call(
            || keys.iter().map(|&k| self.classical.get(k)).collect(),
            || {
                let nth = self.schedule.next_call();
                let mut buf = Vec::with_capacity(keys.len());
                if sorted {
                    self.learned.lookup_batch_sorted(keys, &mut buf);
                } else {
                    self.learned.lookup_batch(keys, &mut buf);
                }
                (nth, buf)
            },
            |(nth, mut res): (u64, Vec<Option<u64>>), shadow| {
                if res.len() != keys.len() {
                    return Judged::Failed(TripReason::InvalidOutput, None);
                }
                // Misses are always cross-checked; hits only on the
                // schedule — same policy as single-key `get`.
                let full_audit = self.schedule.due(nth, shadow);
                if !full_audit && res.iter().all(Option::is_some) {
                    return Judged::Unjudged(res);
                }
                let mut agreed = true;
                for (slot, &k) in res.iter_mut().zip(keys) {
                    if full_audit || slot.is_none() {
                        let truth = self.classical.get(k);
                        agreed &= truth == *slot;
                        *slot = truth;
                    }
                }
                self.schedule.audited(agreed, res)
            },
        );
        *out = served;
    }
}

impl<L: OrderedIndex, C: OrderedIndex> OrderedIndex for GuardedIndex<L, C> {
    fn len(&self) -> usize {
        self.classical.len()
    }

    fn get(&self, key: u64) -> Option<u64> {
        self.breaker.guarded_call(
            || self.classical.get(key),
            || (self.schedule.next_call(), self.learned.get(key)),
            |(nth, res), shadow| {
                // A miss is always cross-checked: a learned index that
                // mispredicts present keys must not drop rows. Hits are
                // audited on the schedule (and always in shadow).
                if res.is_none() || self.schedule.due(nth, shadow) {
                    let truth = self.classical.get(key);
                    self.schedule.audited(res == truth, truth)
                } else {
                    Judged::Unjudged(res)
                }
            },
        )
    }

    fn range(&self, lo: u64, hi: u64) -> Vec<KeyValue> {
        self.breaker.guarded_call(
            || self.classical.range(lo, hi),
            || (self.schedule.next_call(), self.learned.range(lo, hi)),
            |(nth, res): (u64, Vec<KeyValue>), shadow| {
                // Cheap structural invariants on every call: ascending
                // keys, all within bounds.
                let invariant_ok = res.windows(2).all(|w| w[0].0 <= w[1].0)
                    && res.iter().all(|e| e.0 >= lo && e.0 <= hi);
                if !invariant_ok {
                    Judged::Failed(TripReason::InvalidOutput, None)
                } else if self.schedule.due(nth, shadow) {
                    let truth = self.classical.range(lo, hi);
                    self.schedule.audited(res == truth, truth)
                } else {
                    Judged::Unjudged(res)
                }
            },
        )
    }

    fn size_bytes(&self) -> usize {
        self.learned.size_bytes() + self.classical.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerState;
    use ml4db_index::{BPlusTree, Rmi};

    fn entries(n: u64) -> Vec<KeyValue> {
        (0..n).map(|k| (k * 7, k)).collect()
    }

    #[test]
    fn healthy_learned_index_serves_correctly_and_stays_closed() {
        let e = entries(5000);
        let g = GuardedIndex::new(Rmi::build(e.clone(), 64), BPlusTree::bulk_load(&e));
        for &(k, v) in e.iter().step_by(37) {
            assert_eq!(g.get(k), Some(v));
        }
        assert_eq!(g.get(3), None); // absent key: cross-checked miss
        assert_eq!(g.range(70, 140), BPlusTree::bulk_load(&e).range(70, 140));
        assert_eq!(g.breaker().state(), BreakerState::Closed);
        assert_eq!(g.mismatches(), 0);
        assert!(g.audits() > 0, "warmup must audit");
    }

    /// A learned index whose predictions are displaced: misses every
    /// present key and truncates ranges.
    struct Displaced {
        inner: Vec<KeyValue>,
        k: usize,
    }
    impl OrderedIndex for Displaced {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn get(&self, key: u64) -> Option<u64> {
            // Bounded search in a window displaced k slots right of the
            // true position — present keys fall outside it.
            let pos = self.inner.partition_point(|e| e.0 < key) + self.k;
            let lo = pos.min(self.inner.len());
            let hi = (pos + 2).min(self.inner.len());
            self.inner[lo..hi].iter().find(|e| e.0 == key).map(|e| e.1)
        }
        fn range(&self, lo: u64, hi: u64) -> Vec<KeyValue> {
            let start = (self.inner.partition_point(|e| e.0 < lo) + self.k)
                .min(self.inner.len());
            self.inner[start..].iter().take_while(|e| e.0 <= hi).copied().collect()
        }
        fn size_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn displaced_predictions_never_serve_wrong_answers() {
        let e = entries(2000);
        let g = GuardedIndex::new(
            Displaced { inner: e.clone(), k: 40 },
            BPlusTree::bulk_load(&e),
        );
        // Every served answer is correct from call one (miss cross-check),
        // and the breaker trips to classical-only.
        for &(k, v) in e.iter().step_by(13) {
            assert_eq!(g.get(k), Some(v), "guard must repair displaced miss");
        }
        assert_eq!(g.breaker().state(), BreakerState::Open);
        assert_eq!(g.breaker().last_trip(), Some(TripReason::OutOfBand));
        assert!(g.mismatches() > 0);
    }

    /// A learned index that indexes out of bounds (panics) on every call —
    /// the unguarded failure mode of an out-of-range prediction.
    struct OobPanic {
        inner: Vec<KeyValue>,
    }
    impl OrderedIndex for OobPanic {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn get(&self, _key: u64) -> Option<u64> {
            let oob = self.inner.len() + 17;
            Some(self.inner[oob].1) // genuine out-of-bounds panic
        }
        fn range(&self, _lo: u64, _hi: u64) -> Vec<KeyValue> {
            let oob = self.inner.len() + 17;
            vec![self.inner[oob]]
        }
        fn size_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn guarded_batch_matches_singles_and_stays_closed() {
        let e = entries(4000);
        let g = GuardedIndex::new(Rmi::build(e.clone(), 64), BPlusTree::bulk_load(&e));
        let mut probes: Vec<u64> = e.iter().step_by(5).map(|x| x.0).collect();
        probes.extend(e.iter().step_by(11).map(|x| x.0 + 1)); // absent
        probes.sort_unstable();
        let mut batch = Vec::new();
        g.lookup_batch_sorted(&probes, &mut batch);
        for (i, &k) in probes.iter().enumerate() {
            assert_eq!(batch[i], g.classical.get(k), "probe {k}");
        }
        g.lookup_batch(&probes, &mut batch);
        for (i, &k) in probes.iter().enumerate() {
            assert_eq!(batch[i], g.classical.get(k), "probe {k}");
        }
        assert_eq!(g.breaker().state(), BreakerState::Closed);
        assert_eq!(g.mismatches(), 0);
    }

    #[test]
    fn guarded_batch_serves_classical_while_open() {
        let e = entries(1000);
        let g = GuardedIndex::new(Rmi::build(e.clone(), 32), BPlusTree::bulk_load(&e));
        // Force the breaker open, then verify the batch path degrades to
        // the classical baseline.
        g.breaker().force_open(TripReason::OutOfBand);
        let probes: Vec<u64> = e.iter().step_by(3).map(|x| x.0).collect();
        let mut batch = Vec::new();
        g.lookup_batch_sorted(&probes, &mut batch);
        for (i, &k) in probes.iter().enumerate() {
            assert_eq!(batch[i], g.classical.get(k));
        }
    }

    #[test]
    fn oob_panics_are_contained_and_trip_the_breaker() {
        let e = entries(500);
        let g = GuardedIndex::new(OobPanic { inner: e.clone() }, BPlusTree::bulk_load(&e));
        for &(k, v) in e.iter().step_by(29) {
            assert_eq!(g.get(k), Some(v), "fallback must repair panicking lookup");
        }
        assert_eq!(g.breaker().state(), BreakerState::Open);
        assert_eq!(g.breaker().last_trip(), Some(TripReason::Panic));
        // Range queries served classical while open are exact.
        assert_eq!(g.range(0, 100), BPlusTree::bulk_load(&e).range(0, 100));
    }
}
