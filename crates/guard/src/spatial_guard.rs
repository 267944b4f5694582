//! Circuit-breaker guardrail for learned spatial indexes.
//!
//! Replacement-paradigm spatial indexes ([`ml4db_spatial::ZmIndex`],
//! [`ml4db_spatial::RsmiIndex`]) answer range queries exactly *when their
//! learned CDF is healthy*, but kNN is approximate by construction and a
//! corrupted model silently drops results. [`GuardedSpatial`] serves such
//! a model next to the classical [`ml4db_spatial::RTree`]:
//!
//! * **range audits** — learned range results are compared set-wise
//!   against the R-tree on the deterministic audit schedule (every call
//!   during warmup/probation, every 8th after). A missing or spurious id
//!   is a breaker failure, and the audited call serves the exact answer.
//! * **kNN recall floor** — audited kNN calls are compared against the
//!   exact best-first R-tree answer; fewer than 0.6 of the true
//!   neighbours among the *distinct* returned ids is judged a failure.
//!   Audited calls serve the exact neighbours. An answer that is short or
//!   repeats an id is invalid on every call, audited or not.
//! * **panic containment + Open fallback** — panics are caught and judged;
//!   while Open every query is answered by the R-tree alone.
//!
//! The learned side plugs in through [`SpatialModel`], implemented here
//! for the crate's replacement indexes.

use std::collections::BTreeSet;

use ml4db_spatial::{Point, Rect, RsmiIndex, RTree, ZmIndex};

use crate::breaker::{AuditSchedule, BreakerConfig, CircuitBreaker, Judged, TripReason};

/// The learned side of a guarded spatial index: range + approximate kNN.
pub trait SpatialModel {
    /// Ids of stored points inside `query` (any order).
    fn range(&self, query: &Rect) -> Vec<usize>;
    /// Approximately the `k` nearest stored points to `point`.
    fn knn(&self, point: &Point, k: usize) -> Vec<usize>;
    /// Number of stored points.
    fn len(&self) -> usize;
    /// True when no points are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Candidate window used for the approximate-kNN adapters below.
const KNN_WINDOW: usize = 256;

impl SpatialModel for ZmIndex {
    fn range(&self, query: &Rect) -> Vec<usize> {
        self.range_query(query).0
    }
    fn knn(&self, point: &Point, k: usize) -> Vec<usize> {
        self.knn_approximate(point, k, KNN_WINDOW)
    }
    fn len(&self) -> usize {
        self.len()
    }
}

impl SpatialModel for RsmiIndex {
    fn range(&self, query: &Rect) -> Vec<usize> {
        self.range_query(query).0
    }
    fn knn(&self, point: &Point, k: usize) -> Vec<usize> {
        self.knn_approximate(point, k, KNN_WINDOW)
    }
    fn len(&self) -> usize {
        self.len()
    }
}

/// Minimum acceptable kNN recall on audited calls.
const MIN_RECALL: f64 = 0.6;

/// A learned spatial index guarded by a classical R-tree.
pub struct GuardedSpatial<L> {
    /// The learned index.
    pub learned: L,
    /// The exact classical baseline.
    pub classical: RTree,
    breaker: CircuitBreaker,
    schedule: AuditSchedule,
}

impl<L: SpatialModel> GuardedSpatial<L> {
    /// Guards `learned` with `classical` under default thresholds.
    ///
    /// # Panics
    /// Panics if the two sides disagree on entry count.
    pub fn new(learned: L, classical: RTree) -> Self {
        assert_eq!(
            learned.len(),
            classical.len(),
            "guarded spatial index requires both sides to index the same data"
        );
        Self {
            learned,
            classical,
            breaker: CircuitBreaker::named("spatial_index", BreakerConfig::default()),
            schedule: AuditSchedule::default(),
        }
    }

    /// The breaker, for state inspection and telemetry.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Number of audits performed.
    pub fn audits(&self) -> u64 {
        self.schedule.audits()
    }

    /// Number of audited calls that failed their check.
    pub fn mismatches(&self) -> u64 {
        self.schedule.mismatches()
    }

    /// Range query: ids of stored points inside `query`, sorted. Audited
    /// calls serve the exact classical answer; correctness failures count
    /// against the breaker.
    pub fn range_query(&self, query: &Rect) -> Vec<usize> {
        let classical = || {
            let (mut ids, _) = self.classical.range_query(query);
            ids.sort_unstable();
            ids
        };
        self.breaker.guarded_call(
            classical,
            || (self.schedule.next_call(), self.learned.range(query)),
            |(nth, mut res): (u64, Vec<usize>), shadow| {
                res.sort_unstable();
                if self.schedule.due(nth, shadow) {
                    let truth = classical();
                    self.schedule.audited(res == truth, truth)
                } else {
                    Judged::Unjudged(res)
                }
            },
        )
    }

    /// kNN query. Audited calls serve the exact classical neighbours and
    /// judge the learned answer's recall against the 0.6 floor.
    pub fn knn(&self, point: &Point, k: usize) -> Vec<usize> {
        self.breaker.guarded_call(
            || self.classical.knn(point, k).0,
            || (self.schedule.next_call(), self.learned.knn(point, k)),
            |(nth, res): (u64, Vec<usize>), shadow| {
                // Structural check every call: an approximate kNN must
                // still return k results when k points exist, and no
                // neighbour twice.
                let distinct: BTreeSet<usize> = res.iter().copied().collect();
                if res.len() < k.min(self.learned.len()) || distinct.len() < res.len() {
                    return Judged::Failed(TripReason::InvalidOutput, None);
                }
                if !self.schedule.due(nth, shadow) {
                    return Judged::Unjudged(res);
                }
                let (truth, _) = self.classical.knn(point, k);
                let hit = truth.iter().filter(|id| distinct.contains(id)).count();
                let recall =
                    if truth.is_empty() { 1.0 } else { hit as f64 / truth.len() as f64 };
                self.schedule.audited(recall >= MIN_RECALL, truth)
            },
        )
    }
}

/// The guard is a drop-in for the model it wraps: it answers with what it
/// serves (ranges sorted, which "any order" allows).
impl<L: SpatialModel> SpatialModel for GuardedSpatial<L> {
    fn range(&self, query: &Rect) -> Vec<usize> {
        self.range_query(query)
    }
    fn knn(&self, point: &Point, k: usize) -> Vec<usize> {
        GuardedSpatial::knn(self, point, k) // the inherent, guarded kNN
    }
    fn len(&self) -> usize {
        self.classical.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerState;
    use ml4db_spatial::data::{generate_points, unit_domain, SpatialDistribution};
    use ml4db_spatial::Entry;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, seed: u64) -> (Vec<Entry>, RTree) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts =
            generate_points(SpatialDistribution::Clustered { clusters: 5 }, n, &mut rng);
        let rt = RTree::bulk_load_str(&pts);
        (pts, rt)
    }

    fn brute_range(entries: &[Entry], q: &Rect) -> Vec<usize> {
        let mut v: Vec<usize> = entries
            .iter()
            .filter(|e| q.contains_point(&e.rect.center()))
            .map(|e| e.id)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn healthy_zm_serves_exact_ranges_and_stays_closed() {
        let (pts, rt) = setup(2000, 11);
        let zm = ZmIndex::build(pts.clone(), unit_domain(), 16);
        let g = GuardedSpatial::new(zm, rt);
        for i in 0..24u64 {
            let lo = 40.0 * (i % 5) as f64;
            let q = Rect::new(
                Point::new(lo, lo),
                Point::new(lo + 300.0, lo + 280.0),
            );
            // ZM ranges are exact while the model is healthy; every result
            // (audited or not) matches brute force because the R-tree
            // intersects degenerate point-rects exactly when the rect
            // contains the point.
            assert_eq!(g.range_query(&q), brute_range(&pts, &q));
        }
        assert_eq!(g.breaker().state(), BreakerState::Closed);
        assert_eq!(g.mismatches(), 0);
    }

    /// A spatial model that silently drops a fraction of range results and
    /// answers kNN from the wrong region — the corrupted-CDF failure mode.
    struct Corrupted {
        inner: ZmIndex,
    }
    impl SpatialModel for Corrupted {
        fn range(&self, query: &Rect) -> Vec<usize> {
            let mut ids = self.inner.range_query(query).0;
            let keep = ids.len() / 2;
            ids.truncate(keep);
            ids
        }
        fn knn(&self, point: &Point, k: usize) -> Vec<usize> {
            // Probe a displaced point: recall collapses.
            let off = Point::new(point.x * 0.1, 1000.0 - point.y);
            self.inner.knn_approximate(&off, k, 4)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
    }

    #[test]
    fn corrupted_model_trips_and_serves_exact_answers() {
        let (pts, rt) = setup(2000, 12);
        let zm = ZmIndex::build(pts.clone(), unit_domain(), 16);
        let g = GuardedSpatial::new(Corrupted { inner: zm }, rt);
        let q = Rect::new(Point::new(100.0, 100.0), Point::new(700.0, 700.0));
        for _ in 0..8 {
            // Audited calls repair the dropped half; once Open, classical
            // serves — either way the answer is exact.
            assert_eq!(g.range_query(&q), brute_range(&pts, &q));
        }
        assert_eq!(g.breaker().state(), BreakerState::Open);
        assert_eq!(g.breaker().last_trip(), Some(TripReason::OutOfBand));
        assert!(g.mismatches() > 0);
    }

    /// A model that answers every kNN with one true neighbour repeated
    /// `k` times: full length, and every returned id is a true neighbour.
    struct Repeater {
        inner: ZmIndex,
        exact: RTree,
    }
    impl SpatialModel for Repeater {
        fn range(&self, query: &Rect) -> Vec<usize> {
            self.inner.range_query(query).0
        }
        fn knn(&self, point: &Point, k: usize) -> Vec<usize> {
            vec![self.exact.knn(point, 1).0[0]; k]
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
    }

    #[test]
    fn repeated_neighbour_does_not_pass_the_recall_floor() {
        let (pts, rt) = setup(3000, 14);
        let zm = ZmIndex::build(pts.clone(), unit_domain(), 16);
        let g = GuardedSpatial::new(Repeater { inner: zm, exact: rt.clone() }, rt.clone());
        let budget = u64::from(g.breaker().config().failure_budget);
        for call in 0..64u64 {
            let probe = pts[(call as usize * 41) % pts.len()].rect.center();
            assert_eq!(g.knn(&probe, 10), rt.knn(&probe, 10).0, "call {call}");
            if call + 1 >= budget {
                assert!(g.breaker().trips() >= 1, "not tripped after {} calls", call + 1);
            }
        }
        assert_eq!(g.breaker().last_trip(), Some(TripReason::InvalidOutput));
    }

    #[test]
    fn knn_recall_floor_is_enforced() {
        let (pts, rt) = setup(3000, 13);
        let zm = ZmIndex::build(pts.clone(), unit_domain(), 16);
        let g = GuardedSpatial::new(Corrupted { inner: zm }, rt.clone());
        let probe = pts[pts.len() / 3].rect.center();
        for _ in 0..8 {
            let got = g.knn(&probe, 10);
            // Audited (warmup) calls serve the exact answer; Open calls
            // serve classical. Both equal the R-tree's exact kNN.
            assert_eq!(got, rt.knn(&probe, 10).0);
        }
        assert_eq!(g.breaker().state(), BreakerState::Open);
    }
}
