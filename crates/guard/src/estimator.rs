//! Circuit-breaker guardrail for learned cardinality estimators.
//!
//! [`GuardedCardEstimator`] runs a learned estimator side-by-side with a
//! classical one behind the [`ml4db_plan::CardEstimator`] trait, so it
//! drops into any planner unchanged. Three trip signals feed its breaker:
//!
//! * **validity** — NaN/Inf/non-positive estimates never escape (they are
//!   judged as failures and the classical answer serves);
//! * **plausibility band** — estimates further than `max_ratio` from the
//!   classical answer are treated as failures (the per-call guardrail of
//!   the tutorial's ML-enhanced paradigm);
//! * **drift** — a [`ml4db_card::DriftDetector`] over the post-execution
//!   log-q-error stream; a detected shift force-opens the breaker.
//!
//! Panics inside the learned model are caught at this boundary and judged
//! as failures: a poisoned model must degrade service, not crash the
//! planner.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use ml4db_card::DriftDetector;
use ml4db_plan::{CardEstimator, ClassicEstimator, Query};
use ml4db_storage::Database;

use crate::breaker::{BreakerConfig, CircuitBreaker, Judged, TripReason};

/// A learned cardinality estimator wrapped in a circuit breaker, falling
/// back to a classical estimator.
pub struct GuardedCardEstimator<L, C = ClassicEstimator> {
    /// The learned model.
    pub learned: L,
    /// The classical fallback (and plausibility reference).
    pub classical: C,
    /// Maximum allowed ratio between learned and classical estimates
    /// before a call is judged out-of-band.
    pub max_ratio: f64,
    breaker: CircuitBreaker,
    drift: Mutex<DriftDetector>,
}

impl<L: CardEstimator> GuardedCardEstimator<L, ClassicEstimator> {
    /// Guards `learned` against the classical textbook estimator with
    /// default breaker thresholds and a 40-observation drift window.
    pub fn new(learned: L, max_ratio: f64) -> Self {
        Self::with_config(
            learned,
            ClassicEstimator,
            max_ratio,
            BreakerConfig::default(),
            DriftDetector::new(40, 0.5),
        )
    }
}

impl<L: CardEstimator, C: CardEstimator> GuardedCardEstimator<L, C> {
    /// Fully parameterized constructor.
    pub fn with_config(
        learned: L,
        classical: C,
        max_ratio: f64,
        cfg: BreakerConfig,
        drift: DriftDetector,
    ) -> Self {
        assert!(max_ratio > 1.0, "plausibility ratio must exceed 1");
        Self {
            learned,
            classical,
            max_ratio,
            breaker: CircuitBreaker::named("card_estimator", cfg),
            drift: Mutex::new(drift),
        }
    }

    /// The breaker, for state inspection and telemetry.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Feeds one post-execution ground truth back into the drift
    /// detector: `truth` is the observed cardinality for `(query, mask)`.
    /// A detected shift force-opens the breaker.
    pub fn observe_truth(&self, db: &Database, query: &Query, mask: u64, truth: f64) {
        let learned =
            catch_unwind(AssertUnwindSafe(|| self.learned.estimate(db, query, mask)));
        let err = match learned {
            Ok(v) if v.is_finite() && v > 0.0 => {
                let t = truth.max(1.0);
                (v.max(1e-9) / t).ln().abs()
            }
            // An unusable estimate is an unbounded error for drift
            // purposes.
            _ => f64::MAX.ln(),
        };
        let fired = self
            .drift
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .observe(err);
        ml4db_obs::emit_with(|| ml4db_obs::Event::DriftVerdict {
            component: self.breaker.name(),
            fired,
        });
        ml4db_obs::counter_add(
            if fired { "drift.fired" } else { "drift.stable" },
            1,
        );
        if fired {
            self.breaker.force_open(TripReason::Drift);
        }
    }

    /// Re-admission hook after the learned model retrains or adapts:
    /// clears the drift baseline (the new model's errors define the fresh
    /// reference) and puts the breaker on probation.
    pub fn rebaseline(&self) {
        self.drift
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .rebaseline();
        self.breaker.begin_probation();
    }

    /// Judges one learned estimate against the classical answer: every
    /// call is judged, and a shadow call serves the classical one.
    fn judge(&self, learned: f64, classical: f64, shadow: bool) -> Judged<f64> {
        if !learned.is_finite() || learned <= 0.0 {
            return Judged::Failed(TripReason::InvalidOutput, None);
        }
        let c = classical.max(1e-9);
        let l = learned.max(1e-9);
        let ratio = (l / c).max(c / l);
        if ratio > self.max_ratio {
            Judged::Failed(TripReason::OutOfBand, None)
        } else {
            Judged::Clean(if shadow { classical } else { learned })
        }
    }
}

impl<L: CardEstimator, C: CardEstimator> CardEstimator for GuardedCardEstimator<L, C> {
    fn estimate(&self, db: &Database, query: &Query, mask: u64) -> f64 {
        // The band is measured against the classical estimate, so it is
        // computed up front on every call, Open or not.
        let classical = self.classical.estimate(db, query, mask);
        self.breaker.guarded_call(
            || classical,
            || self.learned.estimate(db, query, mask),
            |learned, shadow| self.judge(learned, classical, shadow),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerState;
    use ml4db_storage::datasets::joblite_db;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct NanEstimator;
    impl CardEstimator for NanEstimator {
        fn estimate(&self, _: &Database, _: &Query, _: u64) -> f64 {
            f64::NAN
        }
    }

    struct PanicEstimator;
    impl CardEstimator for PanicEstimator {
        fn estimate(&self, _: &Database, _: &Query, _: u64) -> f64 {
            panic!("poisoned model");
        }
    }

    /// Mirrors the classical estimator (always in band).
    struct EchoEstimator;
    impl CardEstimator for EchoEstimator {
        fn estimate(&self, db: &Database, q: &Query, mask: u64) -> f64 {
            ClassicEstimator.estimate(db, q, mask)
        }
    }

    fn db() -> Database {
        let mut rng = StdRng::seed_from_u64(7);
        joblite_db(100, &[], &mut rng)
    }

    fn q() -> Query {
        Query::new(&["title", "cast_info"]).join(0, "id", 1, "movie_id")
    }

    #[test]
    fn nan_estimates_trip_and_serve_classical() {
        let db = db();
        let q = q();
        let g = GuardedCardEstimator::new(NanEstimator, 8.0);
        let classical = ClassicEstimator.estimate(&db, &q, 0b11);
        for _ in 0..10 {
            let est = g.estimate(&db, &q, 0b11);
            assert!(est.is_finite() && est > 0.0);
            assert_eq!(est, classical);
        }
        assert_eq!(g.breaker().state(), BreakerState::Open);
        assert_eq!(g.breaker().last_trip(), Some(TripReason::InvalidOutput));
    }

    #[test]
    fn panicking_model_is_contained() {
        let db = db();
        let q = q();
        let g = GuardedCardEstimator::new(PanicEstimator, 8.0);
        let classical = ClassicEstimator.estimate(&db, &q, 0b01);
        for _ in 0..6 {
            assert_eq!(g.estimate(&db, &q, 0b01), classical);
        }
        assert_eq!(g.breaker().last_trip(), Some(TripReason::Panic));
    }

    /// Wild on even masks, plausible on odd ones.
    struct WildEstimator;
    impl CardEstimator for WildEstimator {
        fn estimate(&self, _: &Database, _: &Query, mask: u64) -> f64 {
            if mask.is_multiple_of(2) {
                1e12
            } else {
                50.0
            }
        }
    }

    #[test]
    fn out_of_band_estimate_falls_back_and_plausible_one_passes() {
        let db = db();
        let g = GuardedCardEstimator::new(WildEstimator, 8.0);
        // A full scan of 100 rows is estimated exactly; 50 is within 8×.
        let scan = Query::new(&["title"]);
        assert_eq!(g.estimate(&db, &scan, 0b1), 50.0);
        assert_eq!(g.breaker().fallbacks(), 0);
        // 1e12 is finite and positive but far outside the band.
        let q = q();
        assert_eq!(g.estimate(&db, &q, 0b10), ClassicEstimator.estimate(&db, &q, 0b10));
        assert_eq!(g.breaker().fallbacks(), 1);
        assert_eq!(g.breaker().state(), BreakerState::Closed);
    }

    #[test]
    fn in_band_model_serves_and_stays_closed() {
        let db = db();
        let q = q();
        let g = GuardedCardEstimator::new(EchoEstimator, 8.0);
        for mask in [0b01u64, 0b10, 0b11] {
            let est = g.estimate(&db, &q, mask);
            assert_eq!(est, ClassicEstimator.estimate(&db, &q, mask));
        }
        assert_eq!(g.breaker().state(), BreakerState::Closed);
        assert_eq!(g.breaker().fallbacks(), 0);
    }

    #[test]
    fn drift_signal_force_opens_and_rebaseline_readmits() {
        let db = db();
        let q = q();
        let g = GuardedCardEstimator::with_config(
            EchoEstimator,
            ClassicEstimator,
            8.0,
            BreakerConfig::default(),
            DriftDetector::new(8, 0.5),
        );
        // Stable period: small errors build the reference window.
        for _ in 0..8 {
            let est = ClassicEstimator.estimate(&db, &q, 0b11);
            g.observe_truth(&db, &q, 0b11, est * 1.1);
        }
        assert_eq!(g.breaker().state(), BreakerState::Closed);
        // Shifted period: the same model is now wildly wrong.
        for _ in 0..16 {
            let est = ClassicEstimator.estimate(&db, &q, 0b11);
            g.observe_truth(&db, &q, 0b11, est * 5e4);
        }
        assert_eq!(g.breaker().state(), BreakerState::Open);
        assert_eq!(g.breaker().last_trip(), Some(TripReason::Drift));

        // After "retraining", rebaseline puts it on probation and the new
        // error stream does not re-trip.
        g.rebaseline();
        assert_eq!(g.breaker().state(), BreakerState::HalfOpen);
        for _ in 0..32 {
            let est = ClassicEstimator.estimate(&db, &q, 0b11);
            g.observe_truth(&db, &q, 0b11, est * 1.05);
            g.estimate(&db, &q, 0b11);
        }
        assert_eq!(g.breaker().state(), BreakerState::Closed);
    }
}
