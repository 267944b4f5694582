//! The tutorial's conceptual contribution as an API: the two paradigms and
//! the guardrail pattern that makes "ML-enhanced" robust.
//!
//! A **replacement** component answers alone; an **ML-enhanced** component
//! wraps a classical one and only overrides it inside a guardrail — when
//! the learned answer disagrees too wildly or the model is undertrained,
//! the classical answer wins. [`GuardedEstimator`] instantiates the
//! pattern for cardinality estimation; the optimizer crate's LEON/Bao
//! follow the same shape for planning.

use ml4db_plan::{CardEstimator, ClassicEstimator, Query};
use ml4db_storage::Database;

/// Which paradigm a component follows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParadigmKind {
    /// The learned model substitutes the classical component.
    Replacement,
    /// The learned model aids the classical component under a guardrail.
    MlEnhanced,
}

/// A cardinality estimator that guards a learned model with the classical
/// estimator: the learned estimate is used only while it stays within a
/// plausibility band around the classical one; otherwise the classical
/// estimate wins and the event is counted.
pub struct GuardedEstimator<M: CardEstimator> {
    /// The learned model.
    pub learned: M,
    /// Maximum allowed ratio between learned and classical estimates
    /// before the guardrail fires.
    pub max_ratio: f64,
    /// Number of times the guardrail fell back (interior mutability so the
    /// estimator keeps the trait's `&self` signature).
    fallbacks: std::cell::Cell<u64>,
    /// Number of estimates served overall.
    calls: std::cell::Cell<u64>,
}

impl<M: CardEstimator> GuardedEstimator<M> {
    /// Wraps a learned estimator with a guardrail of the given ratio.
    pub fn new(learned: M, max_ratio: f64) -> Self {
        assert!(max_ratio > 1.0, "guardrail ratio must exceed 1");
        Self {
            learned,
            max_ratio,
            fallbacks: std::cell::Cell::new(0),
            calls: std::cell::Cell::new(0),
        }
    }

    /// How often the guardrail fired, as a fraction of calls.
    pub fn fallback_rate(&self) -> f64 {
        let calls = self.calls.get();
        if calls == 0 {
            0.0
        } else {
            self.fallbacks.get() as f64 / calls as f64
        }
    }
}

impl<M: CardEstimator> CardEstimator for GuardedEstimator<M> {
    fn estimate(&self, db: &Database, query: &Query, mask: u64) -> f64 {
        self.calls.set(self.calls.get() + 1);
        let classical = ClassicEstimator.estimate(db, query, mask);
        let learned = self.learned.estimate(db, query, mask);
        let ratio = (learned / classical.max(1e-9)).max(classical / learned.max(1e-9));
        if ratio > self.max_ratio {
            self.fallbacks.set(self.fallbacks.get() + 1);
            classical
        } else {
            learned
        }
    }
}

/// A robustness comparison of a component on seen vs unseen workloads —
/// the measurement behind the tutorial's paradigm argument.
#[derive(Clone, Copy, Debug)]
pub struct RobustnessReport {
    /// Relative performance on the training distribution (1.0 = expert
    /// parity; lower is better).
    pub seen: f64,
    /// Relative performance on unseen templates.
    pub unseen: f64,
}

impl RobustnessReport {
    /// The degradation factor when leaving the training distribution.
    pub fn degradation(&self) -> f64 {
        self.unseen / self.seen.max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4db_storage::datasets::joblite_db;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A deliberately broken "learned" estimator.
    struct WildEstimator;
    impl CardEstimator for WildEstimator {
        fn estimate(&self, _: &Database, _: &Query, mask: u64) -> f64 {
            if mask % 2 == 0 {
                1e12
            } else {
                50.0
            }
        }
    }

    fn db() -> Database {
        let mut rng = StdRng::seed_from_u64(1);
        joblite_db(100, &[], &mut rng)
    }

    #[test]
    fn guardrail_catches_wild_estimates() {
        let db = db();
        let q = ml4db_plan::Query::new(&["title", "cast_info"]).join(0, "id", 1, "movie_id");
        let guarded = GuardedEstimator::new(WildEstimator, 8.0);
        // mask 0b10 (even) → wild 1e12 → fallback to classical.
        let classical = ClassicEstimator.estimate(&db, &q, 0b10);
        assert_eq!(guarded.estimate(&db, &q, 0b10), classical);
        assert!(guarded.fallback_rate() > 0.0);
    }

    #[test]
    fn guardrail_passes_plausible_estimates() {
        let db = db();
        let q = ml4db_plan::Query::new(&["title"]);
        // Classical estimate for a full scan is exact (100 rows); the wild
        // estimator says 50 for odd masks — within ratio 8.
        let guarded = GuardedEstimator::new(WildEstimator, 8.0);
        assert_eq!(guarded.estimate(&db, &q, 0b1), 50.0);
        assert_eq!(guarded.fallback_rate(), 0.0);
    }

    #[test]
    fn degradation_factor() {
        let r = RobustnessReport { seen: 1.1, unseen: 3.3 };
        assert!((r.degradation() - 3.0).abs() < 1e-9);
    }
}
