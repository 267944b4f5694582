//! The lightweight NNGP cardinality estimator (Zhao et al. \[55\]): exact
//! Gaussian-process regression with the arc-cosine (infinite-width ReLU
//! network) kernel. Training is a single Cholesky factorization — "model
//! training in a few seconds" is the tutorial's model-efficiency point —
//! and the posterior variance gives calibrated uncertainty for free.

use ml4db_nn::bayes::{GaussianProcess, Kernel};
use ml4db_plan::{CardEstimator, Query};
use ml4db_storage::Database;

use crate::features::{card_to_target, query_features, target_to_card};
use crate::mscn::CardSample;

/// The NNGP estimator.
pub struct NngpEstimator {
    gp: GaussianProcess,
}

impl Default for NngpEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl NngpEstimator {
    /// Creates an unfitted estimator.
    pub fn new() -> Self {
        Self { gp: GaussianProcess::new(Kernel::ArcCos, 1e-3) }
    }

    /// Fits in closed form. Returns the wall-clock training time.
    pub fn fit(&mut self, db: &Database, samples: &[CardSample]) -> std::time::Duration {
        let start = std::time::Instant::now();
        let x: Vec<Vec<f32>> = samples
            .iter()
            .map(|s| query_features(db, &s.query, s.mask).to_vec())
            .collect();
        let y: Vec<f32> = samples.iter().map(|s| card_to_target(s.card)).collect();
        self.gp.fit(&x, &y);
        start.elapsed()
    }

    /// Prediction with uncertainty: `(cardinality, std in log-target space)`.
    pub fn estimate_with_uncertainty(
        &self,
        db: &Database,
        query: &Query,
        mask: u64,
    ) -> (f64, f64) {
        let f = query_features(db, query, mask);
        let (mean, var) = self.gp.predict_with_variance(&f);
        (target_to_card(mean as f32).max(1.0), var.sqrt())
    }

    /// Number of stored training points (the "model size" of a GP).
    pub fn train_size(&self) -> usize {
        self.gp.train_size()
    }
}

impl CardEstimator for NngpEstimator {
    fn estimate(&self, db: &Database, query: &Query, mask: u64) -> f64 {
        self.estimate_with_uncertainty(db, query, mask).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mscn::collect_samples;
    use ml4db_nn::metrics::{q_error, q_error_summary};
    use ml4db_plan::TrueCardinality;
    use ml4db_storage::datasets::{joblite, DatasetConfig};
    use ml4db_storage::CmpOp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Database, Vec<Query>, Vec<Query>) {
        let mut rng = StdRng::seed_from_u64(9);
        let db = Database::analyze(
            joblite(&DatasetConfig { base_rows: 600, skew: 0.3, correlation: 0.8 }, &mut rng),
            &mut rng,
        );
        let mk = |i: usize| {
            ml4db_plan::Query::new(&["title"])
                .filter(0, "year", CmpOp::Ge, (1985 + (i * 11) % 35) as f64)
                .filter(0, "votes", CmpOp::Le, (2000 + (i * 517) % 9000) as f64)
        };
        let train: Vec<Query> = (0..50).map(mk).collect();
        let test: Vec<Query> = (50..75).map(mk).collect();
        (db, train, test)
    }

    #[test]
    fn trains_fast_and_predicts_well() {
        let (db, train, test) = setup();
        let samples = collect_samples(&db, &train);
        let mut gp = NngpEstimator::new();
        let dt = gp.fit(&db, &samples);
        assert!(dt.as_millis() < 2000, "NNGP training took {dt:?}");
        let oracle = TrueCardinality::new();
        let errs: Vec<f64> = test
            .iter()
            .map(|q| q_error(gp.estimate(&db, q, 1), oracle.estimate(&db, q, 1)))
            .collect();
        let s = q_error_summary(&errs).unwrap();
        assert!(s.median < 3.0, "median q-error {}", s.median);
    }

    #[test]
    fn uncertainty_larger_off_distribution() {
        let (db, train, _) = setup();
        let samples = collect_samples(&db, &train);
        let mut gp = NngpEstimator::new();
        gp.fit(&db, &samples);
        // In-distribution query.
        let q_in = ml4db_plan::Query::new(&["title"])
            .filter(0, "year", CmpOp::Ge, 2000.0)
            .filter(0, "votes", CmpOp::Le, 5000.0);
        // A structurally different query (join) never seen in training.
        let q_out = ml4db_plan::Query::new(&["title", "cast_info"])
            .join(0, "id", 1, "movie_id");
        let (_, s_in) = gp.estimate_with_uncertainty(&db, &q_in, 1);
        let (_, s_out) = gp.estimate_with_uncertainty(&db, &q_out, 0b11);
        assert!(
            s_out > s_in,
            "uncertainty should grow off-distribution: {s_out} !> {s_in}"
        );
    }
}
