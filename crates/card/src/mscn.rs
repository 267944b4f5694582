//! An MSCN-style learned cardinality estimator: an MLP over the set-style
//! query featurization, trained on (sub-query, true cardinality) samples —
//! the "sophisticated, accurate, but training-hungry" end of the
//! model-efficiency spectrum the tutorial contrasts with NNGP (E14).

use rand::Rng;

use ml4db_nn::layers::{Activation, Mlp};
use ml4db_nn::optim::{Adam, Optimizer};
use ml4db_nn::{loss, Matrix, Trainable};
use ml4db_plan::{CardEstimator, Query};
use ml4db_storage::Database;

use crate::features::{card_to_target, query_features, target_to_card, QUERY_DIM};

/// A labeled training sample.
#[derive(Clone, Debug)]
pub struct CardSample {
    /// The query.
    pub query: Query,
    /// Sub-join mask.
    pub mask: u64,
    /// True cardinality.
    pub card: f64,
}

/// Collects training samples by executing sub-joins with the true-
/// cardinality oracle — the expensive trace collection the tutorial's
/// open-problem 4 wants to avoid.
pub fn collect_samples(db: &Database, queries: &[Query]) -> Vec<CardSample> {
    let oracle = ml4db_plan::TrueCardinality::new();
    let mut out = Vec::new();
    for q in queries {
        let full = q.full_mask();
        // All connected masks (queries are small).
        for mask in 1..=full {
            if q.is_connected(mask) {
                let card = oracle.estimate(db, q, mask);
                out.push(CardSample { query: q.clone(), mask, card });
            }
        }
    }
    out
}

/// The learned estimator.
pub struct MscnEstimator {
    model: Mlp,
}

impl MscnEstimator {
    /// Creates an untrained estimator.
    pub fn new<R: Rng + ?Sized>(hidden: usize, rng: &mut R) -> Self {
        Self { model: Mlp::new(&[QUERY_DIM, hidden, hidden, 1], Activation::LeakyRelu, rng) }
    }

    /// Trains on samples; returns the final epoch's mean loss.
    pub fn fit<R: Rng + ?Sized>(
        &mut self,
        db: &Database,
        samples: &[CardSample],
        epochs: usize,
        lr: f32,
        rng: &mut R,
    ) -> f32 {
        let feats: Vec<[f32; QUERY_DIM]> = samples
            .iter()
            .map(|s| query_features(db, &s.query, s.mask))
            .collect();
        let targets: Vec<f32> = samples.iter().map(|s| card_to_target(s.card)).collect();
        let mut opt = Adam::new(lr);
        let mut last = f32::MAX;
        for _ in 0..epochs {
            let mut order: Vec<usize> = (0..samples.len()).collect();
            use rand::seq::SliceRandom;
            order.shuffle(rng);
            let mut total = 0.0;
            for chunk in order.chunks(16) {
                self.model.zero_grad();
                let x = Matrix::from_vec(
                    chunk.len(),
                    QUERY_DIM,
                    chunk.iter().flat_map(|&i| feats[i]).collect(),
                );
                let t = Matrix::from_vec(
                    chunk.len(),
                    1,
                    chunk.iter().map(|&i| targets[i]).collect(),
                );
                let (y, cache) = self.model.forward(&x);
                let (l, dy) = loss::huber(&y, &t, 0.1);
                total += l * chunk.len() as f32;
                self.model.backward(&cache, &dy);
                opt.step(&mut self.model.params_mut());
            }
            last = total / samples.len().max(1) as f32;
        }
        last
    }

    /// Number of scalar parameters.
    pub fn num_params(&mut self) -> usize {
        self.model.num_params()
    }
}

impl CardEstimator for MscnEstimator {
    fn estimate(&self, db: &Database, query: &Query, mask: u64) -> f64 {
        let mut y = [0.0];
        self.model.predict(&query_features(db, query, mask), &mut y);
        target_to_card(y[0]).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4db_nn::metrics::{q_error, q_error_summary};
    use ml4db_plan::{ClassicEstimator, TrueCardinality};
    use ml4db_storage::datasets::{joblite, joblite_db, DatasetConfig};
    use ml4db_storage::CmpOp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn correlated_db(rng: &mut StdRng) -> Database {
        Database::analyze(
            joblite(&DatasetConfig { base_rows: 800, skew: 0.2, correlation: 0.9 }, rng),
            rng,
        )
    }

    fn workload(n: usize) -> Vec<Query> {
        (0..n)
            .map(|i| {
                let year = 1990 + (i * 7) % 30;
                let votes = 1000 + (i * 931) % 8000;
                ml4db_plan::Query::new(&["title"])
                    .filter(0, "year", CmpOp::Ge, year as f64)
                    .filter(0, "votes", CmpOp::Ge, votes as f64)
            })
            .collect()
    }

    #[test]
    fn learns_correlated_predicates_better_than_classic() {
        let mut rng = StdRng::seed_from_u64(5);
        let db = correlated_db(&mut rng);
        let train = workload(60);
        let test = workload(97).split_off(60);
        let samples = collect_samples(&db, &train);
        let mut model = MscnEstimator::new(32, &mut rng);
        model.fit(&db, &samples, 60, 0.005, &mut rng);
        let oracle = TrueCardinality::new();
        let mut learned_err = Vec::new();
        let mut classic_err = Vec::new();
        for q in &test {
            let truth = oracle.estimate(&db, q, 1);
            learned_err.push(q_error(model.estimate(&db, q, 1), truth));
            classic_err.push(q_error(ClassicEstimator.estimate(&db, q, 1), truth));
        }
        let lq = q_error_summary(&learned_err).unwrap();
        let cq = q_error_summary(&classic_err).unwrap();
        assert!(
            lq.median <= cq.median,
            "learned median {} should beat classic {} on correlated data",
            lq.median,
            cq.median
        );
        assert!(lq.median < 3.0, "learned median q-error too high: {}", lq.median);
    }

    #[test]
    fn collect_samples_covers_connected_masks() {
        let mut rng = StdRng::seed_from_u64(6);
        let db = joblite_db(80, &[], &mut rng);
        let q = ml4db_plan::Query::new(&["title", "cast_info"]).join(0, "id", 1, "movie_id");
        let samples = collect_samples(&db, std::slice::from_ref(&q));
        // Masks: {title}, {cast_info}, {both}.
        assert_eq!(samples.len(), 3);
        assert!(samples.iter().all(|s| s.card >= 1.0));
    }
}
