//! Zero-shot cost models (Hilprecht & Binnig \[11\]): disentangle
//! database-agnostic from database-specific features. A model trained on
//! **statistics-only** plan features (injected cardinality/cost estimates,
//! no table or column identities) transfers to an unseen database out of
//! the box; a model trained with identity features does not.

use rand::Rng;

use ml4db_plan::{PlanNode, Query};
use ml4db_repr::{featurize_plan, CostRegressor, FeatureConfig, TreeModelKind, NODE_DIM};
use ml4db_storage::Database;

use crate::corpus::LabeledCorpus;

/// A zero-shot cost model.
pub struct ZeroShotModel {
    /// The underlying regressor.
    pub model: CostRegressor,
    /// The feature configuration used (statistics-only for true zero-shot).
    pub features: FeatureConfig,
}

impl ZeroShotModel {
    /// Creates a zero-shot model (statistics-only features).
    pub fn new<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self {
            model: CostRegressor::new(TreeModelKind::TreeCnn, NODE_DIM, 24, rng),
            features: FeatureConfig::statistics_only(),
        }
    }

    /// A database-specific control model (semantic features included) for
    /// the transfer comparison.
    pub fn new_db_specific<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self {
            model: CostRegressor::new(TreeModelKind::TreeCnn, NODE_DIM, 24, rng),
            features: FeatureConfig::full(),
        }
    }

    /// Trains on a labeled corpus from (possibly several) source databases.
    pub fn train<R: Rng + ?Sized>(
        &mut self,
        corpus: &LabeledCorpus,
        epochs: usize,
        rng: &mut R,
    ) {
        let data: Vec<(ml4db_nn::Tree, f64)> = corpus
            .items
            .iter()
            .map(|(db, q, p, lat)| (featurize_plan(db, q, p, self.features), *lat))
            .collect();
        self.model.fit(&data, epochs, 0.005, rng);
    }

    /// Predicted latency on an arbitrary (possibly unseen) database —
    /// cardinality estimates are injected through the plan annotations, the
    /// zero-shot channel.
    pub fn predict(&self, db: &Database, query: &Query, plan: &PlanNode) -> f64 {
        self.model
            .predict_latency(&featurize_plan(db, query, plan, self.features))
    }

    /// Rank correlation of predictions vs true latencies on a corpus (the
    /// transfer metric).
    pub fn eval_rank(&self, corpus: &LabeledCorpus) -> f64 {
        let preds: Vec<f64> = corpus
            .items
            .iter()
            .map(|(db, q, p, _)| self.predict(db, q, p))
            .collect();
        let truth: Vec<f64> = corpus.items.iter().map(|(_, _, _, l)| *l).collect();
        ml4db_nn::metrics::spearman(&preds, &truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::build_corpus;
    use ml4db_storage::datasets::{joblite_db, tpchlite, DatasetConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn stats_only_model_transfers_across_schemas() {
        let mut rng = StdRng::seed_from_u64(7);
        let db_a = joblite_db(100, &[], &mut rng);
        let db_b = Database::analyze(
            tpchlite(&DatasetConfig { base_rows: 80, ..Default::default() }, &mut rng),
            &mut rng,
        );
        let train = build_corpus(
            &db_a,
            &ml4db_datagen::SchemaGraph::joblite(),
            25,
            2,
            &mut rng,
        );
        let test = build_corpus(
            &db_b,
            &ml4db_datagen::SchemaGraph::tpchlite(),
            12,
            2,
            &mut rng,
        );
        let mut zero = ZeroShotModel::new(&mut rng);
        zero.train(&train, 25, &mut rng);
        let transfer_corr = zero.eval_rank(&test);
        assert!(
            transfer_corr > 0.5,
            "zero-shot transfer correlation too low: {transfer_corr}"
        );
    }

    #[test]
    fn zero_shot_beats_db_specific_on_unseen_database() {
        let mut rng = StdRng::seed_from_u64(8);
        let db_a = joblite_db(100, &[], &mut rng);
        let db_b = Database::analyze(
            tpchlite(&DatasetConfig { base_rows: 80, ..Default::default() }, &mut rng),
            &mut rng,
        );
        let train =
            build_corpus(&db_a, &ml4db_datagen::SchemaGraph::joblite(), 25, 2, &mut rng);
        let test =
            build_corpus(&db_b, &ml4db_datagen::SchemaGraph::tpchlite(), 12, 2, &mut rng);
        let mut zero = ZeroShotModel::new(&mut rng);
        zero.train(&train, 25, &mut rng);
        let mut specific = ZeroShotModel::new_db_specific(&mut rng);
        specific.train(&train, 25, &mut rng);
        let z = zero.eval_rank(&test);
        let s = specific.eval_rank(&test);
        assert!(
            z >= s - 0.05,
            "zero-shot ({z}) should transfer at least as well as db-specific ({s})"
        );
    }
}
