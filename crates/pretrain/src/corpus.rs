//! Labeled plan corpora: (database, query, annotated plan, latency) tuples
//! shared by the pretraining, zero-shot, multi-task, and meta-learning
//! experiments.

use rand::Rng;

use ml4db_datagen::{SchemaGraph, WorkloadConfig, WorkloadGenerator};
use ml4db_plan::{ClassicEstimator, CostModel, Planner, PlanNode, Query};
use ml4db_storage::Database;

/// A labeled corpus over one database.
pub struct LabeledCorpus {
    /// `(database, query, annotated plan, observed latency µs)` items. The
    /// database reference is cloned per corpus (databases are in-memory).
    pub items: Vec<(Database, Query, PlanNode, f64)>,
}

impl LabeledCorpus {
    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Splits off the tail into a second corpus.
    pub fn split_off(&mut self, at: usize) -> LabeledCorpus {
        LabeledCorpus { items: self.items.split_off(at.min(self.items.len())) }
    }
}

/// Builds a corpus: `n_queries` random queries, `plans_per_query` plans
/// each (the expert plan plus random alternatives), executed for labels.
pub fn build_corpus<R: Rng + ?Sized>(
    db: &Database,
    graph: &SchemaGraph,
    n_queries: usize,
    plans_per_query: usize,
    rng: &mut R,
) -> LabeledCorpus {
    let generator = WorkloadGenerator::new(
        graph.clone(),
        WorkloadConfig { min_tables: 2, max_tables: 3, ..Default::default() },
    );
    let planner = Planner::default();
    let cost_model = CostModel::default();
    let mut items = Vec::new();
    for q in generator.generate_many(db, n_queries, rng) {
        let mut plans = Vec::new();
        if let Some(p) = planner.best_plan(db, &q, &ClassicEstimator) {
            plans.push(p);
        }
        plans.extend(planner.random_plans(
            db,
            &q,
            &ClassicEstimator,
            plans_per_query.saturating_sub(1),
            rng,
        ));
        for mut p in plans {
            cost_model.cost_plan(db, &q, &mut p, &ClassicEstimator);
            if let Ok(result) = ml4db_plan::execute_summary(db, &q, &p) {
                items.push((db.clone(), q.clone(), p, result.latency_us));
            }
        }
    }
    LabeledCorpus { items }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4db_storage::datasets::joblite_db;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn corpus_has_annotated_plans_and_labels() {
        let mut rng = StdRng::seed_from_u64(1);
        let db = joblite_db(80, &[], &mut rng);
        let corpus = build_corpus(&db, &SchemaGraph::joblite(), 5, 2, &mut rng);
        assert!(corpus.len() >= 8);
        for (_, _, p, lat) in &corpus.items {
            assert!(p.est_cost > 0.0, "plan not annotated");
            assert!(*lat > 0.0);
        }
    }
}
