//! MTMLF (Wu et al. \[46\]) — a unified transferable model for ML-enhanced
//! DBMS tasks. The features split into four quadrants
//! (database-specific/agnostic × task-specific/agnostic); the architecture
//! mirrors that: a **shared** encoder over database-agnostic statistics
//! features, small **per-database adapters** over semantic features, and
//! **per-task heads** (cost and cardinality here). A new database only
//! needs its adapter trained; the shared trunk transfers.

use std::collections::HashMap;

use rand::Rng;

use ml4db_nn::layers::{Activation, Mlp};
use ml4db_nn::optim::{Adam, Optimizer};
use ml4db_nn::{loss, Matrix, Trainable};
use ml4db_plan::{PlanNode, Query};
use ml4db_repr::{featurize_plan, FeatureConfig, PlanEncoder, TreeModelKind, NODE_DIM};
use ml4db_storage::Database;

/// The downstream task of a sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Task {
    /// Latency regression (log space).
    Cost,
    /// Cardinality regression (log space).
    Cardinality,
}

/// One multi-task training sample.
pub struct MtmlfSample {
    /// Database identifier (adapter key).
    pub db_id: String,
    /// The database.
    pub db: Database,
    /// The query.
    pub query: Query,
    /// The annotated plan.
    pub plan: PlanNode,
    /// Task of this sample.
    pub task: Task,
    /// Raw target (latency µs or rows).
    pub target: f64,
}

/// The unified model.
pub struct Mtmlf {
    /// Shared encoder over database-agnostic (statistics) features.
    pub shared: PlanEncoder,
    /// Per-database adapters over the database-specific embedding.
    pub adapters: HashMap<String, Mlp>,
    /// Per-task heads.
    pub heads: HashMap<Task, Mlp>,
    hidden: usize,
}

fn target_space(task: Task, raw: f64) -> f32 {
    match task {
        Task::Cost => ((raw + 1.0).log10() / 8.0) as f32,
        Task::Cardinality => ((raw + 1.0).log10() / 7.0) as f32,
    }
}

impl Mtmlf {
    /// Creates the shared trunk and task heads (adapters are created
    /// lazily per database).
    pub fn new<R: Rng + ?Sized>(hidden: usize, rng: &mut R) -> Self {
        let shared = PlanEncoder::new(TreeModelKind::TreeCnn, NODE_DIM, hidden, rng);
        let mut heads = HashMap::new();
        heads.insert(
            Task::Cost,
            Mlp::new(&[hidden, hidden, 1], Activation::LeakyRelu, rng),
        );
        heads.insert(
            Task::Cardinality,
            Mlp::new(&[hidden, hidden, 1], Activation::LeakyRelu, rng),
        );
        Self { shared, adapters: HashMap::new(), heads, hidden }
    }

    fn ensure_adapter<R: Rng + ?Sized>(&mut self, db_id: &str, rng: &mut R) {
        if !self.adapters.contains_key(db_id) {
            self.adapters.insert(
                db_id.to_string(),
                Mlp::new(&[self.hidden, self.hidden], Activation::Tanh, rng),
            );
        }
    }

    /// Prediction in target space for a sample-shaped input.
    pub fn predict(
        &self,
        db_id: &str,
        db: &Database,
        query: &Query,
        plan: &PlanNode,
        task: Task,
    ) -> f32 {
        let tree = featurize_plan(db, query, plan, FeatureConfig::statistics_only());
        let mut emb = self.shared.encode(&tree);
        let emb = emb.row_slice_mut(0);
        // Adapters are residual: identity plus a learned correction, so a
        // freshly created adapter barely perturbs the shared embedding. An
        // unseen database gets the shared trunk only (zero-shot).
        if let Some(a) = self.adapters.get(db_id) {
            let mut delta = vec![0.0; a.out_dim()];
            a.predict(emb, &mut delta);
            for (e, d) in emb.iter_mut().zip(delta) {
                *e += 0.1 * d;
            }
        }
        let mut y = [0.0];
        self.heads.get(&task).expect("task head exists").predict(emb, &mut y);
        y[0]
    }

    /// One multi-task training pass. `freeze_shared` trains only adapters
    /// and heads (the few-shot new-database mode).
    pub fn train_epoch<R: Rng + ?Sized>(
        &mut self,
        samples: &[MtmlfSample],
        opt: &mut Adam,
        freeze_shared: bool,
        rng: &mut R,
    ) -> f32 {
        let mut total = 0.0;
        for s in samples {
            self.ensure_adapter(&s.db_id, rng);
            let tree =
                featurize_plan(&s.db, &s.query, &s.plan, FeatureConfig::statistics_only());
            self.shared.zero_grad();
            for a in self.adapters.values_mut() {
                a.zero_grad();
            }
            for h in self.heads.values_mut() {
                h.zero_grad();
            }
            let (emb, ec) = self.shared.forward(&tree);
            let adapter = self.adapters.get(&s.db_id).expect("ensured");
            let (delta, ac) = adapter.forward(&emb);
            let adapted = emb.zip(&delta, |e, d| e + 0.1 * d);
            let head = self.heads.get(&s.task).expect("head");
            let (y, hc) = head.forward(&adapted);
            let t = Matrix::row(vec![target_space(s.task, s.target)]);
            let (l, dy) = loss::huber(&y, &t, 0.1);
            total += l;
            let head = self.heads.get_mut(&s.task).expect("head");
            let dadapted = head.backward(&hc, &dy);
            let adapter = self.adapters.get_mut(&s.db_id).expect("ensured");
            let mut demb = adapter.backward(&ac, &dadapted.scaled(0.1));
            demb += &dadapted; // residual path
            if !freeze_shared {
                self.shared.backward(&ec, &demb);
            }
            let mut params = Vec::new();
            if !freeze_shared {
                params.extend(self.shared.params_mut());
            }
            params.extend(
                self.adapters.get_mut(&s.db_id).expect("ensured").params_mut(),
            );
            params.extend(self.heads.get_mut(&s.task).expect("head").params_mut());
            ml4db_nn::optim::clip_grad_norm(&mut params, 5.0);
            opt.step(&mut params);
        }
        total / samples.len().max(1) as f32
    }

    /// Rank correlation per task on an evaluation set.
    pub fn eval_rank(&self, samples: &[MtmlfSample], task: Task) -> f64 {
        let filtered: Vec<&MtmlfSample> =
            samples.iter().filter(|s| s.task == task).collect();
        let preds: Vec<f64> = filtered
            .iter()
            .map(|s| self.predict(&s.db_id, &s.db, &s.query, &s.plan, s.task) as f64)
            .collect();
        let truth: Vec<f64> = filtered.iter().map(|s| s.target).collect();
        ml4db_nn::metrics::spearman(&preds, &truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::build_corpus;
    use ml4db_datagen::SchemaGraph;
    use ml4db_storage::datasets::{joblite_db, tpchlite, DatasetConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn samples_from_corpus(
        corpus: crate::corpus::LabeledCorpus,
        db_id: &str,
    ) -> Vec<MtmlfSample> {
        corpus
            .items
            .into_iter()
            .flat_map(|(db, q, p, lat)| {
                let rows = p.est_rows.max(1.0);
                [
                    MtmlfSample {
                        db_id: db_id.to_string(),
                        db: db.clone(),
                        query: q.clone(),
                        plan: p.clone(),
                        task: Task::Cost,
                        target: lat,
                    },
                    MtmlfSample {
                        db_id: db_id.to_string(),
                        db,
                        query: q,
                        plan: p,
                        task: Task::Cardinality,
                        target: rows,
                    },
                ]
            })
            .collect()
    }

    #[test]
    fn multi_task_multi_db_training_works() {
        let mut rng = StdRng::seed_from_u64(11);
        let db_a = joblite_db(80, &[], &mut rng);
        let db_b = Database::analyze(
            tpchlite(&DatasetConfig { base_rows: 60, ..Default::default() }, &mut rng),
            &mut rng,
        );
        let mut train = samples_from_corpus(
            build_corpus(&db_a, &SchemaGraph::joblite(), 12, 2, &mut rng),
            "joblite",
        );
        train.extend(samples_from_corpus(
            build_corpus(&db_b, &SchemaGraph::tpchlite(), 12, 2, &mut rng),
            "tpchlite",
        ));
        let mut model = Mtmlf::new(16, &mut rng);
        let mut opt = Adam::new(0.005);
        for _ in 0..12 {
            model.train_epoch(&train, &mut opt, false, &mut rng);
        }
        let cost_corr = model.eval_rank(&train, Task::Cost);
        let card_corr = model.eval_rank(&train, Task::Cardinality);
        assert!(cost_corr > 0.5, "cost task correlation {cost_corr}");
        assert!(card_corr > 0.5, "card task correlation {card_corr}");
        assert_eq!(model.adapters.len(), 2);
    }

    #[test]
    fn new_database_needs_only_adapter_training() {
        let mut rng = StdRng::seed_from_u64(12);
        let db_a = joblite_db(80, &[], &mut rng);
        let db_b = Database::analyze(
            tpchlite(&DatasetConfig { base_rows: 60, ..Default::default() }, &mut rng),
            &mut rng,
        );
        let train_a = samples_from_corpus(
            build_corpus(&db_a, &SchemaGraph::joblite(), 15, 2, &mut rng),
            "joblite",
        );
        let mut model = Mtmlf::new(16, &mut rng);
        let mut opt = Adam::new(0.005);
        for _ in 0..12 {
            model.train_epoch(&train_a, &mut opt, false, &mut rng);
        }
        // Few-shot new database: train only adapter + heads (shared frozen).
        let mut corpus_b = build_corpus(&db_b, &SchemaGraph::tpchlite(), 10, 2, &mut rng);
        let eval_b = samples_from_corpus(corpus_b.split_off(4), "tpchlite");
        let few_b = samples_from_corpus(corpus_b, "tpchlite");
        let mut opt2 = Adam::new(0.01);
        for _ in 0..10 {
            model.train_epoch(&few_b, &mut opt2, true, &mut rng);
        }
        let corr = model.eval_rank(&eval_b, Task::Cost);
        assert!(corr > 0.3, "adapter-only transfer correlation {corr}");
    }
}
