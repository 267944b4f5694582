//! RTOS (Yu et al. \[52\]) — join-order selection with a TreeLSTM state
//! representation and a cost-then-latency training curriculum: the
//! TreeLSTM captures the structure of partial join trees (robust to
//! restructuring), and training first uses cheap cost-model feedback to
//! warm up, then switches to real latencies — the paper's answer to the
//! trace-collection cost.

use rand::Rng;

use ml4db_nn::Tree;
use ml4db_plan::{JoinAlgo, PlanNode, Query, ScanAlgo};
use ml4db_repr::{featurize_plan, CostRegressor, FeatureConfig, TreeModelKind, NODE_DIM};

use crate::env::Env;

/// The RTOS optimizer (left-deep join ordering).
pub struct Rtos {
    /// TreeLSTM value network over partial join trees.
    pub value_net: CostRegressor,
    experience: Vec<(Tree, f64)>,
    features: FeatureConfig,
}

impl Rtos {
    /// Creates an untrained RTOS.
    pub fn new<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self {
            value_net: CostRegressor::new(TreeModelKind::TreeLstm, NODE_DIM, 24, rng),
            experience: Vec::new(),
            features: FeatureConfig::full(),
        }
    }

    fn record(&mut self, env: &Env, query: &Query, plan: &PlanNode, signal: f64) {
        let mut annotated = plan.clone();
        env.annotate(query, &mut annotated);
        self.experience
            .push((featurize_plan(env.db, query, &annotated, self.features), signal));
    }

    /// Phase 1 of the curriculum: label expert and random plans with the
    /// *cost model* (free feedback) and pretrain.
    pub fn warmup_with_cost<R: Rng + ?Sized>(
        &mut self,
        env: &Env,
        queries: &[Query],
        epochs: usize,
        rng: &mut R,
    ) {
        let planner = ml4db_plan::Planner::default();
        for q in queries {
            if let Some(mut p) = env.expert_plan(q) {
                env.annotate(q, &mut p);
                let cost = p.est_cost;
                self.record(env, q, &p, cost);
            }
            for mut p in planner.random_plans(env.db, q, &env.estimator, 2, rng) {
                env.annotate(q, &mut p);
                let cost = p.est_cost;
                self.record(env, q, &p, cost);
            }
        }
        self.retrain(epochs, rng);
    }

    /// Phase 2: fine-tune on real latencies of self-chosen plans.
    pub fn finetune_with_latency<R: Rng + ?Sized>(
        &mut self,
        env: &Env,
        queries: &[Query],
        epochs: usize,
        rng: &mut R,
    ) -> Vec<f64> {
        let mut latencies = Vec::new();
        for q in queries {
            if let Some(plan) = self.plan(env, q) {
                let latency = env.run(q, &plan);
                self.record(env, q, &plan, latency);
                latencies.push(latency);
            }
        }
        self.retrain(epochs, rng);
        latencies
    }

    /// Retrains the value network on all experience.
    pub fn retrain<R: Rng + ?Sized>(&mut self, epochs: usize, rng: &mut R) {
        if !self.experience.is_empty() {
            self.value_net.fit(&self.experience, epochs, 0.005, rng);
        }
    }

    /// Predicted signal for a plan.
    pub fn predict(&self, env: &Env, query: &Query, plan: &PlanNode) -> f64 {
        let mut annotated = plan.clone();
        env.annotate(query, &mut annotated);
        self.value_net
            .predict_latency(&featurize_plan(env.db, query, &annotated, self.features))
    }

    /// Greedy left-deep join ordering guided by the value network: start
    /// from the best scan, repeatedly extend with the (table, algo) whose
    /// resulting partial left-deep tree scores best.
    pub fn plan(&self, env: &Env, query: &Query) -> Option<PlanNode> {
        let n = query.num_tables();
        if n == 0 {
            return None;
        }
        let scan = |t: usize| PlanNode::scan(query, t, ScanAlgo::Seq, None);
        // Try each starting table; keep the best-scoring full construction.
        let mut best: Option<(f64, PlanNode)> = None;
        for start in 0..n {
            let mut current = scan(start);
            let mut remaining: Vec<usize> = (0..n).filter(|&t| t != start).collect();
            let mut dead = false;
            while !remaining.is_empty() {
                let mut step: Option<(f64, usize, PlanNode)> = None;
                for (pos, &t) in remaining.iter().enumerate() {
                    if query.edges_between(current.mask, 1 << t).is_empty() {
                        continue;
                    }
                    for algo in [JoinAlgo::Hash, JoinAlgo::NestedLoop, JoinAlgo::SortMerge] {
                        let cand = PlanNode::join(query, algo, current.clone(), scan(t));
                        let score = self.predict(env, query, &cand);
                        if step.as_ref().map_or(true, |(s, _, _)| score < *s) {
                            step = Some((score, pos, cand));
                        }
                    }
                }
                match step {
                    Some((_, pos, next)) => {
                        remaining.swap_remove(pos);
                        current = next;
                    }
                    None => {
                        dead = true;
                        break;
                    }
                }
            }
            if !dead {
                let score = self.predict(env, query, &current);
                if best.as_ref().map_or(true, |(b, _)| score < *b) {
                    best = Some((score, current));
                }
            }
        }
        best.map(|(_, p)| p)
    }

    /// Experience size (to verify the curriculum phases ran).
    pub fn experience_len(&self) -> usize {
        self.experience.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4db_storage::datasets::joblite_db;
    use ml4db_storage::Database;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db() -> Database {
        let mut rng = StdRng::seed_from_u64(31);
        joblite_db(100, &[], &mut rng)
    }

    fn workload(db: &Database, n: usize, seed: u64) -> Vec<Query> {
        let mut rng = StdRng::seed_from_u64(seed);
        ml4db_datagen::WorkloadGenerator::new(
            ml4db_datagen::SchemaGraph::joblite(),
            ml4db_datagen::WorkloadConfig { min_tables: 2, max_tables: 3, ..Default::default() },
        )
        .generate_many(db, n, &mut rng)
    }

    #[test]
    fn rtos_plans_are_left_deep_and_valid() {
        let db = db();
        let env = Env::new(&db);
        let mut rng = StdRng::seed_from_u64(1);
        let mut rtos = Rtos::new(&mut rng);
        rtos.warmup_with_cost(&env, &workload(&db, 8, 200), 8, &mut rng);
        for q in &workload(&db, 5, 201) {
            let plan = rtos.plan(&env, q).expect("rtos plans");
            plan.validate().unwrap();
            assert!(plan.is_left_deep(), "RTOS builds left-deep trees");
            assert_eq!(plan.mask, q.full_mask());
            env.run(q, &plan);
        }
    }

    #[test]
    fn curriculum_improves_over_cost_only() {
        let db = db();
        let env = Env::new(&db);
        let mut rng = StdRng::seed_from_u64(2);
        let train = workload(&db, 15, 202);
        let mut rtos = Rtos::new(&mut rng);
        rtos.warmup_with_cost(&env, &train, 10, &mut rng);
        let warm_len = rtos.experience_len();
        let lat1 = rtos.finetune_with_latency(&env, &train, 10, &mut rng);
        assert!(rtos.experience_len() > warm_len);
        let lat2 = rtos.finetune_with_latency(&env, &train, 10, &mut rng);
        let avg1: f64 = lat1.iter().sum::<f64>() / lat1.len().max(1) as f64;
        let avg2: f64 = lat2.iter().sum::<f64>() / lat2.len().max(1) as f64;
        // Fine-tuning must not collapse: the second pass stays in range.
        assert!(avg2 <= avg1 * 1.5, "fine-tuning regressed: {avg1} -> {avg2}");
    }
}
