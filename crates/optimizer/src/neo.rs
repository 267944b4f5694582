//! Neo (Marcus et al. \[28\]) — the first end-to-end **replacement** learned
//! optimizer: a value network predicts the best achievable latency of a
//! (partial) plan, and plan search picks the construction step whose
//! outcome the network likes best. Bootstrapped from expert demonstrations,
//! then retrained from its own executions.
//!
//! The robustness experiment (E7) trains Neo on one template family and
//! evaluates on unseen templates, where the value network's extrapolation
//! failures surface as tail-latency blowups — the cold-start/robustness
//! limitation that motivated the ML-enhanced paradigm.

use rand::Rng;

use ml4db_nn::Tree;
use ml4db_plan::{JoinAlgo, PlanNode, Query, ScanAlgo};
use ml4db_repr::{featurize_plan, CostRegressor, FeatureConfig, TreeModelKind, NODE_DIM};

use crate::env::Env;

/// The Neo optimizer.
pub struct Neo {
    /// The value network: plan tree → predicted latency.
    pub value_net: CostRegressor,
    experience: Vec<(Tree, f64)>,
    features: FeatureConfig,
}

/// Beam width of the guided search.
const BEAM: usize = 3;

impl Neo {
    /// Creates an untrained Neo with a TreeCNN value network (as in the
    /// paper).
    pub fn new<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self {
            value_net: CostRegressor::new(TreeModelKind::TreeCnn, NODE_DIM, 24, rng),
            experience: Vec::new(),
            features: FeatureConfig::full(),
        }
    }

    /// Records one executed plan.
    pub fn add_experience(&mut self, env: &Env, query: &Query, plan: &PlanNode, latency: f64) {
        let mut annotated = plan.clone();
        env.annotate(query, &mut annotated);
        let tree = featurize_plan(env.db, query, &annotated, self.features);
        self.experience.push((tree, latency));
    }

    /// Bootstraps from expert demonstrations: plans each query with the
    /// expert, executes, records, and trains the value network.
    pub fn bootstrap<R: Rng + ?Sized>(
        &mut self,
        env: &Env,
        queries: &[Query],
        epochs: usize,
        rng: &mut R,
    ) {
        for q in queries {
            if let Some(plan) = env.expert_plan(q) {
                let latency = env.run(q, &plan);
                self.add_experience(env, q, &plan, latency);
            }
        }
        self.retrain(epochs, rng);
    }

    /// Retrains the value network on all experience.
    pub fn retrain<R: Rng + ?Sized>(&mut self, epochs: usize, rng: &mut R) {
        if !self.experience.is_empty() {
            self.value_net.fit(&self.experience, epochs, 0.005, rng);
        }
    }

    /// Number of experiences collected.
    pub fn experience_len(&self) -> usize {
        self.experience.len()
    }

    /// Predicted latency of a complete plan.
    pub fn predict(&self, env: &Env, query: &Query, plan: &PlanNode) -> f64 {
        let mut annotated = plan.clone();
        env.annotate(query, &mut annotated);
        let tree = featurize_plan(env.db, query, &annotated, self.features);
        self.value_net.predict_latency(&tree)
    }

    /// Value-guided plan search: beam search over bottom-up join
    /// construction; each partial state (a forest) is scored by the summed
    /// predicted latency of its subtrees.
    pub fn plan(&self, env: &Env, query: &Query) -> Option<PlanNode> {
        let n = query.num_tables();
        let scans: Vec<PlanNode> =
            (0..n).map(|t| PlanNode::scan(query, t, ScanAlgo::Seq, None)).collect();
        let mut beam: Vec<Vec<PlanNode>> = vec![scans];
        for _ in 0..n.saturating_sub(1) {
            let mut candidates: Vec<(f64, Vec<PlanNode>)> = Vec::new();
            for state in &beam {
                for i in 0..state.len() {
                    for j in 0..state.len() {
                        if i == j
                            || query.edges_between(state[i].mask, state[j].mask).is_empty()
                        {
                            continue;
                        }
                        for algo in [JoinAlgo::Hash, JoinAlgo::NestedLoop, JoinAlgo::SortMerge]
                        {
                            let joined = PlanNode::join(
                                query,
                                algo,
                                state[i].clone(),
                                state[j].clone(),
                            );
                            let mut next: Vec<PlanNode> = state
                                .iter()
                                .enumerate()
                                .filter(|&(k, _)| k != i && k != j)
                                .map(|(_, p)| p.clone())
                                .collect();
                            next.push(joined);
                            let score: f64 = next
                                .iter()
                                .map(|p| self.predict(env, query, p))
                                .sum();
                            candidates.push((score, next));
                        }
                    }
                }
            }
            if candidates.is_empty() {
                return None;
            }
            candidates.sort_by(|a, b| {
                a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal)
            });
            candidates.truncate(BEAM);
            beam = candidates.into_iter().map(|(_, s)| s).collect();
        }
        beam.into_iter()
            .map(|mut state| state.pop().expect("one tree left"))
            .min_by(|a, b| {
                self.predict(env, query, a)
                    .partial_cmp(&self.predict(env, query, b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }

    /// One self-improvement iteration: plan, execute, record, retrain —
    /// Neo's retraining loop. Returns the latencies of this pass.
    pub fn train_iteration<R: Rng + ?Sized>(
        &mut self,
        env: &Env,
        queries: &[Query],
        epochs: usize,
        rng: &mut R,
    ) -> Vec<f64> {
        let mut latencies = Vec::with_capacity(queries.len());
        for q in queries {
            let plan = match self.plan(env, q) {
                Some(p) => p,
                None => continue,
            };
            let latency = env.run(q, &plan);
            self.add_experience(env, q, &plan, latency);
            latencies.push(latency);
        }
        self.retrain(epochs, rng);
        latencies
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
        let mut rng = StdRng::seed_from_u64(21);
        joblite_db(120, &[], &mut rng)
    }

    fn workload(db: &Database, n: usize, seed: u64) -> Vec<Query> {
        let mut rng = StdRng::seed_from_u64(seed);
        let gen = ml4db_datagen::WorkloadGenerator::new(
            ml4db_datagen::SchemaGraph::joblite(),
            ml4db_datagen::WorkloadConfig { min_tables: 2, max_tables: 3, ..Default::default() },
        );
        gen.generate_many(db, n, &mut rng)
    }

    #[test]
    fn neo_produces_valid_executable_plans() {
        let db = db();
        let env = Env::new(&db);
        let mut rng = StdRng::seed_from_u64(1);
        let train = workload(&db, 12, 100);
        let mut neo = Neo::new(&mut rng);
        neo.bootstrap(&env, &train, 10, &mut rng);
        assert!(neo.experience_len() >= 10);
        for q in &workload(&db, 5, 101) {
            let plan = neo.plan(&env, q).expect("neo plans");
            plan.validate().unwrap();
            assert_eq!(plan.mask, q.full_mask());
            let latency = env.run(q, &plan);
            assert!(latency > 0.0);
        }
    }

    #[test]
    fn trained_neo_is_competitive_on_seen_distribution() {
        let db = db();
        let env = Env::new(&db);
        let mut rng = StdRng::seed_from_u64(2);
        let train = workload(&db, 20, 102);
        let mut neo = Neo::new(&mut rng);
        neo.bootstrap(&env, &train, 15, &mut rng);
        neo.train_iteration(&env, &train, 10, &mut rng);
        let test = workload(&db, 8, 103);
        let mut neo_total = 0.0;
        let mut expert_total = 0.0;
        for q in &test {
            let plan = neo.plan(&env, q).unwrap();
            neo_total += env.run(q, &plan);
            expert_total += env.run(q, &env.expert_plan(q).unwrap());
        }
        assert!(
            neo_total <= expert_total * 2.5,
            "neo {neo_total} vs expert {expert_total}: trained Neo should be in the same league"
        );
    }

    #[test]
    fn value_net_orders_good_and_bad_plans() {
        let db = db();
        let env = Env::new(&db);
        let mut rng = StdRng::seed_from_u64(3);
        // Train on diverse random plans so the net sees both good and bad.
        let train = workload(&db, 15, 104);
        let mut neo = Neo::new(&mut rng);
        let planner = ml4db_plan::Planner::default();
        for q in &train {
            for plan in planner.random_plans(&db, q, &ml4db_plan::ClassicEstimator, 3, &mut rng)
            {
                let latency = env.run(q, &plan);
                neo.add_experience(&env, q, &plan, latency);
            }
        }
        neo.retrain(20, &mut rng);
        // Check rank correlation of predictions vs truth on fresh plans.
        let mut preds = Vec::new();
        let mut truths = Vec::new();
        for q in &workload(&db, 6, 105) {
            for plan in planner.random_plans(&db, q, &ml4db_plan::ClassicEstimator, 3, &mut rng)
            {
                preds.push(neo.predict(&env, q, &plan));
                truths.push(env.run(q, &plan));
            }
        }
        let corr = ml4db_nn::metrics::spearman(&preds, &truths);
        assert!(corr > 0.4, "value net rank correlation too low: {corr}");
    }
}
