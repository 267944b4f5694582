//! Balsa (Yang et al. \[51\]) — learning a query optimizer **without expert
//! demonstrations** (model-efficiency open problem): phase 1 trains the
//! value network purely in *simulation* (the formula cost model over the
//! classical estimator — no executions at all), avoiding disastrous plans
//! cheaply; phase 2 fine-tunes on real executions guarded by a **safe
//! execution timeout** so an exploratory plan can never stall the system.

use rand::Rng;

use ml4db_plan::{PlanNode, Query};
use ml4db_repr::{CostRegressor, FeatureConfig, TreeModelKind, NODE_DIM};

use crate::env::Env;

/// Timeout multiplier over the best latency seen for a query template.
const TIMEOUT_FACTOR: f64 = 4.0;

/// The Balsa optimizer.
pub struct Balsa {
    /// Value network (TreeCNN, as in Neo; the difference is the training
    /// signal, not the architecture).
    pub value_net: CostRegressor,
    experience: Vec<(ml4db_nn::Tree, f64)>,
    features: FeatureConfig,
    /// Count of timed-out exploratory executions (the safety metric).
    pub timeouts: usize,
    /// Best latency seen per query template.
    best_seen: std::collections::HashMap<String, f64>,
}

impl Balsa {
    /// Creates an untrained Balsa.
    pub fn new<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self {
            value_net: CostRegressor::new(TreeModelKind::TreeCnn, NODE_DIM, 24, rng),
            experience: Vec::new(),
            features: FeatureConfig::full(),
            timeouts: 0,
            best_seen: std::collections::HashMap::new(),
        }
    }

    fn record(&mut self, env: &Env, query: &Query, plan: &PlanNode, signal: f64) {
        let mut annotated = plan.clone();
        env.annotate(query, &mut annotated);
        self.experience.push((
            ml4db_repr::featurize_plan(env.db, query, &annotated, self.features),
            signal,
        ));
    }

    /// Phase 1 — simulation: label random and expert-free plans with the
    /// *cost model* only. Zero executions.
    pub fn simulate<R: Rng + ?Sized>(
        &mut self,
        env: &Env,
        queries: &[Query],
        plans_per_query: usize,
        epochs: usize,
        rng: &mut R,
    ) {
        let planner = ml4db_plan::Planner::default();
        for q in queries {
            for mut p in planner.random_plans(env.db, q, &env.estimator, plans_per_query, rng)
            {
                env.annotate(q, &mut p);
                let sim_cost = p.est_cost;
                self.record(env, q, &p, sim_cost);
            }
        }
        self.retrain(epochs, rng);
    }

    /// Retrains the value network.
    pub fn retrain<R: Rng + ?Sized>(&mut self, epochs: usize, rng: &mut R) {
        if !self.experience.is_empty() {
            self.value_net.fit(&self.experience, epochs, 0.005, rng);
        }
    }

    /// Predicted signal for a plan.
    pub fn predict(&self, env: &Env, query: &Query, plan: &PlanNode) -> f64 {
        let mut annotated = plan.clone();
        env.annotate(query, &mut annotated);
        self.value_net.predict_latency(&ml4db_repr::featurize_plan(
            env.db,
            query,
            &annotated,
            self.features,
        ))
    }

    /// Plans by scoring candidate plans with the value network (beam of
    /// random + enumerated candidates; Balsa's search is value-guided like
    /// Neo's — reusing the candidate-set idea keeps this lean).
    pub fn plan<R: Rng + ?Sized>(&self, env: &Env, query: &Query, rng: &mut R) -> Option<PlanNode> {
        let planner = ml4db_plan::Planner::default();
        let mut cands = planner.random_plans(env.db, query, &env.estimator, 8, rng);
        if let Some(p) = planner.best_plan(env.db, query, &env.estimator) {
            cands.push(p);
        }
        cands.into_iter().min_by(|a, b| {
            self.predict(env, query, a)
                .partial_cmp(&self.predict(env, query, b))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    /// Phase 2 — safe real-execution fine-tuning: execute chosen plans
    /// under a timeout of [`TIMEOUT_FACTOR`] × the best latency seen for the
    /// template; timed-out plans are recorded *at the timeout value* (a
    /// pessimistic label) instead of stalling.
    pub fn finetune<R: Rng + ?Sized>(
        &mut self,
        env: &Env,
        queries: &[Query],
        epochs: usize,
        rng: &mut R,
    ) -> Vec<f64> {
        let mut observed = Vec::new();
        for q in queries {
            let Some(plan) = self.plan(env, q, rng) else { continue };
            let key = q.template_signature();
            let budget = self
                .best_seen
                .get(&key)
                .map(|b| b * TIMEOUT_FACTOR)
                .unwrap_or(f64::INFINITY);
            match env.run_with_timeout(q, &plan, budget) {
                Some(latency) => {
                    let best = self.best_seen.entry(key).or_insert(latency);
                    if latency < *best {
                        *best = latency;
                    }
                    self.record(env, q, &plan, latency);
                    observed.push(latency);
                }
                None => {
                    self.timeouts += 1;
                    self.record(env, q, &plan, budget);
                    observed.push(budget);
                }
            }
        }
        self.retrain(epochs, rng);
        observed
    }

    /// Experience size.
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
        let mut rng = StdRng::seed_from_u64(81);
        joblite_db(120, &[], &mut rng)
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
    fn simulation_phase_needs_no_executions() {
        let db = db();
        let env = Env::new(&db);
        let mut rng = StdRng::seed_from_u64(1);
        let mut balsa = Balsa::new(&mut rng);
        balsa.simulate(&env, &workload(&db, 10, 400), 3, 10, &mut rng);
        assert!(balsa.experience_len() >= 25);
        // Plans are valid immediately after simulation-only training.
        for q in &workload(&db, 4, 401) {
            let p = balsa.plan(&env, q, &mut rng).unwrap();
            p.validate().unwrap();
        }
    }

    #[test]
    fn finetune_applies_timeouts_and_improves() {
        let db = db();
        let env = Env::new(&db);
        let mut rng = StdRng::seed_from_u64(2);
        let mut balsa = Balsa::new(&mut rng);
        let train = workload(&db, 12, 402);
        balsa.simulate(&env, &train, 3, 10, &mut rng);
        // Tight timeouts to exercise the safety path: each template's best
        // latency starts at the expert's over the timeout factor, so a plan
        // slower than the expert's is aborted.
        for q in &train {
            let expert = env.expert_latency(q).expect("expert always plans");
            balsa.best_seen.insert(q.template_signature(), expert / TIMEOUT_FACTOR);
        }
        let first = balsa.finetune(&env, &train, 8, &mut rng);
        let second = balsa.finetune(&env, &train, 8, &mut rng);
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        // Every observation is bounded by its budget — no stalls possible.
        assert!(!first.is_empty() && !second.is_empty());
        assert!(
            avg(&second) <= avg(&first) * 1.3,
            "fine-tuning regressed: {} -> {}",
            avg(&first),
            avg(&second)
        );
    }

    #[test]
    fn timeout_counter_increments_when_budget_is_tiny() {
        let db = db();
        let env = Env::new(&db);
        let mut rng = StdRng::seed_from_u64(3);
        let mut balsa = Balsa::new(&mut rng);
        let q = workload(&db, 1, 403).remove(0);
        balsa.simulate(&env, std::slice::from_ref(&q), 2, 5, &mut rng);
        // Seed best_seen with an absurdly small latency so everything
        // after it times out.
        balsa.best_seen.insert(q.template_signature(), 0.001);
        balsa.finetune(&env, std::slice::from_ref(&q), 2, &mut rng);
        assert!(balsa.timeouts > 0, "timeout path never exercised");
    }
}
