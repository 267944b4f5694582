//! LEON (Chen et al. \[4\]) — **ML-aided** query optimization: the expert
//! optimizer stays in charge, while a pairwise-ranking model trained on
//! executed plan pairs re-ranks candidate plans; when the model is
//! uncertain, LEON falls back to the expert cost estimate — the safety
//! property the tutorial highlights.

use rand::Rng;

use ml4db_nn::optim::Adam;
use ml4db_nn::Tree;
use ml4db_plan::{PlanNode, Query};
use ml4db_repr::{featurize_plan, FeatureConfig, PairwiseRanker, TreeModelKind, NODE_DIM};

use crate::env::Env;

/// The LEON optimizer.
pub struct Leon {
    /// Pairwise ranking model (scores: higher = predicted worse).
    pub ranker: PairwiseRanker,
    features: FeatureConfig,
    pairs_trained: usize,
}

/// Minimum executed pairs before the model is trusted at all.
const MIN_PAIRS: usize = 10;
/// Candidate plans considered per query.
const CANDIDATES: usize = 6;
/// Latency ratio above which two executions of the same query form a
/// (better, worse) training pair.
const PAIR_GAP: f64 = 1.3;

impl Leon {
    /// Creates an untrained LEON.
    pub fn new<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self {
            ranker: PairwiseRanker::new(TreeModelKind::TreeCnn, NODE_DIM, 24, rng),
            features: FeatureConfig::full(),
            pairs_trained: 0,
        }
    }

    fn tree_of(&self, env: &Env, query: &Query, plan: &PlanNode) -> Tree {
        let mut annotated = plan.clone();
        env.annotate(query, &mut annotated);
        featurize_plan(env.db, query, &annotated, self.features)
    }

    /// Trains the ranker from executed plans: every pair whose latencies
    /// differ by ≥ 2x becomes a training pair.
    pub fn train_from_executions<R: Rng + ?Sized>(
        &mut self,
        env: &Env,
        executions: &[(Query, PlanNode, f64)],
        epochs: usize,
        rng: &mut R,
    ) {
        let mut pairs = Vec::new();
        for i in 0..executions.len() {
            for j in 0..executions.len() {
                let (qi, pi, li) = &executions[i];
                let (qj, pj, lj) = &executions[j];
                // Only compare plans of the same query, with a clear gap.
                if qi != qj || *li * PAIR_GAP >= *lj {
                    continue;
                }
                pairs.push((self.tree_of(env, qi, pi), self.tree_of(env, qj, pj)));
            }
        }
        self.pairs_trained += pairs.len();
        if pairs.is_empty() {
            return;
        }
        let mut opt = Adam::new(0.01);
        for _ in 0..epochs {
            self.ranker.train_epoch(&pairs, &mut opt, 0.5, rng);
        }
    }

    /// True when the model has seen enough pairs to be trusted.
    pub fn model_ready(&self) -> bool {
        self.pairs_trained >= MIN_PAIRS
    }

    /// Plans a query: gather candidate plans (expert + hint-set
    /// alternatives), then pick by the **mixed** estimator — the learned
    /// ranker when ready, the expert cost otherwise (the fallback).
    ///
    /// Returns `(plan, used_model)`.
    pub fn plan(&self, env: &Env, query: &Query) -> Option<(PlanNode, bool)> {
        let mut cands: Vec<PlanNode> = Vec::new();
        let mut hints = ml4db_plan::bao_arms();
        hints.truncate(CANDIDATES);
        for p in env.plan_with_hints(query, &hints).into_iter().flatten() {
            if !cands.iter().any(|c| c.signature() == p.signature()) {
                cands.push(p);
            }
        }
        if cands.is_empty() {
            return None;
        }
        if !self.model_ready() {
            // Fallback: pure expert cost.
            let best = cands
                .into_iter()
                .min_by(|a, b| {
                    a.est_cost.partial_cmp(&b.est_cost).unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("non-empty");
            return Some((best, false));
        }
        // Mixed score: normalized model score + normalized expert cost —
        // the expert keeps a vote even when the model is trusted.
        let scores: Vec<f32> = cands
            .iter()
            .map(|p| self.ranker.score(&self.tree_of(env, query, p)))
            .collect();
        let (smin, smax) = scores
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &s| (lo.min(s), hi.max(s)));
        let costs: Vec<f64> = cands.iter().map(|p| p.est_cost).collect();
        let (cmin, cmax) = costs
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &c| (lo.min(c), hi.max(c)));
        let norm_s = |s: f32| {
            if smax > smin {
                ((s - smin) / (smax - smin)) as f64
            } else {
                0.5
            }
        };
        let norm_c = |c: f64| if cmax > cmin { (c - cmin) / (cmax - cmin) } else { 0.5 };
        let best = cands
            .iter()
            .enumerate()
            .min_by(|(i, _), (j, _)| {
                let a = norm_s(scores[*i]) + norm_c(costs[*i]);
                let b = norm_s(scores[*j]) + norm_c(costs[*j]);
                a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| cands[i].clone())
            .expect("non-empty");
        Some((best, true))
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
        let mut rng = StdRng::seed_from_u64(61);
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
    fn untrained_leon_falls_back_to_expert() {
        let db = db();
        let env = Env::new(&db);
        let mut rng = StdRng::seed_from_u64(1);
        let leon = Leon::new(&mut rng);
        let q = &workload(&db, 1, 300)[0];
        let (plan, used_model) = leon.plan(&env, q).unwrap();
        assert!(!used_model, "untrained model must not be trusted");
        plan.validate().unwrap();
    }

    #[test]
    fn trained_leon_uses_model_and_stays_safe() {
        let db = db();
        let env = Env::new(&db);
        let mut rng = StdRng::seed_from_u64(2);
        let mut leon = Leon::new(&mut rng);
        // Collect executions of diverse plans.
        let planner = ml4db_plan::Planner::default();
        let mut executions = Vec::new();
        for q in &workload(&db, 10, 301) {
            for p in planner.random_plans(&db, q, &env.estimator, 3, &mut rng) {
                let lat = env.run(q, &p);
                executions.push((q.clone(), p, lat));
            }
        }
        leon.train_from_executions(&env, &executions, 8, &mut rng);
        assert!(leon.model_ready());
        // Evaluation: LEON never catastrophically worse than the expert.
        for q in &workload(&db, 8, 302) {
            let (plan, used_model) = leon.plan(&env, q).unwrap();
            assert!(used_model);
            let leon_lat = env.run(q, &plan);
            let expert_lat = env.run(q, &env.expert_plan(q).unwrap());
            assert!(
                leon_lat <= expert_lat * 3.0,
                "leon {leon_lat} catastrophically worse than expert {expert_lat}"
            );
        }
    }
}
