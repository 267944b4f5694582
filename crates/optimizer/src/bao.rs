//! Bao (Marcus et al. \[27\]) — the flagship **ML-enhanced** optimizer: keep
//! the expert planner, learn only which *hint set* to hand it per query.
//! Hint-set selection is a contextual multi-armed bandit solved with
//! Thompson sampling over a Bayesian linear model of plan features →
//! log latency. A sliding experience window keeps the model adapted to
//! workload and data shifts (E8).

use rand::Rng;

use ml4db_nn::bayes::BayesianLinearRegression;
use ml4db_plan::{HintSet, PlanNode, Query};

use crate::env::{plan_features, Env, PLAN_FEATURE_DIM};

/// One past observation.
#[derive(Clone, Debug)]
struct Experience {
    features: Vec<f32>,
    log_latency: f32,
}

/// The Bao optimizer.
pub struct Bao {
    /// The arm collection (hand-crafted in Bao; discovered in AutoSteer).
    pub arms: Vec<HintSet>,
    model: BayesianLinearRegression,
    /// `model`'s posterior mean, solved once per [`Bao::observe`] rather
    /// than once per greedy decision.
    mean: Vec<f64>,
    window: Vec<Experience>,
}

/// Sliding-window capacity; the model retrains from this window.
const WINDOW_SIZE: usize = 200;

/// Outcome of one Bao decision.
#[derive(Clone, Debug)]
pub struct BaoChoice {
    /// Index of the chosen arm.
    pub arm: usize,
    /// The plan produced under that arm.
    pub plan: PlanNode,
}

impl Bao {
    /// Creates a Bao instance over the given arms.
    pub fn new(arms: Vec<HintSet>) -> Self {
        assert!(!arms.is_empty(), "Bao needs at least one arm");
        let model = BayesianLinearRegression::new(PLAN_FEATURE_DIM, 1.0, 4.0);
        Self { arms, mean: model.posterior_mean(), model, window: Vec::new() }
    }

    /// Plans every arm in order on the calling thread (one DP pass for all
    /// the arms the plan cache does not already hold), scores each plan
    /// with `score`, and picks the minimum by `(score, arm index)` under
    /// `f64::total_cmp`. A decision never spawns threads: parallelism is
    /// across queries (the batch harnesses), and staying on the caller's
    /// thread keeps the sweep's events under its `with_query` context.
    fn sweep_arms(
        env: &Env,
        query: &Query,
        arms: &[HintSet],
        score: impl Fn(&PlanNode) -> f64,
    ) -> BaoChoice {
        let mut best: Option<(f64, usize, PlanNode)> = None;
        for (i, plan) in env.plan_with_hints(query, arms).into_iter().enumerate() {
            let Some(plan) = plan else {
                continue;
            };
            let s = score(&plan);
            if best.as_ref().map_or(true, |(b, _, _)| s.total_cmp(b).is_lt()) {
                best = Some((s, i, plan));
            }
        }
        let (_, arm, plan) = best.expect("at least the default arm plans");
        BaoChoice { arm, plan }
    }

    /// Chooses an arm for `query` by Thompson sampling: draw one weight
    /// vector from the posterior, score every arm's plan under it, pick the
    /// minimum predicted log-latency. The posterior draw is the only
    /// randomness consumed; the per-arm sweep is deterministic.
    pub fn choose<R: Rng + ?Sized>(&self, env: &Env, query: &Query, rng: &mut R) -> BaoChoice {
        let weights = self.model.sample_weights(rng);
        Self::sweep_arms(env, query, &self.arms, |plan| {
            BayesianLinearRegression::predict_with(&weights, &plan_features(plan))
        })
    }

    /// Greedy (posterior-mean) choice, for evaluation without exploration.
    pub fn choose_greedy(&self, env: &Env, query: &Query) -> BaoChoice {
        self.choose_greedy_among(env, query, &self.arms)
    }

    /// Greedy (posterior-mean) choice over an *externally supplied* arm
    /// collection — the AutoSteer evaluation path, where the candidate
    /// hint sets are discovered per query rather than fixed up front. The
    /// returned `arm` indexes into `arms`.
    pub fn choose_greedy_among(&self, env: &Env, query: &Query, arms: &[HintSet]) -> BaoChoice {
        Self::sweep_arms(env, query, arms, |plan| {
            BayesianLinearRegression::predict_with(&self.mean, &plan_features(plan))
        })
    }

    /// Records the observed latency of an executed choice and refreshes the
    /// posterior from the sliding window.
    pub fn observe(&mut self, plan: &PlanNode, latency_us: f64) {
        let exp = Experience {
            features: plan_features(plan),
            log_latency: ((latency_us + 1.0).log10()) as f32,
        };
        self.window.push(exp);
        if self.window.len() > WINDOW_SIZE {
            let overflow = self.window.len() - WINDOW_SIZE;
            self.window.drain(..overflow);
        }
        // Exact conjugate refresh from the window (cheap at this scale and
        // exactly what sliding-window retraining means for a BLR).
        self.model.reset();
        for e in &self.window {
            self.model.observe(&e.features, e.log_latency);
        }
        self.mean = self.model.posterior_mean();
    }

    /// Number of experiences currently in the window.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Runs one full train step on a query: choose (Thompson), execute,
    /// observe. Returns `(arm, latency)`.
    pub fn step<R: Rng + ?Sized>(
        &mut self,
        env: &Env,
        query: &Query,
        rng: &mut R,
    ) -> (usize, f64) {
        let choice = self.choose(env, query, rng);
        let latency = env.run(query, &choice.plan);
        self.observe(&choice.plan, latency);
        (choice.arm, latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4db_plan::bao_arms;
    use ml4db_storage::datasets::joblite_db;
    use ml4db_storage::Database;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db() -> Database {
        let mut rng = StdRng::seed_from_u64(3);
        let mut db = joblite_db(150, &[], &mut rng);
        db.add_index("title", "year");
        db
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
    fn bao_learns_to_match_or_beat_default_optimizer() {
        let db = db();
        let env = Env::new(&db);
        let queries = workload(&db, 40, 11);
        let mut bao = Bao::new(bao_arms());
        let mut rng = StdRng::seed_from_u64(5);
        // Train on the stream.
        for q in &queries {
            bao.step(&env, q, &mut rng);
        }
        // Evaluate greedily on the same distribution.
        let test = workload(&db, 15, 12);
        let mut bao_total = 0.0;
        let mut expert_total = 0.0;
        for q in &test {
            let choice = bao.choose_greedy(&env, q);
            bao_total += env.run(q, &choice.plan);
            let expert = env.expert_plan(q).unwrap();
            expert_total += env.run(q, &expert);
        }
        assert!(
            bao_total <= expert_total * 1.25,
            "bao {bao_total} much worse than expert {expert_total}"
        );
    }

    #[test]
    fn window_is_bounded_and_drops_oldest() {
        let db = db();
        let env = Env::new(&db);
        let q = &workload(&db, 1, 13)[0];
        let mut bao = Bao::new(bao_arms());
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..WINDOW_SIZE + 7 {
            bao.step(&env, q, &mut rng);
        }
        assert_eq!(bao.window_len(), WINDOW_SIZE);
    }

    #[test]
    fn thompson_explores_multiple_arms() {
        let db = db();
        let env = Env::new(&db);
        let queries = workload(&db, 25, 14);
        let mut bao = Bao::new(bao_arms());
        let mut rng = StdRng::seed_from_u64(7);
        let mut arms_seen = std::collections::BTreeSet::new();
        for q in &queries {
            let (arm, _) = bao.step(&env, q, &mut rng);
            arms_seen.insert(arm);
        }
        assert!(arms_seen.len() >= 2, "no exploration: {arms_seen:?}");
    }
}
