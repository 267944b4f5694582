//! DQ (Krishnan et al. \[18\]) — the historical first step of learned join
//! ordering: plain Q-learning over (joined-set, next-table) decisions with
//! per-step rewards from intermediate-result sizes. Kept deliberately
//! simple: it is the baseline that Neo/RTOS improved on.

use rand::Rng;

use ml4db_nn::rl::QTable;
use ml4db_plan::{CardEstimator, JoinAlgo, PlanNode, Query, ScanAlgo};

use crate::env::Env;

/// The DQ join orderer (left-deep, hash joins).
pub struct Dq {
    /// Q-values over (template ⊕ mask, next-table) pairs.
    pub q: QTable,
}

/// Exploration rate during training.
const EPSILON: f32 = 0.2;

impl Dq {
    /// Creates an untrained agent.
    pub fn new() -> Self {
        Self { q: QTable::new(0.2, 0.95) }
    }

    fn state(query: &Query, mask: u64) -> u64 {
        ml4db_obs::digest::fnv1a(query.template_signature().as_bytes())
            ^ mask.wrapping_mul(0x9e3779b97f4a7c15)
    }

    /// Trains on a workload: per-step reward is the negative log of the
    /// intermediate result size (the classical DQ signal, from the expert's
    /// estimates — cheap, no execution needed).
    pub fn train<R: Rng + ?Sized>(
        &mut self,
        env: &Env,
        queries: &[Query],
        episodes: usize,
        rng: &mut R,
    ) {
        for _ in 0..episodes {
            for q in queries {
                let n = q.num_tables();
                if n < 2 {
                    continue;
                }
                let mut mask = 1u64 << rng.gen_range(0..n);
                while mask != q.full_mask() {
                    let actions: Vec<usize> = (0..n)
                        .filter(|&t| {
                            mask & (1 << t) == 0
                                && !q.edges_between(mask, 1 << t).is_empty()
                        })
                        .collect();
                    if actions.is_empty() {
                        break;
                    }
                    let state = Self::state(q, mask);
                    let action = self
                        .q
                        .select(state, &actions, EPSILON, rng)
                        .expect("non-empty actions");
                    let next_mask = mask | (1 << action);
                    let inter = env.estimator.estimate(env.db, q, next_mask);
                    let reward = -(inter + 1.0).log10() as f32;
                    let next_actions: Vec<usize> = (0..n)
                        .filter(|&t| {
                            next_mask & (1 << t) == 0
                                && !q.edges_between(next_mask, 1 << t).is_empty()
                        })
                        .collect();
                    self.q.update(state, action, reward, Self::state(q, next_mask), &next_actions);
                    mask = next_mask;
                }
            }
        }
    }

    /// Greedy left-deep plan from the learned Q-function.
    pub fn plan(&self, query: &Query) -> Option<PlanNode> {
        let n = query.num_tables();
        if n == 0 {
            return None;
        }
        // Greedy start: each table tried, best final Q path kept simple —
        // start from table 0's best first action.
        let mut best: Option<PlanNode> = None;
        for start in 0..n {
            let mut mask = 1u64 << start;
            let mut plan = PlanNode::scan(query, start, ScanAlgo::Seq, None);
            let mut ok = true;
            while mask != query.full_mask() {
                let actions: Vec<usize> = (0..n)
                    .filter(|&t| {
                        mask & (1 << t) == 0 && !query.edges_between(mask, 1 << t).is_empty()
                    })
                    .collect();
                let Some(a) = self.q.best_action(Self::state(query, mask), &actions) else {
                    ok = false;
                    break;
                };
                plan = PlanNode::join(
                    query,
                    JoinAlgo::Hash,
                    plan,
                    PlanNode::scan(query, a, ScanAlgo::Seq, None),
                );
                mask |= 1 << a;
            }
            if ok && best.is_none() {
                best = Some(plan);
            }
        }
        best
    }
}

impl Default for Dq {
    fn default() -> Self {
        Self::new()
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
        let mut rng = StdRng::seed_from_u64(41);
        joblite_db(100, &[], &mut rng)
    }

    #[test]
    fn dq_learns_and_plans() {
        let db = db();
        let env = Env::new(&db);
        let mut rng = StdRng::seed_from_u64(1);
        let queries = ml4db_datagen::WorkloadGenerator::new(
            ml4db_datagen::SchemaGraph::joblite(),
            ml4db_datagen::WorkloadConfig { min_tables: 3, max_tables: 3, ..Default::default() },
        )
        .generate_many(&db, 10, &mut rng);
        let mut dq = Dq::new();
        dq.train(&env, &queries, 20, &mut rng);
        assert!(!dq.q.is_empty());
        for q in &queries {
            let plan = dq.plan(q).expect("dq plans");
            plan.validate().unwrap();
            assert!(plan.is_left_deep());
            env.run(q, &plan);
        }
    }

    #[test]
    fn dq_prefers_small_intermediates() {
        let db = db();
        let env = Env::new(&db);
        let mut rng = StdRng::seed_from_u64(2);
        // A star query where joining the selective dimension first is best.
        let q = ml4db_plan::Query::new(&["title", "cast_info", "person"])
            .join(0, "id", 1, "movie_id")
            .join(1, "person_id", 2, "id")
            .filter(0, "year", ml4db_storage::CmpOp::Ge, 2015.0);
        let mut dq = Dq::new();
        dq.train(&env, std::slice::from_ref(&q), 60, &mut rng);
        let plan = dq.plan(&q).unwrap();
        // The learned order should execute no slower than 3x the expert.
        let dq_lat = env.run(&q, &plan);
        let expert_lat = env.run(&q, &env.expert_plan(&q).unwrap());
        assert!(
            dq_lat <= expert_lat * 3.0,
            "dq {dq_lat} vs expert {expert_lat}"
        );
    }
}
