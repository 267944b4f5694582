//! Circuit-breaker guardrail for learned plan steering.
//!
//! Bao-style steering picks a [`HintSet`] per query; a bad policy can
//! panic, emit an invalid hint set, or steer into plans orders of
//! magnitude slower than the expert. [`GuardedSteering`] bounds all three:
//!
//! * hint sets are validated before planning; invalid ones fall back to
//!   the expert plan and consume failure budget;
//! * every learned plan executes under a latency budget of
//!   `budget_factor ×` the expert's (memoized) latency via
//!   [`Env::run_with_timeout`]. A timeout aborts the learned plan, charges
//!   `budget + expert` latency (the abort-and-rerun cost), and counts as a
//!   [`TripReason::LatencyRegression`];
//! * while Open every query runs the expert plan at exactly the expert's
//!   latency, so a tripped policy costs nothing extra.
//!
//! The per-query worst case is therefore `(1 + budget_factor) ×` expert,
//! and only `failure_budget` such queries can occur before the breaker
//! trips — the regression budget the chaos harness measures.

use ml4db_optimizer::harness::{EvalReport, ReportRow};
use ml4db_optimizer::Env;
use ml4db_plan::{HintSet, Query};

use crate::breaker::{BreakerConfig, CircuitBreaker, Judged, TripReason};

/// A learned steering policy: picks a hint set for each query.
pub trait SteeringPolicy {
    /// The hint set to plan `query` under.
    fn choose(&self, env: &Env, query: &Query) -> HintSet;
}

impl<F: Fn(&Env, &Query) -> HintSet> SteeringPolicy for F {
    fn choose(&self, env: &Env, query: &Query) -> HintSet {
        self(env, query)
    }
}

/// The latency budget every guard runs under, as a multiple of the
/// expert's latency.
const BUDGET_FACTOR: f64 = 1.2;

/// A steering policy wrapped in a circuit breaker with a per-query
/// latency budget.
pub struct GuardedSteering<P> {
    /// The learned policy.
    pub policy: P,
    /// Learned plans may spend at most this multiple of the expert's
    /// latency before being aborted.
    pub budget_factor: f64,
    breaker: CircuitBreaker,
}

impl<P: SteeringPolicy> GuardedSteering<P> {
    /// Guards `policy` with a 1.2× latency budget and default breaker
    /// thresholds.
    pub fn new(policy: P) -> Self {
        Self {
            policy,
            budget_factor: BUDGET_FACTOR,
            breaker: CircuitBreaker::named("steering", BreakerConfig::default()),
        }
    }

    /// The breaker, for state inspection and telemetry.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Runs one query under the guardrail and returns the charged latency
    /// (µs). Shadow (probation) calls serve the expert answer and
    /// additionally charge the probe's budget-capped execution.
    ///
    /// # Panics
    /// Panics if the expert cannot plan `query` (workload-generator
    /// queries always plan).
    pub fn run_guarded(&self, env: &Env, query: &Query) -> f64 {
        ml4db_obs::with_query(query.fingerprint(), || self.run_guarded_inner(env, query))
    }

    fn run_guarded_inner(&self, env: &Env, query: &Query) -> f64 {
        let expert_lat = env.expert_latency(query).expect("expert always plans");
        self.breaker.guarded_call(
            || expert_lat,
            || self.policy.choose(env, query),
            |hint: HintSet, shadow| {
                let plan = if hint.is_valid() {
                    env.plan_with_hint(query, hint)
                } else {
                    None
                };
                let Some(plan) = plan else {
                    return Judged::Failed(TripReason::InvalidOutput, None);
                };
                let budget = self.budget_factor * expert_lat;
                match env.run_with_timeout(query, &plan, budget) {
                    // A probe's cost comes on top of the served expert plan.
                    Some(lat) => Judged::Clean(if shadow { expert_lat + lat } else { lat }),
                    // Abort-and-rerun: the budget was burned, then the
                    // expert plan served.
                    None => {
                        Judged::Failed(TripReason::LatencyRegression, Some(budget + expert_lat))
                    }
                }
            },
        )
    }

    /// Evaluates the guarded policy over a workload.
    ///
    /// Runs **serially** by design: breaker transitions depend on call
    /// order, and a serial loop makes the report a pure function of the
    /// workload regardless of `ML4DB_THREADS`.
    pub fn evaluate(&self, env: &Env, queries: &[Query]) -> EvalReport {
        let rows: Vec<ReportRow> = queries
            .iter()
            .map(|q| {
                let lat = self.run_guarded(env, q);
                let expert = ml4db_obs::with_query(q.fingerprint(), || {
                    env.expert_latency(q).expect("expert always plans")
                });
                ReportRow { query_id: q.fingerprint(), latency_us: lat, expert_us: expert }
            })
            .collect();
        EvalReport::from_rows(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerState;
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
        ml4db_datagen::WorkloadGenerator::new(
            ml4db_datagen::SchemaGraph::joblite(),
            Default::default(),
        )
        .generate_many(db, n, &mut rng)
    }

    #[test]
    fn expert_policy_is_parity_and_stays_closed() {
        let db = db();
        let env = Env::new(&db);
        let queries = workload(&db, 10, 1);
        let g = GuardedSteering::new(|_: &Env, _: &Query| HintSet::all());
        let report = g.evaluate(&env, &queries);
        assert!((report.relative_total - 1.0).abs() < 1e-9);
        assert_eq!(report.regressions, 0);
        assert_eq!(g.breaker().state(), BreakerState::Closed);
    }

    #[test]
    fn invalid_hints_fall_back_at_parity() {
        let db = db();
        let env = Env::new(&db);
        let queries = workload(&db, 10, 2);
        // No join algorithm enabled: never a valid hint set.
        let g = GuardedSteering::new(|_: &Env, _: &Query| HintSet {
            hash_join: false,
            nested_loop: false,
            merge_join: false,
            ..HintSet::all()
        });
        let report = g.evaluate(&env, &queries);
        assert!((report.relative_total - 1.0).abs() < 1e-9);
        assert_eq!(g.breaker().state(), BreakerState::Open);
        assert_eq!(g.breaker().last_trip(), Some(TripReason::InvalidOutput));
    }

    #[test]
    fn panicking_policy_is_contained_at_parity() {
        let db = db();
        let env = Env::new(&db);
        let queries = workload(&db, 8, 3);
        let g = GuardedSteering::new(|_: &Env, _: &Query| -> HintSet {
            panic!("poisoned steering model")
        });
        let report = g.evaluate(&env, &queries);
        assert!((report.relative_total - 1.0).abs() < 1e-9);
        assert_eq!(g.breaker().last_trip(), Some(TripReason::Panic));
    }

    #[test]
    fn worst_case_query_is_bounded_by_budget() {
        let db = db();
        let env = Env::new(&db);
        let queries = workload(&db, 20, 4);
        // Adversarial policy: always pick the slowest hint arm for each
        // query (an oracle attacker).
        let g = GuardedSteering::new(|env: &Env, q: &Query| {
            *ml4db_plan::all_hint_sets()
                .iter()
                .max_by(|a, b| {
                    let la = env
                        .plan_with_hint(q, **a)
                        .map(|p| p.est_cost)
                        .unwrap_or(0.0);
                    let lb = env
                        .plan_with_hint(q, **b)
                        .map(|p| p.est_cost)
                        .unwrap_or(0.0);
                    la.partial_cmp(&lb).unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("non-empty hint space")
        });
        let report = g.evaluate(&env, &queries);
        for (lat, q) in report.latencies.iter().zip(&queries) {
            let expert = env.expert_latency(q).unwrap();
            assert!(
                *lat <= (1.0 + g.budget_factor) * expert + 1e-6,
                "guarded latency {lat} exceeds abort bound for expert {expert}"
            );
        }
    }
}
