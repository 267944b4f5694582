//! Timeout semantics under every plan shape the hint sets can produce —
//! the executor-level contract the steering guardrail relies on:
//!
//! * a completed run (`Some(res)`) has `res.latency_us <= budget` — a
//!   completed plan never overspends its budget;
//! * a timeout (`None`) implies the plan's full latency genuinely exceeds
//!   the budget — no spurious aborts;
//! * `Env::run_with_timeout` agrees with the raw executor call;
//! * the abort-and-rerun fallback (serve the expert plan when the
//!   steered plan times out) returns results multiset-equal to the
//!   brute-force reference engine, whichever path served.

use std::sync::OnceLock;

use ml4db_core::optimizer::Env;
use ml4db_oracle::workload::{joblite_db, sample_query, JOBLITE_EDGES};
use ml4db_plan::executor::{
    canonical_multiset, execute, execute_columnar_with_timeout, naive_execute,
};
use ml4db_plan::{all_hint_sets, Query};
use ml4db_storage::Database;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| joblite_db(90, 77))
}

fn query(seed: u64) -> Query {
    let mut rng = StdRng::seed_from_u64(seed);
    sample_query(db(), JOBLITE_EDGES, 3, &mut rng, seed % 3 != 0)
}

/// The reference answer, as a canonical multiset.
fn reference_multiset(q: &Query) -> Vec<String> {
    let rows = naive_execute(db(), q).expect("reference executes");
    let identity: Vec<usize> = (0..q.num_tables()).collect();
    canonical_multiset(db(), q, &rows, &identity)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every hint-set plan shape and an arbitrary budget: completed
    /// executions respect the budget and match the reference engine;
    /// aborted ones genuinely needed more than the budget. The `Env`
    /// wrapper agrees with the raw executor either way.
    #[test]
    fn timeout_semantics_hold_for_every_hint_arm(
        qseed in 0u64..200,
        budget_frac in 0.05f64..1.5,
    ) {
        let db = db();
        let q = query(qseed);
        let env = Env::new(db);
        let truth = reference_multiset(&q);
        for hint in all_hint_sets() {
            let Some(plan) = env.plan_with_hint(&q, hint) else { continue };
            let full = execute(db, &q, &plan).expect("plan executes");
            let budget = budget_frac * full.latency_us;
            match execute_columnar_with_timeout(db, &q, &plan, budget).expect("valid plan") {
                Some(res) => {
                    let res = res.into_rows();
                    prop_assert!(
                        res.latency_us <= budget + 1e-9,
                        "Done but overspent: latency {} vs budget {budget}",
                        res.latency_us
                    );
                    prop_assert_eq!(
                        canonical_multiset(db, &q, &res.rows, &res.layout),
                        truth.clone(),
                        "completed plan diverged from the reference engine"
                    );
                    let via_env = env.run_with_timeout(&q, &plan, budget);
                    prop_assert_eq!(
                        via_env.map(f64::to_bits),
                        Some(res.latency_us.to_bits()),
                        "Env::run_with_timeout disagrees with the executor"
                    );
                }
                None => {
                    prop_assert!(
                        full.latency_us > budget,
                        "aborted a plan that fits: latency {} vs budget {budget}",
                        full.latency_us
                    );
                    prop_assert!(
                        env.run_with_timeout(&q, &plan, budget).is_none(),
                        "Env::run_with_timeout disagrees with the executor"
                    );
                }
            }
        }
    }
}

/// The steering guard's fallback path end to end: steer into the most
/// expensive hint arm under a tight budget; when it times out, the expert
/// plan serves. Whichever plan answered, the result is multiset-equal to
/// the brute-force reference.
#[test]
fn timeout_fallback_serves_reference_equal_results() {
    let db = db();
    let env = Env::new(db);
    let mut timeouts = 0u32;
    for qseed in 0..12u64 {
        let q = query(1000 + qseed);
        let truth = reference_multiset(&q);
        let expert = env.expert_plan(&q).expect("expert plans");
        let expert_lat = execute(db, &q, &expert).expect("expert executes").latency_us;
        let worst = all_hint_sets()
            .into_iter()
            .filter_map(|h| env.plan_with_hint(&q, h))
            .max_by(|a, b| {
                a.est_cost.partial_cmp(&b.est_cost).unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("non-empty hint space");
        let budget = 1.2 * expert_lat;
        let served = match execute_columnar_with_timeout(db, &q, &worst, budget).expect("valid plan") {
            Some(res) => res.into_rows(),
            None => {
                timeouts += 1;
                execute(db, &q, &expert).expect("expert executes")
            }
        };
        assert_eq!(
            canonical_multiset(db, &q, &served.rows, &served.layout),
            truth,
            "served result diverged from the reference engine"
        );
    }
    assert!(timeouts > 0, "adversarial arm never timed out; the fallback path went unexercised");
}
