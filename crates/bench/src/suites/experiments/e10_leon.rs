//! **E10** — LEON \[4\]: ML-aided optimization with a mixed (expert +
//! pairwise-ranking) cost estimate and a fallback to the expert when the
//! model is untrained — the "never catastrophic" safety property.
//!
//! Expected shape: untrained LEON = expert exactly (fallback); trained
//! LEON ≤ expert in total with zero catastrophic (≥3x) regressions.

use ml4db_core::optimizer::{evaluate, Env, Leon};
use ml4db_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::Record;

pub fn regenerate(rec: &mut Record) {
    let db = demo_database(150, 100);
    let env = Env::new(&db);
    let mut rng = StdRng::seed_from_u64(101);
    let train = demo_workload(&db, 15, 102);
    let test = demo_workload(&db, 12, 103);

    // Untrained: must fall back to pure expert cost.
    let untrained = Leon::new(&mut rng);
    let fell_back = test
        .iter()
        .filter(|q| matches!(untrained.plan(&env, q), Some((_, false))))
        .count();
    eprintln!("untrained LEON fallback rate: {fell_back}/{}", test.len());

    // Train from executed plan pairs.
    let mut leon = Leon::new(&mut rng);
    let planner = Planner::default();
    let mut executions = Vec::new();
    for q in &train {
        for p in planner.random_plans(&db, q, &ClassicEstimator, 3, &mut rng) {
            let lat = env.run(q, &p);
            executions.push((q.clone(), p, lat));
        }
    }
    leon.train_from_executions(&env, &executions, 8, &mut rng);
    eprintln!("trained on {} executions, model ready: {}", executions.len(), leon.model_ready());

    let report = evaluate(&env, &test, |env, q| leon.plan(env, q).map(|(p, _)| p));
    let catastrophic = test
        .iter()
        .filter(|q| {
            let (plan, _) = leon.plan(&env, q).expect("plans");
            let expert = env.expert_plan(q).expect("plans");
            env.run(q, &plan) > env.run(q, &expert) * 3.0
        })
        .count();
    eprintln!("trained LEON relative total vs expert: {:.2}", report.relative_total);
    eprintln!(
        "regressions ≥2x: {}/{}, catastrophic ≥3x: {catastrophic}/{}",
        report.regressions,
        test.len(),
        test.len()
    );
    rec.value("queries", test.len());
    rec.value("untrained_fallbacks", fell_back);
    rec.value("training_executions", executions.len());
    rec.value("trained/relative_total", report.relative_total);
    rec.value("trained/regressions_2x", report.regressions);
    rec.value("trained/catastrophic_3x", catastrophic);
    rec.check(
        "fallback when untrained; trained never catastrophic",
        fell_back == test.len() && catastrophic == 0 && report.relative_total < 1.5,
    );
}
