//! **E7** — replacement learned optimizers (Neo \[28\], RTOS \[52\]): trained
//! on one template family they track the expert; on *unseen* templates
//! their value networks extrapolate and tail latencies degrade — the
//! robustness/cold-start limitation the tutorial uses to motivate the
//! ML-enhanced paradigm.
//!
//! Expected shape: relative-to-expert total near 1 on seen templates, and
//! a larger factor plus more ≥2x regressions on unseen templates.

use ml4db_core::datagen::{SchemaGraph, WorkloadConfig, WorkloadGenerator};
use ml4db_core::optimizer::{evaluate, Env, Neo, Rtos};
use ml4db_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::Record;

pub fn regenerate(rec: &mut Record) {
    let db = demo_database(150, 70);
    let env = Env::new(&db);
    let mut rng = StdRng::seed_from_u64(71);

    // Seen: 2-table joins over the joblite core. Unseen: wider joins with
    // more predicates — templates the value nets never trained on.
    let seen_gen = WorkloadGenerator::new(
        SchemaGraph::joblite(),
        WorkloadConfig { min_tables: 2, max_tables: 2, max_predicates: 1, ..Default::default() },
    );
    let unseen_gen = WorkloadGenerator::new(
        SchemaGraph::joblite(),
        WorkloadConfig { min_tables: 3, max_tables: 4, max_predicates: 3, ..Default::default() },
    );
    let train = seen_gen.generate_many(&db, 25, &mut rng);
    let seen_test = seen_gen.generate_many(&db, 12, &mut rng);
    let unseen_test = unseen_gen.generate_many(&db, 12, &mut rng);

    let mut neo = Neo::new(&mut rng);
    neo.bootstrap(&env, &train, 12, &mut rng);
    neo.train_iteration(&env, &train, 8, &mut rng);
    let mut rtos = Rtos::new(&mut rng);
    rtos.warmup_with_cost(&env, &train, 10, &mut rng);
    rtos.finetune_with_latency(&env, &train, 8, &mut rng);

    eprintln!(
        "{:<8} {:<8} {:>14} {:>12} {:>12}",
        "system", "split", "rel. total", "p99 (µs)", "regressions"
    );
    let mut degradations = Vec::new();
    for (name, planner) in [
        ("neo", Box::new(|env: &Env, q: &Query| neo.plan(env, q))
            as Box<dyn Fn(&Env, &Query) -> Option<PlanNode> + Sync>),
        ("rtos", Box::new(|env: &Env, q: &Query| rtos.plan(env, q))),
    ] {
        let seen = evaluate(&env, &seen_test, &planner);
        let unseen = evaluate(&env, &unseen_test, &planner);
        for (split, report, n) in
            [("seen", &seen, seen_test.len()), ("unseen", &unseen, unseen_test.len())]
        {
            eprintln!(
                "{:<8} {:<8} {:>14.2} {:>12.0} {:>9}/{}",
                name, split, report.relative_total, report.tail.p99, report.regressions, n
            );
            rec.value(format!("{name}/{split}/relative_total"), report.relative_total);
            rec.value(format!("{name}/{split}/p99_us"), report.tail.p99);
            rec.value(format!("{name}/{split}/regressions"), report.regressions);
            rec.value(format!("{name}/{split}/queries"), n);
        }
        degradations.push(unseen.relative_total / seen.relative_total.max(1e-9));
    }
    eprintln!();
    rec.check(
        "unseen degrades vs seen for at least one system",
        degradations.iter().any(|&d| d > 1.1),
    );
}
