//! **E8** — Bao \[27\]: hint-set steering as a contextual bandit. The claims
//! the tutorial highlights: low training overhead (it reuses the expert),
//! improved tail performance, and adaptation to workload shift via the
//! sliding experience window.
//!
//! Expected shape: Bao's relative-to-expert total ≤ ~1 after training;
//! regressions stay rare; after a sudden workload shift Bao's rolling mean
//! recovers within a window of queries.

use ml4db_core::datagen::{DriftSchedule, SchemaGraph};
use ml4db_core::optimizer::{evaluate, Env};
use ml4db_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::Record;

pub fn regenerate(rec: &mut Record) {
    let db = demo_database(150, 80);
    let env = Env::new(&db);
    let mut rng = StdRng::seed_from_u64(81);

    // Train, then evaluate greedily against the expert.
    let train = demo_workload(&db, 35, 82);
    let mut bao = Bao::new(bao_arms());
    for q in &train {
        bao.step(&env, q, &mut rng);
    }
    let test = demo_workload(&db, 15, 83);
    let report = evaluate(&env, &test, |env, q| Some(bao.choose_greedy(env, q).plan));
    eprintln!("steady state (15 test queries):");
    eprintln!("  relative total vs expert: {:.2}", report.relative_total);
    eprintln!(
        "  tails: p50 {:.0}  p90 {:.0}  p99 {:.0} µs, regressions {}/{}",
        report.tail.p50,
        report.tail.p90,
        report.tail.p99,
        report.regressions,
        test.len()
    );
    rec.value("steady/relative_total", report.relative_total);
    rec.value("steady/p50_us", report.tail.p50);
    rec.value("steady/p90_us", report.tail.p90);
    rec.value("steady/p99_us", report.tail.p99);
    rec.value("steady/regressions", report.regressions);
    rec.value("steady/queries", test.len());

    // Workload shift: relative-to-expert cost per phase.
    let stream = DriftSchedule::sudden(30, 30).generate(&db, &SchemaGraph::joblite(), &mut rng);
    let mut bao2 = Bao::new(bao_arms());
    let mut rel = Vec::new();
    for q in &stream {
        let (_, lat) = bao2.step(&env, q, &mut rng);
        let expert = env.run(q, &env.expert_plan(q).expect("plans"));
        rel.push(lat / expert.max(1e-9));
    }
    let mean = |r: std::ops::Range<usize>| rel[r].iter().sum::<f64>() / 10.0;
    eprintln!("\nworkload shift at query 30 (relative latency vs expert, mean of 10):");
    let (pre, post, readapted) = (mean(20..30), mean(30..40), mean(50..60));
    eprintln!("  queries 20..30 (pre-shift):    {pre:.2}");
    eprintln!("  queries 30..40 (post-shift):   {post:.2}");
    eprintln!("  queries 50..60 (re-adapted):   {readapted:.2}");
    eprintln!();
    rec.value("shift/relative_latency/pre_shift_20_30", pre);
    rec.value("shift/relative_latency/post_shift_30_40", post);
    rec.value("shift/relative_latency/re_adapted_50_60", readapted);
    rec.check(
        "tracks expert; re-adapted ≤ ~post-shift",
        report.relative_total < 1.3 && readapted <= post * 1.2,
    );
}
