//! **E9** — AutoSteer \[3\]: removes Bao's hand-crafted hint-set collection
//! by greedily discovering effective hint sets per query (single toggles,
//! then merges of composable toggles).
//!
//! Expected shape: discovery finds ≥ the hand-crafted arms' coverage
//! (every Bao arm that changes the plan is rediscovered or subsumed), and
//! the steered latency matches Bao's.

use ml4db_core::optimizer::{discover_hint_sets, Env};
use ml4db_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::Record;

pub fn regenerate(rec: &mut Record) {
    let db = demo_database(150, 90);
    let env = Env::new(&db);
    let mut rng = StdRng::seed_from_u64(91);
    let queries = demo_workload(&db, 20, 92);

    // Discovery statistics across the workload.
    let mut discovered_counts = Vec::new();
    let mut plans_covered = 0usize;
    let mut plans_total = 0usize;
    for q in &queries {
        let d = discover_hint_sets(&env, q);
        discovered_counts.push(d.arms.len());
        // Coverage: every distinct plan reachable via the hand-crafted Bao
        // arms should be reachable via discovered arms too.
        let hand: std::collections::BTreeSet<String> = bao_arms()
            .iter()
            .filter_map(|&h| env.plan_with_hint(q, h).map(|p| p.signature()))
            .collect();
        let auto: std::collections::BTreeSet<String> = d
            .arms
            .iter()
            .filter_map(|&h| env.plan_with_hint(q, h).map(|p| p.signature()))
            .collect();
        plans_total += hand.len();
        plans_covered += hand.iter().filter(|s| auto.contains(*s)).count();
    }
    let avg_arms =
        discovered_counts.iter().sum::<usize>() as f64 / discovered_counts.len() as f64;
    eprintln!("discovered arms per query: avg {avg_arms:.1} (hand-crafted: {})", bao_arms().len());
    eprintln!(
        "plan coverage of hand-crafted arms: {plans_covered}/{plans_total} ({:.0}%)",
        100.0 * plans_covered as f64 / plans_total.max(1) as f64
    );

    // Steering quality: AutoSteer vs Bao on the same stream.
    let mut auto = AutoSteer::new();
    let mut bao = Bao::new(bao_arms());
    let mut auto_total = 0.0;
    let mut bao_total = 0.0;
    for q in &queries {
        auto_total += auto.step(&env, q, &mut rng).1;
        bao_total += bao.step(&env, q, &mut rng).1;
    }
    eprintln!("\ntraining-stream total latency: autosteer {auto_total:.0} µs, bao {bao_total:.0} µs");
    rec.value("discovered_arms_per_query", avg_arms);
    rec.value("hand_crafted_arms", bao_arms().len());
    rec.value("plans_covered", plans_covered);
    rec.value("plans_total", plans_total);
    rec.value("stream_latency_us/autosteer", auto_total);
    rec.value("stream_latency_us/bao", bao_total);
    rec.check(
        "coverage ≥ 90% and latency within 1.5x of Bao",
        plans_covered * 10 >= plans_total * 9 && auto_total <= bao_total * 1.5,
    );
}
