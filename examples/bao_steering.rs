//! Bao steering under workload drift (E8): a bandit-steered optimizer
//! tracks a drifting workload while the static expert keeps making the
//! same mistakes. Also demos AutoSteer's dynamic hint-set discovery.
//!
//! ```bash
//! cargo run --release --example bao_steering
//! ```

use ml4db_core::datagen::{DriftSchedule, SchemaGraph};
use ml4db_core::optimizer::discover_hint_sets;
use ml4db_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let db = demo_database(400, 11);
    let env = Env::new(&db);
    let mut rng = StdRng::seed_from_u64(5);

    // A workload stream with a sudden shift halfway.
    let stream = DriftSchedule::sudden(40, 40).generate(&db, &SchemaGraph::joblite(), &mut rng);
    println!("workload: {} queries, sudden shift after 40", stream.len());

    let mut bao = Bao::new(bao_arms());
    let mut bao_latencies = Vec::new();
    let mut expert_latencies = Vec::new();
    for q in &stream {
        let (_, lat) = bao.step(&env, q, &mut rng);
        bao_latencies.push(lat);
        let expert = env.expert_plan(q).expect("expert plans");
        expert_latencies.push(env.run(q, &expert));
    }

    let phase = |v: &[f64], range: std::ops::Range<usize>| -> f64 {
        let s = &v[range.clone()];
        s.iter().sum::<f64>() / s.len() as f64
    };
    println!("\n== mean latency (µs) per phase ==");
    println!(
        "  phase 1 (stable):  bao {:>8.1}   expert {:>8.1}",
        phase(&bao_latencies, 5..40),
        phase(&expert_latencies, 5..40)
    );
    println!(
        "  phase 2 (shifted): bao {:>8.1}   expert {:>8.1}",
        phase(&bao_latencies, 45..80),
        phase(&expert_latencies, 45..80)
    );

    // Tail behaviour — Bao's headline claim.
    let tail = |v: &[f64]| ml4db_core::nn::metrics::tail_summary(v).expect("non-empty");
    let bt = tail(&bao_latencies);
    let et = tail(&expert_latencies);
    println!("\n== tails over the full stream ==");
    println!("  bao:    p50 {:>8.1}  p90 {:>8.1}  p99 {:>8.1}", bt.p50, bt.p90, bt.p99);
    println!("  expert: p50 {:>8.1}  p90 {:>8.1}  p99 {:>8.1}", et.p50, et.p90, et.p99);

    // AutoSteer: no hand-crafted arms needed.
    let q = &stream[10];
    let discovery = discover_hint_sets(&env, q);
    println!("\n== autosteer discovery for one query ==");
    println!("  {} effective single toggles", discovery.effective_toggles);
    for arm in &discovery.arms {
        println!("  arm: {}", arm.label());
    }
}
