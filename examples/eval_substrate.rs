//! Evidence run for the evaluation substrate: plan-cache hit rates and
//! speedup on a repeated-template workload, plus byte-identity of
//! `evaluate` reports across thread counts.
//!
//! ```bash
//! cargo run --release --example eval_substrate
//! ```
//!
//! The recorded output of one run lives in EXPERIMENTS.md ("E18").

use std::time::Instant;

use ml4db_core::optimizer::{evaluate, Env};
use ml4db_core::par;
use ml4db_core::prelude::*;

fn main() {
    let db = demo_database(300, 42);
    // A repeated-template workload: 25 distinct queries, each arriving
    // four times — the shape of a production plan cache's input, and of
    // this repo's own training loops (Bao/AutoSteer re-plan the same
    // queries under many hint sets, epoch after epoch).
    let base = demo_workload(&db, 25, 43);
    let workload: Vec<Query> =
        (0..4).flat_map(|_| base.iter().cloned()).collect();
    println!(
        "workload: {} queries ({} distinct), host cores: {}",
        workload.len(),
        base.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    // ---- 1) PlanCache: uncached vs cold-cache vs warm-cache planning ----
    let env = Env::new(&db);
    let t = Instant::now();
    for q in &workload {
        let _ = env.plan_with_hint_uncached(q, HintSet::all());
    }
    let uncached = t.elapsed();

    let t = Instant::now();
    for q in &workload {
        let _ = env.expert_plan(q); // cached path, cache starts cold
    }
    let cold = t.elapsed();
    let c = env.plan_cache();
    println!("\n== plan cache, 100-query repeated-template pass ==");
    println!("uncached planning : {uncached:>10.1?}");
    println!(
        "cold cache        : {cold:>10.1?}  ({} hits / {} misses, hit rate {:.0}%, {} resident)",
        c.hits(),
        c.misses(),
        c.hit_rate() * 100.0,
        c.len()
    );

    let t = Instant::now();
    for q in &workload {
        let _ = env.expert_plan(q);
    }
    let warm = t.elapsed();
    println!(
        "warm cache        : {warm:>10.1?}  (cumulative hit rate {:.0}%)",
        c.hit_rate() * 100.0
    );
    println!(
        "speedup           : {:.1}x cold, {:.1}x warm (vs uncached planning)",
        uncached.as_secs_f64() / cold.as_secs_f64().max(1e-9),
        uncached.as_secs_f64() / warm.as_secs_f64().max(1e-9)
    );
    assert!(c.hit_rate() > 0.5, "acceptance: >50% hit rate on repeated templates");

    // ---- 2) evaluate(): identical reports at every thread count ----
    // Fresh Env per run so each thread count starts from a cold cache;
    // the planner restricts operators on wide queries so it has a real
    // decision surface.
    println!("\n== evaluate() across thread counts ==");
    let mut digests = Vec::new();
    for threads in [1usize, 2, 4] {
        let env = Env::new(&db);
        let t = Instant::now();
        let report = par::with_threads(threads, || {
            evaluate(&env, &workload, |env, q| {
                if q.num_tables() >= 3 {
                    env.plan_with_hint(q, HintSet { nested_loop: false, ..HintSet::all() })
                } else {
                    env.expert_plan(q)
                }
            })
        });
        let wall = t.elapsed();
        // Equal digests mean numerically identical reports, down to the
        // last ulp: `Debug` prints floats round-trip exactly.
        let d = ml4db_core::obs::debug_bits(&report);
        println!(
            "threads={threads}: wall {wall:>9.1?}, report digest {d:016x}, \
             rel.total {:.4}, regressions {}",
            report.relative_total, report.regressions
        );
        digests.push(d);
    }
    let identical = digests.windows(2).all(|w| w[0] == w[1]);
    println!(
        "reports byte-identical across thread counts: {}",
        if identical { "YES" } else { "NO" }
    );
    assert!(identical, "determinism guarantee violated");
}
