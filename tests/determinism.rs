//! Determinism guarantees of the evaluation substrate.
//!
//! Two claims, checked end to end:
//!
//! 1. **Same seed, same output** — every demo pipeline (database,
//!    workload, survey series, trained models) is a pure function of its
//!    seeds.
//! 2. **Same output at every thread count** — fanning evaluation out over
//!    the `ml4db_par` pool changes wall-clock only, never results:
//!    reports are byte-identical between 1 thread and many.
//!
//! Thread counts are pinned with `ml4db_core::par::with_threads` (the
//! scoped equivalent of the `ML4DB_THREADS` env var) so the test is
//! robust no matter how the harness sets the environment. The CI workflow
//! additionally runs the whole suite under `ML4DB_THREADS=1`.

use ml4db_core::optimizer::{evaluate, harness::EvalReport, Env};
use ml4db_core::par;
use ml4db_core::prelude::*;

/// Serializes every field of a report to exact bit patterns, so two
/// reports compare equal only if they are numerically identical.
fn report_bits(r: &EvalReport) -> Vec<u64> {
    let mut bits: Vec<u64> = r.latencies.iter().map(|l| l.to_bits()).collect();
    bits.extend([
        r.tail.mean.to_bits(),
        r.tail.p50.to_bits(),
        r.tail.p90.to_bits(),
        r.tail.p99.to_bits(),
        r.tail.max.to_bits(),
        r.regressions as u64,
        r.relative_total.to_bits(),
    ]);
    bits
}

#[test]
fn demo_workload_identical_across_runs() {
    let db1 = demo_database(120, 41);
    let db2 = demo_database(120, 41);
    let w1 = demo_workload(&db1, 30, 42);
    let w2 = demo_workload(&db2, 30, 42);
    assert_eq!(w1, w2);
    assert_eq!(
        w1.iter().map(|q| q.fingerprint()).collect::<Vec<_>>(),
        w2.iter().map(|q| q.fingerprint()).collect::<Vec<_>>(),
    );
}

#[test]
fn figure1_series_identical_across_runs() {
    let a = figure1_series();
    let b = figure1_series();
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn trained_model_identical_across_runs() {
    let db = demo_database(100, 51);
    let queries = demo_workload(&db, 15, 52);
    let (bao1, lat1) = train_bao(&db, &queries, 53);
    let (bao2, lat2) = train_bao(&db, &queries, 53);
    let b1: Vec<u64> = lat1.iter().map(|l| l.to_bits()).collect();
    let b2: Vec<u64> = lat2.iter().map(|l| l.to_bits()).collect();
    assert_eq!(b1, b2, "training latencies must be bit-identical");
    // And the trained policies agree on fresh queries.
    let env = Env::new(&db);
    for q in &demo_workload(&db, 5, 54) {
        assert_eq!(
            bao1.choose_greedy(&env, q).arm,
            bao2.choose_greedy(&env, q).arm,
            "trained bandits diverged"
        );
    }
}

#[test]
fn evaluate_identical_across_thread_counts() {
    let db = demo_database(120, 61);
    let queries = demo_workload(&db, 40, 62);

    let run_at = |threads: usize| -> Vec<u64> {
        // A fresh Env per run: each thread count starts from a cold
        // plan cache, so agreement cannot come from shared state.
        let env = Env::new(&db);
        let report = par::with_threads(threads, || {
            evaluate(&env, &queries, |env, q| {
                // A planner with a real decision surface: restrict operators
                // on a query-dependent criterion so plans differ per query.
                if q.num_tables() >= 3 {
                    env.plan_with_hint(q, HintSet { nested_loop: false, ..HintSet::all() })
                } else {
                    env.expert_plan(q)
                }
            })
        });
        report_bits(&report)
    };

    let serial = run_at(1);
    for threads in [2, 4, 8] {
        assert_eq!(run_at(threads), serial, "report diverged at {threads} threads");
    }
}

#[test]
fn diverse_observations_identical_across_thread_counts() {
    use ml4db_core::optimizer::paramtree::collect_observations_diverse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let db = demo_database(100, 71);
    let queries = demo_workload(&db, 12, 72);

    let collect_at = |threads: usize| -> Vec<u64> {
        let env = Env::new(&db);
        let mut rng = StdRng::seed_from_u64(73);
        let obs = par::with_threads(threads, || {
            collect_observations_diverse(&env, &queries, 3, &mut rng)
        });
        obs.iter().map(|o| o.latency_us.to_bits()).collect()
    };

    let serial = collect_at(1);
    assert!(!serial.is_empty());
    assert_eq!(collect_at(4), serial, "observation stream depends on thread count");
}
