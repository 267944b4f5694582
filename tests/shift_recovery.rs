//! End-to-end model lifecycle under workload shift, for every seeded
//! shift scenario: the incumbent estimator measurably degrades, the
//! drift detector fires, a retrained candidate clears the validation
//! gate and is re-promoted within tolerance of the classical baseline,
//! a sabotaged candidate is rejected and rolled back — and the whole
//! report is byte-identical across thread counts.
//!
//! Also here: the plan-cache epoch regression test (a promotion must
//! invalidate cached plans), the breaker → registry auto-rollback
//! integration, and the `shift_recovery.json` golden trace with named
//! presence tests for every lifecycle event class. Regenerate the
//! snapshot deliberately with `ML4DB_BLESS=1 cargo test --test
//! shift_recovery`.

mod common;

use std::sync::OnceLock;

use common::check_golden;
use ml4db_core::datagen::{ShiftKind, ShiftScenario};
use ml4db_core::obs;
use ml4db_core::obs::{Event, Trace};
use ml4db_core::optimizer::harness::GATE_TOLERANCE;
use ml4db_core::optimizer::{
    dedup_by_fingerprint, run_shift_recovery, ShiftRecoveryConfig, ShiftRecoveryReport,
};
use ml4db_core::par;
use ml4db_core::prelude::*;

const SEED: u64 = 11;

fn cfg() -> ShiftRecoveryConfig {
    ShiftRecoveryConfig { base_rows: 200, eval_n: 16, holdout_n: 8, epochs: 25 }
}

/// One recovery run per seeded scenario, computed once and shared by the
/// per-leg tests below (the runs are pure functions of `(scenario, cfg)`).
fn reports() -> &'static Vec<ShiftRecoveryReport> {
    static REPORTS: OnceLock<Vec<ShiftRecoveryReport>> = OnceLock::new();
    REPORTS.get_or_init(|| {
        ShiftScenario::all(SEED).into_iter().map(|s| run_shift_recovery(s, &cfg())).collect()
    })
}

// ---------------------------------------------------------------------------
// The lifecycle claim, one leg per test, across all five scenarios
// ---------------------------------------------------------------------------

#[test]
fn every_scenario_degrades_under_shift() {
    let _s = obs::serial();
    for r in reports() {
        assert!(
            r.shift_err > r.pre_err,
            "{}: no measurable degradation (pre {} vs post {})",
            r.scenario,
            r.pre_err,
            r.shift_err
        );
    }
}

#[test]
fn every_scenario_fires_drift_and_rearms_after_rebaseline() {
    let _s = obs::serial();
    for r in reports() {
        assert!(r.drift_fired, "{}: drift detector stayed quiet through the shift", r.scenario);
        assert!(r.drift_rearmed, "{}: detector did not re-arm cleanly after rebaseline", r.scenario);
    }
}

#[test]
fn every_scenario_repromotes_the_retrained_candidate() {
    let _s = obs::serial();
    let tol = GATE_TOLERANCE;
    for r in reports() {
        assert!(r.promoted, "{}: retrained candidate failed the gate", r.scenario);
        assert!(
            r.candidate_score <= r.incumbent_score * (1.0 + tol),
            "{}: promoted candidate outside incumbent tolerance",
            r.scenario
        );
        assert!(
            r.candidate_score <= r.baseline_score * (1.0 + tol),
            "{}: promoted candidate outside classical-baseline tolerance \
             (cand {} vs base {})",
            r.scenario,
            r.candidate_score,
            r.baseline_score
        );
        assert!(
            r.recovered_err < r.shift_err,
            "{}: promotion did not recover q-error ({} vs {})",
            r.scenario,
            r.recovered_err,
            r.shift_err
        );
    }
}

#[test]
fn every_scenario_rejects_the_sabotaged_candidate() {
    let _s = obs::serial();
    for r in reports() {
        assert!(r.sabotage_rejected, "{}: sabotaged candidate slipped through the gate", r.scenario);
        // Exactly one promotion happened: the honest retrain.
        assert_eq!(r.generation, 1, "{}: unexpected generation", r.scenario);
        assert_eq!(r.active_version, 1, "{}: wrong serving version", r.scenario);
    }
}

#[test]
fn recovery_reports_are_byte_identical_across_thread_counts() {
    let _s = obs::serial();
    let bits_at = |threads: usize| -> Vec<u64> {
        par::with_threads(threads, || {
            ShiftScenario::all(SEED).into_iter().map(|s| run_shift_recovery(s, &cfg()).bits()).collect()
        })
    };
    let one = bits_at(1);
    assert_eq!(
        one,
        reports().iter().map(|r| r.bits()).collect::<Vec<_>>(),
        "default-thread reports diverged from single-threaded"
    );
    assert_eq!(one, bits_at(8), "reports diverged at 8 threads");
}

// ---------------------------------------------------------------------------
// Cross-seed robustness: the lifecycle legs must not be a one-seed accident
// ---------------------------------------------------------------------------

#[test]
fn lifecycle_legs_hold_across_seeds() {
    let _s = obs::serial();
    let small = ShiftRecoveryConfig { base_rows: 150, eval_n: 12, holdout_n: 8, epochs: 20 };
    for seed in [5u64, 23] {
        for scenario in ShiftScenario::all(seed) {
            let r = run_shift_recovery(scenario, &small);
            assert!(
                r.shift_err > r.pre_err,
                "seed {seed} {}: no measurable degradation (pre {} vs post {})",
                r.scenario,
                r.pre_err,
                r.shift_err
            );
            assert!(r.drift_fired, "seed {seed} {}: drift detector stayed quiet", r.scenario);
            assert!(
                r.sabotage_rejected,
                "seed {seed} {}: sabotaged candidate slipped through",
                r.scenario
            );
            // The gate's promote/hold verdict legitimately varies with the
            // seed; what must never vary is that a promotion, when granted,
            // actually recovers q-error.
            if r.promoted {
                assert!(
                    r.recovered_err < r.shift_err,
                    "seed {seed} {}: promoted without recovering ({} vs {})",
                    r.scenario,
                    r.recovered_err,
                    r.shift_err
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Plan-cache epoch: a promotion must invalidate every cached plan
// ---------------------------------------------------------------------------

#[test]
fn stale_cached_plans_are_never_served_across_a_promotion() {
    let _s = obs::serial();
    let db = demo_database(100, 45);
    let queries = dedup_by_fingerprint(demo_workload(&db, 6, 46));
    let env = Env::new(&db);
    let mut registry = ModelRegistry::new("card_estimator", GateConfig::default(), ());
    env.set_model_epoch(registry.generation());
    let epoch_before = env.epoch();

    // Cold pass populates the cache; a second pass is pure hits.
    for q in &queries {
        assert!(env.plan_with_estimator(q, HintSet::all(), &ClassicEstimator, 0).is_some());
    }
    let (h0, m0) = (env.plan_cache().hits(), env.plan_cache().misses());
    for q in &queries {
        env.plan_with_estimator(q, HintSet::all(), &ClassicEstimator, 0);
    }
    assert_eq!(env.plan_cache().hits(), h0 + queries.len() as u64, "warm pass must hit");
    assert_eq!(env.plan_cache().misses(), m0, "warm pass must not miss");

    // A model is promoted; the registry generation feeds the epoch.
    let cid = registry.register_candidate((), "retrain");
    registry.begin_shadow(cid);
    assert!(registry.try_promote(cid, 90.0, 100.0, 100.0).promoted);
    env.set_model_epoch(registry.generation());
    assert_ne!(env.epoch(), epoch_before, "promotion must move the cache epoch");

    // Every lookup after the promotion misses: no stale plan is served.
    let (h1, m1) = (env.plan_cache().hits(), env.plan_cache().misses());
    for q in &queries {
        env.plan_with_estimator(q, HintSet::all(), &ClassicEstimator, 0);
    }
    assert_eq!(env.plan_cache().hits(), h1, "stale plan served across a promotion");
    assert_eq!(env.plan_cache().misses(), m1 + queries.len() as u64);

    // A rollback moves the generation again — the pre-promotion epoch is
    // not resurrected either.
    registry.rollback("drift");
    env.set_model_epoch(registry.generation());
    assert_ne!(env.epoch(), epoch_before, "rollback must not resurrect the old epoch");
}

#[test]
fn shadow_scoring_does_not_poison_the_serving_cache() {
    let _s = obs::serial();
    let db = demo_database(80, 47);
    let queries = dedup_by_fingerprint(demo_workload(&db, 4, 48));
    let env = Env::new(&db);
    let q = &queries[0];

    // Serving (tag 0) and shadow (tag 1) keys live side by side: scoring
    // a candidate in shadow neither evicts nor satisfies serving lookups.
    env.plan_with_estimator(q, HintSet::all(), &ClassicEstimator, 0);
    let (h0, m0) = (env.plan_cache().hits(), env.plan_cache().misses());
    env.plan_with_estimator(q, HintSet::all(), &ClassicEstimator, 1);
    assert_eq!(env.plan_cache().misses(), m0 + 1, "shadow tag must key separately");
    env.plan_with_estimator(q, HintSet::all(), &ClassicEstimator, 0);
    assert_eq!(env.plan_cache().hits(), h0 + 1, "serving entry must survive shadow scoring");
}

// ---------------------------------------------------------------------------
// Breaker → registry: post-promotion guard trip triggers auto-rollback
// ---------------------------------------------------------------------------

#[test]
fn guard_trip_after_promotion_rolls_back_to_last_good() {
    let _s = obs::serial();

    /// A learned estimator that went bad after promotion: pure NaN.
    struct Poisoned;
    impl CardEstimator for Poisoned {
        fn estimate(&self, _db: &ml4db_core::storage::Database, _q: &Query, _m: u64) -> f64 {
            f64::NAN
        }
    }

    let db = demo_database(80, 49);
    let queries = dedup_by_fingerprint(demo_workload(&db, 6, 50));
    let mut registry = ModelRegistry::new("card_estimator", GateConfig::default(), "v0");
    let cid = registry.register_candidate("v1", "retrain");
    registry.begin_shadow(cid);
    assert!(registry.try_promote(cid, 90.0, 100.0, 100.0).promoted);
    assert_eq!(*registry.active(), "v1");

    let guarded = GuardedCardEstimator::new(Poisoned, 8.0);
    let mut link = LifecycleLink::new(guarded.breaker());

    let _g = obs::ModeGuard::collect();
    let mut restored = None;
    'serve: for _ in 0..32 {
        for q in &queries {
            let est = guarded.estimate(&db, q, q.full_mask());
            assert!(est.is_finite(), "guard must never surface NaN");
            if let Some(v) = link.poll(guarded.breaker(), &mut registry) {
                restored = Some(v);
                break 'serve;
            }
        }
    }
    let t = obs::take_trace();

    assert_eq!(restored, Some(0), "trip must restore the last-good version");
    assert_eq!(*registry.active(), "v0");
    assert_eq!(registry.version(cid).unwrap().state, LifecycleState::RolledBack);
    assert_eq!(registry.generation(), 2, "rollback is a generation bump (cache epoch moves)");
    // The rollback event carries the breaker's own trip reason.
    assert!(
        t.all_events().any(|e| matches!(
            e,
            Event::Rollback {
                component: "card_estimator",
                from_version: 1,
                to_version: 0,
                reason: "invalid_output"
            }
        )),
        "rollback event with the breaker's reason must be in the trace"
    );
    assert_eq!(t.metrics.counter("lifecycle.rollbacks"), 1);
}

// ---------------------------------------------------------------------------
// Golden trace + named presence tests for every lifecycle event class
// ---------------------------------------------------------------------------

fn recovery_trace() -> (Trace, ShiftRecoveryReport) {
    let _g = obs::ModeGuard::collect();
    let report = run_shift_recovery(ShiftScenario::new(ShiftKind::BulkInsert, SEED), &cfg());
    (obs::take_trace(), report)
}

#[test]
fn golden_shift_recovery_trace() {
    let _s = obs::serial();
    check_golden("shift_recovery.json", &recovery_trace().0.canonical_string());
}

#[test]
fn golden_shift_recovery_byte_identical_across_thread_counts() {
    let _s = obs::serial();
    let at = |threads: usize| -> String {
        par::with_threads(threads, || recovery_trace().0.canonical_string())
    };
    let one = at(1);
    for threads in [4, 8] {
        assert_eq!(at(threads), one, "recovery trace diverged at {threads} threads");
    }
}

#[test]
fn trace_records_candidate_training_with_origin() {
    let _s = obs::serial();
    let (t, _) = recovery_trace();
    let origins: Vec<&str> = t
        .all_events()
        .filter_map(|e| match *e {
            Event::CandidateTrained { component: "card_estimator", origin, .. } => Some(origin),
            _ => None,
        })
        .collect();
    assert_eq!(origins, ["retrain", "sabotage"], "both candidates must be recorded, in order");
    assert_eq!(t.metrics.counter("lifecycle.candidates"), 2);
}

#[test]
fn trace_records_validation_verdicts_with_margins() {
    let _s = obs::serial();
    let (t, r) = recovery_trace();
    let verdicts: Vec<(u32, bool, f64, f64, f64)> = t
        .all_events()
        .filter_map(|e| match *e {
            Event::ValidationVerdict {
                component: "card_estimator",
                version,
                promoted,
                candidate_score,
                incumbent_score,
                baseline_score,
                ..
            } => Some((version, promoted, candidate_score, incumbent_score, baseline_score)),
            _ => None,
        })
        .collect();
    assert_eq!(verdicts.len(), 2, "retrain + sabotage must both be judged");
    let (v, promoted, cand, inc, base) = verdicts[0];
    assert_eq!((v, promoted), (1, true));
    assert_eq!((cand, inc, base), (r.candidate_score, r.incumbent_score, r.baseline_score));
    let (v, promoted, cand, ..) = verdicts[1];
    assert_eq!((v, promoted), (2, false));
    assert_eq!(cand, r.sabotage_score);
}

#[test]
fn trace_records_promotion_with_generation() {
    let _s = obs::serial();
    let (t, _) = recovery_trace();
    assert!(
        t.all_events().any(|e| matches!(
            e,
            Event::Promotion { component: "card_estimator", version: 1, generation: 1 }
        )),
        "the honest retrain's promotion must be in the trace"
    );
    assert_eq!(t.metrics.counter("lifecycle.promotions"), 1);
}

#[test]
fn trace_records_gate_rejection_as_rollback() {
    let _s = obs::serial();
    let (t, _) = recovery_trace();
    assert!(
        t.all_events().any(|e| matches!(
            e,
            Event::Rollback {
                component: "card_estimator",
                from_version: 2,
                reason: "gate_rejected",
                ..
            }
        )),
        "the sabotaged candidate's rejection must be in the trace"
    );
    assert_eq!(t.metrics.counter("lifecycle.rejections"), 1);
}

