//! Golden-trace snapshot tests: the canonical JSON trace of two fixed
//! scenarios is snapshotted byte-for-byte under `tests/golden/` and any
//! structural drift — an added, removed, reordered, or renumbered event;
//! a changed metric — fails the suite.
//!
//! * `clean_cache_hit.json` — the happy path: `evaluate` over a
//!   fingerprint-distinct demo workload with the expert planner, so every
//!   query shows the expert-latency miss→plan→execute flow and a
//!   plan-cache hit.
//! * `guarded_trip.json` — the chaos path: the NaN-estimates fault under
//!   guard, tripping the `card_estimator` breaker with per-query fallback
//!   and transition events.
//!
//! Regenerate deliberately with `ML4DB_BLESS=1 cargo test --test
//! trace_golden`. The snapshots contain only the canonical channel —
//! wall-clock lives in the `"nondeterministic"` side channel, which
//! [`ml4db_core::obs::strip_nondeterministic`] removes and these tests
//! verify stays out.
//!
//! The presence tests below are the tentpole's tamper-wire: deleting any
//! instrumented event class (cache hit/miss, plan choice, per-operator
//! cardinality, guard trip, drift verdict, query report) fails a test
//! *named for it*, independent of the snapshot files.

mod common;

use common::check_golden;
use ml4db_core::guard::{run_scenario, Fault};
use ml4db_core::obs;
use ml4db_core::obs::{Event, Trace};
use ml4db_core::optimizer::{dedup_by_fingerprint, discover_hint_sets, evaluate, Env};
use ml4db_core::par;
use ml4db_core::prelude::*;

/// Scenario 1: a clean evaluation pass with the expert planner over
/// fingerprint-distinct queries — plan-cache hits, no guard activity.
fn clean_cache_hit_trace() -> Trace {
    let db = demo_database(100, 41);
    let queries = dedup_by_fingerprint(demo_workload(&db, 10, 42));
    assert!(queries.len() >= 6, "workload collapsed under dedup");
    let env = Env::new(&db);
    let _g = obs::ModeGuard::collect();
    let _report = evaluate(&env, &queries, |env, q| env.expert_plan(q));
    obs::take_trace()
}

/// Scenario 2: the NaN-estimates chaos fault under guard — the
/// `card_estimator` breaker trips and serves classical.
fn guarded_trip_trace() -> Trace {
    let _g = obs::ModeGuard::collect();
    let report = run_scenario(Fault::NanEstimates, true, 7);
    assert!(report.tripped, "scenario must trip the breaker: {report:?}");
    assert!(report.passes(), "guarded scenario must pass: {report:?}");
    obs::take_trace()
}

#[test]
fn golden_clean_cache_hit_path() {
    let _s = obs::serial();
    check_golden("clean_cache_hit.json", &clean_cache_hit_trace().canonical_string());
}

#[test]
fn golden_guarded_trip_scenario() {
    let _s = obs::serial();
    check_golden("guarded_trip.json", &guarded_trip_trace().canonical_string());
}

#[test]
fn golden_traces_byte_identical_across_thread_counts() {
    let _s = obs::serial();
    let at = |threads: usize| -> (String, String) {
        par::with_threads(threads, || {
            (clean_cache_hit_trace().canonical_string(), guarded_trip_trace().canonical_string())
        })
    };
    let one = at(1);
    for threads in [4, 8] {
        assert_eq!(at(threads), one, "golden scenario diverged at {threads} threads");
    }
}

/// Regression: a Bao / AutoSteer decision made under `with_query` keeps
/// every event it emits under that query at any pool size. The query
/// context is thread-local, so this fails as soon as an arm sweep or a
/// hint-set probe fans out over `par_map` again: the workers' `PlanChosen`
/// / `CacheLookup` events land in `global`, and only when the pool has
/// more than one thread.
#[test]
fn serial_arm_sweeps_keep_trace_attribution_at_any_thread_count() {
    let _s = obs::serial();
    let db = demo_database(100, 41);
    let queries = demo_workload(&db, 3, 42);
    let (bao, _) = train_bao(&db, &queries, 43);
    let at = |threads: usize| -> String {
        let env = Env::new(&db);
        let _g = obs::ModeGuard::collect();
        par::with_threads(threads, || {
            for q in &queries {
                obs::with_query(q.fingerprint(), || {
                    bao.choose_greedy(&env, q);
                    discover_hint_sets(&env, q);
                });
            }
        });
        let trace = obs::take_trace();
        assert!(
            trace.global.is_empty(),
            "{} events lost their query at {threads} threads",
            trace.global.len()
        );
        assert!(trace.count_kind("plan_chosen") > 0, "the decisions emitted nothing");
        trace.canonical_string()
    };
    assert_eq!(at(1), at(4), "decision trace depends on the thread count");
}

// ---------------------------------------------------------------------------
// Named presence tests: one per instrumented event class
// ---------------------------------------------------------------------------

#[test]
fn trace_records_cache_hits_and_misses() {
    let _s = obs::serial();
    let t = clean_cache_hit_trace();
    let mut hits = 0usize;
    let mut misses = 0usize;
    for e in t.all_events() {
        if let Event::CacheLookup { hit, .. } = e {
            if *hit {
                hits += 1;
            } else {
                misses += 1;
            }
        }
    }
    assert!(misses > 0, "cold caches must record misses");
    assert!(hits > 0, "the expert planner path must record plan-cache hits");
    assert_eq!(t.metrics.counter("plan_cache.hit") as usize + t.metrics.counter("plan_cache.miss") as usize + t.metrics.counter("expert_latency.hit") as usize + t.metrics.counter("expert_latency.miss") as usize, hits + misses);
}

#[test]
fn trace_records_plan_choice_per_query() {
    let _s = obs::serial();
    let t = clean_cache_hit_trace();
    for qid in t.query_ids() {
        assert!(
            t.events_for(qid).iter().any(|e| matches!(e, Event::PlanChosen { .. })),
            "query {qid:016x} has no plan_chosen event"
        );
    }
}

#[test]
fn trace_records_per_operator_cardinality() {
    let _s = obs::serial();
    let t = clean_cache_hit_trace();
    assert!(t.count_kind("operator") > 0, "no per-operator events recorded");
    for qid in t.query_ids() {
        let ops: Vec<_> = t
            .events_for(qid)
            .iter()
            .filter_map(|e| match *e {
                Event::Operator { op, est_rows, actual_us, .. } => {
                    Some((op, est_rows, actual_us))
                }
                _ => None,
            })
            .collect();
        assert!(!ops.is_empty(), "query {qid:016x} executed with no operator events");
        for (op, est_rows, actual_us) in ops {
            assert!(est_rows.is_finite() && est_rows >= 0.0, "{op}: bad estimate {est_rows}");
            assert!(actual_us >= 0.0, "{op}: negative operator latency");
        }
    }
}

#[test]
fn trace_records_execution_and_query_reports() {
    let _s = obs::serial();
    let t = clean_cache_hit_trace();
    let n = t.query_ids().len();
    // Two executions per query: one inside the expert-latency baseline,
    // one for the evaluated plan.
    assert_eq!(t.count_kind("executed"), 2 * n, "every execution must record an event");
    assert_eq!(t.count_kind("query_report"), n, "every query must record a report row");
    assert_eq!(t.count_kind("expert_latency"), n, "every query must record its baseline");
}

#[test]
fn trace_records_guard_trip_with_component_and_reason() {
    let _s = obs::serial();
    let t = guarded_trip_trace();
    let trips: Vec<_> = t
        .all_events()
        .filter_map(|e| match *e {
            Event::GuardTransition { component, from, to, reason } if to == "open" => {
                Some((component, from, reason))
            }
            _ => None,
        })
        .collect();
    assert!(!trips.is_empty(), "the NaN fault must record a breaker trip");
    assert!(
        trips.iter().any(|&(c, f, r)| c == "card_estimator" && f == "closed" && r == "invalid_output"),
        "expected a closed→open card_estimator trip on invalid_output, got {trips:?}"
    );
    assert!(t.metrics.counter("guard.trips") >= 1);
}

#[test]
fn trace_records_guard_fallbacks_with_reasons() {
    let _s = obs::serial();
    let t = guarded_trip_trace();
    let fallbacks = t
        .all_events()
        .filter(|e| {
            matches!(
                e,
                Event::GuardFallback { component: "card_estimator", reason: "invalid_output" }
            )
        })
        .count();
    assert!(fallbacks > 0, "judged NaN estimates must record fallback events");
    assert_eq!(t.metrics.counter("guard.fallbacks") as usize, t.count_kind("guard_fallback"));
}

#[test]
fn trace_records_drift_verdicts() {
    let _s = obs::serial();
    // Drift verdicts ride the feedback path, not the chaos scenario:
    // feed a guarded estimator ground truth directly.
    use ml4db_core::guard::GuardedCardEstimator;
    use ml4db_core::plan::{CardEstimator, ClassicEstimator};

    let db = demo_database(80, 43);
    let queries = dedup_by_fingerprint(demo_workload(&db, 4, 44));
    let q = &queries[0];
    let _g = obs::ModeGuard::collect();
    let guarded = GuardedCardEstimator::new(ClassicEstimator, 8.0);
    let truth = ClassicEstimator.estimate(&db, q, 0b11);
    for _ in 0..4 {
        guarded.observe_truth(&db, q, 0b11, truth.max(1.0));
    }
    let t = obs::take_trace();
    let verdicts = t
        .all_events()
        .filter(|e| matches!(e, Event::DriftVerdict { component: "card_estimator", .. }))
        .count();
    assert_eq!(verdicts, 4, "each ground-truth observation must record a drift verdict");
    assert_eq!(t.metrics.counter("drift.stable") + t.metrics.counter("drift.fired"), 4);
}

// ---------------------------------------------------------------------------
// Canonicalization invariants
// ---------------------------------------------------------------------------

#[test]
fn full_trace_strips_to_canonical() {
    let _s = obs::serial();
    let t = clean_cache_hit_trace();
    let mut full = t.to_json();
    assert!(
        full.to_string().contains(obs::NONDETERMINISTIC_KEY),
        "full trace must carry the wall-clock side channel"
    );
    obs::strip_nondeterministic(&mut full);
    assert_eq!(full.to_string(), t.canonical_string());
    assert!(!t.canonical_string().contains("total_ns"));
}

#[test]
fn rendered_trace_reads_like_explain_analyze() {
    let _s = obs::serial();
    let t = clean_cache_hit_trace();
    let rendered = t.render();
    assert!(rendered.contains("plan_chosen"), "{rendered}");
    assert!(rendered.contains("actual_rows="), "{rendered}");
    assert!(rendered.contains("expert baseline"), "{rendered}");
}
