//! Guard state-transition tracing: a scripted fault sequence must produce
//! the *exact* ordered list of `guard_transition` events — component,
//! from-state, to-state, and reason all pinned — with fallback events and
//! metric counters matching.

use ml4db_guard::{BreakerConfig, BreakerState, CircuitBreaker, TripReason};
use ml4db_obs as obs;
use ml4db_obs::Event;

fn cfg() -> BreakerConfig {
    BreakerConfig { failure_budget: 2, open_calls: 3, probation_successes: 2 }
}

/// Every guard_transition in the trace, in emission order, as
/// `(component, from, to, reason)`.
fn transitions(trace: &obs::Trace) -> Vec<(&'static str, &'static str, &'static str, &'static str)> {
    trace
        .all_events()
        .filter_map(|e| match *e {
            Event::GuardTransition { component, from, to, reason } => {
                Some((component, from, to, reason))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn scripted_fault_walks_closed_open_halfopen_closed_exactly() {
    let _s = obs::serial();
    let _g = obs::ModeGuard::collect();
    let b = CircuitBreaker::named("card_estimator", cfg());

    // Two judged failures exhaust the budget and trip the breaker.
    b.begin_call();
    b.record_failure(TripReason::InvalidOutput);
    b.begin_call();
    b.record_failure(TripReason::InvalidOutput);
    assert_eq!(b.state(), BreakerState::Open);
    // Three classical-only calls elapse the cooldown.
    for _ in 0..3 {
        b.begin_call();
    }
    assert_eq!(b.state(), BreakerState::HalfOpen);
    // Two clean shadow calls complete probation.
    b.begin_call();
    b.record_success();
    b.begin_call();
    b.record_success();
    assert_eq!(b.state(), BreakerState::Closed);

    let trace = obs::take_trace();
    assert_eq!(
        transitions(&trace),
        vec![
            ("card_estimator", "closed", "open", "invalid_output"),
            ("card_estimator", "open", "half_open", "cooldown_elapsed"),
            ("card_estimator", "half_open", "closed", "probation_complete"),
        ],
        "transition sequence must match the scripted fault exactly"
    );
    // Each judged failure also records a fallback with its reason.
    let fallbacks = trace
        .all_events()
        .filter(|e| {
            matches!(
                e,
                Event::GuardFallback { component: "card_estimator", reason: "invalid_output" }
            )
        })
        .count();
    assert_eq!(fallbacks, 2);
    // Counters agree with the event stream.
    assert_eq!(trace.metrics.counter("guard.transitions"), 3);
    assert_eq!(trace.metrics.counter("guard.trips"), 1);
    assert_eq!(trace.metrics.counter("guard.fallbacks"), 2);
}

#[test]
fn probation_failure_reopens_with_its_own_reason() {
    let _s = obs::serial();
    let _g = obs::ModeGuard::collect();
    let b = CircuitBreaker::named("steering", cfg());

    b.force_open(TripReason::Drift);
    for _ in 0..3 {
        b.begin_call();
    }
    assert_eq!(b.state(), BreakerState::HalfOpen);
    // A single probation failure re-opens immediately.
    b.begin_call();
    b.record_failure(TripReason::OutOfBand);
    assert_eq!(b.state(), BreakerState::Open);

    assert_eq!(
        transitions(&obs::take_trace()),
        vec![
            ("steering", "closed", "open", "drift"),
            ("steering", "open", "half_open", "cooldown_elapsed"),
            ("steering", "half_open", "open", "out_of_band"),
        ]
    );
}

#[test]
fn rebaseline_and_reset_record_administrative_reasons() {
    let _s = obs::serial();
    let _g = obs::ModeGuard::collect();
    let b = CircuitBreaker::named("learned_index", cfg());

    b.force_open(TripReason::LatencyRegression);
    b.begin_probation(); // retrain hook: skip the cooldown
    b.reset(); // operator override: back to a fresh Closed breaker

    assert_eq!(
        transitions(&obs::take_trace()),
        vec![
            ("learned_index", "closed", "open", "latency_regression"),
            ("learned_index", "open", "half_open", "rebaseline"),
            ("learned_index", "half_open", "closed", "reset"),
        ]
    );
}

#[test]
fn transitions_attribute_to_the_query_in_flight() {
    let _s = obs::serial();
    let _g = obs::ModeGuard::collect();
    let b = CircuitBreaker::named("card_estimator", cfg());

    // The trip happens while query 0xabc's estimate is being judged, so
    // the transition must land in that query's event list.
    obs::with_query(0xabc, || {
        b.begin_call();
        b.record_failure(TripReason::InvalidOutput);
        b.begin_call();
        b.record_failure(TripReason::InvalidOutput);
    });
    let trace = obs::take_trace();
    assert!(trace.global.is_empty(), "events must attribute to the query context");
    let events = trace.events_for(0xabc);
    assert!(
        events.iter().any(|e| matches!(
            e,
            Event::GuardTransition { component: "card_estimator", to: "open", .. }
        )),
        "trip must be recorded under query 0xabc: {events:?}"
    );
}
