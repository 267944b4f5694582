//! Properties of [`CircuitBreaker::guarded_call`], the one guarded-call
//! protocol: for random scripts of learned outcomes, what is served, what
//! is run and what the breaker counts all follow from a small reference
//! model of the three-state machine.

use std::cell::Cell;

use ml4db_guard::{BreakerConfig, BreakerState, CircuitBreaker, Judged, TripReason};
use proptest::prelude::*;

/// What the scripted learned side does on one call.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Outcome {
    Panic,
    Invalid,
    OutOfBand,
    Clean,
    Unjudged,
}

const OUTCOMES: [Outcome; 5] = [
    Outcome::Panic,
    Outcome::Invalid,
    Outcome::OutOfBand,
    Outcome::Clean,
    Outcome::Unjudged,
];

/// The reference fold: the breaker's state machine over one outcome,
/// returning whether the call is served by the classical side.
#[derive(Debug)]
struct Model {
    cfg: BreakerConfig,
    state: BreakerState,
    failures: u32,
    opened_for: u32,
    probation_ok: u32,
    calls: u64,
    fallbacks: u64,
    trips: u64,
}

impl Model {
    fn step(&mut self, outcome: Outcome) -> bool {
        self.calls += 1;
        let shadow = match self.state {
            BreakerState::Open => {
                self.fallbacks += 1;
                self.opened_for += 1;
                if self.opened_for >= self.cfg.open_calls {
                    (self.state, self.probation_ok) = (BreakerState::HalfOpen, 0);
                }
                return true;
            }
            BreakerState::HalfOpen => true,
            BreakerState::Closed => false,
        };
        self.fallbacks += u64::from(shadow);
        match outcome {
            Outcome::Unjudged => shadow,
            Outcome::Clean if shadow => {
                self.probation_ok += 1;
                if self.probation_ok >= self.cfg.probation_successes {
                    (self.state, self.failures) = (BreakerState::Closed, 0);
                }
                true
            }
            Outcome::Clean => {
                self.failures = 0;
                false
            }
            Outcome::Panic | Outcome::Invalid | Outcome::OutOfBand => {
                self.fallbacks += 1;
                self.failures += u32::from(!shadow);
                if shadow || self.failures >= self.cfg.failure_budget {
                    (self.state, self.opened_for, self.probation_ok) = (BreakerState::Open, 0, 0);
                    self.trips += 1;
                }
                true
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn guarded_call_follows_the_reference_fold(
        failure_budget in 1u32..5,
        open_calls in 1u32..6,
        probation_successes in 1u32..4,
        hand_back in 0u8..2,
        script in proptest::collection::vec(0usize..5, 1..200),
    ) {
        let cfg = BreakerConfig { failure_budget, open_calls, probation_successes };
        let breaker = CircuitBreaker::new(cfg);
        let mut model = Model {
            cfg,
            state: BreakerState::Closed,
            failures: 0,
            opened_for: 0,
            probation_ok: 0,
            calls: 0,
            fallbacks: 0,
            trips: 0,
        };
        for (i, &o) in script.iter().enumerate() {
            let outcome = OUTCOMES[o];
            // Distinct per call and per side, so a served value names its
            // origin.
            let (classical, learned) = (2 * i as u64, 2 * i as u64 + 1);
            let was_open = breaker.state() == BreakerState::Open;
            let (classical_runs, learned_runs) = (Cell::new(0u32), Cell::new(0u32));
            let served = breaker.guarded_call(
                || {
                    classical_runs.set(classical_runs.get() + 1);
                    classical
                },
                || {
                    learned_runs.set(learned_runs.get() + 1);
                    assert!(outcome != Outcome::Panic, "scripted learned panic");
                    learned
                },
                // A judge as the wrappers write them: a failed audit may
                // hand the classical answer back, a clean shadow call
                // serves the classical side.
                |answer, shadow| match outcome {
                    Outcome::Panic => unreachable!("the judge never sees a panicked call"),
                    Outcome::Invalid => Judged::Failed(TripReason::InvalidOutput, None),
                    Outcome::OutOfBand => Judged::Failed(
                        TripReason::OutOfBand,
                        (hand_back == 1).then_some(classical),
                    ),
                    Outcome::Clean => Judged::Clean(if shadow { classical } else { answer }),
                    Outcome::Unjudged => Judged::Unjudged(answer),
                },
            );
            let serves_classical = model.step(outcome);
            prop_assert_eq!(served, if serves_classical { classical } else { learned });
            prop_assert_eq!(learned_runs.get(), u32::from(!was_open));
            prop_assert!(classical_runs.get() <= 1);
            prop_assert_eq!(breaker.state(), model.state);
        }
        prop_assert_eq!(breaker.calls(), model.calls);
        prop_assert_eq!(breaker.fallbacks(), model.fallbacks);
        prop_assert_eq!(breaker.trips(), model.trips);
    }
}
