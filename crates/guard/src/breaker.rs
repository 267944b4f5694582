//! The circuit breaker at the heart of every guardrail: a three-state
//! machine (Closed → Open → HalfOpen) tracking a regression budget for a
//! learned component running side-by-side with its classical counterpart.
//!
//! Semantics follow the classical breaker pattern, adapted to be fully
//! deterministic: all transitions are driven by *call counts*, never by
//! wall-clock time, so a guarded run is a pure function of its inputs.
//!
//! * **Closed** — the learned component serves. Every judged failure
//!   (invalid output, out-of-band answer, latency blow-up, panic) consumes
//!   one unit of the failure budget; exhausting it trips the breaker.
//! * **Open** — the classical component serves alone; the learned one is
//!   not even invoked (this is the latency protection: a pathological
//!   model costs nothing while the breaker is open). After `open_calls`
//!   served calls the breaker moves to HalfOpen.
//! * **HalfOpen** — probation: the learned component runs again in shadow
//!   and is judged on every call. `probation_successes` consecutive clean
//!   calls close the breaker; a single failure re-opens it.
//!
//! A retrained/rebaselined model can skip the Open cooldown via
//! [`CircuitBreaker::begin_probation`], which jumps straight to HalfOpen.
//!
//! Every guarded wrapper drives the machine through one function,
//! [`CircuitBreaker::guarded_call`]: it dispatches, contains the learned
//! side's panics, hands the learned answer to the wrapper's *judge* and
//! turns the [`Judged`] verdict into the breaker record and the served
//! value. The crate-private `AuditSchedule` below is the shared "dense
//! while young, sparse once trusted" rule the index judges consult.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Breaker state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Learned component serves; failures consume the budget.
    Closed,
    /// Classical only; the learned component is not invoked.
    Open,
    /// Probation: learned runs in shadow and is judged on every call.
    HalfOpen,
}

impl BreakerState {
    /// Stable snake_case label used in trace events.
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// Why a breaker tripped (or a single call was rejected).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TripReason {
    /// The learned output was unusable: NaN, infinite, non-positive, or
    /// structurally invalid.
    InvalidOutput,
    /// The learned output disagreed with the classical answer beyond the
    /// configured plausibility band or failed an audit against it.
    OutOfBand,
    /// The drift detector flagged a distribution shift in the error
    /// stream.
    Drift,
    /// The learned choice exceeded its latency budget.
    LatencyRegression,
    /// The learned component panicked (caught at the guard boundary).
    Panic,
    /// A dependency ran out of a resource (disk space, I/O retries
    /// exhausted) and the caller must stop issuing work to it.
    ResourceExhausted,
}

impl TripReason {
    /// Stable snake_case label used in trace events.
    pub fn as_str(self) -> &'static str {
        match self {
            TripReason::InvalidOutput => "invalid_output",
            TripReason::OutOfBand => "out_of_band",
            TripReason::Drift => "drift",
            TripReason::LatencyRegression => "latency_regression",
            TripReason::Panic => "panic",
            TripReason::ResourceExhausted => "resource_exhausted",
        }
    }
}

/// Tunable breaker thresholds. All counts, no clocks.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Judged failures tolerated while Closed before tripping.
    pub failure_budget: u32,
    /// Calls served classical-only while Open before probation starts.
    pub open_calls: u32,
    /// Consecutive clean shadow calls required in HalfOpen to re-close.
    pub probation_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self { failure_budget: 3, open_calls: 16, probation_successes: 8 }
    }
}

/// What the caller should do for the current call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Run the learned component. When `shadow` is true the call is
    /// probationary: judge the learned answer but *serve* the classical
    /// one.
    UseLearned {
        /// Probationary call: judge learned, serve classical.
        shadow: bool,
    },
    /// Serve the classical component without invoking the learned one.
    UseClassical,
}

/// A judge's verdict on one learned answer, carrying the value to serve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Judged<T> {
    /// The answer was not checked on this call: serve it, record nothing.
    /// (On a shadow call nothing unchecked is served — classical answers.)
    Unjudged(T),
    /// The answer passed: record a success and serve this value — the
    /// learned answer, or the classical one on shadow and audited calls.
    Clean(T),
    /// The answer failed for this reason: record the failure and serve the
    /// classical answer — the one handed back if the judge already
    /// computed it, a fresh one otherwise.
    Failed(TripReason, Option<T>),
}

#[derive(Clone, Copy, Debug)]
struct Inner {
    state: BreakerState,
    /// Failures since the last clean call (Closed only).
    failures: u32,
    /// Calls served while Open.
    opened_for: u32,
    /// Consecutive clean calls in HalfOpen.
    probation_ok: u32,
    trips: u64,
    last_trip: Option<TripReason>,
    calls: u64,
    fallbacks: u64,
}

/// A deterministic, thread-safe circuit breaker.
///
/// Interior mutability keeps the guarded wrappers usable behind `&self`
/// trait interfaces ([`ml4db_plan::CardEstimator`],
/// [`ml4db_index::OrderedIndex`]). The internal mutex recovers from
/// poisoning — a panicking worker thread must never wedge the guardrail
/// that exists to contain panics (the state is a plain-old-data counter
/// block, always valid).
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    /// Component label carried on every trace event this breaker emits.
    name: &'static str,
    inner: Mutex<Inner>,
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        Self::new(BreakerConfig::default())
    }
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds and the generic
    /// component label; prefer [`CircuitBreaker::named`] so trace events
    /// say which guardrail moved.
    pub fn new(cfg: BreakerConfig) -> Self {
        Self::named("component", cfg)
    }

    /// A closed breaker whose trace events are labelled `name`.
    pub fn named(name: &'static str, cfg: BreakerConfig) -> Self {
        Self {
            cfg,
            name,
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                failures: 0,
                opened_for: 0,
                probation_ok: 0,
                trips: 0,
                last_trip: None,
                calls: 0,
                fallbacks: 0,
            }),
        }
    }

    /// The component label trace events carry.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Reports one state transition to the observability sink.
    fn observe_transition(&self, from: BreakerState, to: BreakerState, reason: &'static str) {
        ml4db_obs::emit_with(|| ml4db_obs::Event::GuardTransition {
            component: self.name,
            from: from.as_str(),
            to: to.as_str(),
            reason,
        });
        ml4db_obs::counter_add("guard.transitions", 1);
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The configuration in force.
    pub fn config(&self) -> BreakerConfig {
        self.cfg
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.lock().state
    }

    /// Number of times the breaker has tripped to Open.
    pub fn trips(&self) -> u64 {
        self.lock().trips
    }

    /// Reason for the most recent trip, if any.
    pub fn last_trip(&self) -> Option<TripReason> {
        self.lock().last_trip
    }

    /// Calls dispatched through [`CircuitBreaker::begin_call`].
    pub fn calls(&self) -> u64 {
        self.lock().calls
    }

    /// Calls where the classical answer was served (Open calls plus
    /// judged failures plus shadow calls).
    pub fn fallbacks(&self) -> u64 {
        self.lock().fallbacks
    }

    /// Fraction of calls answered by the classical component.
    pub fn fallback_rate(&self) -> f64 {
        let g = self.lock();
        if g.calls == 0 {
            0.0
        } else {
            g.fallbacks as f64 / g.calls as f64
        }
    }

    /// One guarded call — the ML-enhanced protocol every wrapper follows.
    ///
    /// While Open, `classical` answers and `learned` is never invoked.
    /// Otherwise `learned` runs under the guard's one `catch_unwind` (a
    /// panic is a [`TripReason::Panic`] failure) and `judge` rules on its
    /// answer; `shadow` tells the judge the call is probationary, so it
    /// must check the answer and serve the classical side. `classical` is
    /// run at most once, and only when the call needs an answer the judge
    /// did not supply.
    #[inline]
    pub fn guarded_call<L, T>(
        &self,
        classical: impl FnOnce() -> T,
        learned: impl FnOnce() -> L,
        judge: impl FnOnce(L, bool) -> Judged<T>,
    ) -> T {
        let shadow = match self.begin_call() {
            Decision::UseClassical => return classical(),
            Decision::UseLearned { shadow } => shadow,
        };
        let verdict = match catch_unwind(AssertUnwindSafe(learned)) {
            Ok(answer) => judge(answer, shadow),
            Err(_) => Judged::Failed(TripReason::Panic, None),
        };
        match verdict {
            Judged::Unjudged(answer) if !shadow => answer,
            Judged::Unjudged(_) => classical(),
            Judged::Clean(served) => {
                self.record_success();
                served
            }
            Judged::Failed(why, truth) => {
                self.record_failure(why);
                truth.unwrap_or_else(classical)
            }
        }
    }

    /// Starts one guarded call and returns the dispatch decision. While
    /// Open this also advances the cooldown counter; the call that
    /// exhausts it still serves classical, and the *next* one probes.
    pub fn begin_call(&self) -> Decision {
        let mut g = self.lock();
        g.calls += 1;
        match g.state {
            BreakerState::Closed => Decision::UseLearned { shadow: false },
            BreakerState::HalfOpen => {
                g.fallbacks += 1; // shadow calls serve classical
                Decision::UseLearned { shadow: true }
            }
            BreakerState::Open => {
                g.fallbacks += 1;
                g.opened_for += 1;
                if g.opened_for >= self.cfg.open_calls {
                    g.state = BreakerState::HalfOpen;
                    g.probation_ok = 0;
                    self.observe_transition(
                        BreakerState::Open,
                        BreakerState::HalfOpen,
                        "cooldown_elapsed",
                    );
                }
                Decision::UseClassical
            }
        }
    }

    /// Records a clean learned answer for the current call.
    pub fn record_success(&self) {
        let mut g = self.lock();
        match g.state {
            BreakerState::Closed => g.failures = 0,
            BreakerState::HalfOpen => {
                g.probation_ok += 1;
                if g.probation_ok >= self.cfg.probation_successes {
                    g.state = BreakerState::Closed;
                    g.failures = 0;
                    self.observe_transition(
                        BreakerState::HalfOpen,
                        BreakerState::Closed,
                        "probation_complete",
                    );
                }
            }
            BreakerState::Open => {}
        }
    }

    /// Records a judged failure; trips the breaker when the budget runs
    /// out (Closed) or immediately (HalfOpen).
    pub fn record_failure(&self, why: TripReason) {
        let mut g = self.lock();
        g.fallbacks += 1;
        ml4db_obs::emit_with(|| ml4db_obs::Event::GuardFallback {
            component: self.name,
            reason: why.as_str(),
        });
        ml4db_obs::counter_add("guard.fallbacks", 1);
        match g.state {
            BreakerState::Closed => {
                g.failures += 1;
                if g.failures >= self.cfg.failure_budget {
                    self.trip(&mut g, why);
                }
            }
            BreakerState::HalfOpen => self.trip(&mut g, why),
            BreakerState::Open => {}
        }
    }

    /// Trips straight to Open regardless of remaining budget — for
    /// model-level signals like drift detection.
    pub fn force_open(&self, why: TripReason) {
        let mut g = self.lock();
        if g.state != BreakerState::Open {
            self.trip(&mut g, why);
        }
    }

    /// Jumps to HalfOpen, skipping any remaining Open cooldown — the
    /// re-admission hook called after a model retrains or rebaselines.
    pub fn begin_probation(&self) {
        let mut g = self.lock();
        let from = g.state;
        g.state = BreakerState::HalfOpen;
        g.probation_ok = 0;
        if from != BreakerState::HalfOpen {
            self.observe_transition(from, BreakerState::HalfOpen, "rebaseline");
        }
    }

    /// Resets to a fresh Closed breaker (counters preserved only for
    /// `calls`/`fallbacks`/`trips` telemetry).
    pub fn reset(&self) {
        let mut g = self.lock();
        let from = g.state;
        g.state = BreakerState::Closed;
        g.failures = 0;
        g.opened_for = 0;
        g.probation_ok = 0;
        if from != BreakerState::Closed {
            self.observe_transition(from, BreakerState::Closed, "reset");
        }
    }

    fn trip(&self, g: &mut Inner, why: TripReason) {
        let from = g.state;
        g.state = BreakerState::Open;
        g.opened_for = 0;
        g.probation_ok = 0;
        g.trips += 1;
        g.last_trip = Some(why);
        self.observe_transition(from, BreakerState::Open, why.as_str());
        ml4db_obs::counter_add("guard.trips", 1);
    }
}

/// Audit every call for the first this-many learned calls.
const WARMUP_AUDITS: u64 = 16;
/// After warm-up, audit every this-many-th learned call.
const AUDIT_EVERY: u64 = 8;

/// When an index guard pays for a classical answer to check a learned one:
/// every call while trust is young (the first [`WARMUP_AUDITS`] learned
/// calls) or probationary (shadow), every [`AUDIT_EVERY`]-th call once the
/// model has earned sustained agreement — plus the counts of what the
/// audits found.
#[derive(Debug, Default)]
pub(crate) struct AuditSchedule {
    learned_calls: AtomicU64,
    audits: AtomicU64,
    mismatches: AtomicU64,
}

impl AuditSchedule {
    /// Counts one learned call and returns its 1-based number; called
    /// from the learned closure, so panicking calls count too.
    pub(crate) fn next_call(&self) -> u64 {
        self.learned_calls.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Whether learned call number `nth` must be audited.
    pub(crate) fn due(&self, nth: u64, shadow: bool) -> bool {
        shadow || nth <= WARMUP_AUDITS || nth.is_multiple_of(AUDIT_EVERY)
    }

    /// Counts one audit and rules on it: the audited call serves `truth`,
    /// the classical answer, whether or not the learned one `agreed`.
    pub(crate) fn audited<T>(&self, agreed: bool, truth: T) -> Judged<T> {
        self.audits.fetch_add(1, Ordering::Relaxed);
        if agreed {
            Judged::Clean(truth)
        } else {
            self.mismatches.fetch_add(1, Ordering::Relaxed);
            Judged::Failed(TripReason::OutOfBand, Some(truth))
        }
    }

    /// Audits performed.
    pub(crate) fn audits(&self) -> u64 {
        self.audits.load(Ordering::Relaxed)
    }

    /// Audits the learned answer failed.
    pub(crate) fn mismatches(&self) -> u64 {
        self.mismatches.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig { failure_budget: 2, open_calls: 3, probation_successes: 2 }
    }

    #[test]
    fn trips_after_budget_and_recovers_through_probation() {
        let b = CircuitBreaker::new(cfg());
        assert_eq!(b.state(), BreakerState::Closed);

        // Two failures exhaust the budget.
        assert_eq!(b.begin_call(), Decision::UseLearned { shadow: false });
        b.record_failure(TripReason::InvalidOutput);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.begin_call(), Decision::UseLearned { shadow: false });
        b.record_failure(TripReason::InvalidOutput);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        assert_eq!(b.last_trip(), Some(TripReason::InvalidOutput));

        // Open serves classical for `open_calls` calls, then HalfOpen.
        for _ in 0..3 {
            assert_eq!(b.begin_call(), Decision::UseClassical);
        }
        assert_eq!(b.state(), BreakerState::HalfOpen);

        // Two clean shadow calls close it again.
        assert_eq!(b.begin_call(), Decision::UseLearned { shadow: true });
        b.record_success();
        assert_eq!(b.begin_call(), Decision::UseLearned { shadow: true });
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn probation_failure_reopens_immediately() {
        let b = CircuitBreaker::new(cfg());
        b.force_open(TripReason::Drift);
        for _ in 0..3 {
            b.begin_call();
        }
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.begin_call();
        b.record_failure(TripReason::OutOfBand);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn success_restores_closed_budget() {
        let b = CircuitBreaker::new(cfg());
        b.begin_call();
        b.record_failure(TripReason::InvalidOutput);
        b.begin_call();
        b.record_success(); // budget resets
        b.begin_call();
        b.record_failure(TripReason::InvalidOutput);
        assert_eq!(b.state(), BreakerState::Closed, "budget should have reset");
    }

    #[test]
    fn begin_probation_skips_cooldown() {
        let b = CircuitBreaker::new(cfg());
        b.force_open(TripReason::Drift);
        b.begin_probation();
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn fallback_accounting() {
        let b = CircuitBreaker::new(cfg());
        b.begin_call();
        b.record_success();
        assert_eq!(b.fallback_rate(), 0.0);
        b.begin_call();
        b.record_failure(TripReason::Panic);
        assert!(b.fallback_rate() > 0.4);
        assert_eq!(b.calls(), 2);
    }

    #[test]
    fn survives_poisoned_lock() {
        let b = std::sync::Arc::new(CircuitBreaker::new(cfg()));
        let b2 = b.clone();
        let _ = std::thread::spawn(move || {
            let _g = b2.inner.lock().unwrap();
            panic!("poison the breaker lock");
        })
        .join();
        // A poisoned mutex must not wedge the guardrail.
        b.begin_call();
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }
}
