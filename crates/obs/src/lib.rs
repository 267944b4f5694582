//! # ml4db-obs — deterministic observability for learned database components
//!
//! The tutorial's deployment argument is blunt: a learned component you
//! cannot inspect is a component you cannot ship. This crate is the
//! inspection substrate for the whole workspace — a [`MetricsRegistry`]
//! of counters and histograms whose merge is associative across
//! `ml4db-par` worker shards, and a structured per-query [`Trace`] that
//! records, EXPLAIN-ANALYZE style, everything the planner, executor,
//! cache, and guards did for each query: plan chosen, per-operator
//! estimated vs actual cardinality and cost, cache hits and misses,
//! circuit-breaker state transitions with reasons, and drift-detector
//! verdicts.
//!
//! ## Determinism contract
//!
//! The canonical trace ([`Trace::to_canonical_json`]) is a **pure
//! function of the workload**: events are ordered by logical call-count
//! clocks (their position in the per-query event list), never by wall
//! time, and metrics use only associative/commutative accumulators. The
//! same workload therefore produces byte-identical canonical traces for
//! `ML4DB_THREADS=1` and any other thread count — with one documented
//! caveat: the workload's queries must be pairwise-distinct by
//! fingerprint, because duplicate queries race benignly on the plan
//! cache and expert-latency memo, which makes *hit/miss attribution*
//! (not results) schedule-dependent.
//!
//! Wall-clock timings do exist — [`span`] aggregates them per span name
//! — but only inside the trace's clearly-marked `"nondeterministic"`
//! side channel, which golden tests strip via
//! [`strip_nondeterministic`].
//!
//! ## Modes and overhead
//!
//! Collection is off by default: every instrumentation site is gated on
//! one relaxed atomic load, so the instrumented hot paths stay within
//! the ≤5 % overhead budget when nothing is listening.
//!
//! * [`Mode::Disabled`] — the default; emit sites cost one atomic load.
//! * [`Mode::Noop`] — events are **constructed and counted, then
//!   dropped**. This is the honest overhead-measurement mode: it pays
//!   full event-construction cost without collection cost, and
//!   [`noop_events`] proves the sites actually fired.
//! * [`Mode::Collect`] — events and metrics accumulate in the global
//!   collector until [`take_trace`] drains them.
//!
//! ```
//! use ml4db_obs as obs;
//!
//! let _g = obs::ModeGuard::collect();
//! obs::with_query(0xfeed, || {
//!     obs::emit(obs::Event::CacheLookup { cache: "plan_cache", hit: false });
//!     obs::counter_add("plan_cache.miss", 1);
//! });
//! let trace = obs::take_trace();
//! assert_eq!(trace.query_ids(), vec![0xfeed]);
//! assert_eq!(trace.metrics.counter("plan_cache.miss"), 1);
//! ```

#![warn(missing_docs)]

pub mod digest;
pub mod health;
pub mod metrics;
pub mod trace;

pub use digest::debug_bits;
pub use health::{HealthSnapshot, SealedSnapshot, TenantCounters};
pub use metrics::{Histogram, MetricsRegistry};
pub use trace::{strip_nondeterministic, Event, Trace, WallStat, NONDETERMINISTIC_KEY};

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use trace::COLLECTOR;

/// What the global sink does with emitted events. See the crate docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Ignore everything; emit sites cost one relaxed atomic load.
    Disabled,
    /// Construct and count events, then drop them (overhead measurement).
    Noop,
    /// Accumulate events and metrics until [`take_trace`].
    Collect,
}

static MODE: AtomicU8 = AtomicU8::new(0);
static NOOP_EVENTS: AtomicU64 = AtomicU64::new(0);

fn mode_from_u8(v: u8) -> Mode {
    match v {
        1 => Mode::Noop,
        2 => Mode::Collect,
        _ => Mode::Disabled,
    }
}

fn mode_to_u8(m: Mode) -> u8 {
    match m {
        Mode::Disabled => 0,
        Mode::Noop => 1,
        Mode::Collect => 2,
    }
}

/// Sets the sink mode, returning the previous one. Prefer [`ModeGuard`]
/// in tests so a panic cannot leak a mode into the next test.
pub fn set_mode(m: Mode) -> Mode {
    mode_from_u8(MODE.swap(mode_to_u8(m), Ordering::SeqCst))
}

/// The current sink mode.
pub fn mode() -> Mode {
    mode_from_u8(MODE.load(Ordering::Relaxed))
}

/// True when emit sites should construct events (Noop or Collect).
#[inline]
pub fn active() -> bool {
    MODE.load(Ordering::Relaxed) != 0
}

/// True when events are being accumulated for [`take_trace`].
#[inline]
pub fn collecting() -> bool {
    MODE.load(Ordering::Relaxed) == 2
}

/// Events constructed-and-dropped while in [`Mode::Noop`] — proof in
/// overhead tests that the instrumented sites actually fired.
pub fn noop_events() -> u64 {
    NOOP_EVENTS.load(Ordering::Relaxed)
}

/// RAII guard that installs a mode and restores the previous one on
/// drop (including panic unwinds).
pub struct ModeGuard {
    prev: Mode,
}

impl ModeGuard {
    /// Installs `m` until the guard drops.
    pub fn new(m: Mode) -> Self {
        Self { prev: set_mode(m) }
    }

    /// Shorthand for `ModeGuard::new(Mode::Collect)` that also clears
    /// any stale state so the next [`take_trace`] sees only this
    /// guard's window.
    pub fn collect() -> Self {
        let g = Self::new(Mode::Collect);
        COLLECTOR.clear();
        NOOP_EVENTS.store(0, Ordering::Relaxed);
        g
    }
}

impl Drop for ModeGuard {
    fn drop(&mut self) {
        set_mode(self.prev);
    }
}

/// Serializes users of the process-global collector: every test or
/// harness that switches the mode or drains a trace holds this guard so
/// concurrent test threads cannot interleave their event streams. Not
/// reentrant — never call something that takes it (`run_world`) while
/// holding it. Poisoning is recovered: a panicked holder must not wedge
/// the rest of the suite.
pub fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    static CURRENT_QUERY: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Runs `f` with `qid` (a query fingerprint) as the event-attribution
/// context on this thread. Nesting restores the outer context on exit,
/// including across panics.
pub fn with_query<R>(qid: u64, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<u64>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT_QUERY.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(CURRENT_QUERY.with(|c| c.replace(Some(qid))));
    f()
}

/// The query id events on this thread currently attribute to, if any.
pub fn current_query() -> Option<u64> {
    CURRENT_QUERY.with(Cell::get)
}

/// Emits an already-constructed event. For events whose construction
/// itself costs something (formatting, arithmetic), prefer
/// [`emit_with`] so the cost is only paid when the sink is active.
#[inline]
pub fn emit(ev: Event) {
    if !active() {
        return;
    }
    route(ev);
}

/// Emits the event produced by `f`, constructing it only when the sink
/// is active. This is the hot-path form: disabled cost is one relaxed
/// atomic load and a never-taken branch.
#[inline]
pub fn emit_with(f: impl FnOnce() -> Event) {
    if !active() {
        return;
    }
    route(f());
}

#[inline(never)]
fn route(ev: Event) {
    if collecting() {
        COLLECTOR.record_event(current_query(), ev);
    } else {
        // Noop: the event was constructed (full hot-path cost) and is
        // now dropped; count it so overhead tests can prove coverage.
        NOOP_EVENTS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Adds `n` to the global counter `name` (no-op unless collecting; in
/// Noop mode it counts as one constructed event).
#[inline]
pub fn counter_add(name: &'static str, n: u64) {
    if !active() {
        return;
    }
    if collecting() {
        COLLECTOR.with_metrics(|m| m.counter_add(name, n));
    } else {
        NOOP_EVENTS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Observes `v` into the global histogram `name`, created on first use
/// with 8 log10 decades of microsecond-scale buckets.
#[inline]
pub fn histogram_observe(name: &'static str, v: f64) {
    if !active() {
        return;
    }
    if collecting() {
        COLLECTOR.with_metrics(|m| m.histogram_observe(name, v, || Histogram::log10(8)));
    } else {
        NOOP_EVENTS.fetch_add(1, Ordering::Relaxed);
    }
}

/// A logical span: emits [`Event::SpanStart`] now and
/// [`Event::SpanEnd`] on drop, and — only while collecting — aggregates
/// the span's wall-clock duration into the trace's non-deterministic
/// side channel. The span events themselves carry no timing and are
/// part of the canonical trace.
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

/// Opens a [`SpanGuard`] named `name`.
pub fn span(name: &'static str) -> SpanGuard {
    emit(Event::SpanStart { name });
    let start = if collecting() { Some(Instant::now()) } else { None };
    SpanGuard { name, start }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            if collecting() {
                COLLECTOR.record_wall(self.name, start.elapsed().as_nanos());
            }
        }
        emit(Event::SpanEnd { name: self.name });
    }
}

/// Drains everything collected so far into a [`Trace`], leaving the
/// collector empty. Call while still in [`Mode::Collect`] (or after —
/// draining does not depend on the mode).
pub fn take_trace() -> Trace {
    COLLECTOR.drain()
}

/// Clears all collected state and the noop counter without changing the
/// mode.
pub fn reset() {
    COLLECTOR.clear();
    NOOP_EVENTS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_mode_collects_nothing() {
        let _s = serial();
        reset();
        emit(Event::CacheLookup { cache: "plan_cache", hit: true });
        counter_add("x", 1);
        let t = take_trace();
        assert!(t.queries.is_empty() && t.global.is_empty());
        assert!(t.metrics.is_empty());
    }

    #[test]
    fn noop_mode_counts_but_drops() {
        let _s = serial();
        {
            let _g = ModeGuard::collect();
            drop(ModeGuard::new(Mode::Noop));
        }
        let _g = ModeGuard::new(Mode::Noop);
        reset();
        emit(Event::CacheLookup { cache: "plan_cache", hit: true });
        emit_with(|| Event::Executed { latency_us: 1.0, rows: 2 });
        counter_add("x", 1);
        assert_eq!(noop_events(), 3);
        assert!(take_trace().metrics.is_empty());
    }

    #[test]
    fn collect_mode_routes_by_query_context() {
        let _s = serial();
        let _g = ModeGuard::collect();
        emit(Event::SpanStart { name: "outside" });
        with_query(42, || {
            emit(Event::CacheLookup { cache: "plan_cache", hit: false });
            with_query(43, || emit(Event::CacheLookup { cache: "plan_cache", hit: true }));
            // context restored after nesting
            emit(Event::Executed { latency_us: 9.0, rows: 1 });
        });
        assert_eq!(current_query(), None);
        let t = take_trace();
        assert_eq!(t.query_ids(), vec![42, 43]);
        assert_eq!(t.events_for(42).len(), 2);
        assert_eq!(t.events_for(43).len(), 1);
        assert_eq!(t.global, vec![Event::SpanStart { name: "outside" }]);
    }

    #[test]
    fn spans_put_wall_clock_only_in_side_channel() {
        let _s = serial();
        let _g = ModeGuard::collect();
        with_query(7, || {
            let _sp = span("evaluate");
        });
        let t = take_trace();
        assert_eq!(
            t.events_for(7),
            &[Event::SpanStart { name: "evaluate" }, Event::SpanEnd { name: "evaluate" }]
        );
        assert_eq!(t.wall.get("evaluate").map(|w| w.count), Some(1));
        // canonical rendering has no wall clock in it
        assert!(!t.canonical_string().contains("total_ns"));
        assert!(t.to_json().to_string().contains("total_ns"));
    }

    #[test]
    fn mode_guard_restores_on_drop() {
        let _s = serial();
        assert_eq!(mode(), Mode::Disabled);
        {
            let _g = ModeGuard::new(Mode::Collect);
            assert!(collecting());
            {
                let _h = ModeGuard::new(Mode::Noop);
                assert_eq!(mode(), Mode::Noop);
            }
            assert!(collecting());
        }
        assert_eq!(mode(), Mode::Disabled);
    }
}
