//! # ml4db-guard — circuit-breaker guardrails for every learned component
//!
//! The tutorial's open-problem list puts **robustness** first: learned
//! database components fail silently (stale models after workload shift),
//! loudly (NaN estimates, out-of-bound index predictions), or expensively
//! (steering into catastrophic plans). This crate makes every learned
//! component in the repo *safe to deploy* by running it side-by-side with
//! its classical counterpart behind a deterministic circuit breaker.
//!
//! This is the tutorial's paradigm argument as an API. A **replacement**
//! component answers alone; an **ML-enhanced** component wraps a classical
//! one and only overrides it inside a guardrail — when the learned answer
//! is invalid, disagrees too wildly or the model has lost trust, the
//! classical answer wins. The pattern is written once, as
//! [`CircuitBreaker::guarded_call`]: run the learned side beside the
//! classical one, hand its answer to a *judge*, serve the classical answer
//! whenever the judgement fails. Each wrapper below is that call plus its
//! own judge; the optimizer crate's LEON/Bao follow the same shape for
//! planning.
//!
//! * [`breaker`] — the Closed → Open → HalfOpen state machine, driven
//!   purely by call counts (no clocks) so every run is reproducible, and
//!   the guarded-call protocol with its audit schedule;
//! * [`estimator`] — guarded cardinality estimation: plausibility bands
//!   vs the classical estimator, drift-detector integration, and
//!   rebaseline-driven re-admission;
//! * [`index_guard`] — guarded 1-D learned indexes: miss cross-checks,
//!   range invariants, scheduled audits, panic containment;
//! * [`spatial_guard`] — guarded learned spatial indexes: range audits
//!   and a kNN recall floor against the exact R-tree;
//! * [`steering`] — guarded plan steering with a per-query latency
//!   budget enforced by `Env::run_with_timeout`;
//! * [`chaos`] — the deterministic fault-injection harness that proves
//!   the above: nine failure modes, each one probe loop over whichever
//!   object answers — the raw learned component or its guard — with a
//!   seeded byte-stable report;
//! * [`diskchaos`] — the same proof for the durable storage tier: a
//!   crash at every I/O operation, each recovery checked one way;
//! * [`lifecycle`] — the link from a tripped breaker to the model
//!   registry's rollback.
//!
//! The faults aimed at the autonomous controller itself live beside the
//! harness that drives them, in `ml4db_ctl::chaos`.
//!
//! The design invariant throughout: **a tripped guard costs nothing** —
//! while Open, the guarded component behaves exactly like its classical
//! baseline — and **trust must be earned** — audits are dense for young
//! and probationary models, sparse once sustained agreement is observed.

#![warn(missing_docs)]

pub mod breaker;
pub mod chaos;
pub mod diskchaos;
pub mod estimator;
pub mod index_guard;
pub mod lifecycle;
pub mod spatial_guard;
pub mod steering;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, Judged, TripReason};
pub use chaos::{run_all, run_scenario, Fault, ScenarioReport};
pub use diskchaos::{DiskFault, DiskScenarioReport};
pub use estimator::GuardedCardEstimator;
pub use lifecycle::LifecycleLink;
pub use index_guard::GuardedIndex;
pub use spatial_guard::{GuardedSpatial, SpatialModel};
pub use steering::{GuardedSteering, SteeringPolicy};
