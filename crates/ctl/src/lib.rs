//! Autonomous do-no-harm DBA controller.
//!
//! This crate closes the loop the rest of the workspace left open: the
//! observability layer distills serving traffic into sealed
//! [`HealthSnapshot`]s, and here a controller reads one snapshot per
//! epoch and decides among a fixed action vocabulary — retrain the
//! cardinality model (behind the validation gate), roll back to the
//! last-good version, rebuild a stale index, flip the plan-steering
//! arm, flush the plan cache, tighten admission. Do-no-harm is
//! structural, not aspirational: every action routes through the
//! existing guarded interface, so a failed validation is a logged
//! no-op, a rollback can only land on last-good, and arm flips only
//! move toward the full-hint expert arm.
//!
//! The pieces:
//!
//! - [`controller`] — the [`Controller`] trait, the guarded
//!   [`RuleController`], the [`NoopController`] and change-point
//!   [`OracleController`] baselines, and the deliberately broken
//!   [`NaiveController`] negative control (trusts unsealed evidence,
//!   forges gate scores, flips arms blindly).
//! - [`world`] — the seeded closed-loop harness: each zoo scenario
//!   serves its training regime, then the shift lands and the
//!   controller either recovers (rebuild + gated retrain) or provably
//!   does nothing harmful. Every decision is journaled to a simulated
//!   disk before and after execution, so crash-mid-action is a
//!   recoverable, tested path.
//! - [`log`] — the canonical decision log, byte-identical across
//!   `ML4DB_THREADS`.
//! - [`report`] — the standing ctl-vs-noop-vs-oracle matrix behind
//!   `BENCH_ctl.json`.
//! - [`chaos`] — the controller-targeted fault vocabulary: lying
//!   sensors, sensor blackout, poisoned retraining data, a gate that
//!   rejects everything, actuator transients, action storms, and
//!   crash-mid-action. The root `tests/ctl_chaos.rs` suite drives every
//!   family and checks that the guarded controller never does worse than
//!   no-op under any of them — and that at least three of those families
//!   demonstrably wreck the naive controller.
//!
//! [`HealthSnapshot`]: ml4db_obs::HealthSnapshot
//! [`Controller`]: controller::Controller
//! [`RuleController`]: controller::RuleController
//! [`NoopController`]: controller::NoopController
//! [`OracleController`]: controller::OracleController
//! [`NaiveController`]: controller::NaiveController

pub mod chaos;
pub mod controller;
pub mod log;
pub mod report;
pub mod world;

pub use controller::{
    Action, Controller, CtlView, Decision, NaiveController, NoopController, OracleController,
    RuleController, COMPONENT, INDEX,
};
pub use log::{DecisionLog, DecisionRecord};
pub use report::{run_ctl_matrix, CtlCell, CtlMatrixReport};
pub use world::{run_world, CtlWorldConfig, WorldReport, ARMS};
