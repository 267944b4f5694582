//! # ml4db-optimizer — learned and ML-enhanced query optimizers
//!
//! Both sides of the tutorial's paradigm discussion for the query
//! optimizer (§3.2):
//!
//! **Replacement** — the learned optimizer line:
//! * [`dq::Dq`] — tabular Q-learning join ordering (the historical start);
//! * [`neo::Neo`] — value-network plan search bootstrapped from expert
//!   demonstrations (first end-to-end learned optimizer);
//! * [`rtos::Rtos`] — TreeLSTM join ordering with the cost-then-latency
//!   training curriculum;
//! * [`balsa::Balsa`] — learning *without* expert demonstrations via
//!   simulation-to-reality transfer and timeout-guarded safe execution.
//!
//! **ML-enhanced** — the expert stays in charge:
//! * [`bao::Bao`] — hint-set selection as a contextual bandit with Thompson
//!   sampling (deployed at Microsoft per the tutorial);
//! * [`autosteer::AutoSteer`] — dynamic per-query hint-set discovery;
//! * [`leon::Leon`] — mixed expert+learned pairwise ranking with fallback;
//! * [`paramtree::ParamTree`] — tuning the formula cost model's R-params
//!   from observed executions instead of replacing it.
//!
//! [`env::Env`] is the shared optimization environment; [`harness`] has the
//! tail-latency/regression evaluation used by experiments E7–E11 and E16,
//! plus [`harness::run_shift_recovery`] — the model-lifecycle loop that
//! degrades, retrains, gates, and re-promotes a learned component under
//! the `ml4db-datagen` shift-injection scenarios.

#![warn(missing_docs)]

pub mod autosteer;
pub mod balsa;
pub mod bao;
pub mod dq;
pub mod env;
pub mod harness;
pub mod leon;
pub mod neo;
pub mod paramtree;
pub mod rtos;

pub use autosteer::{discover_hint_sets, AutoSteer};
pub use balsa::Balsa;
pub use bao::Bao;
pub use dq::Dq;
pub use env::{plan_features, Env, SessionView, PLAN_FEATURE_DIM};
pub use harness::{
    dedup_by_fingerprint, evaluate, run_shift_recovery, split_seen_unseen, EvalReport, ReportRow,
    ShiftRecoveryConfig, ShiftRecoveryReport,
};
pub use leon::Leon;
pub use neo::Neo;
pub use paramtree::{
    collect_observations, collect_observations_diverse, fit_r_params, Observation, ParamTree,
};
pub use rtos::Rtos;
