//! # ml4db-plan — queries, plans, cost, enumeration, hints, execution
//!
//! The query-optimization substrate: the SPJ [`query::Query`] model, binary
//! physical [`plan::PlanNode`] trees, the formula [`cost::CostModel`] with
//! tunable R-params, the classical and true [`card`] cardinality sources,
//! the System R-style [`enumerate::Planner`] (DP / greedy / random
//! sampling) with Bao-style [`hints::HintSet`] support, and the
//! [`executor`] that lowers plans onto `ml4db-storage` with simulated
//! latencies and timeouts.
//!
//! This is the "expert optimizer" of the tutorial's paradigm discussion:
//! the replacement methods (Neo, RTOS) search against it, and the
//! ML-enhanced methods (Bao, LEON, ParamTree) steer or recalibrate it.

#![warn(missing_docs)]

pub mod cache;
pub mod card;
pub mod cost;
pub mod enumerate;
pub mod executor;
pub mod hints;
pub mod plan;
pub mod query;

pub use cache::{epoch_of, CacheKey, PlanCache};
pub use card::{sanitize_card, CardEstimator, ClassicEstimator, TrueCardinality, MAX_CARD};
pub use cost::CostModel;
pub use enumerate::{PlanShape, Planner, MAX_DP_TABLES};
pub use executor::{
    execute, execute_columnar, execute_columnar_with_timeout, execute_summary,
    execute_summary_with_timeout, ColumnarResult, ExecResult, ExecSummary,
};
pub use hints::{all_hint_sets, bao_arms, HintSet};
pub use plan::{JoinAlgo, PlanNode, PlanOp, ScanAlgo};
pub use query::{JoinEdge, Query, TablePredicate, TableRef};
