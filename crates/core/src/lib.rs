//! # ml4db-core — the umbrella crate
//!
//! One entry point over the whole workspace, organized along the
//! tutorial's three themes:
//!
//! * **Foundations** — plan representation ([`ml4db_repr`]) and
//!   pretrained/unified models ([`ml4db_pretrain`]);
//! * **Paradigms** — replacement vs ML-enhanced, on indexes
//!   ([`ml4db_index`], [`ml4db_spatial`]) and the query optimizer
//!   ([`ml4db_optimizer`]); [`ml4db_guard`] captures the ML-enhanced
//!   pattern itself (one guarded call, a judge per component);
//! * **Open problems** — model efficiency and drift ([`ml4db_card`]),
//!   training-data generation ([`ml4db_datagen`]), and deployment
//!   robustness ([`ml4db_guard`]: circuit-breaker fallbacks for every
//!   learned component, proven by deterministic fault injection;
//!   [`ml4db_lifecycle`]: versioned model registry with validation-gated
//!   promotion and auto-rollback under workload shift).
//!
//! [`pipeline`] has one-call end-to-end flows; [`matrix`] is the standing
//! evaluation matrix (every optimizer policy × every workload-zoo
//! scenario, scored against per-cell regression budgets); [`prelude`]
//! re-exports the common surface. The survey artifacts (Figure 1,
//! Table 1) live in [`ml4db_survey`].

#![warn(missing_docs)]

pub mod matrix;
pub mod pipeline;

pub use ml4db_card as card;
pub use ml4db_ctl as ctl;
pub use ml4db_datagen as datagen;
pub use ml4db_guard as guard;
pub use ml4db_index as index;
pub use ml4db_lifecycle as lifecycle;
pub use ml4db_nn as nn;
pub use ml4db_obs as obs;
pub use ml4db_optimizer as optimizer;
pub use ml4db_par as par;
pub use ml4db_plan as plan;
pub use ml4db_pretrain as pretrain;
pub use ml4db_repr as repr;
pub use ml4db_serve as serve;
pub use ml4db_spatial as spatial;
pub use ml4db_storage as storage;
pub use ml4db_survey as survey;

/// Curated re-exports for downstream users.
pub mod prelude {
    pub use crate::matrix::{run_matrix, MatrixConfig, MatrixReport, Policy};
    pub use crate::pipeline::{demo_database, demo_workload, train_bao};
    pub use ml4db_card::{MscnEstimator, NngpEstimator};
    pub use ml4db_datagen::{SchemaGraph, WorkloadConfig, WorkloadGenerator};
    pub use ml4db_guard::{
        BreakerState, CircuitBreaker, GuardedCardEstimator, GuardedIndex, GuardedSpatial,
        GuardedSteering, LifecycleLink,
    };
    pub use ml4db_lifecycle::{GateConfig, LifecycleState, ModelRegistry};
    pub use ml4db_index::{AlexIndex, BPlusTree, DynamicPgm, MutableIndex, OrderedIndex, PgmIndex, RadixSpline, Rmi};
    pub use ml4db_optimizer::{AutoSteer, Balsa, Bao, Env, Leon, Neo, ParamTree, Rtos};
    pub use ml4db_par::{par_map, par_map_indexed, with_threads};
    pub use ml4db_plan::{
        bao_arms, CardEstimator, ClassicEstimator, CostModel, HintSet, PlanCache, PlanNode,
        Planner, Query, TrueCardinality,
    };
    pub use ml4db_repr::{featurize_plan, CostRegressor, FeatureConfig, PlanEncoder, TreeModelKind};
    pub use ml4db_spatial::{AiRTree, GuttmanPolicy, LisaIndex, PlatonPacker, RTree, RsmiIndex, ZmIndex};
    pub use ml4db_storage::{CmpOp, Database, Value};
    pub use ml4db_survey::{figure1_series, render_figure1, render_table1, table1};
}
