//! One DP table plans every hint-set arm, so planning six arms allocates for
//! one enumeration plus six materialised trees — not for six enumerations
//! that each clone two sub-plan trees per candidate they visit. This gate
//! is the host-independent form of that difference.
//!
//! Alone in its file: see `common/counting_alloc.rs`.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_of;
use ml4db_optimizer::{Bao, Env};
use ml4db_plan::{bao_arms, ClassicEstimator, Planner, Query};
use ml4db_storage::datasets::joblite_db;
use ml4db_storage::CmpOp;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn a_cold_six_arm_decision_allocates_like_one_enumeration() {
    let db = joblite_db(150, &[("title", "year")], &mut StdRng::seed_from_u64(7));
    let q = Query::new(&["title", "cast_info", "person"])
        .join(0, "id", 1, "movie_id")
        .join(1, "person_id", 2, "id")
        .filter(0, "year", CmpOp::Ge, 2010.0);
    let arms = bao_arms();
    assert_eq!(arms.len(), 6);

    // The planner alone: one DP pass over all six arms against six passes,
    // one per arm. Both answer a `Vec` of six plans. What the shared pass
    // saves is enumeration; what it cannot share is materialising each
    // arm's tree, so the bound is a ratio, not a count.
    let planner = Planner::default();
    let (shared, plans) =
        allocations_of(|| planner.best_plans(&db, &q, &ClassicEstimator, &arms));
    let (separate, alone) = allocations_of(|| {
        arms.iter()
            .map(|&hint| Planner { hint, ..planner }.best_plan(&db, &q, &ClassicEstimator))
            .collect::<Vec<_>>()
    });
    assert_eq!(plans, alone, "one shared pass must answer what six passes answer");
    assert!(
        3 * shared < 2 * separate,
        "planning six arms in one pass made {shared} allocations, in six passes {separate}: \
         the arms are not sharing a table"
    );

    // End to end: a cold six-arm Bao decision (every plan-cache lookup
    // misses), which adds the cache and Bao's featurisation.
    let env = Env::new(&db);
    let bao = Bao::new(arms);
    let (cold_sweep, choice) = allocations_of(|| bao.choose_greedy(&env, &q));
    assert_eq!(choice.plan.size(), 5);
    assert_eq!((env.plan_cache().misses(), env.plan_cache().hits()), (6, 0));
    // 168 when the shared table landed; the six independent
    // clone-per-candidate passes before it made 841.
    assert!(cold_sweep < 170, "{cold_sweep} allocations for one cold six-arm decision");
}
