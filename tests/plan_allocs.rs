//! One DP table plans every hint-set arm, so a cold six-arm Bao decision
//! allocates for one enumeration plus six materialised trees — not for six
//! enumerations that each clone two sub-plan trees per candidate they
//! visit. This gate is the host-independent form of that difference.
//!
//! Alone in its file: see `common/counting_alloc.rs`.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_of;
use ml4db_optimizer::{Bao, Env};
use ml4db_plan::{bao_arms, HintSet, Query};
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
    let bao = Bao::new(bao_arms());
    assert_eq!(bao.arms.len(), 6);

    // Each engine is measured cold (every plan-cache lookup misses), then
    // warm (every lookup hits): what is left of cold after taking warm
    // away is the planning itself, net of the per-arm copy out of the cache
    // and Bao's featurisation, which no enumerator can share.
    let env = Env::new(&db);
    let (cold_arm, plan) = allocations_of(|| env.plan_with_hint(&q, HintSet::all()));
    let (warm_arm, _) = allocations_of(|| env.plan_with_hint(&q, HintSet::all()));
    assert_eq!(plan.expect("the expert plans").size(), 5);
    assert_eq!((env.plan_cache().misses(), env.plan_cache().hits()), (1, 1));

    let env = Env::new(&db);
    let (cold_sweep, choice) = allocations_of(|| bao.choose_greedy(&env, &q));
    let (warm_sweep, _) = allocations_of(|| bao.choose_greedy(&env, &q));
    assert_eq!(choice.plan.size(), 5);
    assert_eq!((env.plan_cache().misses(), env.plan_cache().hits()), (6, 6));

    // 168 when this gate was written; the parent commit's six independent
    // clone-per-candidate passes made 841.
    assert!(cold_sweep < 220, "{cold_sweep} allocations for one cold six-arm decision");
    assert!(
        cold_sweep - warm_sweep < 3 * (cold_arm - warm_arm),
        "planning six arms adds {cold_sweep} - {warm_sweep} allocations, planning one adds \
         {cold_arm} - {warm_arm}: the arms are not sharing a table"
    );
}
