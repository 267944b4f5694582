//! On the learned planning path a cardinality estimate allocates nothing:
//! MSCN featurises into an array and runs its MLP over stack buffers, and
//! the classical estimate (which MSCN's features and the guard's band both
//! call) walks the mask's predicates and edges without listing them. So a
//! cold plan under the guarded MSCN estimator allocates no more than one
//! under the classical estimator: what is left is the DP's and the plan
//! cache's own. Featurising into a `Vec`, a `Matrix` per layer and two
//! lists per classical estimate made 16 allocations per guarded estimate;
//! this gate is the host-independent form of that difference.
//!
//! Alone in its file: see `common/counting_alloc.rs`.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_of;
use ml4db_card::{collect_samples, MscnEstimator};
use ml4db_guard::GuardedCardEstimator;
use ml4db_optimizer::Env;
use ml4db_plan::{CardEstimator, ClassicEstimator, HintSet, Query};
use ml4db_storage::datasets::joblite_db;
use ml4db_storage::{CmpOp, Database};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Plan-cache tag of the estimator-planned key space (nonzero: not the
/// expert's).
const TAG: u64 = 1;

/// Allocations of planning `q` under `est` on a fresh engine (a plan-cache
/// miss).
fn plan_cold<E: CardEstimator>(db: &Database, q: &Query, est: &E) -> u64 {
    let env = Env::new(db);
    let (allocations, plan) =
        allocations_of(|| env.plan_with_estimator(q, HintSet::all(), est, TAG));
    assert_eq!(plan.expect("the query plans").size(), 5);
    allocations
}

#[test]
fn estimates_allocate_nothing_and_learned_planning_no_more_than_classical() {
    let db = joblite_db(150, &[("title", "year")], &mut StdRng::seed_from_u64(7));
    let q = Query::new(&["title", "cast_info", "person"])
        .join(0, "id", 1, "movie_id")
        .join(1, "person_id", 2, "id")
        .filter(0, "year", CmpOp::Ge, 2010.0);
    let mut rng = StdRng::seed_from_u64(11);
    let mut mscn = MscnEstimator::new(16, &mut rng);
    mscn.fit(&db, &collect_samples(&db, std::slice::from_ref(&q)), 5, 0.005, &mut rng);
    let guard = GuardedCardEstimator::new(mscn, 8.0);

    let full = q.full_mask();
    let estimators: [(&str, &dyn CardEstimator); 3] =
        [("classic", &ClassicEstimator), ("MSCN", &guard.learned), ("guarded MSCN", &guard)];
    for (name, est) in estimators {
        // Warm first: the measured call is the steady state, not whatever
        // a first call initialises once.
        est.estimate(&db, &q, full);
        let (allocations, _) = allocations_of(|| est.estimate(&db, &q, full));
        assert_eq!(allocations, 0, "one {name} estimate of the full mask allocated");
    }

    let (classical, learned) =
        (plan_cold(&db, &q, &ClassicEstimator), plan_cold(&db, &q, &guard));
    assert!(
        learned <= classical,
        "a cold guarded-MSCN plan made {learned} allocations, a cold classical one {classical}: \
         the learned estimates allocate"
    );
}
