//! A memo-hit `SessionView::serve` runs the memoised plan by reference:
//! it allocates exactly what executing that plan allocates, and nothing
//! for the plan tree. Copying the tree out of the memo on every hit — one
//! `String` per column name per node — is what the served path used to pay
//! on every request; this gate is the host-independent form of that
//! difference. Running the plan itself copies no value out either, so a
//! one-row look-up costs a handful of allocations (the row-id batch and
//! its layout among them), none of them a column of the answer.
//!
//! Alone in its file: see `common/counting_alloc.rs`.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_of;
use ml4db_optimizer::Env;
use ml4db_plan::Query;
use ml4db_storage::datasets::joblite_db;
use ml4db_storage::CmpOp;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Allocations `Env::run` may make for the one-row look-up below.
const RUN_CEILING: u64 = 5;

#[test]
fn a_memo_hit_serve_copies_no_plan_tree() {
    let db = joblite_db(2_000, &[("title", "id")], &mut StdRng::seed_from_u64(7));
    let q = Query::new(&["title"]).filter(0, "id", CmpOp::Eq, 77.0);
    let env = Env::new(&db);
    let mut view = env.session(0);

    let cold = view.serve(&q).expect("a one-table lookup plans");
    assert_eq!((view.local_hits(), view.local_misses()), (0, 1));
    let plan = view.expert_plan(&q).expect("memoised");
    let (copying, _) = allocations_of(|| plan.clone());
    assert!(copying > 0, "a plan tree owns heap data, so copying one must allocate");

    let (running, latency) = allocations_of(|| env.run(&q, &plan));
    assert!(
        running <= RUN_CEILING,
        "running a one-row look-up made {running} allocations (ceiling {RUN_CEILING})"
    );
    let hits = view.local_hits();
    let (serving, served) = allocations_of(|| view.serve(&q));
    assert_eq!(view.local_hits(), hits + 1, "the measured serve was a memo hit");
    assert_eq!(served.map(f64::to_bits), Some(latency.to_bits()));
    assert_eq!(served.map(f64::to_bits), Some(cold.to_bits()));
    assert_eq!(
        serving, running,
        "a memo-hit serve made {serving} allocations, running its plan makes {running}, \
         copying the plan makes {copying}"
    );
}
