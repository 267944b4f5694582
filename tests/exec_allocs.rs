//! The executor holds tuples by reference, so the heap allocations of one
//! served query are a function of the plan's shape — a few vectors per
//! operator — and not of how many rows flow through it. A row-at-a-time
//! executor allocates per scanned row and twice per joined row; this gate
//! is the host-independent form of that difference. The serving path
//! (`Env::run`) reads no value of the answer, so it also makes at least
//! one allocation per output column fewer than copying the answer out.
//!
//! Alone in its file: see `common/counting_alloc.rs`.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_of;
use ml4db_optimizer::Env;
use ml4db_plan::plan::{JoinAlgo, PlanNode, ScanAlgo};
use ml4db_plan::{execute_columnar, Query};
use ml4db_storage::datasets::joblite_db;
use ml4db_storage::CmpOp;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `title ⋈ cast_info ⋈ movie_info`, one predicate, one join algorithm.
fn three_table_plan(q: &Query, algo: JoinAlgo) -> PlanNode {
    let scan = |t| PlanNode::scan(q, t, ScanAlgo::Seq, None);
    PlanNode::join(q, algo, PlanNode::join(q, algo, scan(0), scan(1)), scan(2))
}

#[test]
fn allocations_of_one_run_do_not_scale_with_rows() {
    let q = Query::new(&["title", "cast_info", "movie_info"])
        .join(0, "id", 1, "movie_id")
        .join(0, "id", 2, "movie_id")
        .filter(0, "year", CmpOp::Ge, 1990.0);
    for algo in [JoinAlgo::Hash, JoinAlgo::NestedLoop, JoinAlgo::SortMerge] {
        let plan = three_table_plan(&q, algo);
        let mut previous: Option<(u64, usize)> = None;
        for base_rows in [200, 400, 800] {
            let db = joblite_db(base_rows, &[], &mut StdRng::seed_from_u64(7));
            let env = Env::new(&db);
            let (allocations, latency) = allocations_of(|| env.run(&q, &plan));
            let (copying, result) =
                allocations_of(|| execute_columnar(&db, &q, &plan).expect("plan executes"));
            assert_eq!(result.latency_us.to_bits(), latency.to_bits());
            let ceiling = (64 * plan.size()) as u64;
            assert!(
                allocations < ceiling,
                "{algo:?} at base_rows {base_rows}: {allocations} allocations for {} rows \
                 (ceiling {ceiling})",
                result.num_rows
            );
            assert!(
                allocations + result.columns.len() as u64 <= copying,
                "{algo:?} at base_rows {base_rows}: env.run made {allocations} allocations, \
                 copying the {} result columns out made {copying} — the serving path must \
                 not copy out an answer",
                result.columns.len()
            );
            if let Some((fewer, fewer_rows)) = previous {
                assert!(result.num_rows > fewer_rows, "doubling base_rows must grow the result");
                assert_eq!(
                    allocations, fewer,
                    "{algo:?}: {fewer} allocations at half the rows, {allocations} at \
                     base_rows {base_rows} — every vector of a run is sized before it is filled"
                );
            }
            previous = Some((allocations, result.num_rows));
        }
    }
}
