//! The executor holds tuples by reference, so the heap allocations of one
//! served query are a function of the plan's shape — a few vectors per
//! operator, one per output column — and not of how many rows flow through
//! it. A row-at-a-time executor allocates per scanned row and twice per
//! joined row; this gate is the host-independent form of that difference.
//!
//! Alone in its file (its own process) because the counting allocator is
//! process-global: any other test allocating meanwhile would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ml4db_optimizer::Env;
use ml4db_plan::plan::{JoinAlgo, PlanNode, ScanAlgo};
use ml4db_plan::{execute_columnar, Query};
use ml4db_storage::datasets::joblite_db;
use ml4db_storage::CmpOp;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `System`, counting calls that obtain memory (`realloc` included: a
/// growing `Vec` is exactly what the bound on growth is about).
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed counter
// increment, which neither allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

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
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let latency = env.run(&q, &plan);
            let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

            let result = execute_columnar(&db, &q, &plan).expect("plan executes");
            assert_eq!(result.latency_us, latency);
            let ceiling = (64 * plan.size() + result.columns.len()) as u64;
            assert!(
                allocations < ceiling,
                "{algo:?} at base_rows {base_rows}: {allocations} allocations for {} rows \
                 (ceiling {ceiling})",
                result.num_rows
            );
            if let Some((fewer, fewer_rows)) = previous {
                assert!(result.num_rows > fewer_rows, "doubling base_rows must grow the result");
                assert!(
                    allocations <= fewer + 16,
                    "{algo:?}: {fewer} allocations at half the rows, {allocations} at \
                     base_rows {base_rows} — only Vec doublings may be added"
                );
            }
            previous = Some((allocations, result.num_rows));
        }
    }
}
