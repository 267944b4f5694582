//! The traced walk shared by the two server workloads: one thread takes
//! each request through the public functions the serving path calls, in
//! serving order, with a span around every call.
//!
//! Under the `request` root are the calls a served request makes
//! (validate → admission offer/pop → session-memo plan → execute); their
//! self times give the per-layer shares. Under a separate `replica` root
//! the same request's inner public functions (cache key, cache probe,
//! enumeration, costing, index probes) are called again on their own, so
//! each gets a per-call time without being counted in the request total.

use std::time::Instant;

use ml4db_index::btree::BPlusTree;
use ml4db_index::pgm::PgmIndex;
use ml4db_index::OrderedIndex;
use ml4db_optimizer::Env;
use ml4db_plan::{execute, CacheKey, HintSet, Planner, Query};
use ml4db_serve::{AdmissionConfig, AdmissionQueue, AdmissionVerdict, Request};
use ml4db_storage::lindex::SecondaryIndex;
use ml4db_storage::{CmpOp, Database};

use super::set_tail;
use crate::layers::LayerValues;
use crate::serve_loop::worker_threads;
use crate::trace::{LayerTable, Tracer};

/// The `title.id` key stream probed three ways: the table's learned
/// secondary index, and a PGM-index and a B+Tree built over the same keys.
pub struct IdProbes<'a> {
    lindex: &'a SecondaryIndex,
    pgm: PgmIndex,
    btree: BPlusTree,
}

impl<'a> IdProbes<'a> {
    pub fn new(db: &'a Database, n_titles: usize) -> Self {
        let entries: Vec<(u64, u64)> = (0..n_titles as u64).map(|k| (k, k)).collect();
        Self {
            lindex: db
                .secondary_index("title", "id")
                .expect("title.id is indexed"),
            btree: BPlusTree::bulk_load(&entries),
            pgm: PgmIndex::build(entries, 16),
        }
    }
}

/// The key of an equality lookup on `title.id`, if `q` is one.
fn id_lookup_key(q: &Query) -> Option<f64> {
    match (q.tables.as_slice(), q.predicates.as_slice()) {
        ([t], [p]) if t.table == "title" && p.column == "id" && p.op == CmpOp::Eq => Some(p.value),
        _ => None,
    }
}

/// Program-side counts of one walked block. They repeat exactly for a
/// given seed because the block is a constant op sequence on a fresh
/// engine.
pub struct WalkCounts {
    pub requests: u64,
    pub wall_s: f64,
    pub memo_hit_rate: f64,
    pub cache_hit_rate: f64,
    pub cache_entries: usize,
    pub rows_out: u64,
    pub sim_us: f64,
}

/// Walks `order` (indexes into `queries`) on a fresh engine over `db`.
pub fn walk(
    db: &Database,
    queries: &[Query],
    order: &[u32],
    tracer: &Tracer,
    probes: Option<&IdProbes>,
) -> WalkCounts {
    let env = Env::new(db);
    let replica_env = Env::new(db);
    let mut view = env.session(0);
    let mut queue: AdmissionQueue<Request> = AdmissionQueue::new(AdmissionConfig {
        classes: 1,
        ..AdmissionConfig::default()
    });
    let (mut rows_out, mut sim_us) = (0u64, 0.0f64);
    let started = Instant::now();
    for (i, &qi) in order.iter().enumerate() {
        let q = &queries[qi as usize];
        tracer.set_request(i as u64);
        tracer.span("request", || {
            tracer
                .span("plan.validate", || q.validate(db))
                .expect("generated queries validate");
            let request = Request {
                id: i as u64,
                session: 0,
                tenant: 0,
                class: 0,
                query: q.clone(),
            };
            let verdict = tracer.span("serve.admission.offer", || queue.offer(request, 0));
            assert!(
                matches!(verdict, Ok(AdmissionVerdict::Admitted)),
                "empty queue admits"
            );
            let ticket = tracer
                .span("serve.admission.pop", || queue.pop())
                .expect("just offered");
            let q = &ticket.item.query;
            let plan = tracer
                .span("optimizer.session.expert_plan", || view.expert_plan(q))
                .expect("generated queries always plan");
            // Freeing the result rows belongs to the executor's span, as it
            // does inside `Env::run` on the serving path.
            let (rows, latency_us) = tracer.span("plan.executor.execute", || {
                let result = execute(db, q, &plan).expect("valid plan");
                (result.rows.len() as u64, result.latency_us)
            });
            rows_out += rows;
            sim_us += latency_us;
        });
        tracer.span("replica", || {
            // Untimed: make the replica cache hold this key so the probe hits.
            replica_env.expert_plan(q);
            let key = tracer.span("plan.cache.key", || {
                CacheKey::new(q, HintSet::all(), replica_env.epoch())
            });
            let hit = tracer.span("plan.cache.get", || replica_env.plan_cache().get(&key));
            assert!(hit.is_some(), "replica cache was just filled");
            let planner = Planner {
                cost_model: env.cost_model,
                hint: HintSet::all(),
                ..Default::default()
            };
            let mut plan = tracer
                .span("plan.enumerate.best_plan", || {
                    planner.best_plan(db, q, &env.estimator)
                })
                .expect("generated queries always plan");
            tracer.span("plan.cost.cost_plan", || {
                env.cost_model.cost_plan(db, q, &mut plan, &env.estimator)
            });
            if let (Some(p), Some(id)) = (probes, id_lookup_key(q)) {
                let key = id as u64;
                let rows = tracer.span("storage.lindex.probe_eq", || p.lindex.probe_eq(id).len());
                let a = tracer.span("index.pgm.get", || p.pgm.get(key));
                let b = tracer.span("index.btree.get", || p.btree.get(key));
                assert!(
                    rows == 1 && a == Some(key) && b == Some(key),
                    "index probes agree"
                );
            }
        });
    }
    let lookups = (view.local_hits() + view.local_misses()).max(1);
    WalkCounts {
        requests: order.len() as u64,
        wall_s: started.elapsed().as_secs_f64(),
        memo_hit_rate: view.local_hits() as f64 / lookups as f64,
        cache_hit_rate: env.plan_cache().hit_rate(),
        cache_entries: env.plan_cache().len(),
        rows_out,
        sim_us,
    }
}

/// The walk of a traced pass: `order` walked in constant blocks on
/// `tracer` until `budget_s` is spent, then the same number of blocks with
/// the tracer off, which gives `bench.trace_overhead_ratio`. Returns the
/// first block's counts and the number of traced blocks.
pub fn walk_for(
    budget_s: f64,
    db: &Database,
    queries: &[Query],
    order: &[u32],
    tracer: &Tracer,
    probes: Option<&IdProbes>,
    layers: &mut LayerValues,
) -> (WalkCounts, u64) {
    let first = walk(db, queries, order, tracer, probes);
    let mut traced_s = first.wall_s;
    let mut blocks = 1u64;
    while traced_s < budget_s {
        traced_s += walk(db, queries, order, tracer, probes).wall_s;
        blocks += 1;
    }
    let off = Tracer::new(false);
    let untraced_s: f64 = (0..blocks)
        .map(|_| walk(db, queries, order, &off, probes).wall_s)
        .sum();
    layers.set("bench.trace_overhead_ratio", untraced_s / traced_s);
    (first, blocks)
}

/// Fills the layer metrics both server workloads' traced passes measure:
/// from the walk's spans and first-block counts, and from the closed loop
/// the driver ran on the same tracer (`driver_latencies_us`).
pub fn fill_layers(
    layers: &mut LayerValues,
    table: &LayerTable,
    first: &WalkCounts,
    driver_latencies_us: Vec<f64>,
) {
    for (metric, span) in [
        ("serve.submit_ns", "serve.submit"),
        ("serve.take_ns", "serve.await_take"),
        ("plan.validate_ns", "plan.validate"),
        ("serve.admission.offer_ns", "serve.admission.offer"),
        ("serve.admission.pop_ns", "serve.admission.pop"),
        ("plan.cache.key_ns", "plan.cache.key"),
        ("plan.cache.hit_ns", "plan.cache.get"),
        ("plan.enumerate.best_plan_ns", "plan.enumerate.best_plan"),
        ("plan.cost.cost_plan_ns", "plan.cost.cost_plan"),
        ("plan.executor.execute_ns", "plan.executor.execute"),
        ("storage.lindex.probe_ns", "storage.lindex.probe_eq"),
        ("index.pgm.get_ns", "index.pgm.get"),
        ("index.btree.get_ns", "index.btree.get"),
    ] {
        layers.set(metric, table.median_ns(span));
    }
    let btree = table.median_ns("index.btree.get");
    if btree > 0.0 {
        layers.set(
            "index.pgm_over_btree",
            table.median_ns("index.pgm.get") / btree,
        );
    }
    layers.set(
        "plan.executor.share",
        table.share_of("plan.executor.execute", "request"),
    );
    layers.set("plan.cache.hit_rate", first.cache_hit_rate);
    layers.set("plan.cache.entries", first.cache_entries as f64);
    layers.set("optimizer.session.memo_hit_rate", first.memo_hit_rate);
    layers.set(
        "plan.executor.rows_out",
        first.rows_out as f64 / first.requests as f64,
    );
    layers.set("plan.executor.sim_us", first.sim_us / first.requests as f64);
    layers.set("bench.worker_threads", worker_threads() as f64);
    set_tail(layers, driver_latencies_us);
}
