//! Property tests for the observability substrate.
//!
//! Three layers of guarantees:
//!
//! 1. **Algebra** — `MetricsRegistry::merge` is associative and
//!    commutative over arbitrary op streams, and sharding a stream at any
//!    split point then merging equals applying it whole. These are the
//!    laws that make per-worker metric shards fold into one registry that
//!    cannot depend on scheduling.
//! 2. **Histograms** — bucket counts always equal a brute-force recount
//!    of the raw observations against the bounds.
//! 3. **End to end** — the canonical trace of an `evaluate` run (events,
//!    metrics, report joins) is byte-identical between one thread and
//!    many, for workloads of fingerprint-distinct queries.

use ml4db_core::obs;
use ml4db_core::obs::{Histogram, MetricsRegistry};
use ml4db_core::optimizer::{dedup_by_fingerprint, evaluate, Env};
use ml4db_core::par;
use ml4db_core::prelude::*;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Registry algebra
// ---------------------------------------------------------------------------

/// Replays a generated op stream into a registry. Ops are encoded as
/// `(kind, name, value)` tuples so proptest can generate them with the
/// strategies it has.
fn apply(r: &mut MetricsRegistry, ops: &[(u8, u64, f64)]) {
    const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
    for &(kind, name, v) in ops {
        let name = NAMES[(name % NAMES.len() as u64) as usize];
        match kind % 2 {
            0 => r.counter_add(name, (v as u64) % 1000),
            _ => r.histogram_observe(name, v, || Histogram::log10(4)),
        }
    }
}

fn registry(ops: &[(u8, u64, f64)]) -> MetricsRegistry {
    let mut r = MetricsRegistry::new();
    apply(&mut r, ops);
    r
}

/// One generated op: kind selector, name selector, value.
fn op_stream(max_len: usize) -> impl Strategy<Value = Vec<(u8, u64, f64)>> {
    proptest::collection::vec((0u8..2, 0u64..4, 0.0f64..20_000.0), 0..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)` — both as structural equality and as
    /// serialized JSON bytes.
    #[test]
    fn merge_is_associative(
        a in op_stream(120),
        b in op_stream(120),
        c in op_stream(120),
    ) {
        let (ra, rb, rc) = (registry(&a), registry(&b), registry(&c));
        let mut left = ra.clone();
        left.merge(&rb);
        left.merge(&rc);
        let mut bc = rb.clone();
        bc.merge(&rc);
        let mut right = ra.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(left.to_json().to_string(), right.to_json().to_string());
    }

    /// `a ⊕ b == b ⊕ a`.
    #[test]
    fn merge_is_commutative(a in op_stream(150), b in op_stream(150)) {
        let (ra, rb) = (registry(&a), registry(&b));
        let mut ab = ra.clone();
        ab.merge(&rb);
        let mut ba = rb.clone();
        ba.merge(&ra);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.to_json().to_string(), ba.to_json().to_string());
    }

    /// Splitting one op stream into worker shards at an arbitrary point
    /// and merging the shard registries equals applying the stream whole —
    /// the exact shape of per-worker metric accumulation.
    #[test]
    fn sharded_merge_equals_serial_application(
        ops in op_stream(200),
        split in 0usize..200,
    ) {
        let split = split.min(ops.len());
        let whole = registry(&ops);
        let mut sharded = registry(&ops[..split]);
        sharded.merge(&registry(&ops[split..]));
        prop_assert_eq!(&sharded, &whole);
        prop_assert_eq!(sharded.to_json().to_string(), whole.to_json().to_string());
    }

    /// Histogram bucket counts equal a brute-force recount of the raw
    /// observations, and the totals account for every observation.
    #[test]
    fn histogram_counts_match_brute_force_recount(
        values in proptest::collection::vec(0.0f64..500_000.0, 1..400),
    ) {
        let bounds = vec![1.0, 10.0, 100.0, 1_000.0, 10_000.0];
        let mut h = Histogram::new(bounds.clone());
        for &v in &values {
            h.observe(v);
        }
        let mut brute = vec![0u64; bounds.len() + 1];
        for &v in &values {
            // First bound >= v (inclusive upper bounds), overflow last.
            let b = bounds.iter().position(|&bound| v <= bound).unwrap_or(bounds.len());
            brute[b] += 1;
        }
        prop_assert_eq!(h.counts(), &brute[..]);
        prop_assert_eq!(h.total(), values.len() as u64);
    }
}

// ---------------------------------------------------------------------------
// End-to-end determinism and report/trace joins
// ---------------------------------------------------------------------------

// Workloads below are deduplicated by fingerprint: the determinism
// contract covers fingerprint-distinct workloads, because duplicate
// queries race benignly on the plan cache and expert memo, which would
// make *hit/miss attribution* (not results) schedule-dependent.

fn canonical_trace_at(threads: usize, db: &Database, queries: &[Query]) -> String {
    // Fresh Env per run: a cold plan cache and expert memo, so agreement
    // across thread counts cannot come from shared state.
    let env = Env::new(db);
    let _g = obs::ModeGuard::collect();
    let _report =
        par::with_threads(threads, || evaluate(&env, queries, |env, q| env.expert_plan(q)));
    obs::take_trace().canonical_string()
}

#[test]
fn canonical_trace_identical_across_thread_counts() {
    let _s = obs::serial();
    let db = demo_database(110, 63);
    let queries = dedup_by_fingerprint(demo_workload(&db, 24, 64));
    assert!(queries.len() >= 8, "workload collapsed under dedup");

    let one = canonical_trace_at(1, &db, &queries);
    for threads in [2, 4, 8] {
        assert_eq!(
            canonical_trace_at(threads, &db, &queries),
            one,
            "canonical trace diverged at {threads} threads"
        );
    }
    // The canonical trace never carries the wall-clock side channel.
    assert!(!one.contains(obs::NONDETERMINISTIC_KEY));
}

#[test]
fn every_evaluated_query_joins_report_and_trace_exactly_once() {
    let _s = obs::serial();
    let db = demo_database(100, 65);
    let queries = dedup_by_fingerprint(demo_workload(&db, 20, 66));
    let env = Env::new(&db);

    let _g = obs::ModeGuard::collect();
    let report = evaluate(&env, &queries, |env, q| env.expert_plan(q));
    let trace = obs::take_trace();

    assert_eq!(report.rows.len(), queries.len());
    assert_eq!(trace.query_ids().len(), queries.len());
    for q in &queries {
        let fp = q.fingerprint();
        // Exactly one report row per query...
        let rows: Vec<_> = report.rows.iter().filter(|r| r.query_id == fp).collect();
        assert_eq!(rows.len(), 1, "query {fp:016x} must appear exactly once in the report");
        assert_eq!(report.row_for(fp).unwrap().latency_us, rows[0].latency_us);
        // ...and exactly one query_report event in that query's trace.
        let events = trace.events_for(fp);
        assert!(!events.is_empty(), "query {fp:016x} missing from the trace");
        let reports: Vec<_> = events
            .iter()
            .filter_map(|e| match *e {
                obs::Event::QueryReport { latency_us, expert_us, .. } => {
                    Some((latency_us, expert_us))
                }
                _ => None,
            })
            .collect();
        assert_eq!(reports.len(), 1, "query {fp:016x} must have exactly one query_report");
        // The trace event and the report row carry the same numbers.
        assert_eq!(reports[0].0.to_bits(), rows[0].latency_us.to_bits());
        assert_eq!(reports[0].1.to_bits(), rows[0].expert_us.to_bits());
    }
}

#[test]
fn merged_trace_metrics_identical_across_thread_counts() {
    let _s = obs::serial();
    let db = demo_database(100, 67);
    let queries = dedup_by_fingerprint(demo_workload(&db, 16, 68));

    let metrics_at = |threads: usize| -> String {
        let env = Env::new(&db);
        let _g = obs::ModeGuard::collect();
        let _ = par::with_threads(threads, || {
            evaluate(&env, &queries, |env, q| env.expert_plan(q))
        });
        obs::take_trace().metrics.to_json().to_string()
    };

    let one = metrics_at(1);
    assert_eq!(metrics_at(4), one, "merged metrics depend on thread count");
    // And the run actually recorded the hot-path counters.
    assert!(one.contains("executor.operators"), "{one}");
    assert!(one.contains("expert_latency"), "{one}");
}
