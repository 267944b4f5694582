//! Root differential-testing oracle suite: end-to-end cross-checks of the
//! executor, cost model, planners, and learned indexes against the
//! trivially-correct references in `ml4db-oracle`, plus the property tests
//! the oracle issue calls out by name (join-implementation equivalence on
//! float keys and empty inputs, and exact timeout semantics).
//!
//! Run with `cargo test --test oracle`; CI runs it under both default
//! threading and `ML4DB_THREADS=1`.

use ml4db_obs::digest::Fingerprint;
use ml4db_oracle::cost_check::{
    check_histogram_cdf, check_plan_cost_tracks_latency, check_plan_operator_costs,
};
use ml4db_oracle::exhaustive::{
    check_best_plan_optimal, check_greedy_scale_invariance, check_planners_emit_valid_plans,
};
use ml4db_oracle::index_check::{check_ordered_indexes, check_spatial_indexes};
use ml4db_oracle::reference::{check_plan_vs_reference, reference_execute};
use ml4db_oracle::workload::{
    joblite_db, sample_query, tpchlite_db, JOBLITE_EDGES, TPCHLITE_EDGES,
};
use ml4db_oracle::{assert_no_discrepancies, Discrepancy};
use ml4db_plan::executor::{
    canonical_multiset, execute, execute_columnar_with_timeout, execute_summary_with_timeout,
};
use ml4db_plan::hints::all_hint_sets;
use ml4db_plan::plan::{JoinAlgo, PlanNode, ScanAlgo};
use ml4db_plan::{
    CardEstimator, ClassicEstimator, CostModel, PlanShape, Planner, Query, TrueCardinality,
};
use ml4db_storage::exec::{join, seq_scan, Batch, ColRef};
use ml4db_storage::{
    rows_of, Catalog, ColumnData, DataType, Database, Row, Schema, Table, TRUE_WEIGHTS,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Family 1: every plan shape the planners and hint sets can emit over
/// both workloads agrees with the brute-force reference engine.
#[test]
fn executor_matches_reference_on_both_workloads() {
    let mut found: Vec<Discrepancy> = Vec::new();
    let mut rng = StdRng::seed_from_u64(101);
    for (db, edges) in
        [(joblite_db(110, 61), JOBLITE_EDGES), (tpchlite_db(110, 62), TPCHLITE_EDGES)]
    {
        let planner = Planner::default();
        for i in 0..8 {
            let q = sample_query(&db, edges, 4, &mut rng, i % 3 != 0);
            let mut plans = planner.random_plans(&db, &q, &ClassicEstimator, 3, &mut rng);
            plans.extend(planner.best_plan(&db, &q, &ClassicEstimator));
            plans.extend(planner.greedy_plan(&db, &q, &ClassicEstimator));
            for p in &plans {
                found.extend(check_plan_vs_reference(&db, &q, p));
            }
        }
    }
    assert_no_discrepancies(&found);
}

/// Family 2: formula costs under true weights and true cardinalities
/// track executed latency, and per-operator identities hold on the real
/// base tables.
#[test]
fn cost_model_tracks_execution_on_both_workloads() {
    let mut found: Vec<Discrepancy> = Vec::new();
    let mut rng = StdRng::seed_from_u64(103);
    for (db, edges) in
        [(joblite_db(130, 63), JOBLITE_EDGES), (tpchlite_db(130, 64), TPCHLITE_EDGES)]
    {
        let oracle = TrueCardinality::new();
        let planner =
            Planner { cost_model: CostModel::new(TRUE_WEIGHTS), ..Default::default() };
        for i in 0..6 {
            let q = sample_query(&db, edges, 3, &mut rng, i % 2 == 0);
            let mut plans = planner.random_plans(&db, &q, &oracle, 2, &mut rng);
            plans.extend(planner.best_plan(&db, &q, &oracle));
            for p in &plans {
                found.extend(check_plan_cost_tracks_latency(&db, &q, p, &oracle, 2.0));
                found.extend(check_plan_operator_costs(&db, &q, p));
            }
        }
    }
    assert_no_discrepancies(&found);
}

/// Family 3: DP optimality against exhaustive enumeration, validity of
/// every planner entry point under every hint set, and greedy
/// scale-invariance.
#[test]
fn planners_survive_exhaustive_scrutiny() {
    let mut found: Vec<Discrepancy> = Vec::new();
    let mut rng = StdRng::seed_from_u64(107);
    let db = joblite_db(80, 65);
    for i in 0..3 {
        let q = sample_query(&db, JOBLITE_EDGES, 3, &mut rng, i % 2 == 0);
        found.extend(check_best_plan_optimal(&db, &q));
        found.extend(check_planners_emit_valid_plans(&db, &q, &mut rng));
        found.extend(check_greedy_scale_invariance(&db, &q, &ClassicEstimator));
    }
    let db = tpchlite_db(80, 66);
    for _ in 0..2 {
        let q = sample_query(&db, TPCHLITE_EDGES, 4, &mut rng, true);
        found.extend(check_best_plan_optimal(&db, &q));
        found.extend(check_greedy_scale_invariance(&db, &q, &ClassicEstimator));
    }
    assert_no_discrepancies(&found);
}

/// Family 4: learned 1-D and spatial indexes agree with their classical
/// baselines on identical key/point sets.
#[test]
fn learned_indexes_match_classical_baselines() {
    use ml4db_spatial::data::{generate_points, SpatialDistribution};
    use ml4db_spatial::{Point, Rect};
    use rand::Rng;

    let mut found: Vec<Discrepancy> = Vec::new();
    let entries: Vec<(u64, u64)> =
        (0..3000u64).map(|k| (k.wrapping_mul(2654435761) % 1_000_000, k)).collect();
    let probes: Vec<u64> = (0..400).map(|k| k * 2503).collect();
    let ranges = [(0, 5000), (100_000, 300_000), (999_000, 2_000_000), (7, 7)];
    found.extend(check_ordered_indexes(&entries, &probes, &ranges));

    let mut rng = StdRng::seed_from_u64(109);
    let points = generate_points(SpatialDistribution::Clustered { clusters: 4 }, 500, &mut rng);
    let queries: Vec<Rect> = (0..20)
        .map(|_| {
            let x = rng.gen_range(0.0..800.0);
            let y = rng.gen_range(0.0..800.0);
            Rect::new(Point::new(x, y), Point::new(x + 150.0, y + 150.0))
        })
        .collect();
    found.extend(check_spatial_indexes(&points, &queries));
    assert_no_discrepancies(&found);
}

/// Timeout semantics: simulated latency is monotone over operators, so
/// `execute_columnar_with_timeout` must time out (`None`) exactly when the
/// untimed latency strictly exceeds the budget.
#[test]
fn timeout_fires_exactly_when_latency_exceeds_budget() {
    let db = joblite_db(100, 67);
    let mut rng = StdRng::seed_from_u64(113);
    let planner = Planner::default();
    for i in 0..5 {
        let q = sample_query(&db, JOBLITE_EDGES, 3, &mut rng, i % 2 == 0);
        let mut plans = planner.random_plans(&db, &q, &ClassicEstimator, 2, &mut rng);
        plans.extend(planner.best_plan(&db, &q, &ClassicEstimator));
        for p in &plans {
            let untimed = execute(&db, &q, p).expect("plan executes").latency_us;
            for budget in [untimed * 0.3, untimed * 0.999, untimed, untimed * 1.5] {
                let outcome = execute_columnar_with_timeout(&db, &q, p, budget).expect("executes");
                assert_eq!(
                    outcome.is_none(),
                    untimed > budget,
                    "budget {budget} vs untimed latency {untimed}: TimedOut must hold \
                     exactly when latency exceeds the budget (plan {})",
                    p.signature()
                );
                if let Some(r) = outcome {
                    assert_eq!(r.latency_us, untimed, "timed run must reproduce latency");
                }
            }
        }
    }
}

fn reference_join(left: &[Row], right: &[Row], lc: usize, rc: usize) -> Vec<Row> {
    let mut out = Vec::new();
    for l in left {
        for r in right {
            if l[lc].hash_key() == r[rc].hash_key() {
                let mut row = l.clone();
                row.extend_from_slice(r);
                out.push(row);
            }
        }
    }
    out
}

fn multiset(rows: &[Row]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All three join implementations and the brute-force reference agree
    /// on multisets, including float keys (negative zero normalizes into
    /// positive zero) and empty inputs. Key codes -8..8 become halves;
    /// the two sentinels become -0.0 and +0.0.
    #[test]
    fn joins_agree_with_reference_on_float_keys(
        lkeys in proptest::collection::vec(-8i32..10, 0..40),
        rkeys in proptest::collection::vec(-8i32..10, 0..40),
    ) {
        let decode = |k: i32| -> f64 {
            match k {
                8 => -0.0,
                9 => 0.0,
                _ => k as f64 / 2.0,
            }
        };
        // Two-column tables `(key: Float, tag: Int)`.
        let table = |keys: &[i32], first_tag: i64| {
            Table::new(
                "t",
                Schema::new(&[("key", DataType::Float), ("tag", DataType::Int)]),
                vec![
                    ColumnData::Float(keys.iter().map(|&k| decode(k)).collect()),
                    ColumnData::Int((0..keys.len() as i64).map(|i| first_tag + i).collect()),
                ],
            )
        };
        let (left, right) = (table(&lkeys, 0), table(&rkeys, 1000));
        let want =
            multiset(&reference_join(&rows_of(&left.columns), &rows_of(&right.columns), 0, 0));
        let (l, r) = (seq_scan(&left, &[]).0, seq_scan(&right, &[]).0);
        let key = ColRef { slot: 0, column: 0 };
        for algo in [JoinAlgo::NestedLoop, JoinAlgo::Hash, JoinAlgo::SortMerge] {
            let (matches, _) = join(algo, &l, &r, key, key).expect("same key type");
            let got = rows_of(&Batch::joined(&l, &r, &matches).columns());
            prop_assert_eq!(&multiset(&got), &want, "{:?} vs reference", algo);
        }
    }

    /// `Histogram::cdf` equals the pure-f64 reference interpolation and
    /// stays within one bucket's mass of the empirical CDF.
    #[test]
    fn histogram_cdf_is_fractional_and_correct(
        values in proptest::collection::vec(-1e5f64..1e5, 1..250),
        probes in proptest::collection::vec(-2e5f64..2e5, 1..25),
        buckets in 1usize..33,
    ) {
        let found = check_histogram_cdf(&values, buckets, &probes);
        prop_assert!(found.is_empty(), "{:?}", found);
    }
}

/// Executing a plan, its reference evaluation, and the query-level naive
/// evaluation all agree even on queries that return nothing.
#[test]
fn empty_results_agree_everywhere() {
    use ml4db_storage::CmpOp;

    let db = joblite_db(90, 68);
    // year > 3000 matches nothing.
    let q = Query::new(&["title", "cast_info"])
        .join(0, "id", 1, "movie_id")
        .filter(0, "year", CmpOp::Gt, 3000.0);
    let planner = Planner::default();
    let plan = planner.best_plan(&db, &q, &ClassicEstimator).expect("plan");
    assert_no_discrepancies(&check_plan_vs_reference(&db, &q, &plan));
    let result = execute(&db, &q, &plan).expect("executes");
    assert!(result.rows.is_empty(), "year > 3000 must return nothing");
    let (ref_rows, ref_layout) = reference_execute(&db, &q, &plan).expect("reference");
    assert!(canonical_multiset(&db, &q, &ref_rows, &ref_layout).is_empty());
}

/// An equi-join between an `Int` and a `Float` column used to be answered
/// differently per algorithm: `hash_key` never matches `Int(2)` with
/// `Float(2.0)` (0 rows under hash and nested loop), `as_f64` does (2 rows
/// under sort-merge). Such an edge is now refused at the door and, for a
/// plan built anyway, by the executor — as an error under every algorithm.
#[test]
fn mixed_type_join_edge_is_rejected_not_answered_differently_per_algorithm() {
    let mut catalog = Catalog::new();
    catalog.add_table(Table::new(
        "a",
        Schema::new(&[("x", DataType::Int)]),
        vec![ColumnData::Int(vec![1, 2, 3])],
    ));
    catalog.add_table(Table::new(
        "b",
        Schema::new(&[("y", DataType::Float)]),
        vec![ColumnData::Float(vec![2.0, 3.0, 4.5])],
    ));
    let db = Database::analyze(catalog, &mut StdRng::seed_from_u64(1));
    let q = Query::new(&["a", "b"]).join(0, "x", 1, "y");
    let err = q.validate(&db).expect_err("a mixed-type join edge must not validate");
    assert!(err.contains("differ in type"), "{err}");
    for algo in [JoinAlgo::Hash, JoinAlgo::NestedLoop, JoinAlgo::SortMerge] {
        let plan = PlanNode::join(
            &q,
            algo,
            PlanNode::scan(&q, 0, ScanAlgo::Seq, None),
            PlanNode::scan(&q, 1, ScanAlgo::Seq, None),
        );
        assert!(execute(&db, &q, &plan).is_err(), "{algo:?} must refuse, not answer");
    }
    // Same-type edges are untouched.
    let same = Query::new(&["a", "a"]).join(0, "x", 1, "x");
    same.validate(&db).expect("Int = Int validates");
}

/// A query and the plans the executor pins run for it.
type PlannedQuery = (Query, Vec<PlanNode>);

/// The executor pins' plan population: 16 sampled queries (plus three
/// cyclic ones, for residual join conditions) on an unindexed and an
/// indexed `joblite`, each planned under all 21 hint sets and by two
/// random plans — 608 plans, a third of them joining ≥ 3 tables.
fn executor_population() -> Vec<(Database, Vec<PlannedQuery>)> {
    let unindexed =
        ml4db_storage::datasets::joblite_db(90, &[], &mut StdRng::seed_from_u64(71));
    [(unindexed, 211), (joblite_db(90, 72), 223)]
        .into_iter()
        .map(|(db, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut queries: Vec<Query> = (0..16)
                .map(|i| sample_query(&db, JOBLITE_EDGES, 4, &mut rng, i % 4 != 0))
                .collect();
            for year in [1975.0, 1995.0, 2010.0] {
                queries.push(
                    Query::new(&["title", "cast_info", "movie_info"])
                        .join(0, "id", 1, "movie_id")
                        .join(0, "id", 2, "movie_id")
                        .join(1, "movie_id", 2, "movie_id")
                        .filter(0, "year", ml4db_storage::CmpOp::Ge, year),
                );
            }
            let planned = queries
                .into_iter()
                .map(|q| {
                    let mut plans = Vec::new();
                    for hint in all_hint_sets() {
                        let planner = Planner { hint, ..Default::default() };
                        plans.extend(planner.best_plan(&db, &q, &ClassicEstimator));
                    }
                    plans.extend(
                        Planner::default().random_plans(&db, &q, &ClassicEstimator, 2, &mut rng),
                    );
                    (q, plans)
                })
                .collect();
            (db, planned)
        })
        .collect()
}

/// Digest of everything a caller can observe of the executor — rows in
/// output order, `ExecStats`, layout, latency bits, and whether a run under
/// half the latency as budget times out — over [`executor_population`].
/// Returns the digest and the number of plans run. Hashed the way the
/// repo's other `bits()` fingerprints are: a `Fingerprint` over `Debug`.
fn executor_digest() -> (u64, usize) {
    let mut h = Fingerprint::new();
    let (mut plans_run, mut wide_plans) = (0usize, 0usize);
    for (db, planned) in executor_population() {
        for (q, plans) in &planned {
            for p in plans {
                let r = execute(&db, q, p).expect("plan executes");
                let timed_out = execute_columnar_with_timeout(&db, q, p, r.latency_us / 2.0)
                    .expect("executes")
                    .is_none();
                h.str(&format!(
                    "{:?}",
                    (&r.rows, &r.stats, &r.layout, r.latency_us.to_bits(), timed_out)
                ));
                plans_run += 1;
                wide_plans += (q.num_tables() >= 3) as usize;
            }
        }
    }
    assert!(wide_plans * 3 >= plans_run, "a third of the plans must join ≥ 3 tables");
    (h.finish(), plans_run)
}

/// The differential pin: both constants were computed by `executor_digest`
/// on the commit *before* the batch executor (row-at-a-time operators), so
/// equality means the rewrite changed nothing observable — not even row
/// order.
#[test]
fn executor_digest_is_pinned_to_the_row_at_a_time_executor() {
    let (digest, plans) = executor_digest();
    assert_eq!(plans, 608, "the plan population itself moved");
    assert_eq!(
        format!("{digest:016x}"),
        "24c70a401a1f7d4a",
        "rows, stats, layouts, latency bits or timeout verdicts differ from the parent commit"
    );
}

/// The two result boundaries are one run: over the pinned population, at
/// an unbounded budget and at half the plan's latency, the summary the
/// serving path reads agrees with the copied-out answer on row count,
/// stats, latency bits and the timeout verdict.
#[test]
fn summary_boundary_agrees_with_the_columnar_one() {
    let mut compared = 0usize;
    for (db, planned) in executor_population() {
        for (q, plans) in &planned {
            for p in plans {
                let full = execute_columnar_with_timeout(&db, q, p, f64::INFINITY)
                    .expect("plan executes")
                    .expect("infinite budget cannot time out");
                for budget in [f64::INFINITY, full.latency_us / 2.0] {
                    let summary = execute_summary_with_timeout(&db, q, p, budget).expect("executes");
                    let columnar =
                        execute_columnar_with_timeout(&db, q, p, budget).expect("executes");
                    assert_eq!(
                        summary.map(|s| (s.num_rows, s.stats, s.latency_us.to_bits())),
                        columnar.map(|c| (c.num_rows, c.stats, c.latency_us.to_bits())),
                        "budget {budget}: the boundaries disagree on {p:?}"
                    );
                    compared += 1;
                }
            }
        }
    }
    assert_eq!(compared, 2 * 608, "the plan population itself moved");
}

/// A summary counts a root join without residual conditions instead of
/// gathering it; the operator trace cannot tell. Over the pinned population,
/// at an unbounded budget and at half the plan's latency, the summary and
/// the columnar run emit the same `Operator` and `ExecTimeout` events —
/// `actual_rows` of the counted root included — in the same order.
#[test]
fn summary_and_columnar_runs_emit_the_same_operator_trace() {
    use ml4db_core::obs;
    let _serial = obs::serial();
    let mut compared = 0u64;
    for (db, planned) in executor_population() {
        for (q, plans) in &planned {
            for p in plans {
                let full = execute_columnar_with_timeout(&db, q, p, f64::INFINITY)
                    .expect("plan executes")
                    .expect("infinite budget cannot time out");
                for budget in [f64::INFINITY, full.latency_us / 2.0] {
                    // The collector is process-wide: file this test's
                    // events under ids no concurrently running test uses.
                    let (summary_id, columnar_id) =
                        (0x5_0AA0_0000 + compared, 0xC_0AA0_0000 + compared);
                    let _collect = obs::ModeGuard::collect();
                    obs::with_query(summary_id, || {
                        execute_summary_with_timeout(&db, q, p, budget).expect("executes")
                    });
                    obs::with_query(columnar_id, || {
                        execute_columnar_with_timeout(&db, q, p, budget).expect("executes")
                    });
                    let trace = obs::take_trace();
                    let summary = trace.events_for(summary_id);
                    assert!(
                        summary.iter().any(|e| e.kind() == "operator"),
                        "budget {budget}: no operator event for {p:?}"
                    );
                    assert_eq!(
                        summary,
                        trace.events_for(columnar_id),
                        "budget {budget}: the boundaries trace {p:?} differently"
                    );
                    compared += 1;
                }
            }
        }
    }
    assert_eq!(compared, 2 * 608, "the plan population itself moved");
}

// ---------------------------------------------------------------------------
// One DP table for every hint-set arm: the pins against the clone-per-candidate
// enumerator it replaced
// ---------------------------------------------------------------------------

/// The query population of the enumeration pins: generated 2–5-table
/// queries plus hand-written one-table ones (`sample_query` starts at two),
/// on an unindexed and an indexed `joblite`.
fn enumeration_population() -> Vec<(Database, Vec<Query>)> {
    use ml4db_storage::CmpOp;
    let unindexed =
        ml4db_storage::datasets::joblite_db(90, &[], &mut StdRng::seed_from_u64(81));
    [(unindexed, 311), (joblite_db(90, 82), 313)]
        .into_iter()
        .map(|(db, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut queries: Vec<Query> = (0..24)
                .map(|i| sample_query(&db, JOBLITE_EDGES, 5, &mut rng, i % 4 != 0))
                .collect();
            queries.push(Query::new(&["person"]));
            queries.push(Query::new(&["title"]).filter(0, "year", CmpOp::Ge, 1990.0));
            // Two index-scan candidates on the indexed database.
            queries.push(
                Query::new(&["title"])
                    .filter(0, "votes", CmpOp::Lt, 500.0)
                    .filter(0, "year", CmpOp::Ge, 2000.0),
            );
            (db, queries)
        })
        .collect()
}

const BOTH_SHAPES: [PlanShape; 2] = [PlanShape::Bushy, PlanShape::LeftDeep];

/// Digest of the `Debug` form — operators, conditions, masks and the exact
/// `est_rows` / `est_cost` — of every `best_plan` answer (`None`s included)
/// over the population × both shapes × all 21 hint sets. Returns
/// `(digest, answers, nones, answers over ≥ 3 tables)`.
fn enumeration_digest() -> (u64, usize, usize, usize) {
    let mut h = Fingerprint::new();
    let (mut answers, mut nones, mut wide) = (0usize, 0usize, 0usize);
    for (db, queries) in enumeration_population() {
        for q in &queries {
            for shape in BOTH_SHAPES {
                for hint in all_hint_sets() {
                    let plan = Planner { hint, shape, ..Default::default() }
                        .best_plan(&db, q, &ClassicEstimator);
                    h.str(&format!("{plan:?}"));
                    answers += 1;
                    nones += plan.is_none() as usize;
                    wide += (q.num_tables() >= 3) as usize;
                }
            }
        }
    }
    (h.finish(), answers, nones, wide)
}

/// A stateful estimator in the mould of `GuardedCardEstimator`: what it
/// answers depends on how many calls came before, and it logs every mask
/// it is asked for. A DP that drops, adds, reorders or memoises one call
/// changes the log and every later answer, and so the plans.
struct PerturbingEstimator {
    log: std::cell::RefCell<Vec<u64>>,
}

impl CardEstimator for PerturbingEstimator {
    fn estimate(&self, db: &Database, query: &Query, mask: u64) -> f64 {
        let mut log = self.log.borrow_mut();
        log.push(mask);
        ClassicEstimator.estimate(db, query, mask) * (1.0 + (log.len() % 7) as f64 * 0.25)
    }
}

/// `(plans digest, mask-log digest, estimator calls)` of the one-hint DP
/// driven by one [`PerturbingEstimator`] per database.
fn perturbed_enumeration_digest() -> (u64, u64, usize) {
    let (mut plans, mut masks) = (Fingerprint::new(), Fingerprint::new());
    let mut calls = 0usize;
    for (db, queries) in enumeration_population() {
        let est = PerturbingEstimator { log: Default::default() };
        for q in &queries {
            for shape in BOTH_SHAPES {
                for hint in all_hint_sets() {
                    let plan =
                        Planner { hint, shape, ..Default::default() }.best_plan(&db, q, &est);
                    plans.str(&format!("{plan:?}"));
                }
            }
        }
        let log = est.log.into_inner();
        calls += log.len();
        // The pinned encoding of the mask log: its length, then each mask.
        masks.usize(log.len());
        for &m in &log {
            masks.u64(m);
        }
    }
    (plans.finish(), masks.finish(), calls)
}

/// Pin (2): the constants were computed by `enumeration_digest`, pasted
/// into this file on the commit *before* the shared table (one `best_plan`
/// per hint set, cloning both sub-plan trees per candidate), so equality
/// means the same plan, the same tie-breaks and the same annotation bits
/// for every hint set and shape.
#[test]
fn enumeration_digest_is_pinned_to_the_clone_per_candidate_dp() {
    let (digest, answers, nones, wide) = enumeration_digest();
    assert_eq!((answers, nones, wide), (2268, 728, 1554), "the population itself moved");
    assert_eq!(
        format!("{digest:016x}"),
        "e6fe493edf33a269",
        "a plan, a tie-break or an annotation differs from the parent commit's DP"
    );
}

/// Pin (3): the estimator-call sequence is part of the DP's contract (a
/// guarded estimator's breaker counts calls). Constants from the parent
/// commit, as above.
#[test]
fn one_hint_dp_keeps_the_estimator_call_sequence() {
    let (plans, masks, calls) = perturbed_enumeration_digest();
    assert_eq!(calls, 25_676, "the DP makes a different number of estimator calls");
    assert_eq!(format!("{masks:016x}"), "90f45c2e041e5a08", "estimator calls were reordered");
    assert_eq!(
        format!("{plans:016x}"),
        "e7ebabb8da22d0ba",
        "plans under a call-count-dependent estimator differ from the parent commit's DP"
    );
}

/// (1): one table for all 21 hint sets answers exactly what 21 one-hint
/// passes do, `None`s included.
#[test]
fn shared_table_equals_one_dp_per_hint_set() {
    let hints = all_hint_sets();
    let mut compared = 0;
    for (db, queries) in enumeration_population() {
        for q in &queries {
            for shape in BOTH_SHAPES {
                let planner = Planner { shape, ..Default::default() };
                let shared = planner.best_plans(&db, q, &ClassicEstimator, &hints);
                assert_eq!(shared.len(), hints.len());
                for (&hint, shared) in hints.iter().zip(shared) {
                    let alone = Planner { hint, ..planner }.best_plan(&db, q, &ClassicEstimator);
                    assert_eq!(shared, alone, "{} / {shape:?} on {q:?}", hint.label());
                    compared += 1;
                }
            }
        }
    }
    assert_eq!(compared, 2268);
}

/// (4): `Env::plan_with_hints` serves the DP's own annotations; they equal
/// what the reference path's trailing `cost_plan` pass writes on every
/// node, and the sweep is indistinguishable — plans, plan-cache counters,
/// event sequence — from one `plan_with_hint` per arm, cold or half warm.
#[test]
fn plan_with_hints_equals_one_cached_lookup_per_arm() {
    use ml4db_core::obs;
    use ml4db_optimizer::Env;
    let _serial = obs::serial();
    let arms = ml4db_plan::bao_arms();
    let mut nodes = 0;
    for (db, queries) in enumeration_population() {
        let (swept, looped) = (Env::new(&db), Env::new(&db));
        for (i, q) in queries.iter().enumerate() {
            // Every other query finds the expert arm cached, as a guarded
            // decision does after `expert_latency`.
            if i % 2 == 1 {
                swept.expert_plan(q);
                looped.expert_plan(q);
            }
            // The collector is process-wide: file this test's events
            // under ids no concurrently running test uses.
            let (swept_id, looped_id) = (0x5EED_0000 + i as u64, 0x100B_0000 + i as u64);
            let _collect = obs::ModeGuard::collect();
            let from_sweep = obs::with_query(swept_id, || swept.plan_with_hints(q, &arms));
            let from_loop: Vec<_> = obs::with_query(looped_id, || {
                arms.iter().map(|&arm| looped.plan_with_hint(q, arm)).collect()
            });
            let trace = obs::take_trace();
            assert_eq!(from_sweep, from_loop);
            assert_eq!(trace.events_for(swept_id), trace.events_for(looped_id));
            assert!(!trace.events_for(swept_id).is_empty());
            for (&arm, plan) in arms.iter().zip(&from_sweep) {
                assert_eq!(plan, &swept.plan_with_hint_uncached(q, arm), "{}", arm.label());
                nodes += plan.as_ref().map_or(0, PlanNode::size);
            }
        }
        let (s, l) = (swept.plan_cache(), looped.plan_cache());
        assert_eq!((s.hits(), s.misses(), s.len()), (l.hits(), l.misses(), l.len()));
        assert!(s.hits() > 0 && s.misses() > s.hits());
    }
    assert!(nodes > 1000, "only {nodes} annotated nodes compared");
}
