//! Root differential-testing oracle suite: end-to-end cross-checks of the
//! executor, cost model, planners, and learned indexes against the
//! trivially-correct references in `ml4db-oracle`, plus the property tests
//! the oracle issue calls out by name (join-implementation equivalence on
//! float keys and empty inputs, and exact timeout semantics).
//!
//! Run with `cargo test --test oracle`; CI runs it under both default
//! threading and `ML4DB_THREADS=1`.

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
use ml4db_plan::executor::{canonical_multiset, execute, execute_with_timeout, ExecOutcome};
use ml4db_plan::{ClassicEstimator, Planner, TrueCardinality};
use ml4db_storage::exec::{hash_join, nested_loop_join, sort_merge_join};
use ml4db_storage::{Row, Value, TRUE_WEIGHTS};
use ml4db_plan::CostModel;
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
/// `execute_with_timeout` must report `TimedOut` exactly when the untimed
/// latency strictly exceeds the budget.
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
                let outcome = execute_with_timeout(&db, &q, p, budget).expect("executes");
                let timed_out = matches!(outcome, ExecOutcome::TimedOut { .. });
                assert_eq!(
                    timed_out,
                    untimed > budget,
                    "budget {budget} vs untimed latency {untimed}: TimedOut must hold \
                     exactly when latency exceeds the budget (plan {})",
                    p.signature()
                );
                if let ExecOutcome::Done(r) = outcome {
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
        let left: Vec<Row> = lkeys.iter().enumerate()
            .map(|(i, &k)| vec![Value::Float(decode(k)), Value::Int(i as i64)]).collect();
        let right: Vec<Row> = rkeys.iter().enumerate()
            .map(|(i, &k)| vec![Value::Float(decode(k)), Value::Int(1000 + i as i64)]).collect();
        let want = multiset(&reference_join(&left, &right, 0, 0));
        let (nl, _) = nested_loop_join(&left, &right, 0, 0);
        let (hj, _) = hash_join(&left, &right, 0, 0);
        let (smj, _) = sort_merge_join(&left, &right, 0, 0);
        prop_assert_eq!(&multiset(&nl), &want, "nested loop vs reference");
        prop_assert_eq!(&multiset(&hj), &want, "hash join vs reference");
        prop_assert_eq!(&multiset(&smj), &want, "sort-merge join vs reference");
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
    use ml4db_plan::Query;
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
