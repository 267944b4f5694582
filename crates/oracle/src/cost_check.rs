//! Cost-model-vs-execution checks.
//!
//! The executor's simulated latency is a weighted sum of its work counters
//! under [`TRUE_WEIGHTS`]; the formula cost model predicts the same
//! quantity from cardinalities. When the cardinalities are exact, the two
//! must agree — and for most operators they agree *exactly*, so the
//! per-operator checks use explainable tolerances derived from each
//! formula instead of a loose blanket ratio:
//!
//! - **Seq scan**: exact with ≤1 predicate; with more, the executor's
//!   early-exit can only *save* comparisons, so latency ∈
//!   `[cost − n·(k−1)·cpu_compare, cost]`.
//! - **Index scan**: exact when the true matched count is supplied and at
//!   most one residual predicate remains (the descent term is a single
//!   shared function in `ml4db-storage`, so any drift is an exact-identity
//!   failure — this is what caught the `ceil(log2 n)/4` vs
//!   `ceil(log2 n / 4)` integer-division bug).
//! - **NL / hash join**: exact.
//! - **Sort-merge join**: the executor ceils `n·log2 n` per side (≤ 2
//!   extra sort ops) and its merge phase performs at most `l + r`
//!   comparisons (the formula charges exactly `l + r`).
//!
//! Also hosts the reference CDF for [`Histogram`]: the same interpolation
//! written in the obviously-correct way (pure f64 accumulation), which is
//! what caught `cdf`'s fractional-mass truncation.

use ml4db_plan::card::CardEstimator;
use ml4db_plan::cost::CostModel;
use ml4db_plan::executor::execute;
use ml4db_plan::plan::{JoinAlgo, PlanNode, PlanOp, ScanAlgo};
use ml4db_plan::Query;
use ml4db_storage::exec::{self, ColRef};
use ml4db_storage::stats::Histogram;
use ml4db_storage::{Database, Predicate, Table, TRUE_WEIGHTS};

use crate::Discrepancy;

/// Absolute slack for float comparisons that should be identities.
const EXACT_EPS: f64 = 1e-9;

/// Checks that a sequential scan's formula cost reproduces its simulated
/// latency (exactly for ≤1 predicate, bounded by the early-exit slack
/// otherwise).
pub fn check_seq_scan_cost(table: &Table, predicates: &[Predicate]) -> Vec<Discrepancy> {
    let w = TRUE_WEIGHTS;
    let model = CostModel::new(w);
    let n = table.num_rows() as f64;
    let (out, stats) = exec::seq_scan(table, predicates);
    let latency = stats.latency_us(&w);
    let cost = model.scan_cost(ScanAlgo::Seq, n, predicates.len() as f64, out.num_rows() as f64);
    let mut found = Vec::new();
    let ctx = || format!("seq scan n={n} npreds={}", predicates.len());
    if predicates.len() <= 1 {
        if (cost - latency).abs() > EXACT_EPS {
            found.push(Discrepancy::new(
                "cost-vs-exec",
                format!("{}: cost {cost} != latency {latency} (should be exact)", ctx()),
            ));
        }
    } else {
        // Early exit can only skip comparisons: at most (k-1) per row.
        let slack = n * (predicates.len() as f64 - 1.0) * w.cpu_compare;
        if latency > cost + EXACT_EPS || cost > latency + slack + EXACT_EPS {
            found.push(Discrepancy::new(
                "cost-vs-exec",
                format!(
                    "{}: latency {latency} outside [cost - {slack}, cost] for cost {cost}",
                    ctx()
                ),
            ));
        }
    }
    found
}

/// Checks that an index scan's formula cost reproduces its simulated
/// latency when fed the *true* matched count — exact for ≤1 residual
/// predicate, including the shared B+Tree-descent term.
pub fn check_index_scan_cost(
    table: &Table,
    column: usize,
    lo: f64,
    hi: f64,
    residual: &[Predicate],
) -> Vec<Discrepancy> {
    let w = TRUE_WEIGHTS;
    let model = CostModel::new(w);
    let n = table.num_rows() as f64;
    let (_, stats) = exec::index_scan(table, column, lo, hi, residual, None);
    let latency = stats.latency_us(&w);
    // npreds counts the driving range plus residuals; the formula charges
    // comparisons only for the (npreds - 1) residuals.
    let npreds = residual.len() as f64 + 1.0;
    let matched = stats.tuples as f64;
    let cost = model.scan_cost(ScanAlgo::Index, n, npreds, matched);
    let mut found = Vec::new();
    let ctx =
        || format!("index scan n={n} range=[{lo},{hi}] matched={matched} nresid={}", residual.len());
    if residual.len() <= 1 {
        if (cost - latency).abs() > EXACT_EPS {
            found.push(Discrepancy::new(
                "cost-vs-exec",
                format!("{}: cost {cost} != latency {latency} (should be exact)", ctx()),
            ));
        }
    } else {
        let slack = matched * (residual.len() as f64 - 1.0) * w.cpu_compare;
        if latency > cost + EXACT_EPS || cost > latency + slack + EXACT_EPS {
            found.push(Discrepancy::new(
                "cost-vs-exec",
                format!(
                    "{}: latency {latency} outside [cost - {slack}, cost] for cost {cost}",
                    ctx()
                ),
            ));
        }
    }
    found
}

/// Checks one join algorithm's formula cost against its executed latency
/// on concrete inputs — every row of `left` joined to every row of `right`
/// on their first columns: exact for nested-loop and hash, bounded for
/// sort-merge (ceil rounding of `n log n`, merge comparisons ≤ `l + r`).
pub fn check_join_cost(left: &Table, right: &Table, algo: JoinAlgo) -> Vec<Discrepancy> {
    let w = TRUE_WEIGHTS;
    let model = CostModel::new(w);
    let (lb, rb) = (exec::seq_scan(left, &[]).0, exec::seq_scan(right, &[]).0);
    let key = ColRef { slot: 0, column: 0 };
    let (matches, stats) = match exec::join(algo, &lb, &rb, key, key) {
        Ok(r) => r,
        Err(e) => return vec![Discrepancy::new("cost-vs-exec", e)],
    };
    let latency = stats.latency_us(&w);
    let (l, r) = (left.num_rows() as f64, right.num_rows() as f64);
    let cost = model.join_cost(algo, l, r, matches.len() as f64);
    let mut found = Vec::new();
    let ctx = || format!("{algo:?} join l={l} r={r} out={}", matches.len());
    match algo {
        JoinAlgo::NestedLoop | JoinAlgo::Hash => {
            if (cost - latency).abs() > EXACT_EPS {
                found.push(Discrepancy::new(
                    "cost-vs-exec",
                    format!("{}: cost {cost} != latency {latency} (should be exact)", ctx()),
                ));
            }
        }
        JoinAlgo::SortMerge => {
            // Executor ceils n*log2(n) per sorted side; merge performs at
            // most l + r comparisons where the formula charges exactly that.
            let up = 2.0 * w.sort_op;
            let down = (l + r) * w.cpu_compare;
            if latency > cost + up + EXACT_EPS || cost > latency + down + EXACT_EPS {
                found.push(Discrepancy::new(
                    "cost-vs-exec",
                    format!(
                        "{}: latency {latency} outside [cost - {down}, cost + {up}] for cost {cost}",
                        ctx()
                    ),
                ));
            }
        }
    }
    found
}

/// Checks that a whole plan's formula cost under [`TRUE_WEIGHTS`] and a
/// (true-)cardinality estimator tracks its executed latency within
/// `[1/tolerance, tolerance]`.
///
/// Plan-level slack that the per-operator identities don't have: the
/// index-scan `matched` count is estimated from histograms rather than
/// observed, the true-cardinality oracle clamps empty results to one row,
/// and sort-merge rounding accumulates across operators.
pub fn check_plan_cost_tracks_latency(
    db: &Database,
    query: &Query,
    plan: &PlanNode,
    est: &dyn CardEstimator,
    tolerance: f64,
) -> Vec<Discrepancy> {
    let model = CostModel::new(TRUE_WEIGHTS);
    let mut costed = plan.clone();
    let cost = model.cost_plan(db, query, &mut costed, est);
    let mut found = Vec::new();
    match execute(db, query, plan) {
        Ok(result) => {
            let latency = result.latency_us.max(1e-12);
            let ratio = cost / latency;
            if !(1.0 / tolerance..=tolerance).contains(&ratio) {
                found.push(Discrepancy::new(
                    "cost-vs-latency",
                    format!(
                        "plan {}: cost {cost:.3} vs latency {latency:.3} (ratio {ratio:.3} \
                         outside [{:.3}, {tolerance:.3}])",
                        plan.signature(),
                        1.0 / tolerance
                    ),
                ));
            }
        }
        Err(e) => found.push(Discrepancy::new("cost-vs-latency", e)),
    }
    found
}

/// The obviously-correct CDF of an equi-depth histogram: full buckets
/// contribute their whole count, the straddling bucket contributes
/// linearly interpolated fractional mass, everything accumulated in f64.
pub fn reference_cdf(h: &Histogram, x: f64) -> f64 {
    if h.total == 0 {
        return 0.0;
    }
    let mut mass = 0.0f64;
    for (i, &count) in h.counts.iter().enumerate() {
        let (lo, hi) = (h.bounds[i], h.bounds[i + 1]);
        if x >= hi {
            mass += count as f64;
        } else if x >= lo {
            let width = hi - lo;
            let frac = if width > 0.0 { (x - lo) / width } else { 1.0 };
            mass += count as f64 * frac;
            break;
        } else {
            break;
        }
    }
    (mass / h.total as f64).clamp(0.0, 1.0)
}

/// Differentially checks `Histogram::cdf` on `probes`: it must equal
/// [`reference_cdf`] to float precision, and stay within one bucket's mass
/// of the empirical CDF of the underlying values (the approximation bound
/// of in-bucket linear interpolation).
pub fn check_histogram_cdf(values: &[f64], buckets: usize, probes: &[f64]) -> Vec<Discrepancy> {
    let h = Histogram::build(values, buckets);
    let mut found = Vec::new();
    let max_bucket_mass = if h.total == 0 {
        0.0
    } else {
        h.counts.iter().copied().max().unwrap_or(0) as f64 / h.total as f64
    };
    for &x in probes {
        let got = h.cdf(x);
        let want = reference_cdf(&h, x);
        if (got - want).abs() > 1e-9 {
            found.push(Discrepancy::new(
                "histogram-cdf",
                format!("cdf({x}) = {got} but reference interpolation gives {want}"),
            ));
        }
        if !values.is_empty() {
            let empirical =
                values.iter().filter(|&&v| v <= x).count() as f64 / values.len() as f64;
            if (got - empirical).abs() > max_bucket_mass + 1e-9 {
                found.push(Discrepancy::new(
                    "histogram-cdf",
                    format!(
                        "cdf({x}) = {got} is {} from empirical {empirical}, beyond one \
                         bucket's mass {max_bucket_mass}",
                        (got - empirical).abs()
                    ),
                ));
            }
        }
    }
    found
}

/// Sweeps every scan leaf and join node of `plan` through the
/// per-operator identity checks by re-running the plan's own operators on
/// their concrete inputs.
pub fn check_plan_operator_costs(db: &Database, query: &Query, plan: &PlanNode) -> Vec<Discrepancy> {
    let mut found = Vec::new();
    // Scan leaves: re-check seq-scan identities on the base tables.
    plan.walk(&mut |node| {
        if let PlanOp::Scan { table, algo: ScanAlgo::Seq, predicates, .. } = &node.op {
            if let Some(t) = db.catalog.table(&query.tables[*table].table) {
                let preds: Vec<Predicate> = predicates
                    .iter()
                    .filter_map(|p| {
                        t.schema
                            .column_index(&p.column)
                            .map(|c| Predicate { column: c, op: p.op, value: p.value })
                    })
                    .collect();
                found.extend(check_seq_scan_cost(t, &preds));
            }
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{
        joblite_db, sample_query, tpchlite_db, JOBLITE_EDGES, TPCHLITE_EDGES,
    };
    use ml4db_plan::{ClassicEstimator, Planner, TrueCardinality};
    use ml4db_storage::{CmpOp, ColumnData, DataType, Schema};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn int_table(n: i64, modulo: i64) -> Table {
        Table::new(
            "t",
            Schema::new(&[("a", DataType::Int), ("b", DataType::Int)]),
            vec![
                ColumnData::Int((0..n).collect()),
                ColumnData::Int((0..n).map(|i| i % modulo.max(1)).collect()),
            ],
        )
    }

    /// A `(key, row number)` table.
    fn keyed_table(keys: Vec<i64>) -> Table {
        let n = keys.len() as i64;
        Table::new(
            "k",
            Schema::new(&[("key", DataType::Int), ("n", DataType::Int)]),
            vec![ColumnData::Int(keys), ColumnData::Int((0..n).collect())],
        )
    }

    #[test]
    fn seq_scan_cost_is_exact_up_to_one_predicate() {
        for n in [0, 1, 63, 64, 65, 1000] {
            let t = int_table(n, 10);
            crate::assert_no_discrepancies(&check_seq_scan_cost(&t, &[]));
            crate::assert_no_discrepancies(&check_seq_scan_cost(
                &t,
                &[Predicate { column: 1, op: CmpOp::Eq, value: 3.0 }],
            ));
        }
    }

    #[test]
    fn seq_scan_cost_bounds_hold_with_early_exit() {
        let t = int_table(500, 7);
        let preds = [
            Predicate { column: 1, op: CmpOp::Le, value: 3.0 },
            Predicate { column: 0, op: CmpOp::Ge, value: 100.0 },
            Predicate { column: 0, op: CmpOp::Lt, value: 400.0 },
        ];
        crate::assert_no_discrepancies(&check_seq_scan_cost(&t, &preds));
    }

    #[test]
    fn index_scan_cost_is_exact_across_tree_heights() {
        // n = 20_000 is the size where `ceil(log2 n)/4` and
        // `ceil(log2 n / 4)` differ (15/4 = 3 vs ceil(3.57) = 4 levels):
        // the exact identity here is the regression guard for the descent
        // formula drifting between executor and cost model.
        for n in [2i64, 100, 4096, 20_000, 65_536] {
            let t = int_table(n, 97);
            let hi = (n / 3) as f64;
            crate::assert_no_discrepancies(&check_index_scan_cost(&t, 0, 10.0, hi, &[]));
            crate::assert_no_discrepancies(&check_index_scan_cost(
                &t,
                0,
                10.0,
                hi,
                &[Predicate { column: 1, op: CmpOp::Le, value: 50.0 }],
            ));
        }
    }

    #[test]
    fn join_costs_match_execution() {
        for (l, r) in [(0, 0), (0, 50), (50, 0), (1, 1), (40, 60), (300, 200)] {
            let left = keyed_table((0..l).map(|i| i % 13).collect());
            let right = keyed_table((0..r).map(|i| i % 11).collect());
            for algo in [JoinAlgo::NestedLoop, JoinAlgo::Hash, JoinAlgo::SortMerge] {
                crate::assert_no_discrepancies(&check_join_cost(&left, &right, algo));
            }
        }
    }

    #[test]
    fn plan_costs_track_latency_on_joblite() {
        let db = joblite_db(150, 31);
        let mut rng = StdRng::seed_from_u64(7);
        let oracle = TrueCardinality::new();
        let planner =
            Planner { cost_model: CostModel::new(TRUE_WEIGHTS), ..Default::default() };
        for i in 0..8 {
            let q = sample_query(&db, JOBLITE_EDGES, 3, &mut rng, i % 2 == 0);
            let mut plans = planner.random_plans(&db, &q, &oracle, 2, &mut rng);
            plans.extend(planner.best_plan(&db, &q, &oracle));
            plans.extend(planner.greedy_plan(&db, &q, &oracle));
            for p in &plans {
                crate::assert_no_discrepancies(&check_plan_cost_tracks_latency(
                    &db, &q, p, &oracle, 2.0,
                ));
                crate::assert_no_discrepancies(&check_plan_operator_costs(&db, &q, p));
            }
        }
    }

    #[test]
    fn plan_costs_track_latency_on_tpchlite() {
        let db = tpchlite_db(150, 32);
        let mut rng = StdRng::seed_from_u64(8);
        let oracle = TrueCardinality::new();
        let planner =
            Planner { cost_model: CostModel::new(TRUE_WEIGHTS), ..Default::default() };
        for _ in 0..6 {
            let q = sample_query(&db, TPCHLITE_EDGES, 4, &mut rng, true);
            if let Some(p) = planner.best_plan(&db, &q, &oracle) {
                crate::assert_no_discrepancies(&check_plan_cost_tracks_latency(
                    &db, &q, &p, &oracle, 2.0,
                ));
            }
        }
    }

    #[test]
    fn histogram_cdf_interpolates_fractional_mass() {
        // One bucket over 0..=9: cdf(0.55) must be the fractional 0.55/9,
        // not the whole-row truncation 0.
        let values: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let h = Histogram::build(&values, 1);
        assert!((h.cdf(0.55) - 0.55 / 9.0).abs() < 1e-12, "cdf(0.55) = {}", h.cdf(0.55));
        crate::assert_no_discrepancies(&check_histogram_cdf(&values, 1, &[0.55, 4.5, 8.9]));
    }

    #[test]
    fn histogram_cdf_matches_reference_on_skew() {
        let mut values = vec![0.0f64; 900];
        values.extend((1..=100).map(|i| i as f64 * 10.0));
        let probes: Vec<f64> = (-5..110).map(|i| i as f64 * 9.7).collect();
        crate::assert_no_discrepancies(&check_histogram_cdf(&values, 10, &probes));
    }

    #[test]
    fn classic_estimator_selectivities_use_fractional_cdf() {
        // Satellite regression: with truncation, tightening a predicate
        // *within* one bucket cannot change the estimate. joblite `year`
        // spans decades with 32 buckets over few distinct values, so probe
        // a fine grid and require strict monotone decrease somewhere
        // within every bucket-sized window.
        let db = joblite_db(400, 33);
        let est = |v: f64| {
            let q = Query::new(&["title"]).filter(0, "year", CmpOp::Le, v);
            ClassicEstimator.estimate_scan(&db, &q, 0)
        };
        let lo = est(1975.25);
        let hi = est(1975.75);
        assert!(
            hi > lo,
            "within-bucket CDF must move fractionally: est(<=1975.25) = {lo}, \
             est(<=1975.75) = {hi}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn histogram_cdf_reference_property(
            values in proptest::collection::vec(-1e4f64..1e4, 1..200),
            probes in proptest::collection::vec(-2e4f64..2e4, 1..20),
            buckets in 1usize..40,
        ) {
            let found = check_histogram_cdf(&values, buckets, &probes);
            prop_assert!(found.is_empty(), "{:?}", found);
        }

        #[test]
        fn join_cost_identity_property(
            lkeys in proptest::collection::vec(0i64..25, 0..80),
            rkeys in proptest::collection::vec(0i64..25, 0..80),
        ) {
            let (left, right) = (keyed_table(lkeys), keyed_table(rkeys));
            for algo in [JoinAlgo::NestedLoop, JoinAlgo::Hash, JoinAlgo::SortMerge] {
                let found = check_join_cost(&left, &right, algo);
                prop_assert!(found.is_empty(), "{:?}", found);
            }
        }
    }
}
