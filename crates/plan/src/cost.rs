//! The formula-based cost model: PostgreSQL-style per-operator formulas
//! parameterized by tunable [`CostWeights`] — the **R-params** that
//! ParamTree \[50\] learns. With true cardinalities and true weights, the
//! model's cost equals the executor's simulated latency up to small
//! rounding, which the tests verify.

use ml4db_storage::exec::{index_descent_pages, ROWS_PER_PAGE};
use ml4db_storage::{CostWeights, Database};

use crate::card::{CardEstimator, ClassicEstimator};
use crate::plan::{JoinAlgo, PlanNode, PlanOp, ScanAlgo};
use crate::query::Query;

/// A formula cost model with pluggable weights and cardinality source.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Per-unit work weights (the R-params).
    pub weights: CostWeights,
}

impl Default for CostModel {
    fn default() -> Self {
        Self { weights: CostWeights::postgres_defaults() }
    }
}

impl CostModel {
    /// A cost model with the given weights.
    pub fn new(weights: CostWeights) -> Self {
        Self { weights }
    }

    /// Cost of scanning `table` (physical rows `n`) with `npreds`
    /// predicates, producing `out` rows.
    pub fn scan_cost(&self, algo: ScanAlgo, n: f64, npreds: f64, matched: f64) -> f64 {
        let w = &self.weights;
        match algo {
            ScanAlgo::Seq => {
                (n / ROWS_PER_PAGE as f64).ceil() * w.seq_page
                    + n * w.cpu_tuple
                    + n * npreds.max(0.0) * w.cpu_compare
            }
            ScanAlgo::Index => {
                // Same descent formula as the executor (shared function in
                // ml4db-storage), so cost and simulated latency agree.
                let descent = index_descent_pages(n.max(0.0) as u64) as f64;
                descent * w.random_page
                    + (matched / ROWS_PER_PAGE as f64).ceil() * w.random_page
                    + matched * w.cpu_tuple
                    + matched * (npreds - 1.0).max(0.0) * w.cpu_compare
            }
        }
    }

    /// Incremental cost of a join producing `out` rows from inputs of `l`
    /// and `r` rows (children costs not included).
    pub fn join_cost(&self, algo: JoinAlgo, l: f64, r: f64, out: f64) -> f64 {
        let w = &self.weights;
        let nlogn = |n: f64| if n <= 1.0 { n } else { n * n.log2() };
        match algo {
            JoinAlgo::NestedLoop => l * r * w.cpu_compare + (l + r + out) * w.cpu_tuple,
            JoinAlgo::Hash => {
                r * w.hash_build + l * w.hash_probe + (l + r + out) * w.cpu_tuple
            }
            JoinAlgo::SortMerge => {
                (nlogn(l) + nlogn(r)) * w.sort_op
                    + (l + r) * w.cpu_compare
                    + (l + r + out) * w.cpu_tuple
            }
        }
    }

    /// Annotates `plan` bottom-up with `est_rows` (from the estimator) and
    /// cumulative `est_cost`; returns the root cost.
    pub fn cost_plan(
        &self,
        db: &Database,
        query: &Query,
        plan: &mut PlanNode,
        est: &dyn CardEstimator,
    ) -> f64 {
        let out = est.estimate_sanitized(db, query, plan.mask);
        plan.est_rows = out;
        let own = match &plan.op {
            PlanOp::Scan { table, algo, predicates, index_column } => {
                let n = db
                    .table_stats(&query.tables[*table].table)
                    .map(|s| s.rows as f64)
                    .unwrap_or(1000.0);
                let matched = match (algo, index_column) {
                    (ScanAlgo::Index, Some(col)) => {
                        // Selectivity of the index-driving predicates only.
                        let mut sel = 1.0;
                        for p in predicates.iter().filter(|p| &p.column == col) {
                            sel *= ClassicEstimator::predicate_selectivity(db, query, p);
                        }
                        n * sel
                    }
                    _ => out,
                };
                self.scan_cost(*algo, n, predicates.len() as f64, matched)
            }
            PlanOp::Join { algo, .. } => {
                let l = est.estimate_sanitized(db, query, plan.children[0].mask);
                let r = est.estimate_sanitized(db, query, plan.children[1].mask);
                self.join_cost(*algo, l, r, out)
            }
        };
        let children: f64 = plan
            .children
            .iter_mut()
            .map(|c| self.cost_plan(db, query, c, est))
            .sum();
        plan.est_cost = own + children;
        plan.est_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::card::TrueCardinality;
    use crate::executor::execute_columnar;
    use ml4db_storage::datasets::{joblite, DatasetConfig};
    use ml4db_storage::{CmpOp, TRUE_WEIGHTS};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db() -> Database {
        let mut rng = StdRng::seed_from_u64(9);
        let cat = joblite(&DatasetConfig { base_rows: 200, ..Default::default() }, &mut rng);
        Database::analyze(cat, &mut rng)
    }

    fn two_way() -> Query {
        Query::new(&["title", "cast_info"])
            .join(0, "id", 1, "movie_id")
            .filter(0, "year", CmpOp::Ge, 2000.0)
    }

    #[test]
    fn true_weights_true_cards_track_latency() {
        let db = db();
        let q = two_way();
        let oracle = TrueCardinality::new();
        let model = CostModel::new(TRUE_WEIGHTS);
        for algo in [JoinAlgo::Hash, JoinAlgo::NestedLoop, JoinAlgo::SortMerge] {
            let mut p = PlanNode::join(
                &q,
                algo,
                PlanNode::scan(&q, 0, crate::plan::ScanAlgo::Seq, None),
                PlanNode::scan(&q, 1, crate::plan::ScanAlgo::Seq, None),
            );
            let cost = model.cost_plan(&db, &q, &mut p, &oracle);
            let actual = execute_columnar(&db, &q, &p).unwrap().latency_us;
            let ratio = cost / actual;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{algo:?}: cost {cost} vs latency {actual} (ratio {ratio})"
            );
        }
    }

    #[test]
    fn cost_is_monotone_in_cardinality() {
        let m = CostModel::default();
        assert!(m.join_cost(JoinAlgo::Hash, 1000.0, 1000.0, 100.0)
            > m.join_cost(JoinAlgo::Hash, 100.0, 100.0, 10.0));
        assert!(m.scan_cost(ScanAlgo::Seq, 10_000.0, 1.0, 100.0)
            > m.scan_cost(ScanAlgo::Seq, 100.0, 1.0, 10.0));
    }

    #[test]
    fn nested_loop_wins_only_when_tiny() {
        let m = CostModel::new(TRUE_WEIGHTS);
        let tiny_nl = m.join_cost(JoinAlgo::NestedLoop, 3.0, 3.0, 3.0);
        let tiny_hash = m.join_cost(JoinAlgo::Hash, 3.0, 3.0, 3.0);
        assert!(tiny_nl < tiny_hash, "NL should win on tiny inputs");
        let big_nl = m.join_cost(JoinAlgo::NestedLoop, 1e4, 1e4, 1e4);
        let big_hash = m.join_cost(JoinAlgo::Hash, 1e4, 1e4, 1e4);
        assert!(big_hash < big_nl, "hash should win on large inputs");
    }

    #[test]
    fn annotations_are_set() {
        let db = db();
        let q = two_way();
        let mut p = PlanNode::join(
            &q,
            JoinAlgo::Hash,
            PlanNode::scan(&q, 0, crate::plan::ScanAlgo::Seq, None),
            PlanNode::scan(&q, 1, crate::plan::ScanAlgo::Seq, None),
        );
        CostModel::default().cost_plan(&db, &q, &mut p, &crate::card::ClassicEstimator);
        p.walk(&mut |n| {
            assert!(n.est_rows > 0.0);
            assert!(n.est_cost > 0.0);
        });
        // Root cost includes children.
        assert!(p.est_cost >= p.children[0].est_cost + p.children[1].est_cost);
    }
}
