//! Plan enumeration: dynamic programming over connected subgraphs (bushy
//! and left-deep), greedy ordering (GOO), and exhaustive plan-space
//! sampling used to generate training plans for the learned optimizers.

use rand::Rng;

use ml4db_storage::Database;

use crate::card::CardEstimator;
use crate::cost::CostModel;
use crate::hints::HintSet;
use crate::plan::{JoinAlgo, PlanNode, ScanAlgo};
use crate::query::Query;

/// Enumeration shape restriction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanShape {
    /// Any binary tree.
    Bushy,
    /// Right child of every join is a base table.
    LeftDeep,
}

/// The classical optimizer: System R-style DP, formula cost model, hint-set
/// aware — the "expert" the ML-enhanced methods keep in the loop.
#[derive(Clone, Copy, Debug)]
pub struct Planner {
    /// Cost model used to rank candidates.
    pub cost_model: CostModel,
    /// Shape restriction.
    pub shape: PlanShape,
    /// Operator classes allowed.
    pub hint: HintSet,
}

impl Default for Planner {
    fn default() -> Self {
        Self { cost_model: CostModel::default(), shape: PlanShape::Bushy, hint: HintSet::all() }
    }
}

impl Planner {
    /// Best scan alternatives for one table under the hint set.
    fn scan_choices(&self, db: &Database, query: &Query, table: usize) -> Vec<PlanNode> {
        let mut out = Vec::new();
        let hint = self.hint;
        if hint.seq_scan {
            out.push(PlanNode::scan(query, table, ScanAlgo::Seq, None));
        }
        if hint.index_scan {
            // An index scan is legal per indexed column that has a predicate.
            for p in query.predicates_on(table) {
                if db.has_index(&query.tables[table].table, &p.column) {
                    let dup = out.iter().any(|n| {
                        matches!(&n.op, crate::plan::PlanOp::Scan { algo: ScanAlgo::Index, index_column: Some(c), .. } if c == &p.column)
                    });
                    if !dup {
                        out.push(PlanNode::scan(
                            query,
                            table,
                            ScanAlgo::Index,
                            Some(p.column.clone()),
                        ));
                    }
                }
            }
        }
        out
    }

    /// Finds the cheapest plan by DP over connected subsets.
    ///
    /// Returns `None` when the hint set admits no plan (e.g. index-only
    /// scans on tables without indexes).
    pub fn best_plan(
        &self,
        db: &Database,
        query: &Query,
        est: &dyn CardEstimator,
    ) -> Option<PlanNode> {
        let n = query.num_tables();
        if n == 0 || !self.hint.is_valid() {
            return None;
        }
        let full = query.full_mask();
        // best[mask] = (cost, plan)
        let mut best: Vec<Option<(f64, PlanNode)>> = vec![None; (full + 1) as usize];
        for t in 0..n {
            let mut cands = self.scan_choices(db, query, t);
            let mut best_scan: Option<(f64, PlanNode)> = None;
            for c in cands.iter_mut() {
                let cost = self.cost_model.cost_plan(db, query, c, est);
                if best_scan.as_ref().map_or(true, |(bc, _)| cost < *bc) {
                    best_scan = Some((cost, c.clone()));
                }
            }
            best[1usize << t] = best_scan;
        }
        let joins = self.hint.allowed_joins();
        for mask in 1..=full {
            if mask.count_ones() < 2 || !query.is_connected(mask) {
                continue;
            }
            let mut best_here: Option<(f64, PlanNode)> = None;
            // Enumerate splits: left = sub, right = mask \ sub.
            let mut sub = (mask - 1) & mask;
            while sub > 0 {
                let rest = mask & !sub;
                let left_ok = best[sub as usize].is_some();
                let right_ok = best[rest as usize].is_some();
                let shape_ok = match self.shape {
                    PlanShape::Bushy => true,
                    PlanShape::LeftDeep => rest.count_ones() == 1,
                };
                if left_ok
                    && right_ok
                    && shape_ok
                    && !query.edges_between(sub, rest).is_empty()
                {
                    let (lc, lp) = best[sub as usize].clone().expect("checked");
                    let (rc, rp) = best[rest as usize].clone().expect("checked");
                    let out = est.estimate_sanitized(db, query, mask);
                    let l_rows = lp.est_rows;
                    let r_rows = rp.est_rows;
                    for &algo in &joins {
                        let own = self.cost_model.join_cost(algo, l_rows, r_rows, out);
                        let total = lc + rc + own;
                        if best_here.as_ref().map_or(true, |(bc, _)| total < *bc) {
                            let mut node = PlanNode::join(query, algo, lp.clone(), rp.clone());
                            node.est_rows = out;
                            node.est_cost = total;
                            best_here = Some((total, node));
                        }
                    }
                }
                sub = (sub - 1) & mask;
            }
            best[mask as usize] = best_here;
        }
        best[full as usize].take().map(|(_, p)| p)
    }

    /// Greedy operator ordering (GOO): repeatedly joins the pair with the
    /// smallest estimated output. Linear-ish time; the baseline for large
    /// queries.
    pub fn greedy_plan(
        &self,
        db: &Database,
        query: &Query,
        est: &dyn CardEstimator,
    ) -> Option<PlanNode> {
        let n = query.num_tables();
        if n == 0 || !self.hint.is_valid() {
            return None;
        }
        let mut parts: Vec<PlanNode> = (0..n)
            .map(|t| {
                let mut cands = self.scan_choices(db, query, t);
                cands
                    .iter_mut()
                    .map(|c| {
                        let cost = self.cost_model.cost_plan(db, query, c, est);
                        (cost, c.clone())
                    })
                    .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(_, p)| p)
            })
            .collect::<Option<Vec<_>>>()?;
        let joins = self.hint.allowed_joins();
        while parts.len() > 1 {
            // Classic GOO scores on estimated output *rows* (a scale-free
            // quantity); incremental cost only breaks ties among pairs and
            // algorithms. Adding rows to microsecond cost would make the
            // chosen pair depend on the weight scale.
            let mut best: Option<(f64, f64, usize, usize, JoinAlgo)> = None;
            for i in 0..parts.len() {
                for j in 0..parts.len() {
                    if i == j || query.edges_between(parts[i].mask, parts[j].mask).is_empty() {
                        continue;
                    }
                    let out = est.estimate_sanitized(db, query, parts[i].mask | parts[j].mask);
                    for &algo in &joins {
                        let own = self.cost_model.join_cost(
                            algo,
                            parts[i].est_rows,
                            parts[j].est_rows,
                            out,
                        );
                        let better = best.map_or(true, |(brows, bcost, ..)| {
                            out < brows || (out == brows && own < bcost)
                        });
                        if better {
                            best = Some((out, own, i, j, algo));
                        }
                    }
                }
            }
            let (_, _, i, j, algo) = best?;
            let (hi, lo) = (i.max(j), i.min(j));
            let right = parts.remove(hi);
            let left = parts.remove(lo);
            // Recover original operand order.
            let (l, r) = if i < j { (left, right) } else { (right, left) };
            let mut node = PlanNode::join(query, algo, l, r);
            node.est_rows = est.estimate_sanitized(db, query, node.mask);
            parts.push(node);
        }
        let mut plan = parts.pop()?;
        self.cost_model.cost_plan(db, query, &mut plan, est);
        Some(plan)
    }

    /// Samples `k` random valid plans (random join order and algorithms) —
    /// training-plan diversity for the learned optimizers.
    pub fn random_plans<R: Rng + ?Sized>(
        &self,
        db: &Database,
        query: &Query,
        est: &dyn CardEstimator,
        k: usize,
        rng: &mut R,
    ) -> Vec<PlanNode> {
        let joins = self.hint.allowed_joins();
        let mut out = Vec::with_capacity(k);
        for _ in 0..k {
            let mut parts: Vec<PlanNode> = (0..query.num_tables())
                .map(|t| {
                    let cands = self.scan_choices(db, query, t);
                    if cands.is_empty() {
                        return None;
                    }
                    Some(cands[rng.gen_range(0..cands.len())].clone())
                })
                .collect::<Option<Vec<_>>>()
                .unwrap_or_default();
            if parts.is_empty() {
                continue;
            }
            while parts.len() > 1 {
                // Pick a random joinable pair.
                let pairs: Vec<(usize, usize)> = (0..parts.len())
                    .flat_map(|i| (0..parts.len()).map(move |j| (i, j)))
                    .filter(|&(i, j)| {
                        i != j && !query.edges_between(parts[i].mask, parts[j].mask).is_empty()
                    })
                    .collect();
                if pairs.is_empty() {
                    break;
                }
                let (i, j) = pairs[rng.gen_range(0..pairs.len())];
                let algo = joins[rng.gen_range(0..joins.len())];
                let (hi, lo) = (i.max(j), i.min(j));
                let right = parts.remove(hi);
                let left = parts.remove(lo);
                let (l, r) = if i < j { (left, right) } else { (right, left) };
                parts.push(PlanNode::join(query, algo, l, r));
            }
            if parts.len() == 1 {
                let mut p = parts.pop().expect("one part");
                self.cost_model.cost_plan(db, query, &mut p, est);
                out.push(p);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::card::{ClassicEstimator, TrueCardinality};
    use crate::executor::execute_columnar;
    use ml4db_storage::datasets::{joblite, DatasetConfig};
    use ml4db_storage::{CmpOp, TRUE_WEIGHTS};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db() -> Database {
        let mut rng = StdRng::seed_from_u64(11);
        let cat = joblite(&DatasetConfig { base_rows: 150, ..Default::default() }, &mut rng);
        let mut db = Database::analyze(cat, &mut rng);
        db.add_index("title", "year");
        db
    }

    fn three_way() -> Query {
        Query::new(&["title", "cast_info", "person"])
            .join(0, "id", 1, "movie_id")
            .join(1, "person_id", 2, "id")
            .filter(0, "year", CmpOp::Ge, 2010.0)
    }

    #[test]
    fn dp_produces_valid_plan() {
        let db = db();
        let q = three_way();
        let plan = Planner::default().best_plan(&db, &q, &ClassicEstimator).unwrap();
        plan.validate().unwrap();
        assert_eq!(plan.mask, q.full_mask());
        // And it executes.
        execute_columnar(&db, &q, &plan).unwrap();
    }

    #[test]
    fn dp_with_true_cards_is_optimal_among_candidates() {
        let db = db();
        let q = three_way();
        let oracle = TrueCardinality::new();
        let planner = Planner {
            cost_model: CostModel::new(TRUE_WEIGHTS),
            ..Default::default()
        };
        let best = planner.best_plan(&db, &q, &oracle).unwrap();
        let best_latency = execute_columnar(&db, &q, &best).unwrap().latency_us;
        // Sample random plans: none should beat the DP plan by much.
        let mut rng = StdRng::seed_from_u64(1);
        for p in planner.random_plans(&db, &q, &oracle, 20, &mut rng) {
            let lat = execute_columnar(&db, &q, &p).unwrap().latency_us;
            assert!(
                best_latency <= lat * 1.3,
                "random plan ({lat}) much better than DP plan ({best_latency})\n{}",
                p.explain(&q)
            );
        }
    }

    #[test]
    fn left_deep_restriction_holds() {
        let db = db();
        let q = three_way();
        let planner = Planner { shape: PlanShape::LeftDeep, ..Default::default() };
        let plan = planner.best_plan(&db, &q, &ClassicEstimator).unwrap();
        assert!(plan.is_left_deep());
    }

    #[test]
    fn hints_restrict_operators() {
        let db = db();
        let q = three_way();
        let hint = HintSet {
            hash_join: false,
            merge_join: false,
            index_scan: false,
            ..HintSet::all()
        };
        let planner = Planner { hint, ..Default::default() };
        let plan = planner.best_plan(&db, &q, &ClassicEstimator).unwrap();
        plan.walk(&mut |n| match &n.op {
            crate::plan::PlanOp::Join { algo, .. } => {
                assert_eq!(*algo, JoinAlgo::NestedLoop)
            }
            crate::plan::PlanOp::Scan { algo, .. } => assert_eq!(*algo, ScanAlgo::Seq),
        });
    }

    #[test]
    fn different_hints_can_change_the_plan() {
        let db = db();
        let q = three_way();
        let all = Planner::default().best_plan(&db, &q, &ClassicEstimator).unwrap();
        let no_hash = Planner {
            hint: HintSet { hash_join: false, ..HintSet::all() },
            ..Default::default()
        }
        .best_plan(&db, &q, &ClassicEstimator)
        .unwrap();
        assert_ne!(all.signature(), no_hash.signature());
    }

    #[test]
    fn greedy_produces_valid_plan() {
        let db = db();
        let q = three_way();
        let plan = Planner::default().greedy_plan(&db, &q, &ClassicEstimator).unwrap();
        plan.validate().unwrap();
        assert_eq!(plan.mask, q.full_mask());
        execute_columnar(&db, &q, &plan).unwrap();
    }

    /// An estimator gone wrong: NaN on every join, -∞ on scans — the raw
    /// output of an unconverged or corrupted learned model.
    struct NanEstimator;
    impl CardEstimator for NanEstimator {
        fn estimate(&self, _: &Database, _: &Query, mask: u64) -> f64 {
            if mask.count_ones() > 1 {
                f64::NAN
            } else {
                f64::NEG_INFINITY
            }
        }
    }

    #[test]
    fn nan_estimates_still_yield_valid_executable_plans() {
        // Regression test for the planner boundary: before sanitization a
        // NaN cardinality tied with every candidate in the DP's
        // `partial_cmp(..).unwrap_or(Equal)` comparisons, silently picking
        // an arbitrary plan with NaN annotations. Sanitized, both DP and
        // greedy must return structurally valid, finitely-annotated plans
        // that execute.
        let db = db();
        let q = three_way();
        for plan in [
            Planner::default().best_plan(&db, &q, &NanEstimator).unwrap(),
            Planner::default().greedy_plan(&db, &q, &NanEstimator).unwrap(),
        ] {
            plan.validate().unwrap();
            assert_eq!(plan.mask, q.full_mask());
            plan.walk(&mut |n| {
                assert!(
                    n.est_rows.is_finite() && n.est_rows >= 1.0,
                    "unsanitized est_rows {} escaped",
                    n.est_rows
                );
                assert!(n.est_cost.is_finite(), "non-finite est_cost escaped");
            });
            execute_columnar(&db, &q, &plan).unwrap();
        }
    }

    #[test]
    fn random_plans_are_valid_and_diverse() {
        let db = db();
        let q = three_way();
        let mut rng = StdRng::seed_from_u64(5);
        let plans =
            Planner::default().random_plans(&db, &q, &ClassicEstimator, 30, &mut rng);
        assert!(plans.len() >= 25);
        let sigs: std::collections::BTreeSet<String> =
            plans.iter().map(|p| p.signature()).collect();
        assert!(sigs.len() > 3, "no diversity: {sigs:?}");
        for p in &plans {
            p.validate().unwrap();
        }
    }
}
