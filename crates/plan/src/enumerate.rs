//! Plan enumeration: dynamic programming over connected subgraphs (bushy
//! and left-deep), greedy ordering (GOO), and exhaustive plan-space
//! sampling used to generate training plans for the learned optimizers.
//!
//! # The DP: one table for any number of hint sets
//!
//! [`Planner::best_plans`] plans one query under several [`HintSet`]s
//! ("arms") in one pass; [`Planner::best_plan`] is its one-arm case, and
//! there is no other DP. Arms differ only in which operators they may
//! pick, so everything that does not depend on that choice is computed
//! once and read by every arm.
//!
//! **Layout.** `cells[mask * arms + arm]` is an `Option` of a `Copy`
//! triple: the cheapest cost found for joining the tables in `mask` under
//! that arm, its estimated rows, and a *back-pointer* — the index of a
//! scan candidate, or `(sub, algo)` meaning `plan(sub) ⋈ plan(mask \ sub)`.
//! No cell holds a tree. Scan candidates (a sequential scan, one index
//! scan per indexed predicate column) are built and costed once per table;
//! a one-table cell points at the cheapest candidate its arm allows. After
//! the last mask, each arm's tree is built **once** by following the
//! back-pointers from the full mask, and `est_rows` / `est_cost` of every
//! join are written from its cell (scan candidates carry theirs from
//! [`CostModel::cost_plan`]).
//!
//! **Visiting order and ties.** Masks ascend; for each connected mask the
//! splits `sub` descend through `(sub - 1) & mask`; within a split the
//! algorithms follow [`JOIN_ORDER`]. A candidate replaces the incumbent
//! only when *strictly* cheaper, so the first candidate in that order wins
//! a tie — per arm, exactly as if the arm had been planned alone.
//! `tests/oracle.rs` pins the resulting plans, annotation bits included,
//! to the clone-per-candidate DP this one replaced.
//!
//! **Shared per split.** A split is *live* when some arm has a plan for
//! both sides, the shape allows it and a join edge crosses it. For a live
//! split the output cardinality is estimated once and the algorithms' own
//! costs are computed once; each arm with both inputs then takes the
//! minimum over the algorithms it allows of `(left + right) + own`. (Own
//! costs depend on the inputs' estimated rows, which every arm shares
//! unless a stateful estimator answered two calls for one mask
//! differently; they are recomputed for an arm whose inputs differ.)
//!
//! **The estimator-call sequence is part of the contract.** The estimator
//! is called once per scan candidate and once per live split — *not* once
//! per mask, although a stateless estimator would answer the same. A
//! guarded estimator (`ml4db-guard`) counts calls: three consecutive
//! implausible answers trip its breaker, after which it answers
//! classically, so memoising or dropping a call changes which calls fall
//! back, hence the plans and every canonical artifact built from them.
//! With one arm the sequence is the historical one, call for call
//! (`one_hint_dp_keeps_the_estimator_call_sequence`); with several, a
//! split live in any arm is estimated once for all of them, which is why
//! only a stateless estimator should be shared across arms.

use rand::Rng;

use ml4db_storage::Database;

use crate::card::CardEstimator;
use crate::cost::CostModel;
use crate::hints::{HintSet, JOIN_ORDER};
use crate::plan::{JoinAlgo, PlanNode, PlanOp, ScanAlgo};
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

/// Widest query the DP enumerates: its table has `2^n` cells per hint
/// set, so the width is capped where PostgreSQL switches to GEQO
/// (`geqo_threshold`). [`Query::validate`] rejects wider queries and
/// [`Planner::best_plans`] answers `None` for callers that skipped it.
pub const MAX_DP_TABLES: usize = 12;

/// How a DP cell's plan is put together.
#[derive(Clone, Copy)]
enum Back {
    /// The table's scan candidate at this index.
    Scan(u32),
    /// `plan(sub) ⋈ plan(mask & !sub)` with this algorithm.
    Join(u32, JoinAlgo),
}

/// One `(mask, arm)` entry of the DP table: the cheapest plan found so far
/// as annotations plus a back-pointer, never as a tree.
#[derive(Clone, Copy)]
struct Cell {
    cost: f64,
    rows: f64,
    back: Back,
}

/// The DP table of one [`Planner::best_plans`] call.
struct DpTable<'q> {
    query: &'q Query,
    arms: usize,
    /// `cells[mask * arms + arm]`.
    cells: Vec<Option<Cell>>,
    /// Costed scan candidates per table, shared by every arm.
    scans: Vec<Vec<PlanNode>>,
}

impl DpTable<'_> {
    fn cell(&self, mask: u64, arm: usize) -> Option<Cell> {
        self.cells[mask as usize * self.arms + arm]
    }

    /// Both inputs of the split `sub ⋈ rest`, when `arm` can plan both.
    fn inputs(&self, sub: u64, rest: u64, arm: usize) -> Option<(Cell, Cell)> {
        self.cell(sub, arm).zip(self.cell(rest, arm))
    }

    /// Builds the tree of `(mask, arm)` from the back-pointers, annotating
    /// each join from its cell. Sub-cells a back-pointer names are filled.
    fn materialise(&self, mask: u64, arm: usize) -> Option<PlanNode> {
        let cell = self.cell(mask, arm)?;
        Some(match cell.back {
            Back::Scan(c) => self.scans[mask.trailing_zeros() as usize][c as usize].clone(),
            Back::Join(sub, algo) => {
                let sub = u64::from(sub);
                let left = self.materialise(sub, arm).expect("back-pointer to a filled cell");
                let right =
                    self.materialise(mask & !sub, arm).expect("back-pointer to a filled cell");
                let mut node = PlanNode::join(self.query, algo, left, right);
                node.est_rows = cell.rows;
                node.est_cost = cell.cost;
                node
            }
        })
    }
}

impl Planner {
    /// Scan alternatives for one table under `hint`.
    fn scan_choices(db: &Database, query: &Query, table: usize, hint: HintSet) -> Vec<PlanNode> {
        let mut out = Vec::new();
        if hint.seq_scan {
            out.push(PlanNode::scan(query, table, ScanAlgo::Seq, None));
        }
        if hint.index_scan {
            // An index scan is legal per indexed column that has a predicate.
            for p in query.predicates_on(table) {
                if db.has_index(&query.tables[table].table, &p.column) {
                    let dup = out.iter().any(|n| {
                        matches!(&n.op, PlanOp::Scan { algo: ScanAlgo::Index, index_column: Some(c), .. } if c == &p.column)
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

    /// Finds the cheapest plan under `self.hint` by DP over connected
    /// subsets — the one-hint case of [`Planner::best_plans`].
    ///
    /// Returns `None` when the hint set admits no plan (e.g. index-only
    /// scans on tables without indexes).
    pub fn best_plan(
        &self,
        db: &Database,
        query: &Query,
        est: &dyn CardEstimator,
    ) -> Option<PlanNode> {
        self.best_plans(db, query, est, &[self.hint]).pop().flatten()
    }

    /// The cheapest plan under each of `hints` (in order; `self.hint` is
    /// not consulted) from **one** DP pass. `None` where a hint set is
    /// invalid or admits no plan, and everywhere for an empty query or one
    /// wider than [`MAX_DP_TABLES`].
    ///
    /// See the module docs for the table layout, the tie-breaking rule and
    /// the estimator-call contract.
    pub fn best_plans(
        &self,
        db: &Database,
        query: &Query,
        est: &dyn CardEstimator,
        hints: &[HintSet],
    ) -> Vec<Option<PlanNode>> {
        let n = query.num_tables();
        let arms = hints.len();
        // What any valid arm may use; invalid arms take no part.
        let any = hints.iter().copied().filter(|h| h.is_valid()).reduce(HintSet::union);
        let (Some(any), true) = (any, (1..=MAX_DP_TABLES).contains(&n)) else {
            return vec![None; arms];
        };
        let full = query.full_mask();
        let mut dp = DpTable {
            query,
            arms,
            cells: vec![None; (full as usize + 1) * arms],
            scans: Vec::with_capacity(n),
        };
        for t in 0..n {
            let mut cands = Self::scan_choices(db, query, t, any);
            for c in cands.iter_mut() {
                self.cost_model.cost_plan(db, query, c, est);
            }
            for (a, hint) in hints.iter().enumerate().filter(|(_, h)| h.is_valid()) {
                let mut best: Option<Cell> = None;
                for (i, c) in cands.iter().enumerate() {
                    let PlanOp::Scan { algo, .. } = &c.op else { unreachable!("scan candidate") };
                    if hint.allows_scan(*algo) && best.map_or(true, |b| c.est_cost < b.cost) {
                        best = Some(Cell {
                            cost: c.est_cost,
                            rows: c.est_rows,
                            back: Back::Scan(i as u32),
                        });
                    }
                }
                dp.cells[(1usize << t) * arms + a] = best;
            }
            dp.scans.push(cands);
        }
        for mask in 1..=full {
            if mask.count_ones() < 2 || !query.is_connected(mask) {
                continue;
            }
            // Enumerate splits: left = sub, right = mask \ sub.
            let mut sub = (mask - 1) & mask;
            while sub > 0 {
                let rest = mask & !sub;
                let shape_ok = match self.shape {
                    PlanShape::Bushy => true,
                    PlanShape::LeftDeep => rest.count_ones() == 1,
                };
                if shape_ok
                    && (0..arms).any(|a| dp.inputs(sub, rest, a).is_some())
                    && query.has_edge_between(sub, rest)
                {
                    let out = est.estimate_sanitized(db, query, mask);
                    // The algorithms' own costs, keyed by the input rows
                    // they were computed for: every arm sees the same rows
                    // unless a stateful estimator answered two calls for
                    // one mask differently.
                    let mut own: Option<(f64, f64, [f64; 3])> = None;
                    for (a, hint) in hints.iter().enumerate() {
                        let Some((l, r)) = dp.inputs(sub, rest, a) else { continue };
                        let costs = match own {
                            Some((lr, rr, costs)) if lr == l.rows && rr == r.rows => costs,
                            _ => {
                                let mut costs = [0.0; 3];
                                for (k, &algo) in JOIN_ORDER.iter().enumerate() {
                                    if any.allows_join(algo) {
                                        costs[k] =
                                            self.cost_model.join_cost(algo, l.rows, r.rows, out);
                                    }
                                }
                                own = Some((l.rows, r.rows, costs));
                                costs
                            }
                        };
                        let children = l.cost + r.cost;
                        let here = &mut dp.cells[mask as usize * arms + a];
                        for (k, &algo) in JOIN_ORDER.iter().enumerate() {
                            let total = children + costs[k];
                            if hint.allows_join(algo) && here.map_or(true, |b| total < b.cost) {
                                *here = Some(Cell {
                                    cost: total,
                                    rows: out,
                                    back: Back::Join(sub as u32, algo),
                                });
                            }
                        }
                    }
                }
                sub = (sub - 1) & mask;
            }
        }
        (0..arms).map(|a| dp.materialise(full, a)).collect()
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
                let mut cands = Self::scan_choices(db, query, t, self.hint);
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
                    let cands = Self::scan_choices(db, query, t, self.hint);
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
    fn invalid_arms_answer_none_beside_valid_ones() {
        let db = db();
        let q = three_way();
        let no_scans = HintSet { index_scan: false, seq_scan: false, ..HintSet::all() };
        let plans =
            Planner::default().best_plans(&db, &q, &ClassicEstimator, &[no_scans, HintSet::all()]);
        assert_eq!(plans, [None, Planner::default().best_plan(&db, &q, &ClassicEstimator)]);
        assert!(plans[1].is_some());
    }

    #[test]
    fn wider_than_the_dp_table_is_declined_not_allocated() {
        let db = db();
        let chain = |n: usize| {
            (1..n).fold(Query::new(&vec!["title"; n]), |q, i| q.join(i - 1, "id", i, "id"))
        };
        let planner = Planner::default();
        assert!(planner.best_plan(&db, &chain(MAX_DP_TABLES), &ClassicEstimator).is_some());
        for n in [MAX_DP_TABLES + 1, 30, 64, 65] {
            let plans = planner.best_plans(&db, &chain(n), &ClassicEstimator, &crate::bao_arms());
            assert_eq!(plans, vec![None; 6], "{n} tables");
        }
        assert_eq!(chain(64).full_mask(), u64::MAX);
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
