//! PLATON (Yang & Cong \[48\]) — **ML-enhanced bulk-loading**: top-down
//! R-tree packing whose partition policy is learned with Monte-Carlo tree
//! search, explicitly optimizing the expected query cost of a given
//! data + workload instance.
//!
//! Faithful to the paper's structure: packing proceeds top-down by
//! recursively cutting the point set; each cut decision is made by a
//! bounded-budget MCTS whose reward is the (negative) estimated workload
//! leaf accesses of a greedy completion — the budget cap per decision is
//! PLATON's linear-time optimization.

use rand::rngs::StdRng;
use rand::SeedableRng;

use ml4db_nn::rl::{Mcts, MctsProblem};

use crate::geom::Rect;
use crate::rtree::{Entry, RTree, MAX_ENTRIES};

/// Cut actions per decision: dimension × position quantile.
const CUTS: [(bool, f64); 6] = [
    (true, 0.25),
    (true, 0.5),
    (true, 0.75),
    (false, 0.25),
    (false, 0.5),
    (false, 0.75),
];

/// The PLATON packer.
#[derive(Clone, Debug)]
pub struct PlatonPacker {
    /// MCTS simulations per cut decision (the linear-time budget knob).
    pub simulations: usize,
    /// Target leaf capacity.
    pub leaf_capacity: usize,
}

impl Default for PlatonPacker {
    fn default() -> Self {
        Self { simulations: 64, leaf_capacity: MAX_ENTRIES }
    }
}

/// MCTS problem for a *single* partition: decide this partition's cut; the
/// rollout completes both halves with median cuts and scores the result.
struct CutProblem<'a> {
    workload: &'a [Rect],
    leaf_capacity: usize,
    /// Depth of lookahead before greedy completion.
    max_depth: usize,
}

/// MCTS state: partitions still to cut (with their depth) + finished leaves'
/// MBRs.
#[derive(Clone)]
struct CutState {
    pending: Vec<(Vec<Entry>, usize)>,
    leaf_mbrs: Vec<Rect>,
}

fn mbr_of(entries: &[Entry]) -> Rect {
    entries.iter().fold(Rect::empty(), |a, e| a.union(&e.rect))
}

fn cut(entries: &[Entry], by_x: bool, quantile: f64) -> (Vec<Entry>, Vec<Entry>) {
    let mut sorted = entries.to_vec();
    sorted.sort_by(|a, b| {
        let (ka, kb) = if by_x {
            (a.rect.center().x, b.rect.center().x)
        } else {
            (a.rect.center().y, b.rect.center().y)
        };
        ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
    });
    let at = ((sorted.len() as f64 * quantile) as usize).clamp(1, sorted.len() - 1);
    let right = sorted.split_off(at);
    (sorted, right)
}

/// Greedy completion: median cuts until everything fits in leaves; returns
/// the leaf MBRs.
fn greedy_complete(pending: &[(Vec<Entry>, usize)], leaf_capacity: usize) -> Vec<Rect> {
    let mut out = Vec::new();
    let mut stack: Vec<Vec<Entry>> = pending.iter().map(|(p, _)| p.clone()).collect();
    while let Some(part) = stack.pop() {
        if part.len() <= leaf_capacity {
            if !part.is_empty() {
                out.push(mbr_of(&part));
            }
            continue;
        }
        let mbr = mbr_of(&part);
        let by_x = (mbr.max.x - mbr.min.x) >= (mbr.max.y - mbr.min.y);
        let (l, r) = cut(&part, by_x, 0.5);
        stack.push(l);
        stack.push(r);
    }
    out
}

fn workload_cost(leaf_mbrs: &[Rect], workload: &[Rect]) -> f64 {
    if workload.is_empty() {
        return leaf_mbrs.len() as f64;
    }
    let mut total = 0usize;
    for q in workload {
        total += leaf_mbrs.iter().filter(|m| q.intersects(m)).count();
    }
    total as f64 / workload.len() as f64
}

impl MctsProblem for CutProblem<'_> {
    type State = CutState;

    fn actions(&self, state: &CutState) -> Vec<usize> {
        match state.pending.last() {
            Some((part, depth))
                if part.len() > self.leaf_capacity && *depth < self.max_depth =>
            {
                (0..CUTS.len()).collect()
            }
            _ => Vec::new(),
        }
    }

    fn apply(&self, state: &CutState, action: usize) -> CutState {
        let mut next = state.clone();
        let (part, depth) = next.pending.pop().expect("actions imply pending");
        let (by_x, q) = CUTS[action];
        let (l, r) = cut(&part, by_x, q);
        for half in [l, r] {
            if half.len() <= self.leaf_capacity {
                if !half.is_empty() {
                    next.leaf_mbrs.push(mbr_of(&half));
                }
            } else {
                next.pending.push((half, depth + 1));
            }
        }
        next
    }

    fn reward(&self, state: &CutState) -> f64 {
        let mut leaf_mbrs = state.leaf_mbrs.clone();
        leaf_mbrs.extend(greedy_complete(&state.pending, self.leaf_capacity));
        // Negative expected leaf accesses per query — the packing objective
        // itself, not a per-leaf normalization (which would reward creating
        // many rarely-touched leaves).
        -workload_cost(&leaf_mbrs, self.workload)
    }
}

impl PlatonPacker {
    /// Packs `points` into an R-tree optimized for `workload`.
    ///
    /// Runs one bounded MCTS per partition cut (top-down), so total work is
    /// `O(n log n)` with a constant simulation budget per decision.
    pub fn pack(&self, points: &[Entry], workload: &[Rect], seed: u64) -> RTree {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut leaves: Vec<Vec<Entry>> = Vec::new();
        let mut stack: Vec<Vec<Entry>> = vec![points.to_vec()];
        let mcts = Mcts::new(self.simulations);
        while let Some(part) = stack.pop() {
            if part.is_empty() {
                continue;
            }
            if part.len() <= self.leaf_capacity {
                leaves.push(part);
                continue;
            }
            let problem = CutProblem {
                workload,
                leaf_capacity: self.leaf_capacity,
                max_depth: 2,
            };
            let state = CutState { pending: vec![(part.clone(), 0)], leaf_mbrs: Vec::new() };
            let action = mcts.search(&problem, &state, &mut rng).unwrap_or(1);
            let (by_x, q) = CUTS[action];
            let (l, r) = cut(&part, by_x, q);
            stack.push(l);
            stack.push(r);
        }
        let learned = RTree::from_leaf_groups(&leaves);
        // Guardrail: never ship a packing worse than STR on the workload
        // it was optimized for (MCTS with a small budget can lose to the
        // classical packer on easy instances).
        let str_tree = RTree::bulk_load_str(points);
        let learned_cost: u64 =
            workload.iter().map(|q| learned.range_query(q).1.leaf_accesses).sum();
        let str_cost: u64 =
            workload.iter().map(|q| str_tree.range_query(q).1.leaf_accesses).sum();
        if learned_cost <= str_cost {
            learned
        } else {
            str_tree
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{
        generate_points, generate_range_queries, workload_leaf_accesses, SpatialDistribution,
    };
    use crate::geom::Point;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn packed_tree_is_correct() {
        let mut rng = StdRng::seed_from_u64(1);
        let points =
            generate_points(SpatialDistribution::Clustered { clusters: 4 }, 600, &mut rng);
        let workload = generate_range_queries(30, 0.08, true, &mut rng);
        let tree = PlatonPacker::default().pack(&points, &workload, 42);
        assert_eq!(tree.len(), 600);
        let q = Rect::new(Point::new(0.0, 0.0), Point::new(300.0, 300.0));
        let (mut got, _) = tree.range_query(&q);
        got.sort_unstable();
        let mut expected: Vec<usize> =
            points.iter().filter(|e| q.intersects(&e.rect)).map(|e| e.id).collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn platon_competitive_with_str_on_skewed_workload() {
        let mut rng = StdRng::seed_from_u64(2);
        let points =
            generate_points(SpatialDistribution::Clustered { clusters: 5 }, 800, &mut rng);
        let history = generate_range_queries(40, 0.06, true, &mut rng);
        let future = generate_range_queries(40, 0.06, true, &mut rng);
        let platon = PlatonPacker::default().pack(&points, &history, 7);
        let str_tree = RTree::bulk_load_str(&points);
        let p_cost = workload_leaf_accesses(&platon, &future);
        let s_cost = workload_leaf_accesses(&str_tree, &future);
        assert!(
            p_cost <= s_cost * 1.25,
            "platon {p_cost} far worse than STR {s_cost}"
        );
    }

    #[test]
    fn same_seed_packs_the_same_tree() {
        // EXPERIMENTS.md E5's instance at its largest budget: the packing
        // is a function of (points, workload, seed) and nothing else.
        let mut rng = StdRng::seed_from_u64(6);
        let points = generate_points(SpatialDistribution::Skewed, 3000, &mut rng);
        let history = generate_range_queries(60, 0.06, true, &mut rng);
        let future = generate_range_queries(60, 0.06, true, &mut rng);
        let packer = PlatonPacker { simulations: 256, ..Default::default() };
        let per_query = |tree: &RTree| -> Vec<u64> {
            history.iter().chain(&future).map(|q| tree.range_query(q).1.leaf_accesses).collect()
        };
        let first = per_query(&packer.pack(&points, &history, 7));
        let second = per_query(&packer.pack(&points, &history, 7));
        assert_eq!(first, second);
    }

    #[test]
    fn budget_controls_work() {
        // More simulations should not be worse (usually better) and must
        // still produce a correct tree.
        let mut rng = StdRng::seed_from_u64(3);
        let points = generate_points(SpatialDistribution::Skewed, 300, &mut rng);
        let workload = generate_range_queries(20, 0.1, true, &mut rng);
        let small = PlatonPacker { simulations: 8, ..Default::default() }
            .pack(&points, &workload, 1);
        let large = PlatonPacker { simulations: 128, ..Default::default() }
            .pack(&points, &workload, 1);
        assert_eq!(small.len(), 300);
        assert_eq!(large.len(), 300);
    }
}
