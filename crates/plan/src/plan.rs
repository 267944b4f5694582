//! Physical plan trees: the object every learned component in the tutorial
//! consumes — cost estimators regress over them, plan encoders featurize
//! them, optimizers search over them, and the executor runs them.

use serde::{Deserialize, Serialize};

use crate::query::{Query, TablePredicate};

/// Physical scan algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScanAlgo {
    /// Sequential heap scan.
    Seq,
    /// Secondary-index range scan (legal only on indexed columns).
    Index,
}

/// Physical join algorithm: the executor's own enum.
pub use ml4db_storage::exec::JoinAlgo;

/// A node of a physical plan.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PlanOp {
    /// Scan of one base table.
    Scan {
        /// Table position in the query.
        table: usize,
        /// Chosen algorithm.
        algo: ScanAlgo,
        /// Predicates pushed into the scan.
        predicates: Vec<TablePredicate>,
        /// For index scans: the predicate column driving the index.
        index_column: Option<String>,
    },
    /// Join of the two children.
    Join {
        /// Chosen algorithm.
        algo: JoinAlgo,
        /// Join conditions as `(left table pos, left col, right table pos, right col)`.
        conditions: Vec<(usize, String, usize, String)>,
    },
}

/// A physical plan tree with estimate annotations.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlanNode {
    /// The operator at this node.
    pub op: PlanOp,
    /// Children (empty for scans, two for joins).
    pub children: Vec<PlanNode>,
    /// Bitmask of base tables covered by this subtree.
    pub mask: u64,
    /// Estimated output rows (set by a cardinality estimator; 0 until then).
    pub est_rows: f64,
    /// Estimated cumulative cost (set by a cost model; 0 until then).
    pub est_cost: f64,
}

impl PlanNode {
    /// A scan leaf for `table` with its pushed-down predicates.
    pub fn scan(query: &Query, table: usize, algo: ScanAlgo, index_column: Option<String>) -> Self {
        let predicates = query.predicates_on(table).cloned().collect();
        PlanNode {
            op: PlanOp::Scan { table, algo, predicates, index_column },
            children: Vec::new(),
            mask: 1 << table,
            est_rows: 0.0,
            est_cost: 0.0,
        }
    }

    /// A join over two subtrees; join conditions are all query edges that
    /// connect the two sides.
    pub fn join(query: &Query, algo: JoinAlgo, left: PlanNode, right: PlanNode) -> Self {
        let conditions = query
            .edges_across(left.mask, right.mask)
            .map(|e| {
                // Normalize so the left side of the condition is in the left subtree.
                if left.mask & (1 << e.left) != 0 {
                    (e.left, e.left_col.clone(), e.right, e.right_col.clone())
                } else {
                    (e.right, e.right_col.clone(), e.left, e.left_col.clone())
                }
            })
            .collect();
        let mask = left.mask | right.mask;
        PlanNode {
            op: PlanOp::Join { algo, conditions },
            children: vec![left, right],
            mask,
            est_rows: 0.0,
            est_cost: 0.0,
        }
    }

    /// Number of nodes in the subtree.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(|c| c.size()).sum::<usize>()
    }

    /// Depth of the subtree (leaf = 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(|c| c.depth()).max().unwrap_or(0)
    }

    /// Number of join nodes.
    pub fn num_joins(&self) -> usize {
        let own = matches!(self.op, PlanOp::Join { .. }) as usize;
        own + self.children.iter().map(|c| c.num_joins()).sum::<usize>()
    }

    /// Iterates over all nodes, parent before children.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a PlanNode)) {
        f(self);
        for c in &self.children {
            c.walk(f);
        }
    }

    /// True if the plan is left-deep (every right child is a scan).
    pub fn is_left_deep(&self) -> bool {
        match &self.op {
            PlanOp::Scan { .. } => true,
            PlanOp::Join { .. } => {
                matches!(self.children[1].op, PlanOp::Scan { .. })
                    && self.children[0].is_left_deep()
            }
        }
    }

    /// A canonical string form used for deduplication and debugging.
    pub fn signature(&self) -> String {
        match &self.op {
            PlanOp::Scan { table, algo, .. } => format!("S{table}{algo:?}"),
            PlanOp::Join { algo, .. } => format!(
                "({}⋈{:?}{})",
                self.children[0].signature(),
                algo,
                self.children[1].signature()
            ),
        }
    }

    /// Multi-line EXPLAIN-style rendering with estimates.
    pub fn explain(&self, query: &Query) -> String {
        fn rec(node: &PlanNode, query: &Query, indent: usize, out: &mut String) {
            let pad = "  ".repeat(indent);
            match &node.op {
                PlanOp::Scan { table, algo, predicates, .. } => {
                    out.push_str(&format!(
                        "{pad}{:?}Scan {} (rows={:.0} cost={:.1}",
                        algo, query.tables[*table].table, node.est_rows, node.est_cost
                    ));
                    if !predicates.is_empty() {
                        out.push_str(&format!(" preds={}", predicates.len()));
                    }
                    out.push_str(")\n");
                }
                PlanOp::Join { algo, conditions } => {
                    out.push_str(&format!(
                        "{pad}{:?}Join on {} cond (rows={:.0} cost={:.1})\n",
                        algo,
                        conditions.len(),
                        node.est_rows,
                        node.est_cost
                    ));
                    for c in &node.children {
                        rec(c, query, indent + 1, out);
                    }
                }
            }
        }
        let mut out = String::new();
        rec(self, query, 0, &mut out);
        out
    }

    /// Validates structural invariants: scans have no children, joins have
    /// two, masks are consistent and disjoint, every join has a condition.
    pub fn validate(&self) -> Result<(), String> {
        match &self.op {
            PlanOp::Scan { table, .. } => {
                if !self.children.is_empty() {
                    return Err("scan with children".into());
                }
                if self.mask != 1 << table {
                    return Err("scan mask mismatch".into());
                }
            }
            PlanOp::Join { conditions, .. } => {
                if self.children.len() != 2 {
                    return Err("join without two children".into());
                }
                let (l, r) = (&self.children[0], &self.children[1]);
                if l.mask & r.mask != 0 {
                    return Err("overlapping join children".into());
                }
                if l.mask | r.mask != self.mask {
                    return Err("join mask mismatch".into());
                }
                if conditions.is_empty() {
                    return Err("cross product (join without condition)".into());
                }
                l.validate()?;
                r.validate()?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4db_storage::CmpOp;

    fn query() -> Query {
        Query::new(&["a", "b", "c"])
            .join(0, "x", 1, "y")
            .join(1, "y", 2, "z")
            .filter(0, "x", CmpOp::Ge, 5.0)
    }

    fn plan(q: &Query) -> PlanNode {
        let s0 = PlanNode::scan(q, 0, ScanAlgo::Seq, None);
        let s1 = PlanNode::scan(q, 1, ScanAlgo::Seq, None);
        let s2 = PlanNode::scan(q, 2, ScanAlgo::Seq, None);
        let j01 = PlanNode::join(q, JoinAlgo::Hash, s0, s1);
        PlanNode::join(q, JoinAlgo::NestedLoop, j01, s2)
    }

    #[test]
    fn construction_and_invariants() {
        let q = query();
        let p = plan(&q);
        p.validate().unwrap();
        assert_eq!(p.mask, 0b111);
        assert_eq!(p.size(), 5);
        assert_eq!(p.num_joins(), 2);
        assert!(p.is_left_deep());
    }

    #[test]
    fn scan_collects_predicates() {
        let q = query();
        let s = PlanNode::scan(&q, 0, ScanAlgo::Seq, None);
        match &s.op {
            PlanOp::Scan { predicates, .. } => assert_eq!(predicates.len(), 1),
            _ => unreachable!(),
        }
    }

    #[test]
    fn join_normalizes_condition_sides() {
        let q = query();
        let s1 = PlanNode::scan(&q, 1, ScanAlgo::Seq, None);
        let s0 = PlanNode::scan(&q, 0, ScanAlgo::Seq, None);
        // Join with table 1 on the left: the condition must still put the
        // left subtree's table first.
        let j = PlanNode::join(&q, JoinAlgo::Hash, s1, s0);
        match &j.op {
            PlanOp::Join { conditions, .. } => {
                assert_eq!(conditions[0].0, 1);
                assert_eq!(conditions[0].2, 0);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn bushy_plan_not_left_deep() {
        let q = Query::new(&["a", "b", "c", "d"])
            .join(0, "x", 1, "y")
            .join(2, "x", 3, "y")
            .join(1, "y", 2, "x");
        let j01 = PlanNode::join(
            &q,
            JoinAlgo::Hash,
            PlanNode::scan(&q, 0, ScanAlgo::Seq, None),
            PlanNode::scan(&q, 1, ScanAlgo::Seq, None),
        );
        let j23 = PlanNode::join(
            &q,
            JoinAlgo::Hash,
            PlanNode::scan(&q, 2, ScanAlgo::Seq, None),
            PlanNode::scan(&q, 3, ScanAlgo::Seq, None),
        );
        let bushy = PlanNode::join(&q, JoinAlgo::Hash, j01, j23);
        bushy.validate().unwrap();
        assert!(!bushy.is_left_deep());
    }

    #[test]
    fn validate_rejects_cross_product() {
        let q = Query::new(&["a", "b"]); // no joins
        let s0 = PlanNode::scan(&q, 0, ScanAlgo::Seq, None);
        let s1 = PlanNode::scan(&q, 1, ScanAlgo::Seq, None);
        let j = PlanNode::join(&q, JoinAlgo::Hash, s0, s1);
        assert!(j.validate().unwrap_err().contains("cross product"));
    }

    #[test]
    fn explain_renders() {
        let q = query();
        let text = plan(&q).explain(&q);
        assert!(text.contains("HashJoin") || text.contains("Hash"));
        assert!(text.contains("Scan a"));
    }
}
