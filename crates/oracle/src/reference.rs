//! A trivially-correct brute-force plan interpreter, and the multiset
//! comparison between it and the real executor.
//!
//! The reference engine deliberately knows nothing about scan algorithms,
//! join algorithms, index ranges, or residual conditions: a scan
//! materializes every row of the table and filters by *all* predicates; a
//! join forms the full cross-product of its children and keeps the rows on
//! which *every* join condition holds. Its only job is to be obviously
//! right, so any divergence indicts the executor's cleverness.

use ml4db_plan::executor::{canonical_multiset, execute, naive_execute};
use ml4db_plan::plan::{PlanNode, PlanOp};
use ml4db_plan::Query;
use ml4db_storage::{Database, Row};

use crate::Discrepancy;

/// Brute-force evaluation of `plan`: returns `(rows, layout)` in the same
/// layout convention as the real executor.
///
/// # Errors
/// Returns a message if the plan references unknown tables or columns.
pub fn reference_execute(
    db: &Database,
    query: &Query,
    plan: &PlanNode,
) -> Result<(Vec<Row>, Vec<usize>), String> {
    match &plan.op {
        PlanOp::Scan { table, predicates, .. } => {
            // Materialize the whole table, then filter by every predicate —
            // identical semantics for Seq and Index scans by construction.
            let tref = &query.tables[*table];
            let t = db
                .catalog
                .table(&tref.table)
                .ok_or(format!("unknown table {}", tref.table))?;
            let mut rows = Vec::new();
            for i in 0..t.num_rows() {
                let row = t.row(i);
                let keep = predicates.iter().try_fold(true, |acc, p| {
                    let c = t
                        .schema
                        .column_index(&p.column)
                        .ok_or(format!("unknown column {}.{}", tref.table, p.column))?;
                    let v = row[c].as_f64();
                    let ok = match p.op {
                        ml4db_storage::CmpOp::Eq => v == p.value,
                        ml4db_storage::CmpOp::Lt => v < p.value,
                        ml4db_storage::CmpOp::Le => v <= p.value,
                        ml4db_storage::CmpOp::Gt => v > p.value,
                        ml4db_storage::CmpOp::Ge => v >= p.value,
                    };
                    Ok::<bool, String>(acc && ok)
                })?;
                if keep {
                    rows.push(row);
                }
            }
            Ok((rows, vec![*table]))
        }
        PlanOp::Join { conditions, .. } => {
            let (left, left_layout) = reference_execute(db, query, &plan.children[0])?;
            let (right, right_layout) = reference_execute(db, query, &plan.children[1])?;
            let mut layout = left_layout;
            layout.extend_from_slice(&right_layout);
            let offset_of = |table: usize, col: &str| -> Result<usize, String> {
                let mut at = 0usize;
                for &t in &layout {
                    let td = db
                        .catalog
                        .table(&query.tables[t].table)
                        .ok_or("unknown table in layout")?;
                    if t == table {
                        return td
                            .schema
                            .column_index(col)
                            .map(|c| at + c)
                            .ok_or(format!("unknown column {col}"));
                    }
                    at += td.schema.arity();
                }
                Err(format!("table {table} not in layout"))
            };
            let offsets: Vec<(usize, usize)> = conditions
                .iter()
                .map(|c| Ok((offset_of(c.0, &c.1)?, offset_of(c.2, &c.3)?)))
                .collect::<Result<_, String>>()?;
            // Cross product, then keep rows satisfying every condition.
            let mut out = Vec::new();
            for l in &left {
                for r in &right {
                    let mut row = l.clone();
                    row.extend_from_slice(r);
                    if offsets.iter().all(|&(lc, rc)| row[lc].hash_key() == row[rc].hash_key()) {
                        out.push(row);
                    }
                }
            }
            Ok((out, layout))
        }
    }
}

/// Executes `plan` through the real executor and the reference engine and
/// reports any multiset disagreement. Also cross-checks the reference
/// against the query-level naive evaluation (`naive_execute`), so the
/// reference itself cannot silently drift.
pub fn check_plan_vs_reference(
    db: &Database,
    query: &Query,
    plan: &PlanNode,
) -> Vec<Discrepancy> {
    let mut found = Vec::new();
    let real = match execute(db, query, plan) {
        Ok(r) => r,
        Err(e) => {
            found.push(Discrepancy::new(
                "executor-vs-reference",
                format!("executor error on {}: {e}", plan.signature()),
            ));
            return found;
        }
    };
    let (ref_rows, ref_layout) = match reference_execute(db, query, plan) {
        Ok(r) => r,
        Err(e) => {
            found.push(Discrepancy::new(
                "executor-vs-reference",
                format!("reference error on {}: {e}", plan.signature()),
            ));
            return found;
        }
    };
    let got = canonical_multiset(db, query, &real.rows, &real.layout);
    let expected = canonical_multiset(db, query, &ref_rows, &ref_layout);
    if got != expected {
        found.push(Discrepancy::new(
            "executor-vs-reference",
            format!(
                "plan {} returned {} rows vs reference {} rows; first diff: {}",
                plan.signature(),
                got.len(),
                expected.len(),
                first_diff(&got, &expected)
            ),
        ));
    }
    // Reference engine vs query-level naive evaluation: a full plan over
    // the whole query must reproduce naive_execute exactly.
    if plan.mask == query.full_mask() {
        match naive_execute(db, query) {
            Ok(naive) => {
                let identity: Vec<usize> = (0..query.num_tables()).collect();
                let naive = canonical_multiset(db, query, &naive, &identity);
                if expected != naive {
                    found.push(Discrepancy::new(
                        "reference-vs-naive",
                        format!(
                            "reference {} rows vs naive {} rows on {}",
                            expected.len(),
                            naive.len(),
                            plan.signature()
                        ),
                    ));
                }
            }
            Err(e) => found.push(Discrepancy::new("reference-vs-naive", e)),
        }
    }
    found
}

fn first_diff(a: &[String], b: &[String]) -> String {
    for i in 0..a.len().max(b.len()) {
        let l = a.get(i).map(String::as_str).unwrap_or("<missing>");
        let r = b.get(i).map(String::as_str).unwrap_or("<missing>");
        if l != r {
            return format!("at #{i}: executor {l} vs reference {r}");
        }
    }
    "none".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{joblite_db, sample_query};
    use ml4db_plan::plan::{JoinAlgo, ScanAlgo};
    use ml4db_plan::{ClassicEstimator, Planner};
    use ml4db_storage::CmpOp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn simple_plans_match_reference() {
        let db = joblite_db(150, 21);
        let q = Query::new(&["title", "cast_info"])
            .join(0, "id", 1, "movie_id")
            .filter(0, "year", CmpOp::Ge, 2000.0);
        for algo in [JoinAlgo::Hash, JoinAlgo::NestedLoop, JoinAlgo::SortMerge] {
            let p = PlanNode::join(
                &q,
                algo,
                PlanNode::scan(&q, 0, ScanAlgo::Seq, None),
                PlanNode::scan(&q, 1, ScanAlgo::Seq, None),
            );
            crate::assert_no_discrepancies(&check_plan_vs_reference(&db, &q, &p));
        }
    }

    #[test]
    fn index_scans_with_strict_bounds_match_reference() {
        // Gt/Lt on an indexed column: the executor converts them to an
        // inclusive range; mishandled strict bounds leak boundary rows.
        let db = joblite_db(200, 22);
        for op in [CmpOp::Gt, CmpOp::Lt, CmpOp::Ge, CmpOp::Le, CmpOp::Eq] {
            let q = Query::new(&["title", "cast_info"])
                .join(0, "id", 1, "movie_id")
                .filter(0, "year", op, 2000.0);
            let p = PlanNode::join(
                &q,
                JoinAlgo::Hash,
                PlanNode::scan(&q, 0, ScanAlgo::Index, Some("year".into())),
                PlanNode::scan(&q, 1, ScanAlgo::Seq, None),
            );
            crate::assert_no_discrepancies(&check_plan_vs_reference(&db, &q, &p));
        }
    }

    #[test]
    fn sampled_workload_plans_match_reference() {
        let db = joblite_db(120, 23);
        let mut rng = StdRng::seed_from_u64(5);
        let planner = Planner::default();
        for i in 0..12 {
            let q = sample_query(&db, crate::workload::JOBLITE_EDGES, 3, &mut rng, i % 2 == 0);
            let mut plans = planner.random_plans(&db, &q, &ClassicEstimator, 3, &mut rng);
            if let Some(best) = planner.best_plan(&db, &q, &ClassicEstimator) {
                plans.push(best);
            }
            for p in plans {
                crate::assert_no_discrepancies(&check_plan_vs_reference(&db, &q, &p));
            }
        }
    }
}
