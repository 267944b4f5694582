//! Lowers a physical plan onto the storage engine and returns the answer
//! plus instrumented statistics and simulated latency. Supports the
//! simulated timeout that Balsa's safe-execution framework \[51\] relies on.
//!
//! There is one executor: a private run over [`Batch`]es of row ids whose
//! final batch *is* the answer, and two result boundaries on top of it.
//! [`execute_summary`] reads only the answer's length, the work counters
//! and the simulated latency — no value is copied, and a root join without
//! residual conditions is counted from its matches, not gathered — and is
//! what the serving path, cardinality labels and latency labels use.
//! [`execute_columnar`] is the same run followed by one column-wise copy
//! of the values, and [`execute`] that copy converted to heap rows, for
//! callers that compare answers. Stats, latency and timeout verdicts are a
//! function of cardinalities only, so the boundaries always agree on them.

use ml4db_storage::exec::{self, Batch, ColRef, ExecStats, Predicate, TRUE_WEIGHTS};
use ml4db_storage::{rows_of, CmpOp, ColumnData, Database, Row};

use crate::plan::{JoinAlgo, PlanNode, PlanOp, ScanAlgo};
use crate::query::Query;

/// Smallest f64 strictly greater than `x` (finite, non-NaN inputs).
/// `x + f64::EPSILON` is *not* this: it is an identity for `|x| >= 2`.
fn next_up(x: f64) -> f64 {
    if x.is_nan() || x == f64::INFINITY {
        return x;
    }
    if x == 0.0 {
        return f64::from_bits(1);
    }
    if x > 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

/// Largest f64 strictly less than `x` (finite, non-NaN inputs).
fn next_down(x: f64) -> f64 {
    if x.is_nan() || x == f64::NEG_INFINITY {
        return x;
    }
    if x == 0.0 {
        return -f64::from_bits(1);
    }
    if x > 0.0 {
        f64::from_bits(x.to_bits() - 1)
    } else {
        f64::from_bits(x.to_bits() + 1)
    }
}

/// Result of executing a plan to completion, as heap rows.
#[derive(Clone, Debug)]
pub struct ExecResult {
    /// Output rows.
    pub rows: Vec<Row>,
    /// Accumulated work counters.
    pub stats: ExecStats,
    /// Simulated latency in microseconds under the engine's true weights.
    pub latency_us: f64,
    /// Column layout: table positions in output order.
    pub layout: Vec<usize>,
}

/// Result of executing a plan to completion, reduced to what a caller that
/// reads no values needs: no value of the answer is copied out.
#[derive(Clone, Copy, Debug)]
pub struct ExecSummary {
    /// Output rows.
    pub num_rows: usize,
    /// Accumulated work counters.
    pub stats: ExecStats,
    /// Simulated latency in microseconds under the engine's true weights.
    pub latency_us: f64,
}

/// Result of executing a plan to completion, as columns: the answer copied
/// out once, column-wise, at the result boundary.
#[derive(Clone, Debug)]
pub struct ColumnarResult {
    /// One typed vector per output column: the tables of `layout` in
    /// order, each table's columns in schema order.
    pub columns: Vec<ColumnData>,
    /// Output rows (the length of every column).
    pub num_rows: usize,
    /// Accumulated work counters.
    pub stats: ExecStats,
    /// Simulated latency in microseconds under the engine's true weights.
    pub latency_us: f64,
    /// Column layout: table positions in output order.
    pub layout: Vec<usize>,
}

impl ColumnarResult {
    /// The same result as heap rows, in the same order.
    pub fn into_rows(self) -> ExecResult {
        ExecResult {
            rows: rows_of(&self.columns),
            stats: self.stats,
            latency_us: self.latency_us,
            layout: self.layout,
        }
    }
}

/// Executes `plan` against `db`, returning heap rows.
///
/// # Errors
/// Returns a message if the plan references unknown tables/columns or joins
/// columns of different types.
pub fn execute(db: &Database, query: &Query, plan: &PlanNode) -> Result<ExecResult, String> {
    execute_columnar(db, query, plan).map(ColumnarResult::into_rows)
}

/// Executes `plan` against `db`, returning columns.
///
/// # Errors
/// As [`execute`].
pub fn execute_columnar(
    db: &Database,
    query: &Query,
    plan: &PlanNode,
) -> Result<ColumnarResult, String> {
    Ok(execute_columnar_with_timeout(db, query, plan, f64::INFINITY)?
        .expect("infinite budget cannot time out"))
}

/// [`execute_columnar`] under a simulated latency budget in microseconds;
/// `None` means the accumulated simulated cost exceeded it.
///
/// # Errors
/// As [`execute`].
pub fn execute_columnar_with_timeout(
    db: &Database,
    query: &Query,
    plan: &PlanNode,
    budget_us: f64,
) -> Result<Option<ColumnarResult>, String> {
    Ok(run(db, query, plan, budget_us, true)?.map(|(out, stats)| {
        let (batch, layout) = out.into_rows();
        ColumnarResult {
            columns: batch.columns(),
            num_rows: batch.num_rows(),
            stats,
            latency_us: stats.latency_us(&TRUE_WEIGHTS),
            layout,
        }
    }))
}

/// Executes `plan` against `db`, returning its row count, work counters and
/// latency without copying out a value.
///
/// # Errors
/// As [`execute`].
pub fn execute_summary(
    db: &Database,
    query: &Query,
    plan: &PlanNode,
) -> Result<ExecSummary, String> {
    Ok(execute_summary_with_timeout(db, query, plan, f64::INFINITY)?
        .expect("infinite budget cannot time out"))
}

/// [`execute_summary`] under a simulated latency budget in microseconds;
/// `None` means the accumulated simulated cost exceeded it. Agrees with
/// [`execute_columnar_with_timeout`] on everything but the values.
///
/// # Errors
/// As [`execute`].
pub fn execute_summary_with_timeout(
    db: &Database,
    query: &Query,
    plan: &PlanNode,
    budget_us: f64,
) -> Result<Option<ExecSummary>, String> {
    Ok(run(db, query, plan, budget_us, false)?.map(|(out, stats)| ExecSummary {
        num_rows: out.num_rows(),
        stats,
        latency_us: stats.latency_us(&TRUE_WEIGHTS),
    }))
}

/// What a run ends in.
enum Output<'a> {
    /// The rows as a batch of row ids, and the query tables of its slots.
    Rows(Batch<'a>, Vec<usize>),
    /// Only the row count: a join nothing reads, counted from its matches.
    Counted(usize),
}

impl<'a> Output<'a> {
    fn num_rows(&self) -> usize {
        match self {
            Output::Rows(batch, _) => batch.num_rows(),
            Output::Counted(n) => *n,
        }
    }

    /// The batch and layout of a run that gathers its rows.
    fn into_rows(self) -> (Batch<'a>, Vec<usize>) {
        match self {
            Output::Rows(batch, layout) => (batch, layout),
            Output::Counted(_) => unreachable!("only a run that does not gather is counted"),
        }
    }
}

/// The one run both result boundaries share: its output — gathered, or for
/// a summary (`gather` false) whose root is a join without residual
/// conditions only counted — and the accumulated work counters, or `None`
/// on timeout (reported to the observability sink here, once per run).
fn run<'a>(
    db: &'a Database,
    query: &Query,
    plan: &PlanNode,
    budget_us: f64,
    gather: bool,
) -> Result<Option<(Output<'a>, ExecStats)>, String> {
    let mut total = ExecStats::default();
    match run_node(db, query, plan, &mut total, budget_us, gather)? {
        Some(out) => Ok(Some((out, total))),
        None => {
            ml4db_obs::emit_with(|| ml4db_obs::Event::ExecTimeout { budget_us });
            Ok(None)
        }
    }
}

/// Reports one completed operator to the observability sink: estimated
/// vs actual cardinality and this node's own latency contribution
/// (children excluded) — the per-operator line of the EXPLAIN-ANALYZE
/// trace.
fn observe_operator(op: &'static str, node: &PlanNode, own: &ExecStats) {
    ml4db_obs::emit_with(|| ml4db_obs::Event::Operator {
        op,
        est_rows: node.est_rows,
        est_cost: node.est_cost,
        actual_rows: own.rows_out,
        actual_us: own.latency_us(&TRUE_WEIGHTS),
    });
    ml4db_obs::counter_add("executor.operators", 1);
}

/// Column `col` of query table `table` within a batch whose slots hold the
/// tables of `layout`.
fn col_ref(batch: &Batch, layout: &[usize], table: usize, col: &str) -> Result<ColRef, String> {
    let slot = layout
        .iter()
        .position(|&t| t == table)
        .ok_or(format!("table {table} not in layout"))?;
    let column =
        batch.table(slot).schema.column_index(col).ok_or(format!("unknown column {col}"))?;
    Ok(ColRef { slot, column })
}

/// Runs the subtree at `node`; a batch's slots hold the query tables of
/// its layout. A join whose rows are not read (`gather` false) and that has
/// no residual condition is counted instead of gathered. Returns `None` on
/// timeout.
fn run_node<'a>(
    db: &'a Database,
    query: &Query,
    node: &PlanNode,
    total: &mut ExecStats,
    budget_us: f64,
    gather: bool,
) -> Result<Option<Output<'a>>, String> {
    match &node.op {
        PlanOp::Scan { table, algo, predicates, index_column } => {
            let tref = &query.tables[*table];
            let t = db
                .catalog
                .table(&tref.table)
                .ok_or(format!("unknown table {}", tref.table))?;
            let to_local = |p: &crate::query::TablePredicate| -> Result<Predicate, String> {
                let col = t
                    .schema
                    .column_index(&p.column)
                    .ok_or(format!("unknown column {}.{}", tref.table, p.column))?;
                Ok(Predicate { column: col, op: p.op, value: p.value })
            };
            let (batch, stats, op_name) = match algo {
                ScanAlgo::Seq => {
                    let preds: Vec<Predicate> =
                        predicates.iter().map(to_local).collect::<Result<_, _>>()?;
                    let (batch, stats) = exec::seq_scan(t, &preds);
                    (batch, stats, "seq_scan")
                }
                ScanAlgo::Index => {
                    let icol_name = index_column
                        .as_deref()
                        .ok_or("index scan without index column")?;
                    let icol = t
                        .schema
                        .column_index(icol_name)
                        .ok_or(format!("unknown index column {icol_name}"))?;
                    // Derive the driving range from predicates on the index
                    // column; the rest stay residual.
                    let (mut lo, mut hi) = (f64::NEG_INFINITY, f64::INFINITY);
                    let mut residual = Vec::new();
                    for p in predicates {
                        if p.column == *icol_name {
                            match p.op {
                                CmpOp::Eq => {
                                    lo = lo.max(p.value);
                                    hi = hi.min(p.value);
                                }
                                CmpOp::Ge => lo = lo.max(p.value),
                                CmpOp::Gt => lo = lo.max(next_up(p.value)),
                                CmpOp::Le => hi = hi.min(p.value),
                                CmpOp::Lt => hi = hi.min(next_down(p.value)),
                            }
                        } else {
                            residual.push(to_local(p)?);
                        }
                    }
                    // Probed through the learned index when it is
                    // materialized, swept otherwise; same rows and stats.
                    let sidx = db.secondary_index(&tref.table, icol_name);
                    let (batch, stats) = exec::index_scan(t, icol, lo, hi, &residual, sidx);
                    (batch, stats, "index_scan")
                }
            };
            observe_operator(op_name, node, &stats);
            total.merge(&stats);
            if total.latency_us(&TRUE_WEIGHTS) > budget_us {
                return Ok(None);
            }
            Ok(Some(Output::Rows(batch, vec![*table])))
        }
        PlanOp::Join { algo, conditions } => {
            let mut input = |child| {
                let out = run_node(db, query, child, total, budget_us, true)?;
                Ok::<_, String>(out.map(Output::into_rows))
            };
            let Some((left, left_layout)) = input(&node.children[0])? else {
                return Ok(None);
            };
            let Some((right, right_layout)) = input(&node.children[1])? else {
                return Ok(None);
            };
            let first = conditions.first().ok_or("join without condition")?;
            let lkey = col_ref(&left, &left_layout, first.0, &first.1)?;
            let rkey = col_ref(&right, &right_layout, first.2, &first.3)?;
            // `own` is this node's work alone — the join plus any residual
            // post-filters below — kept apart from `total` (which already
            // holds the children) so the per-operator trace line can
            // attribute latency to just this operator.
            let (matches, mut own) = exec::join(*algo, &left, &right, lkey, rkey)?;
            let residual = &conditions[1..];
            let out = if !gather && residual.is_empty() {
                Output::Counted(matches.len())
            } else {
                // Residual join conditions apply as post-filters over the
                // combined layout.
                let mut batch = Batch::joined(&left, &right, &matches);
                let mut layout = left_layout;
                layout.extend_from_slice(&right_layout);
                for cond in residual {
                    let l = col_ref(&batch, &layout, cond.0, &cond.1)?;
                    let r = col_ref(&batch, &layout, cond.2, &cond.3)?;
                    own.merge(&batch.retain_equal(l, r)?);
                }
                Output::Rows(batch, layout)
            };
            let op_name = match algo {
                JoinAlgo::NestedLoop => "nested_loop_join",
                JoinAlgo::Hash => "hash_join",
                JoinAlgo::SortMerge => "sort_merge_join",
            };
            observe_operator(op_name, node, &own);
            total.merge(&own);
            if total.latency_us(&TRUE_WEIGHTS) > budget_us {
                return Ok(None);
            }
            Ok(Some(out))
        }
    }
}

/// Executes the query with a trivially correct reference strategy (scans +
/// nested loops in query order, filters applied afterward) — the oracle the
/// executor tests compare against.
pub fn naive_execute(db: &Database, query: &Query) -> Result<Vec<Row>, String> {
    // Materialize the full cross-space via repeated joins on the query's
    // edges using nested loops over the query order; edges that cannot be
    // applied yet are retried after each join.
    let mut rows: Vec<Row> = Vec::new();
    let mut layout: Vec<usize> = Vec::new();
    for (pos, tref) in query.tables.iter().enumerate() {
        let t = db.catalog.table(&tref.table).ok_or("unknown table")?;
        let preds: Vec<Predicate> = query
            .predicates_on(pos)
            .map(|p| {
                t.schema
                    .column_index(&p.column)
                    .map(|c| Predicate { column: c, op: p.op, value: p.value })
                    .ok_or("unknown column".to_string())
            })
            .collect::<Result<_, _>>()?;
        let t_rows: Vec<Row> = (0..t.num_rows())
            .map(|i| t.row(i))
            .filter(|row| preds.iter().all(|p| p.eval(row)))
            .collect();
        // A sequential scan all the same: traces count it with the engine's,
        // as they did when this called `exec::seq_scan`.
        ml4db_obs::counter_add("exec.seq_scan.calls", 1);
        ml4db_obs::histogram_observe("exec.rows_out", t_rows.len() as f64);
        if pos == 0 {
            rows = t_rows;
            layout.push(0);
        } else {
            // Cross product then filter on all edges now fully contained.
            let mut joined = Vec::new();
            for l in &rows {
                for r in &t_rows {
                    let mut row = l.clone();
                    row.extend_from_slice(r);
                    joined.push(row);
                }
            }
            layout.push(pos);
            rows = joined;
            let contained: u64 = layout.iter().map(|&t| 1u64 << t).sum();
            for e in query.edges_within(contained) {
                let off = |table: usize, col: &str| -> usize {
                    let mut at = 0;
                    for &lt in &layout {
                        let td = db.catalog.table(&query.tables[lt].table).expect("known");
                        if lt == table {
                            return at + td.schema.column_index(col).expect("known col");
                        }
                        at += td.schema.arity();
                    }
                    unreachable!()
                };
                let (l, r) = (off(e.left, &e.left_col), off(e.right, &e.right_col));
                rows.retain(|row| row[l].hash_key() == row[r].hash_key());
            }
        }
    }
    Ok(rows)
}

/// Reorders `row` columns from `layout` order into query-table order
/// (0, 1, 2, ...), for comparing results across different plans.
pub fn normalize_row(db: &Database, query: &Query, layout: &[usize], row: &Row) -> Row {
    let mut by_table: Vec<(usize, Vec<ml4db_storage::Value>)> = Vec::new();
    let mut at = 0usize;
    for &t in layout {
        let arity = db
            .catalog
            .table(&query.tables[t].table)
            .expect("known table")
            .schema
            .arity();
        by_table.push((t, row[at..at + arity].to_vec()));
        at += arity;
    }
    by_table.sort_by_key(|(t, _)| *t);
    by_table.into_iter().flat_map(|(_, vals)| vals).collect()
}

/// Normalizes rows into query-table order and a canonical sorted multiset
/// representation, for comparison across plans with different layouts.
pub fn canonical_multiset(
    db: &Database,
    query: &Query,
    rows: &[Row],
    layout: &[usize],
) -> Vec<String> {
    let mut v: Vec<String> = rows
        .iter()
        .map(|r| format!("{:?}", normalize_row(db, query, layout, r)))
        .collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{JoinAlgo, PlanNode, ScanAlgo};
    use ml4db_storage::datasets::{joblite, DatasetConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db() -> Database {
        let mut rng = StdRng::seed_from_u64(7);
        let cat = joblite(&DatasetConfig { base_rows: 120, ..Default::default() }, &mut rng);
        Database::analyze(cat, &mut rng)
    }

    fn two_way() -> Query {
        Query::new(&["title", "cast_info"])
            .join(0, "id", 1, "movie_id")
            .filter(0, "year", CmpOp::Ge, 2010.0)
    }

    #[test]
    fn plan_matches_naive_oracle() {
        let db = db();
        let q = two_way();
        let s0 = PlanNode::scan(&q, 0, ScanAlgo::Seq, None);
        let s1 = PlanNode::scan(&q, 1, ScanAlgo::Seq, None);
        for algo in [JoinAlgo::Hash, JoinAlgo::NestedLoop, JoinAlgo::SortMerge] {
            let p = PlanNode::join(&q, algo, s0.clone(), s1.clone());
            let result = execute(&db, &q, &p).unwrap();
            let mut got: Vec<Row> = result
                .rows
                .iter()
                .map(|r| normalize_row(&db, &q, &result.layout, r))
                .collect();
            let mut expected = naive_execute(&db, &q).unwrap();
            let key = |r: &Row| format!("{r:?}");
            got.sort_by_key(key);
            expected.sort_by_key(key);
            assert_eq!(got, expected, "{algo:?} disagrees with oracle");
        }
    }

    #[test]
    fn swapped_join_order_same_result() {
        let db = db();
        let q = two_way();
        let a = PlanNode::join(
            &q,
            JoinAlgo::Hash,
            PlanNode::scan(&q, 0, ScanAlgo::Seq, None),
            PlanNode::scan(&q, 1, ScanAlgo::Seq, None),
        );
        let b = PlanNode::join(
            &q,
            JoinAlgo::Hash,
            PlanNode::scan(&q, 1, ScanAlgo::Seq, None),
            PlanNode::scan(&q, 0, ScanAlgo::Seq, None),
        );
        let ra = execute(&db, &q, &a).unwrap();
        let rb = execute(&db, &q, &b).unwrap();
        let norm = |res: &ExecResult| {
            let mut v: Vec<Row> = res
                .rows
                .iter()
                .map(|r| normalize_row(&db, &q, &res.layout, r))
                .collect();
            v.sort_by_key(|r| format!("{r:?}"));
            v
        };
        assert_eq!(norm(&ra), norm(&rb));
    }

    #[test]
    fn latency_positive_and_orders_plans() {
        // The claim under test is "NL loses to hash on *large* inputs",
        // so build a database big enough that the filtered join inputs
        // are actually large — at 120 base rows the inputs are a few
        // dozen tuples and the ordering is a coin flip of the data seed.
        let mut rng = StdRng::seed_from_u64(7);
        let cat = joblite(&DatasetConfig { base_rows: 600, ..Default::default() }, &mut rng);
        let db = Database::analyze(cat, &mut rng);
        let q = two_way();
        let hash = PlanNode::join(
            &q,
            JoinAlgo::Hash,
            PlanNode::scan(&q, 0, ScanAlgo::Seq, None),
            PlanNode::scan(&q, 1, ScanAlgo::Seq, None),
        );
        let nl = PlanNode::join(
            &q,
            JoinAlgo::NestedLoop,
            PlanNode::scan(&q, 0, ScanAlgo::Seq, None),
            PlanNode::scan(&q, 1, ScanAlgo::Seq, None),
        );
        let rh = execute(&db, &q, &hash).unwrap();
        let rn = execute(&db, &q, &nl).unwrap();
        assert!(rh.latency_us > 0.0);
        assert!(
            rn.latency_us > rh.latency_us,
            "NL {} should be slower than hash {} on large inputs",
            rn.latency_us,
            rh.latency_us
        );
    }

    #[test]
    fn timeout_fires() {
        let db = db();
        let q = two_way();
        let nl = PlanNode::join(
            &q,
            JoinAlgo::NestedLoop,
            PlanNode::scan(&q, 0, ScanAlgo::Seq, None),
            PlanNode::scan(&q, 1, ScanAlgo::Seq, None),
        );
        let timed = |budget| execute_columnar_with_timeout(&db, &q, &nl, budget).unwrap();
        assert!(timed(1.0).is_none(), "expected timeout at 1µs");
        assert!(timed(1e12).is_some(), "generous budget timed out");
    }

    #[test]
    fn index_scan_plan_executes() {
        let mut db = db();
        db.add_index("title", "year");
        let q = two_way();
        let s0 = PlanNode::scan(&q, 0, ScanAlgo::Index, Some("year".into()));
        let s1 = PlanNode::scan(&q, 1, ScanAlgo::Seq, None);
        let p = PlanNode::join(&q, JoinAlgo::Hash, s0, s1);
        let res = execute(&db, &q, &p).unwrap();
        let seq_plan = PlanNode::join(
            &q,
            JoinAlgo::Hash,
            PlanNode::scan(&q, 0, ScanAlgo::Seq, None),
            PlanNode::scan(&q, 1, ScanAlgo::Seq, None),
        );
        let seq_res = execute(&db, &q, &seq_plan).unwrap();
        assert_eq!(res.rows.len(), seq_res.rows.len());
    }
}
