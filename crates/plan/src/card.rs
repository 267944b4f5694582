//! Cardinality estimation interface and the classical estimator
//! (histograms + attribute independence + join containment), plus a
//! true-cardinality oracle that executes sub-joins.
//!
//! Learned estimators (MSCN-style, NNGP) live in `ml4db-card` and plug in
//! through the same [`CardEstimator`] trait.

use std::cell::RefCell;
use std::collections::HashMap;

use ml4db_storage::stats::{ColumnStats, TableStats};
use ml4db_storage::{CmpOp, Database, Schema};

use crate::plan::{JoinAlgo, PlanNode, ScanAlgo};
use crate::query::{Query, TablePredicate};

/// Upper clamp for sanitized cardinalities (rows). Far above any join the
/// suite can produce, yet finite so downstream cost arithmetic stays
/// finite too.
pub const MAX_CARD: f64 = 1e18;

/// Clamps an estimator output into the domain every planner assumes:
/// finite and in `[1, MAX_CARD]`.
///
/// Learned estimators can emit NaN (uninitialized weights, 0/0 in a
/// normalizer), ±∞ (overflowing exponentials), or non-positive values.
/// Unsanitized, those poison plan choice silently: DP cost comparisons use
/// `partial_cmp(..).unwrap_or(Equal)`, so a NaN cost *ties with
/// everything* and whichever candidate happens to be visited first wins.
/// NaN and +∞ map to `MAX_CARD` — an unusable estimate is treated as
/// "pessimistically huge" so plans relying on it rank last rather than
/// first (mapping to the floor would make garbage look free).
pub fn sanitize_card(est: f64) -> f64 {
    if est.is_nan() || est == f64::INFINITY {
        MAX_CARD
    } else {
        est.clamp(1.0, MAX_CARD)
    }
}

/// Estimates output cardinalities of connected sub-joins.
///
/// `mask` selects a subset of the query's tables; the estimate is the row
/// count of joining those tables on all contained edges with all their base
/// predicates applied.
pub trait CardEstimator {
    /// Estimated rows for the sub-join over `mask`.
    fn estimate(&self, db: &Database, query: &Query, mask: u64) -> f64;

    /// Estimated rows of scanning one table with its predicates.
    fn estimate_scan(&self, db: &Database, query: &Query, table: usize) -> f64 {
        self.estimate(db, query, 1 << table)
    }

    /// [`CardEstimator::estimate`] passed through [`sanitize_card`] — the
    /// form every planner boundary consumes, guaranteeing finite positive
    /// cardinalities no matter what the model emits.
    fn estimate_sanitized(&self, db: &Database, query: &Query, mask: u64) -> f64 {
        sanitize_card(self.estimate(db, query, mask))
    }
}

/// The classical textbook estimator used by System R-style optimizers:
/// per-predicate selectivities from histograms and MCVs, independence
/// across predicates, and `1 / max(ndv_left, ndv_right)` per join edge.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassicEstimator;

impl ClassicEstimator {
    /// Selectivity of one predicate from the column's statistics.
    pub fn predicate_selectivity(db: &Database, query: &Query, p: &TablePredicate) -> f64 {
        ResolvedTable::new(db, query, p.table).selectivity(p)
    }
}

/// One query table's statistics and schema, each looked up by name once and
/// then shared by all of the table's predicates and join columns.
#[derive(Clone, Copy, Default)]
struct ResolvedTable<'a> {
    stats: Option<&'a TableStats>,
    schema: Option<&'a Schema>,
}

impl<'a> ResolvedTable<'a> {
    fn new(db: &'a Database, query: &Query, t: usize) -> Self {
        let name = &query.tables[t].table;
        Self { stats: db.table_stats(name), schema: db.catalog.table(name).map(|t| &t.schema) }
    }

    /// Row count, 1000 without statistics.
    fn rows(self) -> f64 {
        self.stats.map_or(1000.0, |s| s.rows as f64)
    }

    /// The table's statistics and `column`'s, when both exist.
    fn column(self, column: &str) -> Option<(&'a TableStats, &'a ColumnStats)> {
        let stats = self.stats?;
        let ci = self.schema?.column_index(column)?;
        Some((stats, &stats.columns[ci]))
    }

    /// Selectivity of one predicate on this table; 0.1 without statistics.
    fn selectivity(self, p: &TablePredicate) -> f64 {
        let Some((stats, cs)) = self.column(&p.column) else {
            return 0.1;
        };
        let sel = match p.op {
            CmpOp::Eq => {
                // MCV hit gives an exact frequency; otherwise assume the
                // remaining mass spreads uniformly over remaining NDVs.
                if let Some(&(_, freq)) = cs.mcv.iter().find(|&&(v, _)| v == p.value) {
                    freq as f64 / stats.rows.max(1) as f64
                } else {
                    let mcv_mass: u64 = cs.mcv.iter().map(|&(_, f)| f).sum();
                    let rest_rows = stats.rows.saturating_sub(mcv_mass) as f64;
                    let rest_ndv =
                        cs.distinct.saturating_sub(cs.mcv.len() as u64).max(1) as f64;
                    rest_rows / rest_ndv / stats.rows.max(1) as f64
                }
            }
            CmpOp::Lt | CmpOp::Le => cs.histogram.cdf(p.value),
            CmpOp::Gt | CmpOp::Ge => 1.0 - cs.histogram.cdf(p.value),
        };
        sel.clamp(1e-6, 1.0)
    }

    /// Number of distinct values of a join column; 1000 without statistics.
    fn ndv(self, column: &str) -> f64 {
        self.column(column).map_or(1000.0, |(_, cs)| cs.distinct as f64).max(1.0)
    }
}

impl CardEstimator for ClassicEstimator {
    /// Looks each table of `mask` up once, then multiplies in its rows and
    /// predicate selectivities (tables ascending, predicates in query order)
    /// and divides by `max(ndv)` per contained edge (in query order).
    fn estimate(&self, db: &Database, query: &Query, mask: u64) -> f64 {
        let mut tables = [ResolvedTable::default(); 64];
        let mut rows = 1.0f64;
        let mut members = mask & query.full_mask();
        while members != 0 {
            let t = members.trailing_zeros() as usize;
            members &= members - 1;
            let table = ResolvedTable::new(db, query, t);
            let mut sel = 1.0;
            for p in query.predicates_on(t) {
                sel *= table.selectivity(p);
            }
            rows *= table.rows() * sel;
            tables[t] = table;
        }
        for e in query.edges_within(mask) {
            rows /= tables[e.left].ndv(&e.left_col).max(tables[e.right].ndv(&e.right_col));
        }
        rows.max(1.0)
    }
}

/// A true-cardinality oracle: executes the cheapest sub-join and caches
/// results per `(query signature, mask)`. Expensive by design — this is the
/// "collect real execution traces" cost the tutorial highlights.
#[derive(Default)]
pub struct TrueCardinality {
    cache: RefCell<HashMap<(String, u64), f64>>,
}

impl TrueCardinality {
    /// Creates an empty oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached sub-join cardinalities.
    pub fn cache_size(&self) -> usize {
        self.cache.borrow().len()
    }
}

impl CardEstimator for TrueCardinality {
    fn estimate(&self, db: &Database, query: &Query, mask: u64) -> f64 {
        let key = (format!("{}#{:?}", query.template_signature(), query.predicates), mask);
        if let Some(&v) = self.cache.borrow().get(&key) {
            return v;
        }
        // Execute the sub-join with hash joins in an arbitrary connected
        // order (correctness only; cost is irrelevant for the count).
        let members: Vec<usize> =
            (0..query.num_tables()).filter(|&t| mask & (1 << t) != 0).collect();
        let mut plan: Option<PlanNode> = None;
        let mut covered = 0u64;
        let mut remaining = members.clone();
        while !remaining.is_empty() {
            let next_pos = remaining
                .iter()
                .position(|&t| {
                    plan.is_none() || !query.edges_between(covered, 1 << t).is_empty()
                })
                .unwrap_or(0);
            let t = remaining.remove(next_pos);
            let scan = PlanNode::scan(query, t, ScanAlgo::Seq, None);
            plan = Some(match plan {
                None => scan,
                Some(p) => {
                    if query.edges_between(covered, 1 << t).is_empty() {
                        // Disconnected subset: treat as independent product.
                        // (Estimates for disconnected masks are never needed
                        // by the planners, but stay defined.)
                        PlanNode {
                            op: crate::plan::PlanOp::Join {
                                algo: JoinAlgo::NestedLoop,
                                conditions: vec![(
                                    0,
                                    String::new(),
                                    0,
                                    String::new(),
                                )],
                            },
                            children: vec![p, scan],
                            mask: covered | (1 << t),
                            est_rows: 0.0,
                            est_cost: 0.0,
                        }
                    } else {
                        PlanNode::join(query, JoinAlgo::Hash, p, scan)
                    }
                }
            });
            covered |= 1 << t;
        }
        let rows = match plan {
            None => 0.0,
            Some(p) => crate::executor::execute_summary(db, query, &p)
                .map_or(0.0, |r| r.num_rows as f64),
        };
        let rows = rows.max(1.0);
        self.cache.borrow_mut().insert(key, rows);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4db_nn::metrics::q_error;
    use ml4db_storage::datasets::{joblite, DatasetConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db() -> Database {
        let mut rng = StdRng::seed_from_u64(3);
        let cat = joblite(&DatasetConfig { base_rows: 300, ..Default::default() }, &mut rng);
        Database::analyze(cat, &mut rng)
    }

    #[test]
    fn classic_scan_estimate_reasonable() {
        let db = db();
        let q = Query::new(&["title"]).filter(0, "year", CmpOp::Ge, 2000.0);
        let est = ClassicEstimator.estimate_scan(&db, &q, 0);
        // ~24/74 of years are >= 2000 under the uniform year generator.
        let truth = TrueCardinality::new().estimate(&db, &q, 1);
        assert!(
            q_error(est, truth) < 2.0,
            "classic estimate {est} vs truth {truth}"
        );
    }

    #[test]
    fn classic_join_estimate_within_order_of_magnitude_on_fk() {
        let db = db();
        let q = Query::new(&["title", "cast_info"]).join(0, "id", 1, "movie_id");
        let est = ClassicEstimator.estimate(&db, &q, 0b11);
        let truth = TrueCardinality::new().estimate(&db, &q, 0b11);
        assert!(
            q_error(est, truth) < 10.0,
            "classic estimate {est} vs truth {truth}"
        );
    }

    #[test]
    fn true_cardinality_caches() {
        let db = db();
        let q = Query::new(&["title", "cast_info"]).join(0, "id", 1, "movie_id");
        let oracle = TrueCardinality::new();
        let a = oracle.estimate(&db, &q, 0b11);
        assert_eq!(oracle.cache_size(), 1);
        let b = oracle.estimate(&db, &q, 0b11);
        assert_eq!(a, b);
        assert_eq!(oracle.cache_size(), 1);
    }

    #[test]
    fn correlated_predicates_break_independence() {
        // The classic estimator must *underestimate* conjunctive selectivity
        // on correlated columns — the textbook failure mode motivating
        // learned estimators.
        let mut rng = StdRng::seed_from_u64(4);
        let cat = joblite(
            &DatasetConfig { base_rows: 2000, skew: 0.0, correlation: 0.95 },
            &mut rng,
        );
        let db = Database::analyze(cat, &mut rng);
        let q = Query::new(&["title"])
            .filter(0, "year", CmpOp::Ge, 2010.0)
            .filter(0, "votes", CmpOp::Ge, 7000.0);
        let est = ClassicEstimator.estimate_scan(&db, &q, 0);
        let truth = TrueCardinality::new().estimate(&db, &q, 1);
        assert!(
            est < truth,
            "independence should underestimate correlated AND: est {est} truth {truth}"
        );
    }

    #[test]
    fn estimates_are_monotone_under_predicates() {
        let db = db();
        let loose = Query::new(&["title"]).filter(0, "year", CmpOp::Ge, 1960.0);
        let tight = Query::new(&["title"]).filter(0, "year", CmpOp::Ge, 2015.0);
        let e_loose = ClassicEstimator.estimate_scan(&db, &loose, 0);
        let e_tight = ClassicEstimator.estimate_scan(&db, &tight, 0);
        assert!(e_tight < e_loose);
    }
}
