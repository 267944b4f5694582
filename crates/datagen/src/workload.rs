//! Parametric SPJ workload generation with drift schedules — the substrate
//! of every optimizer experiment (training workloads, seen/unseen template
//! splits, and the workload-shift scenarios of E8/E15).

use rand::seq::SliceRandom;
use rand::Rng;

use ml4db_plan::Query;
use ml4db_storage::{CmpOp, Database};

/// The join graph of a schema: which columns join which tables. The
/// generators only emit joins along these edges, so every query is
/// semantically meaningful (FK joins).
#[derive(Clone, Debug)]
pub struct SchemaGraph {
    /// Edges as `(table_a, col_a, table_b, col_b)`.
    pub edges: Vec<(String, String, String, String)>,
}

impl SchemaGraph {
    /// The join graph of the `joblite` dataset.
    pub fn joblite() -> Self {
        let e = |a: &str, ca: &str, b: &str, cb: &str| {
            (a.to_string(), ca.to_string(), b.to_string(), cb.to_string())
        };
        Self {
            edges: vec![
                e("title", "id", "cast_info", "movie_id"),
                e("title", "id", "movie_info", "movie_id"),
                e("title", "id", "movie_companies", "movie_id"),
                e("cast_info", "person_id", "person", "id"),
                e("movie_companies", "company_id", "company", "id"),
            ],
        }
    }

    /// The join graph of the `tpchlite` dataset.
    pub fn tpchlite() -> Self {
        let e = |a: &str, ca: &str, b: &str, cb: &str| {
            (a.to_string(), ca.to_string(), b.to_string(), cb.to_string())
        };
        Self {
            edges: vec![
                e("customer", "nation_id", "nation", "id"),
                e("orders", "cust_id", "customer", "id"),
                e("lineitem", "order_id", "orders", "id"),
            ],
        }
    }

    /// Tables mentioned by the graph.
    pub fn tables(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .edges
            .iter()
            .flat_map(|(a, _, b, _)| [a.clone(), b.clone()])
            .collect();
        v.sort();
        v.dedup();
        v
    }
}

/// Columns eligible for predicates, per table (numeric non-key columns).
pub(crate) fn predicate_columns(db: &Database, table: &str) -> Vec<String> {
    db.catalog
        .table(table)
        .map(|t| {
            t.schema
                .columns
                .iter()
                .filter(|c| !c.name.ends_with("id"))
                .map(|c| c.name.clone())
                .collect()
        })
        .unwrap_or_default()
}

/// Workload generation knobs.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Minimum number of tables per query.
    pub min_tables: usize,
    /// Maximum number of tables per query.
    pub max_tables: usize,
    /// Predicates per query (upper bound; actual count may be less when no
    /// eligible columns exist).
    pub max_predicates: usize,
    /// Shifts predicate constants toward one end of the domain in `[0, 1]`;
    /// 0.5 is unbiased. Changing this mid-stream simulates workload drift.
    pub value_skew: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self { min_tables: 1, max_tables: 3, max_predicates: 2, value_skew: 0.5 }
    }
}

/// Generates random SPJ queries over the schema graph.
pub struct WorkloadGenerator {
    graph: SchemaGraph,
    /// The generation knobs (mutable: drift schedules tweak them).
    pub config: WorkloadConfig,
}

impl WorkloadGenerator {
    /// Creates a generator.
    pub fn new(graph: SchemaGraph, config: WorkloadConfig) -> Self {
        Self { graph, config }
    }

    /// Generates one valid query.
    pub fn generate<R: Rng + ?Sized>(&self, db: &Database, rng: &mut R) -> Query {
        loop {
            if let Some(q) = self.try_generate(db, rng) {
                if q.validate(db).is_ok() {
                    return q;
                }
            }
        }
    }

    /// Generates `n` queries.
    pub fn generate_many<R: Rng + ?Sized>(
        &self,
        db: &Database,
        n: usize,
        rng: &mut R,
    ) -> Vec<Query> {
        (0..n).map(|_| self.generate(db, rng)).collect()
    }

    fn try_generate<R: Rng + ?Sized>(&self, db: &Database, rng: &mut R) -> Option<Query> {
        let n_tables = rng.gen_range(self.config.min_tables..=self.config.max_tables);
        // Grow a connected set of tables along graph edges.
        let all_tables = self.graph.tables();
        let start = all_tables.choose(rng)?.clone();
        let mut chosen: Vec<String> = vec![start];
        let mut edges_used: Vec<(usize, String, usize, String)> = Vec::new();
        while chosen.len() < n_tables {
            // Pick an edge touching the chosen set and extending it.
            let candidates: Vec<&(String, String, String, String)> = self
                .graph
                .edges
                .iter()
                .filter(|(a, _, b, _)| {
                    chosen.contains(a) != chosen.contains(b) // exactly one side in
                })
                .collect();
            let Some(edge) = candidates.choose(rng) else {
                break;
            };
            let (a, ca, b, cb) = (*edge).clone();
            let (new_table, a_in) = if chosen.contains(&a) { (b.clone(), true) } else { (a.clone(), false) };
            chosen.push(new_table);
            let pos_of = |t: &str| chosen.iter().position(|x| x == t).expect("in chosen");
            if a_in {
                edges_used.push((pos_of(&a), ca, pos_of(&b), cb));
            } else {
                edges_used.push((pos_of(&a), ca, pos_of(&b), cb));
            }
        }
        let mut q = Query::new(&chosen.iter().map(|s| s.as_str()).collect::<Vec<_>>());
        for (l, lc, r, rc) in edges_used {
            q = q.join(l, &lc, r, &rc);
        }
        // Predicates on random eligible columns.
        let n_preds = rng.gen_range(0..=self.config.max_predicates);
        for _ in 0..n_preds {
            let t = rng.gen_range(0..q.tables.len());
            let cols = predicate_columns(db, &q.tables[t].table.clone());
            let Some(col) = cols.choose(rng) else { continue };
            let stats = db.table_stats(&q.tables[t].table)?;
            let ci = db.catalog.table(&q.tables[t].table)?.schema.column_index(col)?;
            let h = &stats.columns[ci].histogram;
            let (lo, hi) = (h.min(), h.max());
            // Skewed quantile draw: value_skew pushes constants toward hi.
            let u: f64 = rng.gen::<f64>();
            let biased = u * (1.0 - self.config.value_skew) + self.config.value_skew * u.sqrt();
            let value = lo + biased * (hi - lo);
            let op = [CmpOp::Ge, CmpOp::Le, CmpOp::Gt, CmpOp::Lt, CmpOp::Eq]
                [rng.gen_range(0..5)];
            let value = if op == CmpOp::Eq { value.round() } else { value };
            q = q.filter(t, col, op, value);
        }
        Some(q)
    }
}

/// A drift schedule: phases of workload configuration, each lasting a
/// number of queries — "sudden" drift is two phases, "gradual" many.
#[derive(Clone, Debug)]
pub struct DriftSchedule {
    /// `(queries in phase, config for phase)` pairs.
    pub phases: Vec<(usize, WorkloadConfig)>,
}

impl DriftSchedule {
    /// A sudden shift: `before` queries with defaults, then `after` queries
    /// with heavily skewed constants and bigger joins.
    pub fn sudden(before: usize, after: usize) -> Self {
        Self {
            phases: vec![
                (before, WorkloadConfig::default()),
                (
                    after,
                    WorkloadConfig {
                        min_tables: 2,
                        max_tables: 4,
                        max_predicates: 3,
                        value_skew: 0.95,
                    },
                ),
            ],
        }
    }

    /// Emits the full query stream for the schedule.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        db: &Database,
        graph: &SchemaGraph,
        rng: &mut R,
    ) -> Vec<Query> {
        let mut out = Vec::new();
        for (n, config) in &self.phases {
            let generator = WorkloadGenerator::new(graph.clone(), config.clone());
            out.extend(generator.generate_many(db, *n, rng));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4db_storage::datasets::joblite_db;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db() -> Database {
        let mut rng = StdRng::seed_from_u64(1);
        joblite_db(150, &[], &mut rng)
    }

    #[test]
    fn generated_queries_validate() {
        let db = db();
        let gen = WorkloadGenerator::new(SchemaGraph::joblite(), WorkloadConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        for q in gen.generate_many(&db, 50, &mut rng) {
            q.validate(&db).unwrap();
            assert!(q.num_tables() <= 3);
        }
    }

    #[test]
    fn multi_table_queries_have_joins() {
        let db = db();
        let gen = WorkloadGenerator::new(
            SchemaGraph::joblite(),
            WorkloadConfig { min_tables: 3, max_tables: 3, ..Default::default() },
        );
        let mut rng = StdRng::seed_from_u64(3);
        for q in gen.generate_many(&db, 20, &mut rng) {
            assert_eq!(q.num_tables(), 3);
            assert!(q.joins.len() >= 2, "3 tables need >= 2 edges");
        }
    }

    #[test]
    fn drift_schedule_changes_distribution() {
        let db = db();
        let mut rng = StdRng::seed_from_u64(4);
        let stream =
            DriftSchedule::sudden(30, 30).generate(&db, &SchemaGraph::joblite(), &mut rng);
        assert_eq!(stream.len(), 60);
        let avg_tables_before: f64 =
            stream[..30].iter().map(|q| q.num_tables() as f64).sum::<f64>() / 30.0;
        let avg_tables_after: f64 =
            stream[30..].iter().map(|q| q.num_tables() as f64).sum::<f64>() / 30.0;
        assert!(
            avg_tables_after > avg_tables_before,
            "shift should increase join sizes: {avg_tables_before} -> {avg_tables_after}"
        );
    }
}
