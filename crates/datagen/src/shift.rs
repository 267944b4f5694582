//! Seeded workload-shift injection — the adversary of the model
//! lifecycle loop.
//!
//! Every scenario is a deterministic function of its seed: it transforms
//! a `joblite` [`Database`] (data-side shifts) and/or the workload
//! configuration (query-side shifts), and hands out seeded pre-shift,
//! post-shift, and holdout query streams. The lifecycle harness
//! (`ml4db-optimizer::harness::run_shift_recovery`) replays these streams
//! to show a learned component degrading, retraining, and being
//! re-promoted through the validation gate; because everything here is
//! seed-driven, those runs are byte-identical across `ML4DB_THREADS`
//! settings.
//!
//! The five canonical scenarios ([`ShiftKind`]):
//!
//! | scenario              | what moves                                        |
//! |-----------------------|---------------------------------------------------|
//! | `BulkInsert`          | new hot titles appended past the old key range     |
//! | `BulkDelete`          | the Zipf-head of `title` is dropped                |
//! | `CorrelationFlip`     | `year↔votes` and `info_type↔score` flip sign       |
//! | `TemplateDrift`       | query templates grow (more joins, more predicates) |
//! | `SelectivityRotation` | predicate constants rotate lo-end → hi-end         |

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ml4db_plan::Query;
use ml4db_storage::{ColumnData, Database, Table};

use crate::workload::{SchemaGraph, WorkloadConfig, WorkloadGenerator};

/// The five canonical shift scenarios.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShiftKind {
    /// Bulk insert: append fresh titles *beyond* the old key range and
    /// point new fact rows at them — the key distribution and join
    /// fan-out both move.
    BulkInsert,
    /// Bulk delete: drop the Zipf-head of `title` (the ids most fact
    /// rows reference), collapsing previously-hot join selectivities.
    BulkDelete,
    /// Column-correlation flip: reflect `title.votes` and
    /// `movie_info.score` about their domain midpoints, flipping the
    /// sign of the correlations the estimator trained on.
    CorrelationFlip,
    /// Query-template drift: the data is untouched; the workload moves
    /// from small scans to larger joins with more predicates.
    TemplateDrift,
    /// Selectivity / hot-range rotation: predicate constants rotate from
    /// the low end of each domain to the high end.
    SelectivityRotation,
}

impl ShiftKind {
    /// Stable snake_case name (used in trace events and report rows).
    pub fn name(self) -> &'static str {
        match self {
            ShiftKind::BulkInsert => "bulk_insert",
            ShiftKind::BulkDelete => "bulk_delete",
            ShiftKind::CorrelationFlip => "correlation_flip",
            ShiftKind::TemplateDrift => "template_drift",
            ShiftKind::SelectivityRotation => "selectivity_rotation",
        }
    }

    /// All five scenarios, in canonical order.
    pub fn all() -> [ShiftKind; 5] {
        [
            ShiftKind::BulkInsert,
            ShiftKind::BulkDelete,
            ShiftKind::CorrelationFlip,
            ShiftKind::TemplateDrift,
            ShiftKind::SelectivityRotation,
        ]
    }
}

/// A seeded instance of a shift scenario over the `joblite` schema.
#[derive(Clone, Copy, Debug)]
pub struct ShiftScenario {
    /// Which transform to apply.
    pub kind: ShiftKind,
    /// Master seed; every stream this scenario emits derives from it.
    pub seed: u64,
}

// Salts mixed into the master seed so the data transform and the three
// query streams draw from independent deterministic streams.
const SALT_DATA: u64 = 0x5347_4D4F_4431_0001;
const SALT_PRE: u64 = 0x5347_4D4F_4431_0002;
const SALT_POST: u64 = 0x5347_4D4F_4431_0003;
const SALT_HOLDOUT: u64 = 0x5347_4D4F_4431_0004;

impl ShiftScenario {
    /// Creates a scenario.
    pub fn new(kind: ShiftKind, seed: u64) -> Self {
        Self { kind, seed }
    }

    /// The five canonical scenarios under one master seed.
    pub fn all(seed: u64) -> Vec<ShiftScenario> {
        ShiftKind::all().iter().map(|&kind| ShiftScenario::new(kind, seed)).collect()
    }

    /// Scenario name (the kind's name).
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    fn rng(&self, salt: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ salt)
    }

    /// Workload knobs *before* the shift.
    pub fn pre_config(&self) -> WorkloadConfig {
        match self.kind {
            ShiftKind::TemplateDrift => WorkloadConfig {
                min_tables: 1,
                max_tables: 2,
                max_predicates: 1,
                value_skew: 0.5,
            },
            ShiftKind::SelectivityRotation => {
                WorkloadConfig { value_skew: 0.05, ..WorkloadConfig::default() }
            }
            _ => WorkloadConfig::default(),
        }
    }

    /// Workload knobs *after* the shift.
    pub fn post_config(&self) -> WorkloadConfig {
        match self.kind {
            ShiftKind::TemplateDrift => WorkloadConfig {
                min_tables: 2,
                max_tables: 4,
                max_predicates: 3,
                value_skew: 0.5,
            },
            ShiftKind::SelectivityRotation => {
                WorkloadConfig { value_skew: 0.95, ..WorkloadConfig::default() }
            }
            _ => WorkloadConfig::default(),
        }
    }

    /// Applies the data-side transform, returning the shifted database
    /// (statistics recomputed, secondary indexes preserved). Query-side
    /// scenarios return an untouched clone.
    pub fn apply(&self, db: &Database) -> Database {
        let mut rng = self.rng(SALT_DATA);
        let catalog = match self.kind {
            ShiftKind::BulkInsert => bulk_insert(db, &mut rng),
            ShiftKind::BulkDelete => bulk_delete(db),
            ShiftKind::CorrelationFlip => correlation_flip(db),
            ShiftKind::TemplateDrift | ShiftKind::SelectivityRotation => db.catalog.clone(),
        };
        let mut shifted = Database::analyze(catalog, &mut rng);
        for (t, c) in &db.indexes {
            shifted.add_index(t, c);
        }
        shifted
    }

    /// The pre-shift (training/serving) workload, generated against the
    /// *unshifted* database.
    pub fn pre_workload(&self, db: &Database, n: usize) -> Vec<Query> {
        let gen = WorkloadGenerator::new(SchemaGraph::joblite(), self.pre_config());
        gen.generate_many(db, n, &mut self.rng(SALT_PRE))
    }

    /// The post-shift serving workload, generated against the *shifted*
    /// database (constants track the shifted histograms).
    pub fn post_workload(&self, shifted: &Database, n: usize) -> Vec<Query> {
        let gen = WorkloadGenerator::new(SchemaGraph::joblite(), self.post_config());
        gen.generate_many(shifted, n, &mut self.rng(SALT_POST))
    }

    /// The holdout workload the validation gate replays in shadow mode —
    /// post-shift distribution, but a stream the candidate never trained
    /// on.
    pub fn holdout_workload(&self, shifted: &Database, n: usize) -> Vec<Query> {
        let gen = WorkloadGenerator::new(SchemaGraph::joblite(), self.post_config());
        gen.generate_many(shifted, n, &mut self.rng(SALT_HOLDOUT))
    }
}

/// Sorted, deduplicated u64 key stream of an integer column — the input
/// learned indexes (RMI/PGM) are built over. Staleness tests diff this
/// stream before and after a data-side shift.
pub fn key_stream(db: &Database, table: &str, column: &str) -> Vec<u64> {
    let t = db.catalog.table(table).unwrap_or_else(|| panic!("no table {table}"));
    let col = t.column(column).unwrap_or_else(|| panic!("no column {column}"));
    let mut keys: Vec<u64> =
        (0..t.num_rows()).map(|i| col.get(i).as_i64().max(0) as u64).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

fn int_col(t: &Table, name: &str) -> Vec<i64> {
    match t.column(name).unwrap_or_else(|| panic!("no column {name}")) {
        ColumnData::Int(v) => v.clone(),
        ColumnData::Float(_) => panic!("column {name} is not Int"),
    }
}

fn float_col(t: &Table, name: &str) -> Vec<f64> {
    match t.column(name).unwrap_or_else(|| panic!("no column {name}")) {
        ColumnData::Float(v) => v.clone(),
        ColumnData::Int(_) => panic!("column {name} is not Float"),
    }
}

/// Appends 50% fresh titles with ids past the old range and years/votes
/// in a new hot region, then points a batch of new `cast_info` rows
/// exclusively at them.
fn bulk_insert<R: Rng + ?Sized>(db: &Database, rng: &mut R) -> ml4db_storage::Catalog {
    let mut catalog = db.catalog.clone();
    let title = catalog.table("title").expect("joblite has title").clone();
    let n_old = title.num_rows();
    let n_new = (n_old / 2).max(1);
    let first_new_id = int_col(&title, "id").iter().copied().max().unwrap_or(0) + 1;

    let mut ids = int_col(&title, "id");
    let mut kinds = int_col(&title, "kind");
    let mut years = int_col(&title, "year");
    let mut votes = int_col(&title, "votes");
    for i in 0..n_new {
        ids.push(first_new_id + i as i64);
        kinds.push(rng.gen_range(0..7));
        // The new region: recent years, uniformly huge vote counts — both
        // outside what the old histograms (and any trained model) saw.
        years.push(rng.gen_range(2024..2040));
        votes.push(rng.gen_range(20_000..40_000));
    }
    catalog.add_table(Table::new(
        "title",
        title.schema.clone(),
        vec![
            ColumnData::Int(ids),
            ColumnData::Int(kinds),
            ColumnData::Int(years),
            ColumnData::Int(votes),
        ],
    ));

    // New fact rows reference *only* the new titles: the hot join keys move.
    let cast = catalog.table("cast_info").expect("joblite has cast_info").clone();
    let mut movie_ids = int_col(&cast, "movie_id");
    let mut person_ids = int_col(&cast, "person_id");
    let mut roles = int_col(&cast, "role");
    let n_people = catalog.table("person").map_or(1, |p| p.num_rows().max(1));
    for _ in 0..n_new * 3 {
        movie_ids.push(first_new_id + rng.gen_range(0..n_new as i64));
        person_ids.push(rng.gen_range(0..n_people as i64));
        roles.push(rng.gen_range(0..12));
    }
    catalog.add_table(Table::new(
        "cast_info",
        cast.schema.clone(),
        vec![
            ColumnData::Int(movie_ids),
            ColumnData::Int(person_ids),
            ColumnData::Int(roles),
        ],
    ));
    catalog
}

/// Drops the first third of `title` by id — the Zipf-head the fact
/// tables reference most. Surviving ids are preserved (no renumbering),
/// so dangling fact rows simply stop joining.
fn bulk_delete(db: &Database) -> ml4db_storage::Catalog {
    let mut catalog = db.catalog.clone();
    let title = catalog.table("title").expect("joblite has title").clone();
    let ids = int_col(&title, "id");
    let max_id = ids.iter().copied().max().unwrap_or(0);
    let cutoff = max_id / 3;
    let keep: Vec<usize> = (0..title.num_rows()).filter(|&i| ids[i] >= cutoff).collect();
    let filter_int = |name: &str| {
        let v = int_col(&title, name);
        ColumnData::Int(keep.iter().map(|&i| v[i]).collect())
    };
    catalog.add_table(Table::new(
        "title",
        title.schema.clone(),
        vec![filter_int("id"), filter_int("kind"), filter_int("year"), filter_int("votes")],
    ));
    catalog
}

/// Reflects `title.votes` and `movie_info.score` about their domain
/// midpoints: marginals are preserved, correlation signs flip.
fn correlation_flip(db: &Database) -> ml4db_storage::Catalog {
    let mut catalog = db.catalog.clone();

    let title = catalog.table("title").expect("joblite has title").clone();
    let votes = int_col(&title, "votes");
    let (lo, hi) = (
        votes.iter().copied().min().unwrap_or(0),
        votes.iter().copied().max().unwrap_or(0),
    );
    let flipped: Vec<i64> = votes.iter().map(|&v| lo + hi - v).collect();
    catalog.add_table(Table::new(
        "title",
        title.schema.clone(),
        vec![
            ColumnData::Int(int_col(&title, "id")),
            ColumnData::Int(int_col(&title, "kind")),
            ColumnData::Int(int_col(&title, "year")),
            ColumnData::Int(flipped),
        ],
    ));

    let info = catalog.table("movie_info").expect("joblite has movie_info").clone();
    let scores = float_col(&info, "score");
    let flipped_scores: Vec<f64> = scores.iter().map(|&s| 10.0 - s).collect();
    catalog.add_table(Table::new(
        "movie_info",
        info.schema.clone(),
        vec![
            ColumnData::Int(int_col(&info, "movie_id")),
            ColumnData::Int(int_col(&info, "info_type")),
            ColumnData::Float(flipped_scores),
        ],
    ));
    catalog
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4db_storage::datasets::joblite_db;

    fn db() -> Database {
        let mut rng = StdRng::seed_from_u64(7);
        let mut db = joblite_db(300, &[], &mut rng);
        db.add_index("title", "year");
        db
    }

    fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
        let n = xs.len() as f64;
        let (mx, my) = (xs.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
        let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let (vx, vy): (f64, f64) = (
            xs.iter().map(|x| (x - mx).powi(2)).sum(),
            ys.iter().map(|y| (y - my).powi(2)).sum(),
        );
        cov / (vx.sqrt() * vy.sqrt()).max(1e-12)
    }

    fn col_f64(db: &Database, table: &str, col: &str) -> Vec<f64> {
        let t = db.catalog.table(table).unwrap();
        let c = t.column(col).unwrap();
        (0..t.num_rows()).map(|i| c.get_f64(i)).collect()
    }

    #[test]
    fn every_scenario_yields_valid_workloads() {
        let db = db();
        for sc in ShiftScenario::all(42) {
            let shifted = sc.apply(&db);
            for q in sc.pre_workload(&db, 10) {
                q.validate(&db).unwrap();
            }
            for q in sc.post_workload(&shifted, 10) {
                q.validate(&shifted).unwrap();
            }
            for q in sc.holdout_workload(&shifted, 10) {
                q.validate(&shifted).unwrap();
            }
            assert!(shifted.has_index("title", "year"), "{}: indexes preserved", sc.name());
        }
    }

    #[test]
    fn bulk_insert_extends_key_range() {
        let db = db();
        let sc = ShiftScenario::new(ShiftKind::BulkInsert, 42);
        let shifted = sc.apply(&db);
        let before = key_stream(&db, "title", "id");
        let after = key_stream(&shifted, "title", "id");
        assert!(after.len() > before.len());
        assert!(after.last().unwrap() > before.last().unwrap(), "new keys past old range");
        assert!(
            shifted.catalog.table("cast_info").unwrap().num_rows()
                > db.catalog.table("cast_info").unwrap().num_rows()
        );
    }

    #[test]
    fn bulk_delete_drops_zipf_head() {
        let db = db();
        let shifted = ShiftScenario::new(ShiftKind::BulkDelete, 42).apply(&db);
        let before = db.catalog.table("title").unwrap().num_rows();
        let after = shifted.catalog.table("title").unwrap().num_rows();
        assert!(after < before, "delete must shrink title: {before} -> {after}");
        let min_id = key_stream(&shifted, "title", "id")[0];
        assert!(min_id > 0, "the id head must be gone");
    }

    #[test]
    fn correlation_flip_flips_sign() {
        let db = db();
        let shifted = ShiftScenario::new(ShiftKind::CorrelationFlip, 42).apply(&db);
        let before = pearson(&col_f64(&db, "title", "year"), &col_f64(&db, "title", "votes"));
        let after =
            pearson(&col_f64(&shifted, "title", "year"), &col_f64(&shifted, "title", "votes"));
        assert!(before > 0.2, "seed data must be positively correlated: {before}");
        assert!(after < -0.2, "flip must invert the correlation: {after}");
    }

    #[test]
    fn query_side_scenarios_leave_data_alone() {
        let db = db();
        for kind in [ShiftKind::TemplateDrift, ShiftKind::SelectivityRotation] {
            let shifted = ShiftScenario::new(kind, 42).apply(&db);
            assert_eq!(
                shifted.catalog.table("title").unwrap().num_rows(),
                db.catalog.table("title").unwrap().num_rows()
            );
        }
        // ...but the workloads move: template drift grows the joins.
        let sc = ShiftScenario::new(ShiftKind::TemplateDrift, 42);
        let shifted = sc.apply(&db);
        let avg = |qs: &[Query]| {
            qs.iter().map(|q| q.num_tables() as f64).sum::<f64>() / qs.len() as f64
        };
        let pre = sc.pre_workload(&db, 40);
        let post = sc.post_workload(&shifted, 40);
        assert!(avg(&post) > avg(&pre), "template drift must grow joins");
    }

    #[test]
    fn scenarios_are_deterministic_in_the_seed() {
        let db = db();
        for sc in ShiftScenario::all(9) {
            let (a, b) = (sc.apply(&db), sc.apply(&db));
            assert_eq!(
                key_stream(&a, "title", "id"),
                key_stream(&b, "title", "id"),
                "{}: data transform must be seed-deterministic",
                sc.name()
            );
            let fps = |qs: Vec<Query>| qs.iter().map(|q| q.fingerprint()).collect::<Vec<_>>();
            assert_eq!(fps(sc.holdout_workload(&a, 15)), fps(sc.holdout_workload(&b, 15)));
        }
    }
}
