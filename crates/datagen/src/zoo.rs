//! The workload zoo: a composable family of seeded scenarios spanning
//! workload *diversity* (OLTP/OLAP mixes, diurnal cycles, flash crowds,
//! skew storms, many-tenant template populations), *adversarial*
//! workloads crafted to fool specific learned components
//! (distribution-edge predicates, correlation flips that invalidate a
//! trained joint model while leaving every histogram untouched, key
//! distributions that blow up PGM segment counts, plan-regression trap
//! candidates), and the five canonical drift scenarios of [`shift`]
//! folded in as zoo members.
//!
//! Every scenario is a pure function of `(kind, seed)`: the data
//! transform, the benign training stream, and the evaluation stream all
//! derive from salted per-stream RNGs, so the evaluation matrix built on
//! top (`ml4db_core::matrix`) is byte-identical across `ML4DB_THREADS`
//! settings.
//!
//! The scenario contract mirrors the lifecycle harness:
//!
//! 1. [`ScenarioSpec::train_workload`] — generated against the *base*
//!    database; learned components train here;
//! 2. [`ScenarioSpec::apply`] — the data-side transform (identity for
//!    query-side scenarios);
//! 3. [`ScenarioSpec::eval_workload`] — generated against the *applied*
//!    database; policies are scored here.
//!
//! Adversarial scenarios are load-bearing by construction: each one
//! targets a named learned component, and the negative-control tests
//! (`tests/zoo_adversarial.rs`) prove the component demonstrably fails
//! unguarded while the guarded configuration stays within budget.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ml4db_plan::Query;
use ml4db_storage::{CmpOp, Database};

use crate::shift::{ShiftKind, ShiftScenario};
use crate::workload::{predicate_columns, SchemaGraph, WorkloadConfig, WorkloadGenerator};

/// Which zoo member a [`ScenarioSpec`] instantiates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScenarioKind {
    /// Mix dial between point-lookup-style OLTP queries (single table)
    /// and analytic OLAP joins (3–4 tables): each query is OLAP with
    /// probability `olap_fraction`.
    OltpOlapMix {
        /// Probability a query is an analytic join.
        olap_fraction: f64,
    },
    /// Diurnal cycle of length `period` queries: the first half of each
    /// cycle is daytime (small transactional scans, low skew), the
    /// second half nighttime (large analytic joins, high skew).
    DiurnalCycle {
        /// Queries per full day/night cycle.
        period: usize,
    },
    /// Flash crowd: `hot_fraction` of the stream hammers one template
    /// (constants re-bound in quantized steps, fingerprints vary), the
    /// rest is background traffic.
    FlashCrowd {
        /// Fraction of the stream on the hot template.
        hot_fraction: f64,
    },
    /// Skew storm: predicate constants pile onto the extreme high end of
    /// every domain (`value_skew` 0.98) with maximal predicate counts.
    SkewStorm,
    /// Many-tenant template population: `tenants` tenants with pairwise
    /// *disjoint* template sets (by [`Query::template_signature`]),
    /// interleaved round-robin.
    ManyTenant {
        /// Number of tenants.
        tenants: usize,
    },
    /// Adversarial: every predicate constant is pinned to the exact edge
    /// of its column's histogram domain with a strict comparison — the
    /// near-zero-selectivity extrapolation regime where learned
    /// estimators trained on interior constants are at their worst.
    /// Constants always stay inside `[min, max]` of the live histogram.
    DistributionEdge,
    /// Adversarial: the correlation-flip transform (reflect
    /// `title.votes` and `movie_info.score` about their midpoints).
    /// Marginals — and therefore every per-column histogram the
    /// classical estimator uses — are preserved bit-for-bit; only the
    /// joint distribution a trained model memorized is inverted.
    CorrelationTrap,
    /// Adversarial: append keys in clustered bursts (runs of
    /// [`BOMB_CLUSTER`] consecutive keys separated by [`BOMB_GAP`]-sized
    /// voids) past the current `title.id` range. Within a burst the
    /// key→position slope is 1; across bursts it is ~`m/G ≈ 0` — any
    /// line covering two bursts mispredicts positions inside each by
    /// ~`m/2 > ε`, so an ε-bounded PGM needs a segment per burst and its
    /// compression guarantee collapses.
    PgmSegmentBomb,
    /// Adversarial: a candidate pool of off-distribution analytic joins
    /// (bigger, more skewed than the training stream) from which the
    /// matrix harness selects the queries where a benign-trained Bao is
    /// confidently wrong — the plan-regression trap.
    PlanRegressionTrap,
    /// One of the five canonical drift scenarios, folded into the zoo.
    Shift(ShiftKind),
}

/// A seeded instance of a zoo scenario over the `joblite` schema.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Which scenario family.
    pub kind: ScenarioKind,
    /// Master seed; every stream derives from it through salts.
    pub seed: u64,
}

// Salts mixed into the master seed so the data transform and the two
// query streams draw from independent deterministic streams.
const SALT_TRAIN: u64 = 0x5A4F_4F31_0000_0001;
const SALT_EVAL: u64 = 0x5A4F_4F31_0000_0002;
const SALT_HOT: u64 = 0x5A4F_4F31_0000_0003;
const SALT_TENANT: u64 = 0x5A4F_4F31_0000_0004;
const SALT_DATA: u64 = 0x5A4F_4F31_0000_0005;

/// Void between bomb key bursts; `G ≫` burst width, so the global
/// key→position slope is ~0 while the within-burst slope is 1.
pub const BOMB_GAP: u64 = 65_536;

/// Keys per bomb burst. Sized as `2ε + 2` for the suite's probe ε of 16:
/// a line spanning two bursts is off by ~`BOMB_CLUSTER / 2 > ε` inside
/// each, forcing at least one PGM segment per burst.
pub const BOMB_CLUSTER: usize = 34;

impl ScenarioSpec {
    /// Creates a scenario.
    pub fn new(kind: ScenarioKind, seed: u64) -> Self {
        Self { kind, seed }
    }

    /// The full zoo under one master seed, in canonical matrix order:
    /// five diversity scenarios, four adversarial scenarios, five drift
    /// scenarios.
    pub fn zoo(seed: u64) -> Vec<ScenarioSpec> {
        let mut v = vec![
            ScenarioSpec::new(ScenarioKind::OltpOlapMix { olap_fraction: 0.5 }, seed),
            ScenarioSpec::new(ScenarioKind::DiurnalCycle { period: 8 }, seed),
            ScenarioSpec::new(ScenarioKind::FlashCrowd { hot_fraction: 0.8 }, seed),
            ScenarioSpec::new(ScenarioKind::SkewStorm, seed),
            ScenarioSpec::new(ScenarioKind::ManyTenant { tenants: 3 }, seed),
            ScenarioSpec::new(ScenarioKind::DistributionEdge, seed),
            ScenarioSpec::new(ScenarioKind::CorrelationTrap, seed),
            ScenarioSpec::new(ScenarioKind::PgmSegmentBomb, seed),
            ScenarioSpec::new(ScenarioKind::PlanRegressionTrap, seed),
        ];
        v.extend(ShiftKind::all().iter().map(|&k| ScenarioSpec::new(ScenarioKind::Shift(k), seed)));
        v
    }

    /// Stable snake_case name (report rows, trace events, budgets).
    pub fn name(&self) -> &'static str {
        match self.kind {
            ScenarioKind::OltpOlapMix { .. } => "oltp_olap_mix",
            ScenarioKind::DiurnalCycle { .. } => "diurnal_cycle",
            ScenarioKind::FlashCrowd { .. } => "flash_crowd",
            ScenarioKind::SkewStorm => "skew_storm",
            ScenarioKind::ManyTenant { .. } => "many_tenant",
            ScenarioKind::DistributionEdge => "distribution_edge",
            ScenarioKind::CorrelationTrap => "correlation_trap",
            ScenarioKind::PgmSegmentBomb => "pgm_segment_bomb",
            ScenarioKind::PlanRegressionTrap => "plan_regression_trap",
            ScenarioKind::Shift(ShiftKind::BulkInsert) => "shift_bulk_insert",
            ScenarioKind::Shift(ShiftKind::BulkDelete) => "shift_bulk_delete",
            ScenarioKind::Shift(ShiftKind::CorrelationFlip) => "shift_correlation_flip",
            ScenarioKind::Shift(ShiftKind::TemplateDrift) => "shift_template_drift",
            ScenarioKind::Shift(ShiftKind::SelectivityRotation) => "shift_selectivity_rotation",
        }
    }

    /// Whether this scenario is crafted to fool a learned component (and
    /// therefore carries a negative-control obligation in the matrix).
    pub fn is_adversarial(&self) -> bool {
        matches!(
            self.kind,
            ScenarioKind::DistributionEdge
                | ScenarioKind::CorrelationTrap
                | ScenarioKind::PgmSegmentBomb
                | ScenarioKind::PlanRegressionTrap
        )
    }

    fn rng(&self, salt: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ salt)
    }

    fn shift(&self) -> Option<ShiftScenario> {
        match self.kind {
            ScenarioKind::Shift(k) => Some(ShiftScenario::new(k, self.seed)),
            ScenarioKind::CorrelationTrap => {
                Some(ShiftScenario::new(ShiftKind::CorrelationFlip, self.seed))
            }
            _ => None,
        }
    }

    /// Applies the data-side transform. Query-side scenarios return the
    /// database re-analyzed from the same catalog (identity up to
    /// recomputed statistics); [`ScenarioKind::PgmSegmentBomb`] appends
    /// the sawtooth keys to `title`; the trap/shift variants delegate to
    /// their [`ShiftScenario`] transform. Secondary indexes survive.
    pub fn apply(&self, db: &Database) -> Database {
        if let Some(sc) = self.shift() {
            return sc.apply(db);
        }
        let mut rng = self.rng(SALT_DATA);
        let catalog = match self.kind {
            ScenarioKind::PgmSegmentBomb => bomb_apply(db),
            _ => db.catalog.clone(),
        };
        let mut applied = Database::analyze(catalog, &mut rng);
        for (t, c) in &db.indexes {
            applied.add_index(t, c);
        }
        applied
    }

    /// The benign training stream, generated against the *base*
    /// database — what learned components see before the scenario lands.
    pub fn train_workload(&self, db: &Database, n: usize) -> Vec<Query> {
        if let ScenarioKind::Shift(_) = self.kind {
            return self.shift().expect("shift kind").pre_workload(db, n);
        }
        let config = match self.kind {
            // The trap trains on the same benign regime Bao's own tests
            // use: mid-size joins, unbiased constants.
            ScenarioKind::PlanRegressionTrap => {
                WorkloadConfig { min_tables: 2, max_tables: 3, ..WorkloadConfig::default() }
            }
            _ => WorkloadConfig::default(),
        };
        WorkloadGenerator::new(SchemaGraph::joblite(), config).generate_many(
            db,
            n,
            &mut self.rng(SALT_TRAIN),
        )
    }

    /// The evaluation stream, generated against the *applied* database.
    pub fn eval_workload(&self, db: &Database, n: usize) -> Vec<Query> {
        let mut rng = self.rng(SALT_EVAL);
        match self.kind {
            ScenarioKind::OltpOlapMix { olap_fraction } => {
                let oltp = generator(WorkloadConfig {
                    min_tables: 1,
                    max_tables: 1,
                    max_predicates: 2,
                    value_skew: 0.5,
                });
                let olap = generator(WorkloadConfig {
                    min_tables: 3,
                    max_tables: 4,
                    max_predicates: 3,
                    value_skew: 0.5,
                });
                (0..n)
                    .map(|_| {
                        if rng.gen::<f64>() < olap_fraction {
                            olap.generate(db, &mut rng)
                        } else {
                            oltp.generate(db, &mut rng)
                        }
                    })
                    .collect()
            }
            ScenarioKind::DiurnalCycle { period } => {
                let period = period.max(2);
                let day = generator(WorkloadConfig {
                    min_tables: 1,
                    max_tables: 2,
                    max_predicates: 2,
                    value_skew: 0.2,
                });
                let night = generator(WorkloadConfig {
                    min_tables: 2,
                    max_tables: 4,
                    max_predicates: 3,
                    value_skew: 0.8,
                });
                (0..n)
                    .map(|i| {
                        if i % period < period / 2 {
                            day.generate(db, &mut rng)
                        } else {
                            night.generate(db, &mut rng)
                        }
                    })
                    .collect()
            }
            ScenarioKind::FlashCrowd { hot_fraction } => {
                let hot = generator(WorkloadConfig {
                    min_tables: 2,
                    max_tables: 3,
                    ..WorkloadConfig::default()
                })
                .generate(db, &mut self.rng(SALT_HOT));
                let background = generator(WorkloadConfig::default());
                (0..n)
                    .map(|_| {
                        if rng.gen::<f64>() < hot_fraction {
                            rebind_constants(&hot, &mut rng)
                        } else {
                            background.generate(db, &mut rng)
                        }
                    })
                    .collect()
            }
            ScenarioKind::SkewStorm => generator(WorkloadConfig {
                min_tables: 1,
                max_tables: 3,
                max_predicates: 3,
                value_skew: 0.98,
            })
            .generate_many(db, n, &mut rng),
            ScenarioKind::ManyTenant { tenants } => {
                let pools = self.tenant_templates(db);
                let tenants = tenants.max(1);
                (0..n)
                    .map(|i| {
                        let pool = &pools[i % tenants];
                        let t = rng.gen_range(0..pool.len());
                        rebind_constants(&pool[t], &mut rng)
                    })
                    .collect()
            }
            ScenarioKind::DistributionEdge => {
                let base = generator(WorkloadConfig {
                    min_tables: 1,
                    max_tables: 3,
                    max_predicates: 2,
                    value_skew: 0.5,
                });
                (0..n).map(|_| edge_query(db, &base, &mut rng)).collect()
            }
            ScenarioKind::PlanRegressionTrap => generator(WorkloadConfig {
                min_tables: 3,
                max_tables: 4,
                max_predicates: 3,
                value_skew: 0.9,
            })
            .generate_many(db, n, &mut rng),
            ScenarioKind::CorrelationTrap => {
                let base = generator(WorkloadConfig::default());
                (0..n).map(|_| correlation_query(db, &base, &mut rng)).collect()
            }
            ScenarioKind::PgmSegmentBomb => {
                generator(WorkloadConfig::default()).generate_many(db, n, &mut rng)
            }
            ScenarioKind::Shift(_) => {
                self.shift().expect("shift kind").post_workload(db, n)
            }
        }
    }

    /// The per-tenant template pools of [`ScenarioKind::ManyTenant`]:
    /// `tenants` sets of 3 templates each, pairwise disjoint by
    /// [`Query::template_signature`] (rejection-sampled; the joblite
    /// template space is far larger than the population).
    ///
    /// # Panics
    /// Panics for other kinds, or if rejection sampling cannot find
    /// enough distinct templates (deterministic: if it passes once for a
    /// seed it always does).
    pub fn tenant_templates(&self, db: &Database) -> Vec<Vec<Query>> {
        let ScenarioKind::ManyTenant { tenants } = self.kind else {
            panic!("tenant_templates is only defined for ManyTenant");
        };
        let tenants = tenants.max(1);
        let per_tenant = 3usize;
        let gen = generator(WorkloadConfig {
            min_tables: 1,
            max_tables: 3,
            max_predicates: 2,
            value_skew: 0.5,
        });
        let mut rng = self.rng(SALT_TENANT);
        let mut seen = std::collections::BTreeSet::new();
        let mut pools = Vec::with_capacity(tenants);
        for _ in 0..tenants {
            let mut pool = Vec::with_capacity(per_tenant);
            while pool.len() < per_tenant {
                let mut found = false;
                for _ in 0..400 {
                    let q = gen.generate(db, &mut rng);
                    if seen.insert(q.template_signature()) {
                        pool.push(q);
                        found = true;
                        break;
                    }
                }
                assert!(found, "template space exhausted for {} tenants", tenants);
            }
            pools.push(pool);
        }
        pools
    }

    /// The clustered key stream of [`ScenarioKind::PgmSegmentBomb`]:
    /// strictly increasing keys past `base` in bursts of [`BOMB_CLUSTER`]
    /// consecutive values separated by [`BOMB_GAP`]-sized voids. One
    /// line cannot track both the within-burst slope (1) and the
    /// across-burst slope (~0) within ±ε, so an ε-bounded PGM needs a
    /// segment per burst.
    ///
    /// # Panics
    /// Panics for other kinds.
    pub fn bomb_keys(&self, base: u64, n: usize) -> Vec<u64> {
        assert!(
            matches!(self.kind, ScenarioKind::PgmSegmentBomb),
            "bomb_keys is only defined for PgmSegmentBomb"
        );
        let mut keys = Vec::with_capacity(n);
        let mut k = base + BOMB_GAP;
        for i in 0..n {
            keys.push(k);
            k += if (i + 1) % BOMB_CLUSTER == 0 { BOMB_GAP } else { 1 };
        }
        keys
    }
}

fn generator(config: WorkloadConfig) -> WorkloadGenerator {
    WorkloadGenerator::new(SchemaGraph::joblite(), config)
}

/// Re-binds a template's predicate constants in quantized ±5% steps (the
/// `serve_load` variant scheme): plan shape survives, fingerprints move.
fn rebind_constants<R: Rng + ?Sized>(template: &Query, rng: &mut R) -> Query {
    let mut q = template.clone();
    for p in &mut q.predicates {
        let step = rng.gen_range(-3i32..=3i32);
        p.value = (p.value + f64::from(step) * p.value.abs().max(1.0) * 0.05).round();
    }
    q
}

/// Pins every predicate of a freshly generated query to a histogram edge
/// with a strict comparison, and guarantees at least one such predicate
/// exists. Constants stay inside the live `[min, max]` domain.
fn edge_query<R: Rng + ?Sized>(db: &Database, gen: &WorkloadGenerator, rng: &mut R) -> Query {
    loop {
        let mut q = gen.generate(db, rng);
        if q.predicates.is_empty() {
            // Force one predicate onto a random table with an eligible
            // column; retry the whole query if none exists.
            let t = rng.gen_range(0..q.tables.len());
            let cols = predicate_columns(db, &q.tables[t].table);
            if cols.is_empty() {
                continue;
            }
            let col = cols[rng.gen_range(0..cols.len())].clone();
            q = q.filter(t, &col, CmpOp::Ge, 0.0);
        }
        let mut ok = true;
        for p in &mut q.predicates {
            let Some((lo, hi)) = domain(db, &q.tables[p.table].table, &p.column) else {
                ok = false;
                break;
            };
            // Either edge, always the strict comparison pointing *off*
            // the domain: `< min` or `> max` — the ~zero-selectivity
            // regime, with the constant itself still in-domain.
            if rng.gen::<bool>() {
                p.value = lo;
                p.op = CmpOp::Lt;
            } else {
                p.value = hi;
                p.op = CmpOp::Gt;
            }
        }
        if ok && q.validate(db).is_ok() {
            return q;
        }
    }
}

/// A query whose selectivity hangs on the `title` year–votes *joint*:
/// always carries the conjunction `year ≥ y ∧ votes ≥ v` with both
/// constants in the upper half of their domains. Under the base data's
/// positive correlation the two conjuncts are nearly redundant; after
/// [`ShiftKind::CorrelationFlip`] they are nearly disjoint — true
/// cardinalities collapse while every single-column histogram keeps its
/// shape, so a trained joint model is invalidated and a classical
/// estimator is not.
fn correlation_query<R: Rng + ?Sized>(
    db: &Database,
    gen: &WorkloadGenerator,
    rng: &mut R,
) -> Query {
    loop {
        let mut q = gen.generate(db, rng);
        let Some(t) = q.tables.iter().position(|tr| tr.table == "title") else {
            continue;
        };
        let (Some((ylo, yhi)), Some((vlo, vhi))) =
            (domain(db, "title", "year"), domain(db, "title", "votes"))
        else {
            continue;
        };
        let yf = rng.gen_range(0.5..0.8);
        let vf = rng.gen_range(0.5..0.8);
        q = q
            .filter(t, "year", CmpOp::Ge, (ylo + (yhi - ylo) * yf).round())
            .filter(t, "votes", CmpOp::Ge, (vlo + (vhi - vlo) * vf).round());
        if q.validate(db).is_ok() {
            return q;
        }
    }
}

/// `[min, max]` of a column's live histogram.
fn domain(db: &Database, table: &str, column: &str) -> Option<(f64, f64)> {
    let stats = db.table_stats(table)?;
    let ci = db.catalog.table(table)?.schema.column_index(column)?;
    let h = &stats.columns[ci].histogram;
    Some((h.min(), h.max()))
}

/// Appends `title` rows whose ids form the sawtooth bomb stream (other
/// columns drawn benignly), leaving every existing row untouched.
fn bomb_apply(db: &Database) -> ml4db_storage::Catalog {
    use ml4db_storage::{ColumnData, Table};
    let mut catalog = db.catalog.clone();
    let title = catalog.table("title").expect("joblite has title").clone();
    let ids0 = match title.column("id").expect("title.id") {
        ColumnData::Int(v) => v.clone(),
        ColumnData::Float(_) => panic!("title.id is Int"),
    };
    let col_i64 = |name: &str| match title.column(name).expect("title column") {
        ColumnData::Int(v) => v.clone(),
        ColumnData::Float(_) => panic!("{name} is Int"),
    };
    let base = ids0.iter().copied().max().unwrap_or(0).max(0) as u64;
    let n_new = title.num_rows().max(1);
    let spec = ScenarioSpec::new(ScenarioKind::PgmSegmentBomb, 0);
    let bomb = spec.bomb_keys(base, n_new);
    let (mut ids, mut kinds, mut years, mut votes) =
        (ids0, col_i64("kind"), col_i64("year"), col_i64("votes"));
    for (i, &k) in bomb.iter().enumerate() {
        ids.push(k as i64);
        kinds.push((i % 7) as i64);
        years.push(1990 + (i % 30) as i64);
        votes.push(100 + (i % 1000) as i64);
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
    catalog
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shift::key_stream;
    use ml4db_storage::datasets::joblite_db;

    fn db() -> Database {
        let mut rng = StdRng::seed_from_u64(7);
        let mut db = joblite_db(150, &[], &mut rng);
        db.add_index("title", "year");
        db
    }

    #[test]
    fn zoo_has_fourteen_named_scenarios() {
        let zoo = ScenarioSpec::zoo(1);
        assert_eq!(zoo.len(), 14);
        let names: std::collections::BTreeSet<_> = zoo.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 14, "names must be unique");
        assert_eq!(zoo.iter().filter(|s| s.is_adversarial()).count(), 4);
    }

    #[test]
    fn every_scenario_yields_valid_workloads_and_preserves_indexes() {
        let db = db();
        for spec in ScenarioSpec::zoo(42) {
            let applied = spec.apply(&db);
            for q in spec.train_workload(&db, 6) {
                q.validate(&db).unwrap();
            }
            for q in spec.eval_workload(&applied, 8) {
                q.validate(&applied).unwrap();
            }
            assert!(applied.has_index("title", "year"), "{}: index lost", spec.name());
        }
    }

    #[test]
    fn bomb_extends_title_keys_with_clustered_bursts() {
        let db = db();
        let spec = ScenarioSpec::new(ScenarioKind::PgmSegmentBomb, 42);
        let applied = spec.apply(&db);
        let before = key_stream(&db, "title", "id");
        let after = key_stream(&applied, "title", "id");
        assert!(after.len() > before.len());
        let max_before = *before.last().unwrap();
        let appended: Vec<u64> =
            after.iter().copied().filter(|&k| k > max_before).collect();
        assert!(appended.len() >= before.len(), "bomb doubles the key count");
        // Gaps are 1 within a burst, BOMB_GAP between bursts.
        let gaps: Vec<u64> = appended.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.iter().filter(|&&g| g == 1).count() > gaps.len() / 2);
        assert!(gaps.iter().filter(|&&g| g == BOMB_GAP).count() >= 2);
        assert!(gaps.iter().all(|&g| g == 1 || g == BOMB_GAP));
    }

    #[test]
    fn distribution_edge_predicates_sit_on_domain_edges() {
        let db = db();
        let spec = ScenarioSpec::new(ScenarioKind::DistributionEdge, 42);
        for q in spec.eval_workload(&spec.apply(&db), 12) {
            assert!(!q.predicates.is_empty(), "edge queries always carry a predicate");
            for p in &q.predicates {
                let (lo, hi) = domain(&db, &q.tables[p.table].table, &p.column).unwrap();
                assert!(p.value >= lo && p.value <= hi, "constant out of domain");
                assert!(
                    (p.value == lo && p.op == CmpOp::Lt) || (p.value == hi && p.op == CmpOp::Gt),
                    "predicate must be a strict edge comparison"
                );
            }
        }
    }

    #[test]
    fn scenarios_are_deterministic_in_the_seed() {
        let db = db();
        for spec in ScenarioSpec::zoo(9) {
            let applied = spec.apply(&db);
            let fps = |qs: Vec<Query>| qs.iter().map(|q| q.fingerprint()).collect::<Vec<_>>();
            assert_eq!(
                fps(spec.eval_workload(&applied, 10)),
                fps(spec.eval_workload(&applied, 10)),
                "{}: eval stream must be seed-deterministic",
                spec.name()
            );
            assert_eq!(
                key_stream(&spec.apply(&db), "title", "id"),
                key_stream(&applied, "title", "id"),
                "{}: data transform must be seed-deterministic",
                spec.name()
            );
        }
    }
}
