//! Deterministic fault injection: the harness that *proves* the
//! guardrails.
//!
//! Each [`Fault`] corrupts one learned component in a specific way — NaN
//! estimates, a constant-zero estimator, a model gone stale after a data
//! shift, adversarial latency spikes, displaced index predictions,
//! out-of-bounds panics, a corrupted spatial CDF — and
//! [`run_scenario`] measures the system's behaviour with the guardrails
//! on (`guarded = true`) or off. Everything is seeded and call-count
//! driven: no clocks, no ambient randomness, serial scenario loops — so a
//! [`ScenarioReport`] is a pure function of `(fault, guarded, seed)` and
//! [`ScenarioReport::bits`] is byte-identical across `ML4DB_THREADS`
//! settings.
//!
//! Each scenario picks the object that answers — the raw learned
//! component or its guard, which implements the same trait — once, and
//! runs one probe loop over it, so both sides are judged under identical
//! conditions. A probe's panic is contained by one helper
//! (`Tally::contain`); the guards contain their own, so only the raw
//! side can report `panicked`.
//!
//! The pass criteria (see [`ScenarioReport::passes`]) are the tentpole's
//! contract: under any injected fault, the guarded system must not
//! panic, must serve oracle-correct results, and must stay within 1.5×
//! the pure-classical latency. Several faults *demonstrably break* the
//! unguarded system — the chaos tests assert that too, so the guard is
//! proven against failures that actually happen, not strawmen.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ml4db_index::{BPlusTree, KeyValue, OrderedIndex};
use ml4db_optimizer::Env;
use ml4db_plan::executor::{canonical_multiset, execute, naive_execute};
use ml4db_plan::{
    all_hint_sets, CardEstimator, ClassicEstimator, HintSet, Planner, Query,
};
use ml4db_spatial::data::{generate_points, unit_domain, SpatialDistribution};
use ml4db_storage::datasets::joblite_db;
use ml4db_storage::Database;
use ml4db_spatial::{Point, Rect, RTree, ZmIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::estimator::GuardedCardEstimator;
use crate::index_guard::GuardedIndex;
use crate::spatial_guard::{GuardedSpatial, SpatialModel};
use crate::steering::GuardedSteering;

/// One injected failure mode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// The cardinality estimator returns NaN for every sub-join.
    NanEstimates,
    /// The cardinality estimator returns +∞ for every sub-join.
    InfEstimates,
    /// The cardinality estimator returns 0 for everything — every join
    /// looks free, so an unguarded planner nested-loops everything.
    ConstantZero,
    /// The estimator is frozen on a pre-shift snapshot of the data and
    /// systematically underestimates after the data grows 10×.
    StaleAfterShift,
    /// Steering adversarially picks the slowest hint arm per query.
    LatencySpikes,
    /// The steering policy panics on every query.
    PanickingPolicy,
    /// Learned index predictions displaced by `k` slots: every lookup
    /// lands outside its bounded search window and misses.
    DisplacedIndex {
        /// Displacement in slots.
        k: usize,
    },
    /// The learned index predicts out of bounds and panics on access.
    OobIndexPanic,
    /// The spatial index's learned CDF is corrupted: ranges silently
    /// drop half their results and kNN probes the wrong region.
    SpatialDisplaced,
}

impl Fault {
    /// All injected faults, in the canonical run order.
    pub fn all() -> Vec<Fault> {
        vec![
            Fault::NanEstimates,
            Fault::InfEstimates,
            Fault::ConstantZero,
            Fault::StaleAfterShift,
            Fault::LatencySpikes,
            Fault::PanickingPolicy,
            Fault::DisplacedIndex { k: 40 },
            Fault::OobIndexPanic,
            Fault::SpatialDisplaced,
        ]
    }

    /// Stable scenario name.
    pub fn name(&self) -> &'static str {
        match self {
            Fault::NanEstimates => "nan-estimates",
            Fault::InfEstimates => "inf-estimates",
            Fault::ConstantZero => "constant-zero-estimator",
            Fault::StaleAfterShift => "stale-after-shift",
            Fault::LatencySpikes => "latency-spikes",
            Fault::PanickingPolicy => "panicking-policy",
            Fault::DisplacedIndex { .. } => "displaced-index",
            Fault::OobIndexPanic => "oob-index-panic",
            Fault::SpatialDisplaced => "spatial-displaced",
        }
    }
}

/// Outcome of one scenario run.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Scenario name ([`Fault::name`]).
    pub fault: String,
    /// Whether the guardrails were active.
    pub guarded: bool,
    /// A panic escaped the component under test.
    pub panicked: bool,
    /// Served answers that disagreed with the oracle.
    pub wrong_answers: u64,
    /// Total latency relative to the pure-classical baseline (1.0 =
    /// parity; only meaningful for planner/steering scenarios, 1.0
    /// otherwise).
    pub regression_factor: f64,
    /// The breaker tripped at least once (always false unguarded).
    pub tripped: bool,
    /// Operations exercised (queries or probes).
    pub operations: u64,
}

impl ScenarioReport {
    /// The guarded-system contract: no escaped panic, zero wrong served
    /// answers, and at most 1.5× the classical baseline's latency.
    pub fn passes(&self) -> bool {
        !self.panicked && self.wrong_answers == 0 && self.regression_factor <= 1.5
    }

    /// Deterministic fingerprint of every field
    /// ([`ml4db_obs::debug_bits`]), for byte-identity assertions across
    /// thread counts.
    pub fn bits(&self) -> u64 {
        ml4db_obs::debug_bits(self)
    }
}

/// What one scenario's probe loop observed, whichever object answered.
#[derive(Default)]
struct Tally {
    panicked: bool,
    wrong: u64,
    operations: u64,
    /// Latency served, for the latency-scored scenarios.
    served_us: f64,
    /// The classical baseline's latency over the same probes.
    baseline_us: f64,
}

impl Tally {
    /// Runs one probe with its panic contained: `None` when it unwound.
    fn contain<T>(&mut self, probe: impl FnOnce() -> T) -> Option<T> {
        self.operations += 1;
        let out = catch_unwind(AssertUnwindSafe(probe)).ok();
        self.panicked |= out.is_none();
        out
    }

    /// One probe whose answer must equal `truth`.
    fn check<T: PartialEq>(&mut self, answer: impl FnOnce() -> T, truth: T) {
        if let Some(got) = self.contain(answer) {
            self.wrong += u64::from(got != truth);
        }
    }

    /// One latency-scored probe: `probe` returns the served latency and
    /// whether its answer was wrong; a panic is charged the baseline's.
    fn timed(&mut self, baseline_us: f64, probe: impl FnOnce() -> (f64, bool)) {
        let (served_us, wrong) = self.contain(probe).unwrap_or((baseline_us, false));
        self.baseline_us += baseline_us;
        self.served_us += served_us;
        self.wrong += u64::from(wrong);
    }

    fn report(self, fault: Fault, guarded: bool, tripped: bool) -> ScenarioReport {
        ScenarioReport {
            fault: fault.name().to_string(),
            guarded,
            panicked: self.panicked,
            wrong_answers: self.wrong,
            // Probe-only scenarios have no latency to regress: parity.
            regression_factor: if self.baseline_us > 0.0 {
                self.served_us / self.baseline_us
            } else {
                1.0
            },
            tripped,
            operations: self.operations,
        }
    }
}

// ---------------------------------------------------------------------------
// Faulty components
// ---------------------------------------------------------------------------

/// The faulty cardinality estimators.
enum FaultyEstimator {
    Nan,
    Inf,
    Zero,
    /// Frozen on a pre-shift snapshot: estimates come from the old,
    /// 10×-smaller database regardless of the one being planned.
    Stale(Box<Database>),
}

impl CardEstimator for FaultyEstimator {
    fn estimate(&self, db: &Database, query: &Query, mask: u64) -> f64 {
        match self {
            FaultyEstimator::Nan => f64::NAN,
            FaultyEstimator::Inf => f64::INFINITY,
            FaultyEstimator::Zero => 0.0,
            FaultyEstimator::Stale(old) => {
                let _ = db; // the stale model never sees the new data
                ClassicEstimator.estimate(old, query, mask)
            }
        }
    }
}

/// A learned index whose bounded-search window is displaced by `k` slots:
/// present keys fall outside it, so every lookup misses and every range
/// starts late.
struct DisplacedIdx {
    inner: Vec<KeyValue>,
    k: usize,
}

impl OrderedIndex for DisplacedIdx {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn get(&self, key: u64) -> Option<u64> {
        let pos = self.inner.partition_point(|e| e.0 < key) + self.k;
        let lo = pos.min(self.inner.len());
        let hi = (pos + 2).min(self.inner.len());
        self.inner[lo..hi].iter().find(|e| e.0 == key).map(|e| e.1)
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<KeyValue> {
        let start =
            (self.inner.partition_point(|e| e.0 < lo) + self.k).min(self.inner.len());
        self.inner[start..].iter().take_while(|e| e.0 <= hi).copied().collect()
    }
    fn size_bytes(&self) -> usize {
        0
    }
}

/// A learned index whose position prediction runs off the end of the data
/// array — the raw out-of-bounds panic of an unclamped model.
struct OobIdx {
    inner: Vec<KeyValue>,
}

impl OrderedIndex for OobIdx {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn get(&self, _key: u64) -> Option<u64> {
        Some(self.inner[self.inner.len() + 17].1)
    }
    fn range(&self, _lo: u64, _hi: u64) -> Vec<KeyValue> {
        vec![self.inner[self.inner.len() + 17]]
    }
    fn size_bytes(&self) -> usize {
        0
    }
}

/// A spatial model with a corrupted learned CDF: ranges drop half their
/// results, kNN probes a displaced region.
struct CorruptedZm {
    inner: ZmIndex,
}

impl SpatialModel for CorruptedZm {
    fn range(&self, query: &Rect) -> Vec<usize> {
        let mut ids = self.inner.range_query(query).0;
        let keep = ids.len() / 2;
        ids.truncate(keep);
        ids
    }
    fn knn(&self, point: &Point, k: usize) -> Vec<usize> {
        let off = Point::new(point.x * 0.1, 1000.0 - point.y);
        self.inner.knn_approximate(&off, k, 4)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
}

// ---------------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------------

fn build_workload(db: &Database, n: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9);
    ml4db_datagen::WorkloadGenerator::new(
        ml4db_datagen::SchemaGraph::joblite(),
        ml4db_datagen::WorkloadConfig { min_tables: 2, max_tables: 3, ..Default::default() },
    )
    .generate_many(db, n, &mut rng)
}

// ---------------------------------------------------------------------------
// Scenario runners
// ---------------------------------------------------------------------------

fn estimator_scenario(fault: Fault, guarded: bool, seed: u64) -> ScenarioReport {
    let faulty = match fault {
        Fault::NanEstimates => FaultyEstimator::Nan,
        Fault::InfEstimates => FaultyEstimator::Inf,
        Fault::ConstantZero => FaultyEstimator::Zero,
        Fault::StaleAfterShift => FaultyEstimator::Stale(Box::new(joblite_db(
            25,
            &[("title", "year")],
            &mut StdRng::seed_from_u64(seed),
        ))),
        _ => unreachable!("not an estimator fault"),
    };
    let db = joblite_db(250, &[("title", "year")], &mut StdRng::seed_from_u64(seed));
    let queries = build_workload(&db, 12, seed);
    let planner = Planner::default();
    // Plans every query with `est`, executes, and scores latency against
    // the pure-classical plans plus result correctness against
    // `naive_execute`.
    let probe = |est: &dyn CardEstimator| {
        let mut tally = Tally::default();
        for q in &queries {
            // Attribute everything this query triggers — planning, guard
            // fallbacks and trips, per-operator execution — to its
            // fingerprint in the trace.
            ml4db_obs::with_query(q.fingerprint(), || {
                let classical_plan =
                    planner.best_plan(&db, q, &ClassicEstimator).expect("classical plans");
                let classical_us =
                    execute(&db, q, &classical_plan).expect("executes").latency_us;
                tally.timed(classical_us, || {
                    let plan = planner.best_plan(&db, q, est).expect("planner returns a plan");
                    let res = execute(&db, q, &plan).expect("plan executes");
                    let got = canonical_multiset(&db, q, &res.rows, &res.layout);
                    let identity: Vec<usize> = (0..q.num_tables()).collect();
                    let naive = naive_execute(&db, q).expect("naive");
                    (res.latency_us, got != canonical_multiset(&db, q, &naive, &identity))
                });
            });
        }
        tally
    };
    let (tally, tripped) = if guarded {
        let g = GuardedCardEstimator::new(faulty, 8.0);
        (probe(&g), g.breaker().trips() > 0)
    } else {
        (probe(&faulty), false)
    };
    tally.report(fault, guarded, tripped)
}

fn steering_scenario(fault: Fault, guarded: bool, seed: u64) -> ScenarioReport {
    let db = joblite_db(250, &[("title", "year")], &mut StdRng::seed_from_u64(seed));
    let env = Env::new(&db);
    let queries = build_workload(&db, 16, seed);
    // The two adversarial policies.
    let worst_arm = |env: &Env, q: &Query| -> HintSet {
        all_hint_sets()
            .into_iter()
            .filter_map(|h| env.plan_with_hint(q, h).map(|p| (h, p.est_cost)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(h, _)| h)
            .unwrap_or_else(HintSet::all)
    };
    let choose = |env: &Env, q: &Query| -> HintSet {
        match fault {
            Fault::LatencySpikes => worst_arm(env, q),
            Fault::PanickingPolicy => panic!("poisoned steering model"),
            _ => unreachable!("not a steering fault"),
        }
    };
    // Serves every query with `serve` and scores its latency against the
    // expert's.
    let probe = |serve: &dyn Fn(&Query) -> f64| {
        let mut tally = Tally::default();
        for q in &queries {
            ml4db_obs::with_query(q.fingerprint(), || {
                let expert = env.expert_latency(q).expect("expert plans");
                tally.timed(expert, || (serve(q), false));
            });
        }
        tally
    };
    let (tally, tripped) = if guarded {
        let g = GuardedSteering::new(choose);
        (probe(&|q| g.run_guarded(&env, q)), g.breaker().trips() > 0)
    } else {
        let raw = |q: &Query| {
            let plan = env.plan_with_hint(q, choose(&env, q)).expect("hinted plan");
            env.run(q, &plan)
        };
        (probe(&raw), false)
    };
    tally.report(fault, guarded, tripped)
}

fn index_probes<L: OrderedIndex>(
    fault: Fault,
    learned: L,
    guarded: bool,
    entries: &[KeyValue],
) -> ScenarioReport {
    let truth = BPlusTree::bulk_load(entries);
    // Probe schedule: present keys, absent keys, and range windows.
    let gets: Vec<u64> = (0..200u64)
        .map(|i| {
            let key = entries[(i as usize * 13) % entries.len()].0;
            if i % 5 == 4 { key + 1 } else { key } // every 5th probe is absent
        })
        .collect();
    let ranges: Vec<(u64, u64)> =
        (0..20u64).map(|i| (i * 700, i * 700 + 450)).collect();
    let probe = |idx: &dyn OrderedIndex| {
        let mut tally = Tally::default();
        for &key in &gets {
            tally.check(|| idx.get(key), truth.get(key));
        }
        for &(lo, hi) in &ranges {
            tally.check(|| idx.range(lo, hi), truth.range(lo, hi));
        }
        tally
    };
    let (tally, tripped) = if guarded {
        let g = GuardedIndex::new(learned, BPlusTree::bulk_load(entries));
        (probe(&g), g.breaker().trips() > 0)
    } else {
        (probe(&learned), false)
    };
    tally.report(fault, guarded, tripped)
}

fn index_scenario(fault: Fault, guarded: bool, seed: u64) -> ScenarioReport {
    let n = 3000u64;
    let entries: Vec<KeyValue> = (0..n).map(|i| (i * 7 + (seed % 7), i)).collect();
    match fault {
        Fault::DisplacedIndex { k } => {
            index_probes(fault, DisplacedIdx { inner: entries.clone(), k }, guarded, &entries)
        }
        Fault::OobIndexPanic => {
            index_probes(fault, OobIdx { inner: entries.clone() }, guarded, &entries)
        }
        _ => unreachable!("not an index fault"),
    }
}

fn spatial_scenario(fault: Fault, guarded: bool, seed: u64) -> ScenarioReport {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
    let pts = generate_points(SpatialDistribution::Clustered { clusters: 5 }, 2500, &mut rng);
    let rtree = RTree::bulk_load_str(&pts);
    let zm = ZmIndex::build(pts.clone(), unit_domain(), 16);
    let corrupted = CorruptedZm { inner: zm };
    let rects: Vec<Rect> = (0..20u64)
        .map(|i| {
            let lo = 35.0 * (i % 8) as f64;
            Rect::new(Point::new(lo, lo), Point::new(lo + 320.0, lo + 300.0))
        })
        .collect();
    let probes: Vec<Point> =
        (0..12).map(|i| pts[(i * 199) % pts.len()].rect.center()).collect();
    // Served answers must be exact: the oracle is the R-tree's exact
    // range and kNN. A range may come back in any order.
    let sorted = |mut ids: Vec<usize>| {
        ids.sort_unstable();
        ids
    };
    let probe = |model: &dyn SpatialModel| {
        let mut tally = Tally::default();
        for q in &rects {
            tally.check(|| sorted(model.range(q)), sorted(rtree.range_query(q).0));
        }
        for p in &probes {
            tally.check(|| model.knn(p, 10), rtree.knn(p, 10).0);
        }
        tally
    };
    let (tally, tripped) = if guarded {
        let g = GuardedSpatial::new(corrupted, rtree.clone());
        (probe(&g), g.breaker().trips() > 0)
    } else {
        (probe(&corrupted), false)
    };
    tally.report(fault, guarded, tripped)
}

/// Runs one fault scenario, guarded or raw.
pub fn run_scenario(fault: Fault, guarded: bool, seed: u64) -> ScenarioReport {
    match fault {
        Fault::NanEstimates
        | Fault::InfEstimates
        | Fault::ConstantZero
        | Fault::StaleAfterShift => estimator_scenario(fault, guarded, seed),
        Fault::LatencySpikes | Fault::PanickingPolicy => {
            steering_scenario(fault, guarded, seed)
        }
        Fault::DisplacedIndex { .. } | Fault::OobIndexPanic => {
            index_scenario(fault, guarded, seed)
        }
        Fault::SpatialDisplaced => spatial_scenario(fault, guarded, seed),
    }
}

/// Runs every scenario in canonical order.
pub fn run_all(guarded: bool, seed: u64) -> Vec<ScenarioReport> {
    Fault::all().into_iter().map(|f| run_scenario(f, guarded, seed)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarded_estimator_scenarios_are_parity() {
        for fault in [Fault::NanEstimates, Fault::ConstantZero] {
            let r = run_scenario(fault, true, 7);
            assert!(r.passes(), "{r:?}");
            assert!(r.tripped, "fault must trip the breaker: {r:?}");
            // Guard serves classical estimates → identical plans → exact
            // latency parity, not just ≤1.5×.
            assert!((r.regression_factor - 1.0).abs() < 1e-9, "{r:?}");
        }
    }

    #[test]
    fn unguarded_constant_zero_blows_up() {
        let r = run_scenario(Fault::ConstantZero, false, 7);
        assert!(
            r.regression_factor > 1.5,
            "constant-zero should cause an unbounded regression: {r:?}"
        );
    }

    #[test]
    fn report_bits_are_stable_within_a_run() {
        let a = run_scenario(Fault::DisplacedIndex { k: 40 }, true, 7);
        let b = run_scenario(Fault::DisplacedIndex { k: 40 }, true, 7);
        assert_eq!(a.bits(), b.bits());
    }
}
