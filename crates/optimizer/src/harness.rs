//! Shared evaluation harness for optimizer experiments: latency
//! distributions with tail statistics, regression counting against the
//! expert, seen/unseen template splits — the measurements behind the
//! E7/E8 robustness claims — and the end-to-end model-lifecycle recovery
//! loop ([`run_shift_recovery`]) that proves a learned component
//! degrades under an injected workload shift, retrains, passes the
//! validation gate, and is re-promoted.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ml4db_card::{collect_samples, CardSample, DriftDetector, MscnEstimator};
use ml4db_datagen::ShiftScenario;
use ml4db_lifecycle::{GateConfig, ModelRegistry};
use ml4db_nn::metrics::{tail_summary, TailSummary};
use ml4db_plan::{CardEstimator, ClassicEstimator, HintSet, Query, TrueCardinality};
use ml4db_storage::datasets::joblite_db;
use ml4db_storage::Database;

use crate::env::Env;

/// One evaluated query's line in an [`EvalReport`], carrying the stable
/// identity ([`Query::fingerprint`]) that lets report lines join against
/// per-query trace events in an `ml4db_obs` trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReportRow {
    /// `Query::fingerprint` of the evaluated query.
    pub query_id: u64,
    /// Latency charged to the optimizer under evaluation (µs).
    pub latency_us: f64,
    /// The expert baseline latency (µs).
    pub expert_us: f64,
}

impl ReportRow {
    /// Whether this row counts as a regression (≥ 2× the expert, the Bao
    /// criterion) — the same predicate [`EvalReport`] aggregates.
    pub fn regressed(&self) -> bool {
        self.latency_us > self.expert_us * 2.0
    }
}

/// One optimizer's evaluation on a workload.
#[derive(Clone, Debug)]
pub struct EvalReport {
    /// Per-query rows in workload order, with stable query ids.
    pub rows: Vec<ReportRow>,
    /// Per-query latencies (µs), in workload order (same order as
    /// [`EvalReport::rows`]; kept as a field for the common
    /// distribution-level consumers).
    pub latencies: Vec<f64>,
    /// Tail summary of the latencies.
    pub tail: TailSummary,
    /// Queries where this optimizer was ≥ 2x slower than the expert
    /// ("regressions" in the Bao sense).
    pub regressions: usize,
    /// Total latency relative to the expert (1.0 = parity).
    pub relative_total: f64,
}

impl EvalReport {
    /// Builds a report from per-query [`ReportRow`]s — the shared
    /// accounting used by [`evaluate`] and external guarded harnesses.
    ///
    /// Emits one `ml4db_obs` `QueryReport` event per row, attributed to
    /// the row's query id, so every report line is joinable against the
    /// trace it came from.
    ///
    /// # Panics
    /// Panics on an empty workload.
    pub fn from_rows(rows: Vec<ReportRow>) -> Self {
        for r in &rows {
            ml4db_obs::with_query(r.query_id, || {
                ml4db_obs::emit_with(|| ml4db_obs::Event::QueryReport {
                    latency_us: r.latency_us,
                    expert_us: r.expert_us,
                    regressed: r.regressed(),
                });
            });
        }
        let latencies: Vec<f64> = rows.iter().map(|r| r.latency_us).collect();
        let regressions = rows.iter().filter(|r| r.regressed()).count();
        let tail = tail_summary(&latencies).expect("non-empty workload");
        let total: f64 = latencies.iter().sum();
        let expert_total: f64 =
            rows.iter().map(|r| r.expert_us).sum::<f64>().max(1e-9);
        EvalReport { rows, latencies, tail, regressions, relative_total: total / expert_total }
    }

    /// Builds a report from `(latency, expert_latency)` pairs without
    /// query identity; rows get positional ids (0, 1, 2, ...). Prefer
    /// [`EvalReport::from_rows`] wherever the queries are in hand.
    ///
    /// # Panics
    /// Panics on an empty workload.
    pub fn from_pairs(per_query: &[(f64, f64)]) -> Self {
        Self::from_rows(
            per_query
                .iter()
                .enumerate()
                .map(|(i, &(lat, expert))| ReportRow {
                    query_id: i as u64,
                    latency_us: lat,
                    expert_us: expert,
                })
                .collect(),
        )
    }

    /// The row for `query_id`, if that query was evaluated.
    pub fn row_for(&self, query_id: u64) -> Option<&ReportRow> {
        self.rows.iter().find(|r| r.query_id == query_id)
    }
}

/// Evaluates a plan-producing closure against the expert on a workload.
///
/// Per-query work (expert baseline + learned plan + execution) fans out
/// over the `ml4db_par` pool; results are folded back in input order, so
/// the report is byte-identical at every thread count. The expert
/// baseline goes through [`Env::expert_latency`], which plans and runs
/// the expert **once** per (query, epoch) — earlier versions re-planned
/// and re-executed the expert on every evaluation pass, double-charging
/// the dominant cost of the loop.
///
/// `planner` must be `Fn + Sync`: it is called concurrently. Planners
/// that need mutable state should either snapshot it before evaluating
/// or wrap it in their own synchronization.
pub fn evaluate(
    env: &Env,
    queries: &[Query],
    planner: impl Fn(&Env, &Query) -> Option<ml4db_plan::PlanNode> + Sync,
) -> EvalReport {
    let _span = ml4db_obs::span("evaluate");
    let rows: Vec<ReportRow> = ml4db_par::par_map(queries, |q| {
        ml4db_obs::with_query(q.fingerprint(), || {
            let expert_lat = env.expert_latency(q).expect("expert always plans");
            let lat = match planner(env, q) {
                Some(p) => env.run(q, &p),
                None => expert_lat, // a planner that abstains falls back
            };
            ReportRow { query_id: q.fingerprint(), latency_us: lat, expert_us: expert_lat }
        })
    });
    EvalReport::from_rows(rows)
}

/// Splits a workload into (seen, unseen) by template signature: templates
/// appearing in the first `train_n` queries are "seen"; queries after that
/// with novel templates form the "unseen" set.
pub fn split_seen_unseen(queries: &[Query], train_n: usize) -> (Vec<Query>, Vec<Query>) {
    let train_n = train_n.min(queries.len());
    let train: Vec<Query> = queries[..train_n].to_vec();
    let seen_templates: BTreeSet<String> =
        train.iter().map(|q| q.template_signature()).collect();
    let unseen: Vec<Query> = queries[train_n..]
        .iter()
        .filter(|q| !seen_templates.contains(&q.template_signature()))
        .cloned()
        .collect();
    (train, unseen)
}

/// MSCN hidden width every evaluation harness trains with.
pub const MSCN_HIDDEN: usize = 16;
/// MSCN learning rate every evaluation harness trains with.
pub const MSCN_LR: f32 = 0.005;
/// [`run_shift_recovery`]'s gate tolerance (relative slack vs incumbent
/// and baseline).
pub const GATE_TOLERANCE: f64 = 0.25;
/// [`run_shift_recovery`]'s drift-detector window floor; the harness
/// rounds it up to a whole number of post-shift workload cycles so the KS
/// windows compare full query mixes, not arbitrary slices of them.
pub const DRIFT_WINDOW: usize = 8;
/// Drift-detector KS threshold of the lifecycle and controller harnesses.
pub const DRIFT_THRESHOLD: f64 = 0.3;

/// Scale of one [`run_shift_recovery`] pass. The defaults are sized for
/// test suites: small data, short streams, quick training — every value is
/// folded into the deterministic run, so two processes with the same
/// scenario and config produce bit-identical reports.
#[derive(Clone, Copy, Debug)]
pub struct ShiftRecoveryConfig {
    /// `joblite` base rows for the synthetic instance.
    pub base_rows: usize,
    /// Length of the pre-shift and post-shift query streams.
    pub eval_n: usize,
    /// Length of the gate's holdout stream.
    pub holdout_n: usize,
    /// Training epochs for incumbent, candidate, and sabotage models.
    pub epochs: usize,
}

impl Default for ShiftRecoveryConfig {
    fn default() -> Self {
        Self { base_rows: 300, eval_n: 24, holdout_n: 14, epochs: 40 }
    }
}

/// The outcome of one [`run_shift_recovery`] pass, with enough detail to
/// assert every leg of the lifecycle claim and a [`bits`](Self::bits)
/// fingerprint for cross-thread-count identity checks.
#[derive(Clone, Debug)]
pub struct ShiftRecoveryReport {
    /// Scenario name ([`ShiftScenario::name`]).
    pub scenario: &'static str,
    /// Incumbent mean |ln q-error| on the pre-shift stream.
    pub pre_err: f64,
    /// Incumbent mean |ln q-error| on the post-shift stream (the
    /// degradation leg).
    pub shift_err: f64,
    /// Promoted model's mean |ln q-error| on the post-shift stream (the
    /// recovery leg).
    pub recovered_err: f64,
    /// Whether the drift detector fired on the post-shift error stream.
    pub drift_fired: bool,
    /// Whether the detector stayed quiet after rebaselining on the
    /// recovered model's stream (it re-armed without a stale alarm).
    pub drift_rearmed: bool,
    /// Retrained candidate's gate score (total holdout latency, µs).
    pub candidate_score: f64,
    /// Incumbent's gate score on the same holdout.
    pub incumbent_score: f64,
    /// Classical baseline's gate score on the same holdout.
    pub baseline_score: f64,
    /// Whether the retrained candidate cleared the gate.
    pub promoted: bool,
    /// Sabotaged candidate's gate score.
    pub sabotage_score: f64,
    /// Whether the sabotaged candidate was rejected (and marked rolled
    /// back) by the gate.
    pub sabotage_rejected: bool,
    /// Final registry generation.
    pub generation: u64,
    /// Version id serving at the end of the run.
    pub active_version: u32,
}

impl ShiftRecoveryReport {
    /// 64-bit fingerprint of every field ([`ml4db_obs::debug_bits`]) —
    /// two runs are "the same" iff their bits agree.
    pub fn bits(&self) -> u64 {
        ml4db_obs::debug_bits(self)
    }
}

// Estimator tags for [`Env::plan_with_estimator`]: 0 is the serving
// model; shadow/baseline scoring must not collide with it.
const TAG_SERVING: u64 = 0;
const TAG_CANDIDATE: u64 = 1;
const TAG_BASELINE: u64 = 2;
const TAG_SABOTAGE: u64 = 3;

/// Drops later queries whose fingerprint repeats an earlier one, so each
/// per-query trace stream (and report row) has a unique identity.
pub fn dedup_by_fingerprint(queries: Vec<Query>) -> Vec<Query> {
    let mut seen = BTreeSet::new();
    queries.into_iter().filter(|q| seen.insert(q.fingerprint())).collect()
}

/// Mean |ln q-error| of `est` against the true-cardinality oracle on the
/// full join of each query, plus the per-query error stream (the drift
/// detector's food). Serial and deterministic.
pub fn qerr_stream<E: CardEstimator>(db: &Database, est: &E, queries: &[Query]) -> (f64, Vec<f64>) {
    let oracle = TrueCardinality::new();
    let errs: Vec<f64> = queries
        .iter()
        .map(|q| {
            let truth = oracle.estimate(db, q, q.full_mask()).max(1.0);
            let guess = est.estimate(db, q, q.full_mask()).max(1.0);
            (guess / truth).ln().abs()
        })
        .collect();
    let mean = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
    (mean, errs)
}

/// Gate score: total simulated latency (µs) of executing the plans the
/// planner chooses under `hint` when *this* estimator supplies
/// cardinalities, over the holdout stream. Fanned out over the
/// `ml4db_par` pool in input order — byte-identical at every thread
/// count.
pub fn gate_score<E: CardEstimator + Sync>(
    env: &Env,
    holdout: &[Query],
    hint: HintSet,
    est: &E,
    tag: u64,
) -> f64 {
    ml4db_par::par_map(holdout, |q| {
        ml4db_obs::with_query(q.fingerprint(), || {
            match env.plan_with_estimator(q, hint, est, tag) {
                Some(p) => env.run(q, &p),
                None => f64::INFINITY,
            }
        })
    })
    .iter()
    .sum()
}

/// Trains a fresh MSCN ([`MSCN_HIDDEN`] wide, [`MSCN_LR`]) on `samples`;
/// initialisation and fitting both draw from `rng`.
pub fn train_mscn(
    db: &Database,
    samples: &[CardSample],
    epochs: usize,
    rng: &mut StdRng,
) -> MscnEstimator {
    let mut model = MscnEstimator::new(MSCN_HIDDEN, rng);
    model.fit(db, samples, epochs, MSCN_LR, rng);
    model
}

/// Training labels corrupted to cardinality 1 — the dangerous
/// underestimate a validation gate must catch.
pub fn poison_samples(samples: &[CardSample]) -> Vec<CardSample> {
    samples.iter().map(|s| CardSample { card: 1.0, ..s.clone() }).collect()
}

/// The end-to-end lifecycle loop under one injected shift scenario:
///
/// 1. generate a `joblite` instance and train an incumbent MSCN
///    estimator on the pre-shift workload;
/// 2. apply the shift; show the incumbent's q-error degrading and the
///    drift detector firing on the post-shift stream;
/// 3. retrain on the post-shift workload, replay the holdout in shadow,
///    and promote through the validation gate (candidate must beat or
///    match both the incumbent and the classical baseline);
/// 4. on promotion, mirror the registry generation into the plan-cache
///    epoch and rebaseline the drift detector; verify it re-arms quiet;
/// 5. register a deliberately *sabotaged* candidate (trained on labels
///    corrupted to cardinality 1, the dangerous underestimate) and show
///    the gate rejects it.
///
/// Everything is a pure function of `(scenario, cfg)`: training is
/// serial and seeded, scoring fans out over order-preserving
/// `ml4db_par::par_map`, so the report's [`ShiftRecoveryReport::bits`]
/// is identical across `ML4DB_THREADS` settings.
pub fn run_shift_recovery(
    scenario: ShiftScenario,
    cfg: &ShiftRecoveryConfig,
) -> ShiftRecoveryReport {
    let _span = ml4db_obs::span("shift_recovery");
    let mut rng = StdRng::seed_from_u64(scenario.seed ^ 0x5348_4946_545F_5245);

    // The world before the shift.
    let db = joblite_db(cfg.base_rows, &[("title", "year")], &mut rng);
    let pre = dedup_by_fingerprint(scenario.pre_workload(&db, cfg.eval_n));

    // Incumbent: trained on the pre-shift regime.
    let incumbent = train_mscn(&db, &collect_samples(&db, &pre), cfg.epochs, &mut rng);
    let mut registry = ModelRegistry::new(
        "card_estimator",
        GateConfig { tolerance: GATE_TOLERANCE },
        incumbent,
    );

    let (pre_err, pre_errs) = qerr_stream(&db, registry.active(), &pre);

    // The shift lands.
    let shifted = scenario.apply(&db);
    let post = dedup_by_fingerprint(scenario.post_workload(&shifted, cfg.eval_n));
    let holdout = dedup_by_fingerprint(scenario.holdout_workload(&shifted, cfg.holdout_n));
    let env = Env::new(&shifted);
    env.set_model_epoch(registry.generation());

    let (shift_err, shift_errs) = qerr_stream(&shifted, registry.active(), &post);

    // Drift detector, windowed on a whole number of workload cycles:
    // per-query errors are heterogeneous, so a window that covers only a
    // slice of the mix would KS-compare different query subsets and
    // alarm on a perfectly healthy model. `DRIFT_WINDOW` is the
    // floor; it is rounded up so a stationary (cyclically repeating)
    // error stream is provably quiet while a regime change still fires.
    let cycle = post.len().max(1);
    let window = cycle * DRIFT_WINDOW.div_ceil(cycle).max(1);
    let mut drift = DriftDetector::new(window, DRIFT_THRESHOLD);
    for i in 0..2 * window {
        drift.observe(pre_errs[i % pre_errs.len().max(1)]);
    }
    let mut drift_fired = false;
    for _ in 0..3 {
        for e in &shift_errs {
            drift_fired |= drift.observe(*e);
        }
    }

    // Retrain on the post-shift regime; shadow-replay the holdout.
    let post_samples = collect_samples(&shifted, &post);
    let candidate = train_mscn(&shifted, &post_samples, cfg.epochs, &mut rng);
    let cid = registry.register_candidate(candidate, "retrain");
    registry.begin_shadow(cid);

    let all = HintSet::all();
    let candidate_score = gate_score(
        &env,
        &holdout,
        all,
        &registry.version(cid).expect("registered").model,
        TAG_CANDIDATE,
    );
    let incumbent_score = gate_score(&env, &holdout, all, registry.active(), TAG_SERVING);
    let baseline_score = gate_score(&env, &holdout, all, &ClassicEstimator, TAG_BASELINE);
    let verdict = registry.try_promote(cid, candidate_score, incumbent_score, baseline_score);
    if verdict.promoted {
        env.set_model_epoch(registry.generation());
        drift.rebaseline();
    }

    // The recovered model's error stream re-arms the detector quietly.
    let (recovered_err, recovered_errs) = qerr_stream(&shifted, registry.active(), &post);
    let mut drift_rearmed = verdict.promoted;
    for _ in 0..3 {
        for e in &recovered_errs {
            drift_rearmed &= !drift.observe(*e);
        }
    }

    // Sabotage: labels corrupted to the dangerous underestimate.
    let saboteur =
        train_mscn(&shifted, &poison_samples(&post_samples), cfg.epochs, &mut rng);
    let sid = registry.register_candidate(saboteur, "sabotage");
    registry.begin_shadow(sid);
    let sabotage_score = gate_score(
        &env,
        &holdout,
        all,
        &registry.version(sid).expect("registered").model,
        TAG_SABOTAGE,
    );
    let serving_score = gate_score(&env, &holdout, all, registry.active(), TAG_SERVING);
    let sabotage_verdict = registry.try_promote(sid, sabotage_score, serving_score, baseline_score);
    if sabotage_verdict.promoted {
        // Should never happen; keep the cache epoch honest if it does.
        env.set_model_epoch(registry.generation());
    }

    ShiftRecoveryReport {
        scenario: scenario.name(),
        pre_err,
        shift_err,
        recovered_err,
        drift_fired,
        drift_rearmed,
        candidate_score,
        incumbent_score,
        baseline_score,
        promoted: verdict.promoted,
        sabotage_score,
        sabotage_rejected: !sabotage_verdict.promoted,
        generation: registry.generation(),
        active_version: registry.active_id(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4db_storage::Database;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db() -> Database {
        let mut rng = StdRng::seed_from_u64(91);
        joblite_db(100, &[], &mut rng)
    }

    #[test]
    fn expert_vs_itself_is_parity() {
        let db = db();
        let env = Env::new(&db);
        let mut rng = StdRng::seed_from_u64(1);
        let queries = ml4db_datagen::WorkloadGenerator::new(
            ml4db_datagen::SchemaGraph::joblite(),
            Default::default(),
        )
        .generate_many(&db, 10, &mut rng);
        let report = evaluate(&env, &queries, |env, q| env.expert_plan(q));
        assert!((report.relative_total - 1.0).abs() < 1e-9);
        assert_eq!(report.regressions, 0);
        assert!(report.tail.p99 >= report.tail.p50);
    }

    #[test]
    fn abstaining_planner_falls_back() {
        let db = db();
        let env = Env::new(&db);
        let mut rng = StdRng::seed_from_u64(2);
        let queries = ml4db_datagen::WorkloadGenerator::new(
            ml4db_datagen::SchemaGraph::joblite(),
            Default::default(),
        )
        .generate_many(&db, 5, &mut rng);
        let report = evaluate(&env, &queries, |_, _| None);
        assert!((report.relative_total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn shift_recovery_smoke() {
        // One scenario, small knobs: degrade -> retrain -> gate -> promote.
        let cfg = ShiftRecoveryConfig { base_rows: 200, eval_n: 16, holdout_n: 8, epochs: 25 };
        let sc = ml4db_datagen::ShiftScenario::new(ml4db_datagen::ShiftKind::BulkInsert, 11);
        let r = run_shift_recovery(sc, &cfg);
        assert!(r.shift_err > r.pre_err, "shift must degrade the incumbent");
        assert!(r.promoted, "retrained candidate must clear the gate");
        assert!(r.recovered_err < r.shift_err, "promotion must restore accuracy");
        assert!(r.sabotage_rejected, "poisoned candidate must be rejected");
        assert_eq!(r.generation, 1);
        assert_eq!(r.active_version, 1);
        // Determinism: the same inputs give bit-identical reports.
        assert_eq!(r.bits(), run_shift_recovery(sc, &cfg).bits());
    }

    #[test]
    fn seen_unseen_split_is_disjoint() {
        let db = db();
        let mut rng = StdRng::seed_from_u64(3);
        let queries = ml4db_datagen::WorkloadGenerator::new(
            ml4db_datagen::SchemaGraph::joblite(),
            ml4db_datagen::WorkloadConfig { min_tables: 1, max_tables: 3, ..Default::default() },
        )
        .generate_many(&db, 60, &mut rng);
        let (seen, unseen) = split_seen_unseen(&queries, 30);
        assert_eq!(seen.len(), 30);
        let seen_sigs: BTreeSet<String> =
            seen.iter().map(|q| q.template_signature()).collect();
        for q in &unseen {
            assert!(!seen_sigs.contains(&q.template_signature()));
        }
    }
}
