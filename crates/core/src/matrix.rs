//! The standing evaluation matrix: every optimizer policy × every
//! workload-zoo scenario, deterministically, with a per-cell regression
//! budget.
//!
//! Each scenario of [`ml4db_datagen::zoo`] contributes one row: a fresh
//! seeded `joblite` instance, a benign training stream (what the learned
//! policies see), the scenario's data transform, and an evaluation
//! stream drawn from the scenario's own regime. Each policy
//! ([`Policy`]) contributes one column: the classical expert planner,
//! Bao (trained on the benign stream, evaluated greedily), AutoSteer
//! (per-query hint-set discovery + the shared bandit posterior), and
//! guarded Bao (the same bandit behind [`GuardedSteering`]'s latency
//! budget and circuit breaker).
//!
//! Every cell is scored against an explicit [`CellBudget`] — p99 and
//! total latency relative to the classical cell, regression count,
//! guard trips, and oracle agreement of served results against the
//! brute-force reference executor. Budgets on the *unguarded* learned
//! policies are enforced only on benign scenarios: the adversarial
//! scenarios are *supposed* to break them (that is what
//! [`ProbeReport`] asserts), so those cells are recorded as canaries
//! rather than gates. The guarded policy's budget is enforced
//! everywhere, adversarial scenarios included — that asymmetry is the
//! point of the matrix.
//!
//! Everything is a pure function of [`MatrixConfig`]: databases,
//! workloads, training, and scoring all derive from salted seeds; the
//! only fan-out is the order-preserving per-query one inside
//! `harness::evaluate*`, while each planner decision and every stateful
//! guard runs serially — so
//! [`MatrixReport::to_canonical_json`] is byte-identical across
//! `ML4DB_THREADS` settings. The serving column runs each scenario's
//! evaluation stream through the real `ml4db-serve` closed loop
//! (admission control, virtual workers, virtual clock).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ml4db_card::collect_samples;
use ml4db_datagen::zoo::{ScenarioKind, ScenarioSpec};
use ml4db_datagen::{key_stream, LoadGen, LoadSpec, TemplateMix};
use ml4db_guard::{GuardedCardEstimator, GuardedSteering};
use ml4db_index::{BPlusTree, KeyValue, OrderedIndex, PgmIndex};
use ml4db_obs as obs;
use ml4db_optimizer::harness::{
    dedup_by_fingerprint, evaluate, qerr_stream, train_mscn, EvalReport,
};
use ml4db_optimizer::{discover_hint_sets, AutoSteer, Bao, Env};
use ml4db_plan::executor::{canonical_multiset, execute, naive_execute};
use ml4db_plan::{bao_arms, HintSet, PlanNode, Query};
use ml4db_serve::{run_closed_loop, AdmissionConfig, SimConfig};
use ml4db_storage::Database;

use crate::pipeline::demo_database;
use serde_json::Value;

// Salts mixed into a scenario's seed so each training/serving stream is
// independent of the zoo's own data/workload streams.
const SALT_BAO: u64 = 0x4D41_5452_4958_0001;
const SALT_AUTOSTEER: u64 = 0x4D41_5452_4958_0002;
const SALT_MSCN: u64 = 0x4D41_5452_4958_0003;
const SALT_SERVE: u64 = 0x4D41_5452_4958_0004;
const SALT_DB: u64 = 0x4D41_5452_4958_0005;

/// Estimator cache tag for probe planning (distinct from the lifecycle
/// harness tags 0–3, though each scenario also gets a fresh `Env`).
const TAG_PROBE: u64 = 9;

/// ε of the probe PGM build; `ml4db_datagen::BOMB_CLUSTER` is sized as
/// `2ε + 2` against exactly this bound.
const PROBE_EPSILON: usize = 16;

/// Knobs of one matrix run. Every field is folded into the seeds, so the
/// report is a pure function of this struct.
#[derive(Clone, Copy, Debug)]
pub struct MatrixConfig {
    /// `joblite` base rows per scenario instance.
    pub base_rows: usize,
    /// Benign training-stream length (before fingerprint dedup).
    pub train_n: usize,
    /// Evaluation-stream length (before fingerprint dedup).
    pub eval_n: usize,
    /// Queries the plan-regression trap keeps (the top of the candidate
    /// pool by Bao-greedy latency over expert).
    pub trap_keep: usize,
    /// Requests the serving column issues per scenario.
    pub serve_requests: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        Self { base_rows: 200, train_n: 20, eval_n: 14, trap_keep: 8, serve_requests: 192, seed: 42 }
    }
}

impl MatrixConfig {
    /// The smoke scale shared by the unit tests, `tests/zoo_adversarial.rs`
    /// and the `tests/golden/matrix.json` golden.
    pub fn smoke() -> Self {
        Self { base_rows: 120, train_n: 10, eval_n: 8, trap_keep: 5, serve_requests: 48, seed: 7 }
    }
}

/// The optimizer policies the matrix evaluates — the matrix's columns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// The classical expert planner (the baseline every ratio is
    /// measured against).
    Classical,
    /// Bao: fixed hint-set arms, bandit trained on the benign stream,
    /// greedy (posterior-mean) choices at evaluation time.
    Bao,
    /// AutoSteer: per-query hint-set discovery, scored under the shared
    /// bandit posterior.
    AutoSteer,
    /// Bao behind [`GuardedSteering`]: per-query latency budget with
    /// expert fallback and a circuit breaker.
    GuardedBao,
}

impl Policy {
    /// All policies in canonical column order.
    pub fn all() -> [Policy; 4] {
        [Policy::Classical, Policy::Bao, Policy::AutoSteer, Policy::GuardedBao]
    }

    /// Stable snake_case name.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Classical => "classical",
            Policy::Bao => "bao",
            Policy::AutoSteer => "autosteer",
            Policy::GuardedBao => "guarded_bao",
        }
    }
}

/// The regression budget one cell is judged against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellBudget {
    /// Ceiling on cell p99 over the classical cell's p99.
    pub max_p99_ratio: f64,
    /// Ceiling on cell total latency over the classical cell's total.
    pub max_total_ratio: f64,
    /// Ceiling on >2×-expert regressions.
    pub max_regressions: usize,
    /// Ceiling on circuit-breaker trips charged to the cell.
    pub max_guard_trips: u64,
    /// Floor on oracle agreement of served results.
    pub min_oracle_agreement: f64,
    /// Whether a violation fails the matrix ([`MatrixReport::pass`]).
    /// Unenforced cells are canaries: recorded, reported, not gating.
    pub enforced: bool,
}

/// The budget for `policy` on a scenario, which is `adversarial` or not.
///
/// * `classical` is its own baseline: exact parity, always enforced.
/// * `bao`/`autosteer` get a generous benign budget, enforced only on
///   benign scenarios — adversarial scenarios are crafted to break them.
/// * `guarded_bao` is enforced *everywhere*: [`GuardedSteering`]'s
///   per-query abort bound (budget factor 1.2 → worst charge
///   2.2 × expert) makes ≤2.25× mathematically guaranteed, adversarial
///   workloads included.
pub fn budget_for(policy: Policy, adversarial: bool) -> CellBudget {
    match policy {
        Policy::Classical => CellBudget {
            max_p99_ratio: 1.0 + 1e-9,
            max_total_ratio: 1.0 + 1e-9,
            max_regressions: 0,
            max_guard_trips: 0,
            min_oracle_agreement: 1.0,
            enforced: true,
        },
        Policy::Bao | Policy::AutoSteer => CellBudget {
            max_p99_ratio: 5.0,
            max_total_ratio: 1.75,
            max_regressions: 3,
            max_guard_trips: 0,
            min_oracle_agreement: 1.0,
            enforced: !adversarial,
        },
        Policy::GuardedBao => CellBudget {
            max_p99_ratio: 2.25,
            max_total_ratio: 2.25,
            max_regressions: 64,
            max_guard_trips: 64,
            min_oracle_agreement: 1.0,
            enforced: true,
        },
    }
}

/// One scored cell of the matrix.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// Zoo scenario name.
    pub scenario: &'static str,
    /// Policy name.
    pub policy: &'static str,
    /// Whether the scenario is adversarial.
    pub adversarial: bool,
    /// Cell p99 latency (µs).
    pub p99_us: f64,
    /// Cell total latency (µs).
    pub total_us: f64,
    /// `p99_us` over the classical cell's p99.
    pub p99_ratio: f64,
    /// `total_us` over the classical cell's total.
    pub total_ratio: f64,
    /// Queries >2× slower than the expert plan.
    pub regressions: usize,
    /// Circuit-breaker trips charged to the cell.
    pub guard_trips: u64,
    /// Oracle-agreement probes attempted.
    pub oracle_checked: u64,
    /// Probes whose served result multiset matched the brute-force
    /// reference.
    pub oracle_agreed: u64,
    /// The budget this cell was judged against.
    pub budget: CellBudget,
    /// Whether every budgeted metric was within bounds.
    pub within_budget: bool,
}

impl CellReport {
    /// Fraction of oracle probes that agreed (1.0 when none ran).
    pub fn oracle_agreement(&self) -> f64 {
        if self.oracle_checked == 0 {
            1.0
        } else {
            self.oracle_agreed as f64 / self.oracle_checked as f64
        }
    }
}

/// One scenario's pass through the real serving path: its evaluation
/// stream as a two-tenant template mix through admission control and the
/// closed-loop simulator.
#[derive(Clone, Debug)]
pub struct ServeCell {
    /// Zoo scenario name.
    pub scenario: &'static str,
    /// Requests the client population issued.
    pub submitted: u64,
    /// Requests executed to completion.
    pub completed: u64,
    /// Fraction of submissions shed by admission control.
    pub shed_rate: f64,
    /// p99 sojourn latency (virtual µs; 0 when nothing completed).
    pub p99_us: f64,
}

/// The negative control attached to one adversarial scenario: evidence
/// the scenario defeats a named *unguarded* learned component, plus
/// evidence the guarded configuration stays within its budget.
#[derive(Clone, Debug)]
pub struct ProbeReport {
    /// Zoo scenario name.
    pub scenario: &'static str,
    /// The learned component under attack.
    pub component: &'static str,
    /// The unguarded damage metric (q-error blow-up ratio, segment
    /// blow-up ratio, regression count — see the scenario's probe).
    pub unguarded_metric: f64,
    /// `unguarded_metric` must reach this for the scenario to count as
    /// load-bearing.
    pub threshold: f64,
    /// Whether the unguarded component was demonstrably defeated.
    pub defeated: bool,
    /// The guarded configuration's damage metric (latency ratio or
    /// wrong-answer count).
    pub guarded_metric: f64,
    /// Ceiling on `guarded_metric`.
    pub guarded_budget: f64,
    /// Whether the guarded configuration stayed within budget.
    pub guarded_ok: bool,
}

/// The whole matrix: cells × scenarios, serving diagnostics, and the
/// adversarial negative controls.
#[derive(Clone, Debug)]
pub struct MatrixReport {
    /// Config echo.
    pub config: MatrixConfig,
    /// Scenario count (rows).
    pub scenarios: usize,
    /// Policy count (columns).
    pub policies: usize,
    /// All scored cells, scenario-major in canonical zoo order.
    pub cells: Vec<CellReport>,
    /// One serving diagnostic per scenario.
    pub serve: Vec<ServeCell>,
    /// One probe per adversarial scenario.
    pub probes: Vec<ProbeReport>,
}

impl MatrixReport {
    /// The one-bit verdict CI gates on: every *enforced* cell within its
    /// budget, and every adversarial probe both defeated-unguarded and
    /// within-budget-guarded.
    pub fn pass(&self) -> bool {
        self.cells.iter().all(|c| !c.budget.enforced || c.within_budget)
            && self.probes.iter().all(|p| p.defeated && p.guarded_ok)
    }

    /// The cell for `(scenario, policy)`, if present.
    pub fn cell(&self, scenario: &str, policy: &str) -> Option<&CellReport> {
        self.cells.iter().find(|c| c.scenario == scenario && c.policy == policy)
    }

    /// Canonical JSON: sorted keys, no wall-clock, a pure function of
    /// [`MatrixConfig`] — byte-identical across `ML4DB_THREADS`.
    pub fn to_canonical_json(&self) -> Value {
        let num = Value::Number;
        let mut root: BTreeMap<String, Value> = BTreeMap::new();
        let mut cfg: BTreeMap<String, Value> = BTreeMap::new();
        cfg.insert("base_rows".into(), num(self.config.base_rows as f64));
        cfg.insert("train_n".into(), num(self.config.train_n as f64));
        cfg.insert("eval_n".into(), num(self.config.eval_n as f64));
        cfg.insert("trap_keep".into(), num(self.config.trap_keep as f64));
        cfg.insert("serve_requests".into(), num(self.config.serve_requests as f64));
        cfg.insert("seed".into(), num(self.config.seed as f64));
        root.insert("config".into(), Value::Object(cfg));
        root.insert("scenarios".into(), num(self.scenarios as f64));
        root.insert("policies".into(), num(self.policies as f64));
        root.insert(
            "cells".into(),
            Value::Array(
                self.cells
                    .iter()
                    .map(|c| {
                        let mut o: BTreeMap<String, Value> = BTreeMap::new();
                        o.insert("scenario".into(), Value::String(c.scenario.into()));
                        o.insert("policy".into(), Value::String(c.policy.into()));
                        o.insert("adversarial".into(), Value::Bool(c.adversarial));
                        o.insert("p99_us".into(), num(c.p99_us));
                        o.insert("total_us".into(), num(c.total_us));
                        o.insert("p99_ratio".into(), num(c.p99_ratio));
                        o.insert("total_ratio".into(), num(c.total_ratio));
                        o.insert("regressions".into(), num(c.regressions as f64));
                        o.insert("guard_trips".into(), num(c.guard_trips as f64));
                        o.insert("oracle_checked".into(), num(c.oracle_checked as f64));
                        o.insert("oracle_agreed".into(), num(c.oracle_agreed as f64));
                        let mut b: BTreeMap<String, Value> = BTreeMap::new();
                        b.insert("max_p99_ratio".into(), num(c.budget.max_p99_ratio));
                        b.insert("max_total_ratio".into(), num(c.budget.max_total_ratio));
                        b.insert("max_regressions".into(), num(c.budget.max_regressions as f64));
                        b.insert("max_guard_trips".into(), num(c.budget.max_guard_trips as f64));
                        b.insert(
                            "min_oracle_agreement".into(),
                            num(c.budget.min_oracle_agreement),
                        );
                        b.insert("enforced".into(), Value::Bool(c.budget.enforced));
                        o.insert("budget".into(), Value::Object(b));
                        o.insert("within_budget".into(), Value::Bool(c.within_budget));
                        Value::Object(o)
                    })
                    .collect(),
            ),
        );
        root.insert(
            "serve".into(),
            Value::Array(
                self.serve
                    .iter()
                    .map(|s| {
                        let mut o: BTreeMap<String, Value> = BTreeMap::new();
                        o.insert("scenario".into(), Value::String(s.scenario.into()));
                        o.insert("submitted".into(), num(s.submitted as f64));
                        o.insert("completed".into(), num(s.completed as f64));
                        o.insert("shed_rate".into(), num(s.shed_rate));
                        o.insert("p99_us".into(), num(s.p99_us));
                        Value::Object(o)
                    })
                    .collect(),
            ),
        );
        root.insert(
            "probes".into(),
            Value::Array(
                self.probes
                    .iter()
                    .map(|p| {
                        let mut o: BTreeMap<String, Value> = BTreeMap::new();
                        o.insert("scenario".into(), Value::String(p.scenario.into()));
                        o.insert("component".into(), Value::String(p.component.into()));
                        o.insert("unguarded_metric".into(), num(p.unguarded_metric));
                        o.insert("threshold".into(), num(p.threshold));
                        o.insert("defeated".into(), Value::Bool(p.defeated));
                        o.insert("guarded_metric".into(), num(p.guarded_metric));
                        o.insert("guarded_budget".into(), num(p.guarded_budget));
                        o.insert("guarded_ok".into(), Value::Bool(p.guarded_ok));
                        Value::Object(o)
                    })
                    .collect(),
            ),
        );
        root.insert("pass".into(), Value::Bool(self.pass()));
        Value::Object(root)
    }

    /// 64-bit fingerprint of the canonical JSON — two runs are "the
    /// same" iff their bits agree.
    pub fn bits(&self) -> u64 {
        obs::digest::Fingerprint::new().str(&self.to_canonical_json().to_string()).finish()
    }
}

/// Executes up to 4 small (≤3-table) evaluation queries under `planner`
/// and multiset-compares the served rows against the brute-force
/// reference. Serial; a planner that abstains serves the expert plan.
fn oracle_agreement(
    db: &Database,
    env: &Env,
    eval: &[Query],
    planner: impl Fn(&Env, &Query) -> Option<PlanNode>,
) -> (u64, u64) {
    let mut checked = 0u64;
    let mut agreed = 0u64;
    for q in eval.iter().filter(|q| q.num_tables() <= 3).take(4) {
        let Some(plan) = planner(env, q).or_else(|| env.expert_plan(q)) else {
            continue;
        };
        checked += 1;
        let Ok(res) = execute(db, q, &plan) else {
            continue;
        };
        let identity: Vec<usize> = (0..q.num_tables()).collect();
        let truth = canonical_multiset(
            db,
            q,
            &naive_execute(db, q).expect("reference executes"),
            &identity,
        );
        if canonical_multiset(db, q, &res.rows, &res.layout) == truth {
            agreed += 1;
        }
    }
    (checked, agreed)
}

/// Scores one `(scenario, policy)` evaluation into a [`CellReport`].
#[allow(clippy::too_many_arguments)]
fn score_cell(
    spec: &ScenarioSpec,
    policy: Policy,
    report: &EvalReport,
    classical: &EvalReport,
    guard_trips: u64,
    oracle_checked: u64,
    oracle_agreed: u64,
) -> CellReport {
    let total_us: f64 = report.latencies.iter().sum();
    let classical_total: f64 = classical.latencies.iter().sum();
    let budget = budget_for(policy, spec.is_adversarial());
    let mut cell = CellReport {
        scenario: spec.name(),
        policy: policy.name(),
        adversarial: spec.is_adversarial(),
        p99_us: report.tail.p99,
        total_us,
        p99_ratio: report.tail.p99 / classical.tail.p99.max(1e-9),
        total_ratio: total_us / classical_total.max(1e-9),
        regressions: report.regressions,
        guard_trips,
        oracle_checked,
        oracle_agreed,
        budget,
        within_budget: false,
    };
    cell.within_budget = cell.p99_ratio <= budget.max_p99_ratio
        && cell.total_ratio <= budget.max_total_ratio
        && cell.regressions <= budget.max_regressions
        && cell.guard_trips <= budget.max_guard_trips
        && cell.oracle_agreement() >= budget.min_oracle_agreement;
    cell
}

/// Trains an MSCN on the benign stream and probes it on the scenario's
/// evaluation stream — the negative control shared by the
/// distribution-edge and correlation-trap scenarios. The unguarded
/// metric is a q-error blow-up ratio, with the denominator chosen by the
/// attack's shape: the distribution edge is a *query* attack (data
/// unchanged), so its control is the model's own training error; the
/// correlation trap is a *data* attack (queries held fixed), so its
/// control is the same model on the same queries against the unflipped
/// data — isolating exactly the joint-distribution change the classical
/// histograms cannot see. The guarded metric is the relative total
/// latency of planning with the same model behind
/// [`GuardedCardEstimator`]'s plausibility band (evaluated serially —
/// the guard is stateful).
fn mscn_probe(
    spec: &ScenarioSpec,
    base: &Database,
    applied: &Database,
    env: &Env,
    train: &[Query],
    eval: &[Query],
) -> ProbeReport {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ SALT_MSCN);
    let mscn = train_mscn(base, &collect_samples(base, train), 25, &mut rng);
    let data_attack = matches!(spec.kind, ScenarioKind::CorrelationTrap);
    let control_err = qerr_stream(base, &mscn, if data_attack { eval } else { train }).0;
    let eval_err = qerr_stream(applied, &mscn, eval).0;
    let ratio = eval_err / control_err.max(1e-6);

    let guarded = GuardedCardEstimator::new(mscn, 8.0);
    let pairs: Vec<(f64, f64)> = eval
        .iter()
        .map(|q| {
            let expert = env.expert_latency(q).expect("expert always plans");
            let lat = match env.plan_with_estimator(q, HintSet::all(), &guarded, TAG_PROBE) {
                Some(p) => env.run(q, &p),
                None => expert,
            };
            (lat, expert)
        })
        .collect();
    let guarded_ratio = EvalReport::from_pairs(&pairs).relative_total;

    let threshold = 1.25;
    ProbeReport {
        scenario: spec.name(),
        component: "mscn_estimator",
        unguarded_metric: ratio,
        threshold,
        defeated: ratio >= threshold,
        guarded_metric: guarded_ratio,
        guarded_budget: 1.5,
        guarded_ok: guarded_ratio <= 1.5,
    }
}

/// The PGM segment-bomb negative control: build an ε-bounded PGM over
/// the bombed `title.id` stream and compare its segment count against a
/// uniform stream of the same length and span (what the compression
/// guarantee assumes). Guarded: a budget gate rejects the bloated index
/// and serves a B+Tree instead; the metric is wrong answers on point
/// and range probes (must be zero).
fn pgm_probe(spec: &ScenarioSpec, applied: &Database) -> ProbeReport {
    let keys = key_stream(applied, "title", "id");
    let entries: Vec<KeyValue> = keys.iter().map(|&k| (k, k)).collect();
    let pgm = PgmIndex::build(entries.clone(), PROBE_EPSILON);
    let bombed = pgm.num_segments();

    let (lo, hi, n) = (keys[0], *keys.last().expect("non-empty"), keys.len());
    let uniform: Vec<KeyValue> = (0..n)
        .map(|i| {
            let k = lo + ((hi - lo) as u128 * i as u128 / (n.max(2) - 1) as u128) as u64;
            (k, k)
        })
        .collect();
    debug_assert!(uniform.windows(2).all(|w| w[0].0 < w[1].0), "span ≫ count keeps keys distinct");
    let uniform_segs = PgmIndex::build(uniform, PROBE_EPSILON).num_segments();
    let ratio = bombed as f64 / uniform_segs.max(1) as f64;

    // The budget gate: a learned index whose segment count exceeds n/8
    // has lost its compression claim; fall back to the classical tree.
    let fallback = BPlusTree::bulk_load(&entries);
    let served: &dyn OrderedIndex = if bombed <= n / 8 { &pgm } else { &fallback };
    let mut wrong = 0u64;
    for (i, &(k, v)) in entries.iter().enumerate().step_by(5) {
        if served.get(k) != Some(v) {
            wrong += 1;
        }
        // A key from inside the nearest void must miss.
        let missing = k + 1;
        let in_void = entries.binary_search_by_key(&missing, |e| e.0).is_err();
        if in_void && served.get(missing).is_some() {
            wrong += 1;
        }
        if i % 25 == 0 {
            let hi_k = entries[(i + 40).min(n - 1)].0;
            let want: Vec<KeyValue> =
                entries.iter().copied().filter(|&(key, _)| key >= k && key <= hi_k).collect();
            if served.range(k, hi_k) != want {
                wrong += 1;
            }
        }
    }

    let threshold = 4.0;
    ProbeReport {
        scenario: spec.name(),
        component: "pgm_index",
        unguarded_metric: ratio,
        threshold,
        defeated: ratio >= threshold,
        guarded_metric: wrong as f64,
        guarded_budget: 0.0,
        guarded_ok: wrong == 0,
    }
}

/// Runs the full matrix. Serial over scenarios; parallel (order-
/// preserving, stateless) inside each policy evaluation.
pub fn run_matrix(cfg: &MatrixConfig) -> MatrixReport {
    let _span = obs::span("matrix");
    let specs = ScenarioSpec::zoo(cfg.seed);
    let mut cells = Vec::with_capacity(specs.len() * Policy::all().len());
    let mut serve = Vec::with_capacity(specs.len());
    let mut probes = Vec::new();

    for (i, spec) in specs.iter().enumerate() {
        let db_seed =
            cfg.seed ^ SALT_DB ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let base = demo_database(cfg.base_rows, db_seed);

        let train = dedup_by_fingerprint(spec.train_workload(&base, cfg.train_n));
        let applied = spec.apply(&base);
        // The plan-regression trap *mines* the query space for bandit
        // mistakes: draw a pool several times the cell size, then (below)
        // keep the candidates where Bao is most confidently wrong.
        let pool_n = if matches!(spec.kind, ScenarioKind::PlanRegressionTrap) {
            cfg.eval_n.max(cfg.trap_keep) * 8
        } else {
            cfg.eval_n
        };
        let mut eval = dedup_by_fingerprint(spec.eval_workload(&applied, pool_n));

        // Learned policies train on the benign stream against the base
        // instance — exactly the "looked good in training" setup the
        // adversarial scenarios then attack.
        let train_env = Env::new(&base);
        let mut bao = Bao::new(bao_arms());
        let mut brng = StdRng::seed_from_u64(spec.seed ^ SALT_BAO);
        for q in &train {
            bao.step(&train_env, q, &mut brng);
        }
        let mut auto_steer = AutoSteer::new();
        let mut arng = StdRng::seed_from_u64(spec.seed ^ SALT_AUTOSTEER);
        for q in &train {
            auto_steer.step(&train_env, q, &mut arng);
        }

        let env = Env::new(&applied);

        // The plan-regression trap keeps the candidates where the
        // benign-trained bandit is most confidently wrong, so the trap's
        // bao cell regresses by construction if any candidate does.
        if matches!(spec.kind, ScenarioKind::PlanRegressionTrap) {
            let mut scored: Vec<(f64, Query)> = eval
                .iter()
                .map(|q| {
                    let lat = env.run(q, &bao.choose_greedy(&env, q).plan);
                    let expert = env.expert_latency(q).expect("expert always plans");
                    (lat / expert.max(1e-9), q.clone())
                })
                .collect();
            scored.sort_by(|a, b| {
                b.0.total_cmp(&a.0).then(a.1.fingerprint().cmp(&b.1.fingerprint()))
            });
            eval = scored.into_iter().take(cfg.trap_keep.max(1)).map(|(_, q)| q).collect();
        }

        // --- the four policy cells ---
        let classical = evaluate(&env, &eval, |e, q| e.expert_plan(q));
        let (cchk, cagr) = oracle_agreement(&applied, &env, &eval, |e, q| e.expert_plan(q));
        cells.push(score_cell(spec, Policy::Classical, &classical, &classical, 0, cchk, cagr));

        let bao_rep = evaluate(&env, &eval, |e, q| Some(bao.choose_greedy(e, q).plan));
        let (bchk, bagr) =
            oracle_agreement(&applied, &env, &eval, |e, q| Some(bao.choose_greedy(e, q).plan));
        cells.push(score_cell(spec, Policy::Bao, &bao_rep, &classical, 0, bchk, bagr));

        let auto_planner = |e: &Env, q: &Query| {
            let d = discover_hint_sets(e, q);
            Some(auto_steer.bandit.choose_greedy_among(e, q, &d.arms).plan)
        };
        let auto_rep = evaluate(&env, &eval, auto_planner);
        let (achk, aagr) = oracle_agreement(&applied, &env, &eval, auto_planner);
        cells.push(score_cell(spec, Policy::AutoSteer, &auto_rep, &classical, 0, achk, aagr));

        let guarded =
            GuardedSteering::new(|e: &Env, q: &Query| bao.arms[bao.choose_greedy(e, q).arm]);
        let guard_rep = guarded.evaluate(&env, &eval);
        let trips = guarded.breaker().trips();
        let (gchk, gagr) = oracle_agreement(&applied, &env, &eval, |e, q| {
            e.plan_with_hint(q, bao.arms[bao.choose_greedy(e, q).arm])
        });
        cells.push(score_cell(spec, Policy::GuardedBao, &guard_rep, &classical, trips, gchk, gagr));

        let bao_cell = &cells[cells.len() - 3];
        let guarded_cell = &cells[cells.len() - 1];

        // --- adversarial negative controls ---
        match spec.kind {
            ScenarioKind::DistributionEdge | ScenarioKind::CorrelationTrap => {
                probes.push(mscn_probe(spec, &base, &applied, &env, &train, &eval));
            }
            ScenarioKind::PgmSegmentBomb => probes.push(pgm_probe(spec, &applied)),
            ScenarioKind::PlanRegressionTrap => {
                let budget = guarded_cell.budget.max_total_ratio;
                probes.push(ProbeReport {
                    scenario: spec.name(),
                    component: "bao_steering",
                    unguarded_metric: bao_cell.regressions as f64,
                    threshold: 1.0,
                    defeated: bao_cell.regressions >= 1,
                    guarded_metric: guarded_cell.total_ratio,
                    guarded_budget: budget,
                    guarded_ok: guarded_cell.total_ratio <= budget,
                });
            }
            _ => {}
        }

        // --- the real serving path ---
        let tenants = 2usize.min(eval.len().max(1));
        let mut pools: Vec<Vec<Vec<Query>>> = vec![Vec::new(); tenants];
        for (j, q) in eval.iter().enumerate() {
            pools[j % tenants].push(vec![q.clone()]);
        }
        let mut gen = LoadGen::new(
            LoadSpec {
                clients: 48,
                classes: 3,
                mean_think_ns: 1_000_000,
                total_requests: cfg.serve_requests,
            },
            TemplateMix { pools },
            spec.seed ^ SALT_SERVE,
        );
        let sim = SimConfig {
            workers: 4,
            admission: AdmissionConfig {
                capacity: 64,
                soft_limit: 48,
                classes: 3,
                seed: spec.seed ^ SALT_SERVE,
            },
        };
        let sr = run_closed_loop(&env, &mut gen, &sim);
        serve.push(ServeCell {
            scenario: spec.name(),
            submitted: sr.submitted(),
            completed: sr.completed(),
            shed_rate: sr.shed_rate(),
            p99_us: sr.p99_us().unwrap_or(0.0),
        });
    }

    MatrixReport {
        config: *cfg,
        scenarios: specs.len(),
        policies: Policy::all().len(),
        cells,
        serve,
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_cell_with_a_budget() {
        let report = run_matrix(&MatrixConfig::smoke());
        assert_eq!(report.scenarios, 14);
        assert_eq!(report.policies, 4);
        assert_eq!(report.cells.len(), 14 * 4);
        assert_eq!(report.serve.len(), 14);
        assert_eq!(report.probes.len(), 4);
        for c in &report.cells {
            assert!(c.budget.max_p99_ratio >= 1.0, "{}/{}", c.scenario, c.policy);
        }
        // Classical is its own baseline: exact parity everywhere.
        for c in report.cells.iter().filter(|c| c.policy == "classical") {
            assert!((c.p99_ratio - 1.0).abs() < 1e-9);
            assert!(c.within_budget, "classical over budget on {}", c.scenario);
        }
    }

    #[test]
    fn canonical_json_is_deterministic() {
        let cfg = MatrixConfig::smoke();
        let a = run_matrix(&cfg);
        let b = run_matrix(&cfg);
        assert_eq!(a.to_canonical_json().to_string(), b.to_canonical_json().to_string());
        assert_eq!(a.bits(), b.bits());
    }
}
