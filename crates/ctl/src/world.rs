//! The closed-loop world: a seeded serving regime with one built-in
//! change point, driven epoch by epoch with a controller in the loop.
//!
//! Every zoo scenario is staged the same way: epochs before
//! [`CtlWorldConfig::shift_at`] serve the scenario's benign training
//! stream against the base database; at `shift_at` the regime lands —
//! the scenario's data transform applies, the serving stream switches
//! to the evaluation stream, and the `title_year` secondary index goes
//! stale (a per-query penalty until rebuilt). The controller reads one
//! sealed [`HealthSnapshot`] per epoch and proposes actions; the
//! world's executor carries them out **only** through the existing
//! validated interfaces (the lifecycle gate, the staleness check, the
//! arm table, the cache epoch, the admission level), journaling every
//! decision to a [`SimDisk`]-backed intent/outcome log so a crash
//! between deciding and acknowledging is recoverable.
//!
//! # Why do-no-harm is structural here
//!
//! Three properties make "controller ≤ no-op" a theorem rather than an
//! observation:
//!
//! 1. **The gate's holdout is the serving stream itself.** Each regime
//!    serves one fixed, deduplicated stream every epoch, and a retrain
//!    is shadow-scored on exactly that stream with tolerance 0 — a
//!    candidate promotes only if its total latency on the queries
//!    future epochs will serve is ≤ the incumbent's.
//! 2. **Retraining is a pure function of its training data.** The
//!    trainer's RNG is seeded from the sample stream, so retraining on
//!    unchanged data reproduces the serving model exactly — a spurious
//!    trigger (e.g. the action-storm stutter) can at worst promote a
//!    bit-identical model, never a differently-initialized gamble.
//! 3. **Action costs never touch the serving score.** Training and
//!    shadow-scoring are background work, logged and bounded by the
//!    retry/backoff budget, but the per-epoch score charges only what
//!    served queries experienced.
//!
//! The remaining actions only ever move *toward* the no-op
//! configuration (rollback to last-good, flip to the full-hint arm,
//! rebuild a genuinely stale index) or are validated no-ops.

use rand::rngs::StdRng;
use rand::SeedableRng;

use ml4db_card::{collect_samples, DriftDetector, MscnEstimator};
use ml4db_datagen::ScenarioSpec;
use ml4db_lifecycle::{GateConfig, ModelRegistry};
use ml4db_obs::{Event, HealthSnapshot, ModeGuard};
use ml4db_optimizer::harness::{
    dedup_by_fingerprint, gate_score, poison_samples, qerr_stream, train_mscn, DRIFT_THRESHOLD,
};
use ml4db_optimizer::Env;
use ml4db_plan::{ClassicEstimator, HintSet, Query};
use ml4db_storage::datasets::joblite_db;
use ml4db_storage::durable::{FaultSpec, IoFault, SimDisk, StorageMedium, TailPolicy};
use ml4db_storage::Database;

use crate::chaos::{lie_in_snapshot, storm_in_snapshot, ActuatorClock, CtlFault};
use crate::controller::{Action, Controller, CtlView, COMPONENT, INDEX};
use crate::log::{DecisionLog, DecisionRecord};

/// Estimator tag for the serving model. Must be non-zero: tag 0 is the
/// untagged expert key space (`CacheKey::tagged(.., 0)` ==
/// `CacheKey::new(..)`), and `expert_latency` caches expert plans
/// there — a colliding tag would silently serve expert plans and mask
/// every estimator-induced regression.
const TAG_SERVING: u64 = 4;
/// Estimator tag for the classical baseline during gate scoring.
const TAG_BASELINE: u64 = 5;
/// Base tag for gate-scored candidates: `TAG_CANDIDATE_BASE + id` keeps
/// every candidate *version* in its own cache key space — a rejected
/// candidate does not bump the cache epoch, so reusing one tag across
/// candidates would serve candidate N's cached plans to candidate N+1.
const TAG_CANDIDATE_BASE: u64 = 0x1000;

/// Seed salt for the world's data/model RNG stream.
const SALT_WORLD: u64 = 0x4354_4C5F_574C_4400;
/// Seed salt for poisoned training runs (distinct data → distinct seed).
const SALT_POISON: u64 = 0x4354_4C5F_5053_4E00;

/// The journal file name on the world's [`SimDisk`].
const JOURNAL: &str = "ctl.journal";

/// The steering arm table. Arm 0 is the full hint set — a strict
/// superset search space, so it weakly dominates every other arm; the
/// guarded controller only ever flips *toward* it. The restricted arms
/// exist for the negative control: a naive controller that flips
/// blindly forward lands on them (arm 2, nested-loop-only joins, is the
/// classic catastrophe).
pub const ARMS: [HintSet; 4] = [
    HintSet { hash_join: true, nested_loop: true, merge_join: true, index_scan: true, seq_scan: true },
    HintSet { hash_join: false, nested_loop: true, merge_join: true, index_scan: true, seq_scan: true },
    HintSet { hash_join: false, nested_loop: true, merge_join: false, index_scan: true, seq_scan: true },
    HintSet { hash_join: true, nested_loop: true, merge_join: true, index_scan: false, seq_scan: true },
];

/// Epoch at which the scenario regime lands.
pub const SHIFT_AT: u64 = 2;
/// Validation-gate tolerance. 0.0 makes do-no-harm structural: a
/// candidate must be ≤ the incumbent on the very stream it will serve.
pub const TOLERANCE: f64 = 0.0;
/// Actuator retries before a decision degrades to no-op.
pub const RETRY_LIMIT: u32 = 3;
/// Per-query penalty (µs) while the secondary index is stale.
pub const INDEX_PENALTY_US: f64 = 40.0;
/// Latency multiple of the expert charged to a shed query (the client's
/// retry-elsewhere cost).
pub const SHED_PENALTY: f64 = 2.0;

/// Scale of one [`run_world`]. Every value folds into the deterministic
/// run; defaults are sized for test suites.
#[derive(Clone, Copy, Debug)]
pub struct CtlWorldConfig {
    /// `joblite` base rows.
    pub base_rows: usize,
    /// Pre-shift (training-regime) stream length before dedup.
    pub train_n: usize,
    /// Post-shift (evaluation-regime) stream length before dedup.
    pub eval_n: usize,
    /// Control epochs in the run.
    pub epochs: u64,
    /// Training epochs per (re)train.
    pub train_epochs: usize,
}

impl Default for CtlWorldConfig {
    fn default() -> Self {
        Self { base_rows: 200, train_n: 18, eval_n: 12, epochs: 6, train_epochs: 30 }
    }
}

impl CtlWorldConfig {
    /// The smoke scale shared by the unit tests, the chaos suites and the
    /// `tests/golden/ctl.json` golden.
    pub fn smoke() -> Self {
        Self { base_rows: 120, train_n: 10, eval_n: 8, epochs: 5, train_epochs: 20 }
    }
}

/// One controller run through one scenario under one fault.
#[derive(Clone, Debug)]
pub struct WorldReport {
    /// Scenario name.
    pub scenario: &'static str,
    /// Controller variant name.
    pub controller: &'static str,
    /// Fault family name.
    pub fault: &'static str,
    /// World seed.
    pub seed: u64,
    /// Serving score per epoch (total charged latency, µs).
    pub per_epoch_us: Vec<f64>,
    /// Total serving score across all epochs (µs) — the do-no-harm and
    /// gap-closure comparison surface.
    pub total_us: f64,
    /// The full decision log.
    pub log: DecisionLog,
    /// Whether the crash-mid-action fault fired.
    pub crashed: bool,
    /// Decisions resolved by journal replay after the crash.
    pub recovered_decisions: u64,
    /// Final registry generation.
    pub final_generation: u64,
    /// Version id serving at the end.
    pub final_active: u32,
    /// Steering arm at the end.
    pub final_arm: usize,
    /// Whether the index was stale at the end.
    pub final_stale: bool,
    /// Admission level at the end.
    pub final_admission: u32,
}

impl WorldReport {
    /// 64-bit fingerprint of every field — score trajectory and decision
    /// log included — via [`ml4db_obs::debug_bits`]: the
    /// cross-thread-count identity surface.
    pub fn bits(&self) -> u64 {
        ml4db_obs::debug_bits(self)
    }
}

/// Derives the trainer's seed from the training data itself: the same
/// `(seed, sample stream, poisoned?)` always yields bit-identical
/// weights, which is what turns spurious retrains into provable no-ops
/// and makes crash re-execution of a retrain idempotent.
fn train_seed(world_seed: u64, stream: &[Query], poisoned: bool) -> u64 {
    let words = std::iter::once(world_seed)
        .chain(stream.iter().map(Query::fingerprint))
        .chain(poisoned.then_some(SALT_POISON));
    ml4db_obs::digest::fnv1a(&words.flat_map(u64::to_le_bytes).collect::<Vec<u8>>())
}

/// One epoch of serving: plans with the serving estimator under the
/// current arm, charges index-staleness penalties and admission sheds,
/// and emits the event stream the next snapshot distills.
fn serve_epoch(
    env: &Env,
    stream: &[Query],
    hint: HintSet,
    est: &MscnEstimator,
    stale: bool,
    admission: u32,
) -> f64 {
    let indexed: Vec<(usize, Query)> = stream.iter().cloned().enumerate().collect();
    ml4db_par::par_map(&indexed, |(i, q)| {
        ml4db_obs::with_query(q.fingerprint(), || {
            let expert = env.expert_latency(q).expect("expert always plans");
            let shed = (*i as u32) % 8 < admission;
            let tenant = (*i % 3) as u32;
            let depth = (*i % 5) as u32;
            ml4db_obs::emit_with(|| Event::ServeVerdict {
                tenant,
                class: 0,
                verdict: if shed { "shed" } else { "admitted" },
                queue_depth: depth,
            });
            let lat = if shed {
                // Shed work is not executed here; the client pays the
                // retry-elsewhere premium.
                SHED_PENALTY * expert
            } else {
                ml4db_obs::emit_with(|| Event::IndexProbe { index: INDEX, hit: !stale });
                let served = match env.plan_with_estimator(q, hint, est, TAG_SERVING) {
                    Some(p) => env.run(q, &p),
                    None => expert,
                };
                served + if stale { INDEX_PENALTY_US } else { 0.0 }
            };
            ml4db_obs::emit_with(|| Event::QueryReport {
                latency_us: lat,
                expert_us: expert,
                regressed: lat > 2.0 * expert,
            });
            lat
        })
    })
    .iter()
    .sum()
}

fn journal_append(disk: &mut SimDisk, line: &str) -> Result<(), IoFault> {
    disk.append(JOURNAL, line.as_bytes())?;
    disk.sync(JOURNAL)
}

/// Maps a journaled outcome string back to its static label so crash
/// recovery can replay `observe_outcome` calls verbatim.
fn intern_outcome(s: &str) -> &'static str {
    match s {
        "promoted" => "promoted",
        "gate_rejected" => "gate_rejected",
        "rolled_back" => "rolled_back",
        "noop_last_good" => "noop_last_good",
        "rebuilt" => "rebuilt",
        "noop_fresh" => "noop_fresh",
        "flipped" => "flipped",
        "noop_same_arm" => "noop_same_arm",
        "invalid_arm" => "invalid_arm",
        "flushed" => "flushed",
        "tightened" => "tightened",
        "noop_max" => "noop_max",
        "transient_exhausted" => "transient_exhausted",
        "recovered_applied" => "recovered_applied",
        _ => "unknown",
    }
}

/// Mutable world state the executor actuates on, owned for the whole
/// run so the normal path and crash recovery share one executor.
struct Actuators<'w, 'p, 'q> {
    env_pre: &'w Env<'p>,
    env_post: &'w Env<'q>,
    registry: ModelRegistry<MscnEstimator>,
    drift: DriftDetector,
    stale: bool,
    admission: u32,
    arm: usize,
}

impl Actuators<'_, '_, '_> {
    fn generation(&self) -> u64 {
        self.registry.generation()
    }

    fn sync_model_epoch(&self) {
        self.env_pre.set_model_epoch(self.registry.generation());
        self.env_post.set_model_epoch(self.registry.generation());
    }

    /// Executes one action through the validated interfaces, returning
    /// the outcome label. `env`, `db`, `stream` describe the current
    /// regime (the gate's holdout is the stream being served).
    #[allow(clippy::too_many_arguments)]
    fn apply(
        &mut self,
        action: Action,
        env: &Env,
        db: &Database,
        stream: &[Query],
        fault: CtlFault,
        forges: bool,
        world_seed: u64,
        cfg: &CtlWorldConfig,
    ) -> &'static str {
        match action {
            Action::Retrain => {
                let poisoned = fault == CtlFault::PoisonedRetrain;
                let mut samples = collect_samples(db, stream);
                if poisoned {
                    samples = poison_samples(&samples);
                }
                let mut rng = StdRng::seed_from_u64(train_seed(world_seed, stream, poisoned));
                let candidate = train_mscn(db, &samples, cfg.train_epochs, &mut rng);
                let cid = self.registry.register_candidate(candidate, "retrain");
                self.registry.begin_shadow(cid);
                let hint = ARMS[self.arm];
                let mut cand_score = gate_score(
                    env,
                    stream,
                    hint,
                    &self.registry.version(cid).expect("registered").model,
                    TAG_CANDIDATE_BASE + u64::from(cid),
                );
                let inc_score =
                    gate_score(env, stream, hint, self.registry.active(), TAG_SERVING);
                let base_score =
                    gate_score(env, stream, hint, &ClassicEstimator, TAG_BASELINE);
                if fault == CtlFault::GateRejectsAll {
                    // The gate actuator is broken: scores arrive as +inf.
                    cand_score = f64::INFINITY;
                }
                if forges {
                    // The naive controller's bug under test: fabricated
                    // shadow evidence, so the gate always says yes.
                    cand_score = 0.0;
                }
                let verdict = self.registry.try_promote(cid, cand_score, inc_score, base_score);
                if verdict.promoted {
                    self.sync_model_epoch();
                    self.drift.rebaseline();
                    "promoted"
                } else {
                    "gate_rejected"
                }
            }
            Action::Rollback => {
                let before = self.registry.generation();
                self.registry.rollback("controller");
                if self.registry.generation() != before {
                    self.sync_model_epoch();
                    self.drift.rebaseline();
                    "rolled_back"
                } else {
                    "noop_last_good"
                }
            }
            Action::RebuildIndex => {
                if self.stale {
                    self.stale = false;
                    "rebuilt"
                } else {
                    "noop_fresh"
                }
            }
            Action::FlipSteering { to } => {
                if to >= ARMS.len() {
                    "invalid_arm"
                } else if to == self.arm {
                    "noop_same_arm"
                } else {
                    self.arm = to;
                    "flipped"
                }
            }
            Action::FlushPlanCache => {
                self.env_pre.plan_cache().clear();
                self.env_post.plan_cache().clear();
                "flushed"
            }
            Action::TightenAdmission => {
                if self.admission < 3 {
                    self.admission += 1;
                    "tightened"
                } else {
                    "noop_max"
                }
            }
        }
    }
}

/// Runs one controller through one scenario under one fault family.
///
/// The run is a pure function of `(spec, controller, fault, cfg)`:
/// decisions are serial, every fan-out is order-preserving, and the
/// trainer is data-seeded — so the returned report (including the
/// canonical decision log) is byte-identical across `ML4DB_THREADS`.
///
/// Pass a **freshly constructed** controller: its hysteresis state is
/// part of the run's inputs.
pub fn run_world(
    spec: ScenarioSpec,
    ctrl: &mut dyn Controller,
    fault: CtlFault,
    cfg: &CtlWorldConfig,
) -> WorldReport {
    let _world = ml4db_obs::serial();
    let _mode = ModeGuard::collect();

    // The two regimes: base database + training stream before the
    // change point, applied database + evaluation stream after.
    let mut rng = StdRng::seed_from_u64(spec.seed ^ SALT_WORLD);
    let base = joblite_db(cfg.base_rows, &[("title", "year")], &mut rng);
    let applied = spec.apply(&base);
    let pre = dedup_by_fingerprint(spec.train_workload(&base, cfg.train_n));
    let post = dedup_by_fingerprint(spec.eval_workload(&applied, cfg.eval_n));

    let mut train_rng = StdRng::seed_from_u64(train_seed(spec.seed, &pre, false));
    let incumbent =
        train_mscn(&base, &collect_samples(&base, &pre), cfg.train_epochs, &mut train_rng);
    let registry = ModelRegistry::new(COMPONENT, GateConfig { tolerance: TOLERANCE }, incumbent);

    let env_pre = Env::new(&base);
    let env_post = Env::new(&applied);

    // Drift detector warmed on the incumbent's pre-regime error stream.
    // The frozen reference is primed with exactly the cyclic tail each
    // pre-shift epoch leaves in the recent window, so KS is identically
    // zero until the regime actually changes — no warmup false alarms.
    let window = pre.len().max(post.len()).max(4);
    let mut drift = DriftDetector::new(window, DRIFT_THRESHOLD);
    let warm = qerr_stream(&base, registry.active(), &pre).1;
    let n = warm.len().max(1) as i64;
    for i in 0..2 * window {
        let j = (i as i64 - window as i64).rem_euclid(n) as usize;
        drift.observe(warm[j % warm.len().max(1)]);
    }

    let mut act = Actuators {
        env_pre: &env_pre,
        env_post: &env_post,
        registry,
        drift,
        stale: false,
        admission: 0,
        arm: 0,
    };
    let mut clock = ActuatorClock::new();
    if let CtlFault::ActuatorTransient { times } = fault {
        clock.arm_transient(times);
    }
    let mut disk = SimDisk::new();
    disk.create(JOURNAL).expect("journal create");

    let mut log = DecisionLog::new(spec.name(), ctrl.name(), fault.name(), spec.seed);
    let mut per_epoch = Vec::with_capacity(cfg.epochs as usize);
    let mut seq: u64 = 0;
    let mut crashed = false;
    let mut recovered_decisions = 0u64;

    // Drop any events the setup phase emitted (training, planning the
    // warmup); snapshots cover serving intervals only.
    let _ = ml4db_obs::take_trace();

    for epoch in 0..cfg.epochs {
        let shifted = epoch >= SHIFT_AT;
        if epoch == SHIFT_AT {
            // The regime change lands: the secondary index no longer
            // reflects the data until the controller rebuilds it.
            act.stale = true;
        }
        let env: &Env = if shifted { &env_post } else { &env_pre };
        let db: &Database = if shifted { &applied } else { &base };
        let stream: &[Query] = if shifted { &post } else { &pre };

        // --- serve the interval ---
        per_epoch.push(serve_epoch(
            env,
            stream,
            ARMS[act.arm],
            act.registry.active(),
            act.stale,
            act.admission,
        ));

        // --- drift verdicts on the serving model's live error stream ---
        for e in qerr_stream(db, act.registry.active(), stream).1 {
            let fired = act.drift.observe(e);
            ml4db_obs::emit_with(|| Event::DriftVerdict { component: COMPONENT, fired });
        }

        // --- distill, storm (pre-seal), seal, lie (post-seal), dark ---
        let trace = ml4db_obs::take_trace();
        let mut snap = HealthSnapshot::from_trace(epoch, &trace);
        if fault.storms_at(epoch) {
            storm_in_snapshot(&mut snap);
        }
        let mut sealed = snap.seal();
        if fault.lies_at(epoch) {
            lie_in_snapshot(&mut sealed.snapshot);
        }
        let delivered = (!fault.dark_at(epoch)).then_some(sealed);

        // --- decide ---
        let view = CtlView {
            epoch,
            active_id: act.registry.active_id(),
            last_good_id: act.registry.last_good_id(),
            generation: act.generation(),
            arm: act.arm,
        };
        let decision = ctrl.decide(&view, delivered.as_ref());
        log.push(DecisionRecord {
            epoch,
            seq: 0,
            action: "observe",
            arg: -1,
            outcome: decision.observation,
            attempts: 1,
            backoff_ticks: 0,
            pre_generation: act.generation(),
            post_generation: act.generation(),
            recovered: false,
        });

        // --- execute, journaling intent before effect and outcome after ---
        for action in decision.actions {
            seq += 1;
            let pre_gen = act.generation();
            journal_append(
                &mut disk,
                &format!("I {seq} {epoch} {} {} {pre_gen}\n", action.name(), action.arg()),
            )
            .expect("journal intent");

            // Bounded deterministic actuator retry: 1, 2, 4, ... ticks.
            let mut attempts = 0u32;
            let mut backoff = 0u64;
            let outcome = loop {
                attempts += 1;
                if clock.actuate().is_ok() {
                    break act.apply(
                        action,
                        env,
                        db,
                        stream,
                        fault,
                        ctrl.forges_gate(),
                        spec.seed,
                        cfg,
                    );
                }
                if attempts > RETRY_LIMIT {
                    // The actuator never cleared: degrade to no-op for
                    // this decision rather than spin.
                    break "transient_exhausted";
                }
                backoff += 1u64 << u64::from((attempts - 1).min(16));
            };
            let post_gen = act.generation();

            let crash_now =
                matches!(fault, CtlFault::CrashMidAction { at_decision } if at_decision == seq)
                    && !crashed;
            if crash_now {
                // The classic window: the action took effect, but the
                // process dies before acknowledging it.
                crashed = true;
                disk.arm(FaultSpec::CrashAt { op: disk.ops(), tail: TailPolicy::DropAll });
                let write = journal_append(
                    &mut disk,
                    &format!("O {seq} {outcome} {attempts} {backoff} {post_gen}\n"),
                );
                assert_eq!(write, Err(IoFault::Crashed), "the outcome write must die");
                disk.reboot(0);
                recovered_decisions += recover(
                    &mut disk, ctrl, &mut act, env, db, stream, fault, spec.seed, cfg, &mut log,
                );
            } else {
                journal_append(
                    &mut disk,
                    &format!("O {seq} {outcome} {attempts} {backoff} {post_gen}\n"),
                )
                .expect("journal outcome");
                log.push(DecisionRecord {
                    epoch,
                    seq,
                    action: action.name(),
                    arg: action.arg(),
                    outcome,
                    attempts,
                    backoff_ticks: backoff,
                    pre_generation: pre_gen,
                    post_generation: post_gen,
                    recovered: false,
                });
                ctrl.observe_outcome(epoch, action, outcome);
            }
        }
    }

    let total_us = per_epoch.iter().sum();
    WorldReport {
        scenario: spec.name(),
        controller: ctrl.name(),
        fault: fault.name(),
        seed: spec.seed,
        per_epoch_us: per_epoch,
        total_us,
        log,
        crashed,
        recovered_decisions,
        final_generation: act.generation(),
        final_active: act.registry.active_id(),
        final_arm: act.arm,
        final_stale: act.stale,
        final_admission: act.admission,
    }
}

/// Crash recovery: re-read the journal, rebuild the controller's
/// hysteresis from completed records, and resolve the in-flight intent
/// idempotently — if the registry generation moved past the intent's
/// `pre_gen`, the action demonstrably applied ("recovered_applied");
/// otherwise re-execute it (retraining is data-seeded, rebuilds check
/// staleness, so re-execution is safe).
#[allow(clippy::too_many_arguments)]
fn recover(
    disk: &mut SimDisk,
    ctrl: &mut dyn Controller,
    act: &mut Actuators,
    env: &Env,
    db: &Database,
    stream: &[Query],
    fault: CtlFault,
    world_seed: u64,
    cfg: &CtlWorldConfig,
    log: &mut DecisionLog,
) -> u64 {
    let bytes = disk.read(JOURNAL).expect("journal survives the crash");
    let text = String::from_utf8(bytes).expect("journal is utf8");

    struct Intent {
        seq: u64,
        epoch: u64,
        action: Action,
        pre_gen: u64,
        outcome: Option<&'static str>,
    }
    let mut intents: Vec<Intent> = Vec::new();
    for line in text.lines() {
        let parts: Vec<&str> = line.split(' ').collect();
        match parts.as_slice() {
            ["I", seq, epoch, name, arg, pre_gen] => {
                let action = Action::from_journal(name, arg.parse().unwrap_or(-1))
                    .expect("journaled actions round-trip");
                intents.push(Intent {
                    seq: seq.parse().expect("seq"),
                    epoch: epoch.parse().expect("epoch"),
                    action,
                    pre_gen: pre_gen.parse().expect("pre_gen"),
                    outcome: None,
                });
            }
            ["O", seq, outcome, ..] => {
                let seq: u64 = seq.parse().expect("seq");
                if let Some(i) = intents.iter_mut().find(|i| i.seq == seq) {
                    i.outcome = Some(intern_outcome(outcome));
                }
            }
            _ => {}
        }
    }

    // Rebuild hysteresis: drop in-memory state, replay completed
    // outcomes in journal order.
    ctrl.reset();
    for i in intents.iter().filter(|i| i.outcome.is_some()) {
        ctrl.observe_outcome(i.epoch, i.action, i.outcome.expect("filtered"));
    }

    // Resolve in-flight intents (at most one: intents are journaled
    // one decision at a time).
    let mut recovered = 0u64;
    let in_flight: Vec<(u64, u64, Action, u64)> = intents
        .iter()
        .filter(|i| i.outcome.is_none())
        .map(|i| (i.seq, i.epoch, i.action, i.pre_gen))
        .collect();
    for (seq, epoch, action, pre_gen) in in_flight {
        let (outcome, attempts) = if act.generation() != pre_gen {
            ("recovered_applied", 0)
        } else {
            (
                act.apply(action, env, db, stream, fault, ctrl.forges_gate(), world_seed, cfg),
                1,
            )
        };
        let post_gen = act.generation();
        journal_append(disk, &format!("O {seq} {outcome} {attempts} 0 {post_gen}\n"))
            .expect("journal recovery outcome");
        log.push(DecisionRecord {
            epoch,
            seq,
            action: action.name(),
            arg: action.arg(),
            outcome,
            attempts,
            backoff_ticks: 0,
            pre_generation: pre_gen,
            post_generation: post_gen,
            recovered: true,
        });
        // Feed the controller the semantic outcome so cooldowns survive
        // the crash: a generation move under a retrain intent was a
        // promotion; under a rollback intent, a completed rollback.
        let semantic = match (action, outcome) {
            (Action::Retrain, "recovered_applied") => "promoted",
            (Action::Rollback, "recovered_applied") => "rolled_back",
            _ => outcome,
        };
        ctrl.observe_outcome(epoch, action, semantic);
        recovered += 1;
    }
    recovered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{NoopController, OracleController, RuleController};
    use ml4db_datagen::{ScenarioKind, ShiftKind};

    fn shift_spec() -> ScenarioSpec {
        // BulkDelete collapses the join selectivities the incumbent
        // trained on, so the gated retrain genuinely promotes here.
        ScenarioSpec::new(ScenarioKind::Shift(ShiftKind::BulkDelete), 11)
    }

    #[test]
    fn noop_world_is_deterministic_and_actionless() {
        let cfg = CtlWorldConfig::smoke();
        let a = run_world(shift_spec(), &mut NoopController, CtlFault::None, &cfg);
        let b = run_world(shift_spec(), &mut NoopController, CtlFault::None, &cfg);
        assert_eq!(a.bits(), b.bits());
        assert_eq!(a.log.actions().count(), 0);
        assert_eq!(a.per_epoch_us.len(), 5);
        assert_eq!(a.final_generation, 0);
        assert!(a.final_stale, "nobody rebuilt the index");
    }

    #[test]
    fn rule_controller_recovers_and_does_no_harm() {
        let cfg = CtlWorldConfig::smoke();
        let noop = run_world(shift_spec(), &mut NoopController, CtlFault::None, &cfg);
        let rule =
            run_world(shift_spec(), &mut RuleController::new(), CtlFault::None, &cfg);
        assert!(
            rule.total_us <= noop.total_us,
            "rule {} must not exceed noop {}",
            rule.total_us,
            noop.total_us
        );
        assert_eq!(rule.log.count_outcome("promoted"), 1, "one gated promotion");
        assert_eq!(rule.log.count_outcome("rebuilt"), 1, "stale index rebuilt");
        assert!(!rule.final_stale);
        // Pre-shift epochs are identical: the controller only acts on
        // evidence, and there is none before the change.
        for e in 0..SHIFT_AT as usize {
            assert_eq!(rule.per_epoch_us[e], noop.per_epoch_us[e]);
        }
    }

    #[test]
    fn oracle_matches_or_beats_rule() {
        let cfg = CtlWorldConfig::smoke();
        let rule =
            run_world(shift_spec(), &mut RuleController::new(), CtlFault::None, &cfg);
        let oracle = run_world(
            shift_spec(),
            &mut OracleController::new(SHIFT_AT),
            CtlFault::None,
            &cfg,
        );
        assert!(oracle.total_us <= rule.total_us + 1e-6);
    }

    #[test]
    fn world_runs_are_thread_count_invariant() {
        let cfg = CtlWorldConfig::smoke();
        let default_threads =
            run_world(shift_spec(), &mut RuleController::new(), CtlFault::None, &cfg);
        let single = ml4db_par::with_threads(1, || {
            run_world(shift_spec(), &mut RuleController::new(), CtlFault::None, &cfg)
        });
        assert_eq!(
            default_threads.log.canonical_string(),
            single.log.canonical_string(),
            "decision log must be byte-identical across thread counts"
        );
        assert_eq!(default_threads.bits(), single.bits());
    }
}
