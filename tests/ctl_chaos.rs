//! Controller-targeted chaos: every fault family in
//! `ml4db_ctl::chaos` aimed at the closed-loop controller, with
//! the do-no-harm bound checked per cell — and a naive controller as
//! the negative control proving the faults have real teeth.
//!
//! Layout:
//! - one scored world per (scenario, family) for the guarded rule
//!   controller, each compared against the fault-independent no-op
//!   baseline (the no-op controller never acts, so every fault is
//!   invisible to it — one baseline run per scenario suffices);
//! - family-specific structural assertions (discarded tampered
//!   snapshots, bounded retries, journal-backed crash recovery);
//! - three families driven through the naive controller, which must do
//!   demonstrably *worse* than no-op — if the faults were toothless,
//!   surviving them would prove nothing.

use ml4db_ctl::world::RETRY_LIMIT;
use ml4db_ctl::{
    run_world, CtlWorldConfig, NaiveController, NoopController, RuleController, WorldReport,
};
use ml4db_datagen::{ScenarioKind, ScenarioSpec, ShiftKind};
use ml4db_ctl::chaos::CtlFault;

const TIE_EPS: f64 = 1e-6;

/// The chaos scenario panel: one shift (retrain genuinely promotes),
/// one drift-heavy benign, one adversarial plan trap.
fn panel() -> [ScenarioSpec; 3] {
    [
        ScenarioSpec::new(ScenarioKind::Shift(ShiftKind::BulkDelete), 11),
        ScenarioSpec::new(ScenarioKind::SkewStorm, 11),
        ScenarioSpec::new(ScenarioKind::PlanRegressionTrap, 11),
    ]
}

fn noop_baseline(spec: ScenarioSpec) -> WorldReport {
    // The no-op controller takes no actions, so no fault family can
    // touch its world: CtlFault::None is the baseline for all of them.
    run_world(spec, &mut NoopController, CtlFault::None, &CtlWorldConfig::smoke())
}

fn rule_under(spec: ScenarioSpec, fault: CtlFault) -> WorldReport {
    run_world(spec, &mut RuleController::new(), fault, &CtlWorldConfig::smoke())
}

#[test]
fn rule_controller_never_does_worse_than_noop_under_any_fault_family() {
    let cfg = CtlWorldConfig::smoke();
    for spec in panel() {
        let noop = noop_baseline(spec);
        for fault in CtlFault::all_families() {
            let rule = rule_under(spec, fault);
            assert!(
                rule.total_us <= noop.total_us + TIE_EPS,
                "{} under {}: rule {} > noop {} — do-no-harm violated",
                spec.name(),
                fault.name(),
                rule.total_us,
                noop.total_us
            );
            let budget = 3 * cfg.epochs as usize;
            assert!(
                rule.log.actions().count() <= budget,
                "{} under {}: {} actions exceeds the {} decision budget",
                spec.name(),
                fault.name(),
                rule.log.actions().count(),
                budget
            );
        }
    }
}

#[test]
fn lying_sensors_are_discarded_and_leave_the_world_untouched() {
    for spec in panel() {
        let noop = noop_baseline(spec);
        let rule = rule_under(spec, CtlFault::LyingSensors { from_epoch: 0 });
        // Every interval's digest fails: the controller must discard all
        // of them and degrade to exactly no-op.
        assert_eq!(rule.log.actions().count(), 0, "{}", spec.name());
        assert_eq!(
            rule.log.count_outcome("digest_mismatch"),
            CtlWorldConfig::smoke().epochs as usize,
            "{}",
            spec.name()
        );
        assert_eq!(rule.total_us, noop.total_us, "{}", spec.name());
        assert_eq!(rule.final_generation, 0);
    }
}

#[test]
fn sensor_blackout_degrades_to_noop_then_recovers() {
    let spec = panel()[0];
    let rule = rule_under(spec, CtlFault::SensorBlackout { from_epoch: 0, epochs: 2 });
    assert_eq!(rule.log.count_outcome("no_snapshot"), 2);
    // The dark epochs are pre-shift; once light returns the controller
    // still recovers the regime change in full.
    let lit = rule_under(spec, CtlFault::None);
    assert_eq!(rule.total_us, lit.total_us);
    assert_eq!(rule.log.count_outcome("rebuilt"), 1);
}

#[test]
fn poisoned_retrain_is_stopped_at_the_gate() {
    for spec in panel() {
        let noop = noop_baseline(spec);
        let rule = rule_under(spec, CtlFault::PoisonedRetrain);
        // Whatever the pipeline produced, nothing poisoned went live.
        assert_eq!(rule.log.count_outcome("promoted"), 0, "{}", spec.name());
        assert_eq!(rule.final_generation, 0, "{}", spec.name());
        assert!(rule.total_us <= noop.total_us + TIE_EPS, "{}", spec.name());
        // The retrain path was actually exercised on the shift scenario
        // (otherwise this test proves nothing).
        if matches!(spec.kind, ScenarioKind::Shift(_)) {
            assert!(rule.log.count_outcome("gate_rejected") >= 1);
        }
    }
}

#[test]
fn gate_rejecting_everything_leaves_the_incumbent_serving() {
    let spec = panel()[0];
    let rule = rule_under(spec, CtlFault::GateRejectsAll);
    assert_eq!(rule.log.count_outcome("promoted"), 0);
    assert!(rule.log.count_outcome("gate_rejected") >= 1);
    assert_eq!(rule.final_active, 0, "incumbent must still be serving");
    // Rejections feed exponential backoff: attempts stay bounded even
    // though the alarm persists all run.
    let retrains = rule.log.with_action("retrain").count();
    assert!(retrains <= 2, "{retrains} retrains despite rejection backoff");
}

#[test]
fn actuator_transients_retry_with_deterministic_backoff() {
    let spec = panel()[0];
    let rule = rule_under(spec, CtlFault::ActuatorTransient { times: 2 });
    // The armed transients hit the first action's first two attempts;
    // the bounded retry loop absorbs them: attempts 3, backoff 1+2.
    let first = rule.log.actions().next().expect("controller acted");
    assert_eq!(first.attempts, 3);
    assert_eq!(first.backoff_ticks, 3);
    assert_eq!(first.outcome, "rebuilt");
    // And the run still ends where the fault-free run ends.
    let clean = rule_under(spec, CtlFault::None);
    assert_eq!(rule.total_us, clean.total_us);
    assert_eq!(rule.final_active, clean.final_active);
}

#[test]
fn exhausted_actuator_budget_degrades_every_decision_to_noop() {
    let spec = panel()[0];
    let noop = noop_baseline(spec);
    // More transients than any bounded retry schedule can absorb: every
    // decision must exhaust, log, and leave the world untouched.
    let rule = rule_under(spec, CtlFault::ActuatorTransient { times: 10_000 });
    assert!(rule.log.actions().count() >= 1);
    for r in rule.log.actions() {
        assert_eq!(r.outcome, "transient_exhausted");
        assert_eq!(r.attempts, RETRY_LIMIT + 1);
        assert_eq!(r.pre_generation, r.post_generation);
    }
    assert_eq!(rule.total_us, noop.total_us);
    assert_eq!(rule.final_generation, 0);
    assert!(rule.final_stale, "no rebuild can have landed");
}

#[test]
fn action_storm_is_absorbed_by_hysteresis() {
    let cfg = CtlWorldConfig::smoke();
    for spec in panel() {
        let noop = noop_baseline(spec);
        let storm = rule_under(spec, CtlFault::ActionStorm { from_epoch: 0 });
        // The stutter fakes a drift alarm every epoch with a valid
        // digest; only cooldowns and backoff stand between that and a
        // retrain storm.
        assert!(
            storm.log.with_action("retrain").count() <= 1 + cfg.epochs as usize / 2,
            "{}: retrain storm not damped",
            spec.name()
        );
        // Storm-induced pre-shift retrains reproduce the incumbent from
        // identical data (data-derived training seeds), so even a
        // promotion is score-neutral: do-no-harm holds exactly.
        assert!(storm.total_us <= noop.total_us + TIE_EPS, "{}", spec.name());
        // It never fakes queue depth, so admission must never tighten.
        assert_eq!(storm.log.with_action("tighten_admission").count(), 0);
    }
}

#[test]
fn crash_mid_action_recovers_from_the_journal_idempotently() {
    let spec = panel()[0];
    let clean = rule_under(spec, CtlFault::None);

    // Crash on decision 1 (the index rebuild): the effect landed but the
    // outcome was never acknowledged, and the registry generation gives
    // recovery no evidence — it must re-execute, and re-execution must
    // be harmless (the index is already fresh).
    let crash1 = rule_under(spec, CtlFault::CrashMidAction { at_decision: 1 });
    assert!(crash1.crashed);
    assert_eq!(crash1.recovered_decisions, 1);
    let rec = crash1
        .log
        .records
        .iter()
        .find(|r| r.recovered)
        .expect("a recovered decision is logged");
    assert_eq!(rec.action, "rebuild_index");
    assert_eq!(rec.outcome, "noop_fresh", "re-execution sees the applied effect");
    assert_eq!(crash1.total_us, clean.total_us);
    assert_eq!(crash1.final_active, clean.final_active);
    assert!(!crash1.final_stale);

    // Crash on decision 2 (the gated retrain): the promotion bumped the
    // generation before the crash, so the journal's intent record plus
    // the generation mismatch prove the action applied — recovery must
    // acknowledge it, not retrain again.
    let crash2 = rule_under(spec, CtlFault::CrashMidAction { at_decision: 2 });
    assert!(crash2.crashed);
    let rec = crash2
        .log
        .records
        .iter()
        .find(|r| r.recovered)
        .expect("a recovered decision is logged");
    assert_eq!(rec.action, "retrain");
    assert_eq!(rec.outcome, "recovered_applied");
    assert!(rec.post_generation > 0);
    assert_eq!(crash2.total_us, clean.total_us);
    assert_eq!(crash2.final_active, clean.final_active);
    assert_eq!(crash2.final_generation, clean.final_generation);
}

/// The negative control: at least three fault families must demonstrably
/// wreck a controller without the guards — otherwise "the rule
/// controller survived them" is vacuous.
#[test]
fn naive_controller_is_harmed_by_at_least_three_families() {
    let spec = panel()[0];
    let noop = noop_baseline(spec);
    let mut harmed = Vec::new();
    for fault in [
        CtlFault::LyingSensors { from_epoch: 0 },
        CtlFault::PoisonedRetrain,
        CtlFault::ActionStorm { from_epoch: 0 },
    ] {
        let naive = run_world(spec, &mut NaiveController, fault, &CtlWorldConfig::smoke());
        if naive.total_us > noop.total_us + TIE_EPS {
            harmed.push(fault.name());
        }
    }
    assert!(
        harmed.len() >= 3,
        "only {harmed:?} harmed the naive controller — the chaos has no teeth"
    );
}

/// The same three families, one sharper assertion each: the *mechanism*
/// of harm is the one the guards remove.
#[test]
fn naive_harm_mechanisms_are_the_guarded_ones() {
    let spec = panel()[0];
    let cfg = CtlWorldConfig::smoke();

    // Lying sensors: the naive controller swallows fabricated shed and
    // regression counts — it tightens admission and flips arms on a
    // feed whose digest never verified.
    let lied =
        run_world(spec, &mut NaiveController, CtlFault::LyingSensors { from_epoch: 0 }, &cfg);
    assert!(lied.log.with_action("tighten_admission").count() >= 1);
    assert!(lied.log.with_action("flip_steering").count() >= 1);
    assert!(lied.final_admission > 0 || lied.final_arm != 0);

    // Poisoned retrain: the naive controller forges gate evidence, so
    // the poisoned candidate goes live.
    let poisoned = run_world(spec, &mut NaiveController, CtlFault::PoisonedRetrain, &cfg);
    assert!(poisoned.log.count_outcome("promoted") >= 1, "forged gate promotes");
    assert!(poisoned.final_generation > 0);

    // Action storm: no hysteresis, so the stutter translates straight
    // into repeated actuation.
    let stormed =
        run_world(spec, &mut NaiveController, CtlFault::ActionStorm { from_epoch: 0 }, &cfg);
    assert!(stormed.log.with_action("tighten_admission").count() >= 2);
}
