//! The controllers: the fixed action vocabulary, the decision trait,
//! and four variants — the guarded rule controller, the no-op floor,
//! the clairvoyant oracle ceiling, and the deliberately unguarded
//! naive controller (the chaos suite's negative control).
//!
//! A controller only ever *proposes* actions; the world's executor
//! carries them out through the existing gate/guard interfaces, so
//! do-no-harm is structural: a proposal the validation gate rejects is
//! a logged no-op, never a regression.

use ml4db_obs::SealedSnapshot;

/// The learned component every controller in this crate manages.
pub const COMPONENT: &str = "card_estimator";

/// The secondary-index staleness signal's index name.
pub const INDEX: &str = "title_year";

/// The fixed action vocabulary. Every variant is executed through an
/// existing validated interface (registry gate, staleness check,
/// steering arm table, cache epoch, admission level) — there is no
/// "raw write" action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Train a candidate on the live stream, replay it in shadow, and
    /// promote it through the validation gate. Gate rejection is a
    /// logged no-op.
    Retrain,
    /// Roll the serving model back to the registry's last-good version.
    /// A no-op when last-good is already serving (the missing-rollback-
    /// target actuator fault reduces to this case).
    Rollback,
    /// Rebuild the stale secondary index. Validated against the
    /// staleness state: rebuilding a fresh index is a logged no-op.
    RebuildIndex,
    /// Switch the plan-steering hint arm to `to`.
    FlipSteering {
        /// Target arm index in the world's arm table.
        to: usize,
    },
    /// Clear the plan cache (belt-and-braces after a rollback; the
    /// generation fold already strands stale entries).
    FlushPlanCache,
    /// Raise the admission level by one (shed more of the tail).
    TightenAdmission,
}

impl Action {
    /// Stable snake_case name for logs and events.
    pub fn name(&self) -> &'static str {
        match self {
            Action::Retrain => "retrain",
            Action::Rollback => "rollback",
            Action::RebuildIndex => "rebuild_index",
            Action::FlipSteering { .. } => "flip_steering",
            Action::FlushPlanCache => "flush_plan_cache",
            Action::TightenAdmission => "tighten_admission",
        }
    }

    /// The action's log argument (steering target), `-1` when none.
    pub fn arg(&self) -> i64 {
        match self {
            Action::FlipSteering { to } => *to as i64,
            _ => -1,
        }
    }

    /// Rebuilds an action from its journaled `(name, arg)` pair — the
    /// crash-recovery path's inverse of [`Action::name`]/[`Action::arg`].
    pub fn from_journal(name: &str, arg: i64) -> Option<Action> {
        Some(match name {
            "retrain" => Action::Retrain,
            "rollback" => Action::Rollback,
            "rebuild_index" => Action::RebuildIndex,
            "flip_steering" => Action::FlipSteering { to: usize::try_from(arg).ok()? },
            "flush_plan_cache" => Action::FlushPlanCache,
            "tighten_admission" => Action::TightenAdmission,
            _ => return None,
        })
    }
}

/// Cheap actuator-side facts a controller may read directly (registry
/// pointers and the steering arm are the controller's own state, not
/// sensor data — they cannot lie).
#[derive(Clone, Copy, Debug)]
pub struct CtlView {
    /// Current control epoch.
    pub epoch: u64,
    /// Serving model version id.
    pub active_id: u32,
    /// Last-good (rollback target) version id.
    pub last_good_id: u32,
    /// Registry generation.
    pub generation: u64,
    /// Current steering arm index (0 = the expert's full hint set).
    pub arm: usize,
}

/// What a controller decided for one control epoch: the observation
/// verdict (always logged) and the actions to execute.
#[derive(Clone, Debug, PartialEq)]
pub struct Decision {
    /// Why the controller did (or did not) act: "ok", "idle",
    /// "no_snapshot", or "digest_mismatch".
    pub observation: &'static str,
    /// Proposed actions, in execution order.
    pub actions: Vec<Action>,
}

impl Decision {
    fn idle(observation: &'static str) -> Self {
        Self { observation, actions: Vec::new() }
    }
}

/// A closed-loop controller: reads one sealed health snapshot per
/// control epoch, proposes actions, and learns outcomes back.
pub trait Controller {
    /// Stable variant name ("rule", "noop", "oracle", "naive").
    fn name(&self) -> &'static str;

    /// Decides this epoch's actions from the (possibly missing,
    /// possibly tampered) snapshot.
    fn decide(&mut self, view: &CtlView, snapshot: Option<&SealedSnapshot>) -> Decision;

    /// Learns an executed action's outcome (hysteresis state).
    fn observe_outcome(&mut self, _epoch: u64, _action: Action, _outcome: &'static str) {}

    /// Whether the world's executor should let this controller forge
    /// gate evidence (the naive negative control). The rule and oracle
    /// controllers never forge; structurally they cannot promote a
    /// candidate the gate rejects.
    fn forges_gate(&self) -> bool {
        false
    }

    /// Drops in-memory hysteresis state, as a process crash would. The
    /// world's recovery path calls this, then replays the journaled
    /// outcomes through [`Controller::observe_outcome`].
    fn reset(&mut self) {}
}

// ---------------------------------------------------------------------------
// No-op floor
// ---------------------------------------------------------------------------

/// The do-nothing controller: the floor every other variant is measured
/// against. Its serving score is exactly "incumbent forever".
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopController;

impl Controller for NoopController {
    fn name(&self) -> &'static str {
        "noop"
    }

    fn decide(&mut self, _view: &CtlView, _snapshot: Option<&SealedSnapshot>) -> Decision {
        Decision::idle("idle")
    }
}

// ---------------------------------------------------------------------------
// The guarded rule controller
// ---------------------------------------------------------------------------

/// The production controller: deterministic threshold rules over the
/// sealed snapshot, with the defensive habits the chaos suite attacks:
///
/// * **digest verification** — a snapshot whose seal fails to verify is
///   discarded (lying sensors become a blackout, not a trigger);
/// * **blackout degradation** — no snapshot, no action;
/// * **hysteresis** — a retrain cooldown after every promotion, and
///   exponentially growing backoff after consecutive gate rejections,
///   so trigger storms cannot become action storms and
///   retrain→rollback→retrain flapping is structurally damped;
/// * **conservative triggers** — admission is tightened only on deep
///   queue evidence (never on shed counts alone, which a stuttering
///   sensor fabricates cheaply), and steering flips only *toward* the
///   expert arm.
#[derive(Clone, Debug)]
pub struct RuleController {
    /// Epochs to wait after a promotion before retraining again.
    pub cooldown: u64,
    /// Queue depth above which admission is tightened.
    pub queue_threshold: u32,
    backoff_until: u64,
    reject_streak: u32,
    promoted_at: Option<u64>,
}

impl RuleController {
    /// A controller with the default hysteresis (cooldown 2 epochs,
    /// queue threshold 48).
    pub fn new() -> Self {
        Self {
            cooldown: 2,
            queue_threshold: 48,
            backoff_until: 0,
            reject_streak: 0,
            promoted_at: None,
        }
    }

    /// Epoch before which retraining is suppressed (hysteresis state,
    /// exposed for tests).
    pub fn backoff_until(&self) -> u64 {
        self.backoff_until
    }
}

impl Default for RuleController {
    fn default() -> Self {
        Self::new()
    }
}

impl Controller for RuleController {
    fn name(&self) -> &'static str {
        "rule"
    }

    fn decide(&mut self, view: &CtlView, snapshot: Option<&SealedSnapshot>) -> Decision {
        let Some(sealed) = snapshot else {
            return Decision::idle("no_snapshot");
        };
        if !sealed.verify() {
            // A tampered interval carries no information; acting on it
            // would launder the lie into an actuation.
            return Decision::idle("digest_mismatch");
        }
        let s = &sealed.snapshot;
        let mut actions = Vec::new();

        if s.index_miss_rate(INDEX).is_some_and(|r| r > 0.5) {
            actions.push(Action::RebuildIndex);
        }

        // Post-promotion watchdog: if the interval right after a
        // promotion regresses badly and a distinct rollback target
        // exists, undo the promotion and strand its cached plans.
        let fresh_promotion =
            self.promoted_at.is_some_and(|p| view.epoch == p + 1);
        if fresh_promotion
            && view.active_id != view.last_good_id
            && s.regression_rate().is_some_and(|r| r > 0.5)
        {
            actions.push(Action::Rollback);
            actions.push(Action::FlushPlanCache);
        } else if s.drift_alarmed(COMPONENT) && view.epoch >= self.backoff_until {
            actions.push(Action::Retrain);
        }

        // Recovery flip only: step back toward the expert arm when the
        // current arm is regressing. Never flip away from arm 0.
        if view.arm != 0 && s.regression_rate().is_some_and(|r| r > 0.5) {
            actions.push(Action::FlipSteering { to: 0 });
        }

        if s.max_queue_depth > self.queue_threshold {
            actions.push(Action::TightenAdmission);
        }

        if actions.is_empty() {
            Decision::idle("idle")
        } else {
            Decision { observation: "ok", actions }
        }
    }

    fn observe_outcome(&mut self, epoch: u64, action: Action, outcome: &'static str) {
        match (action, outcome) {
            (Action::Retrain, "promoted") => {
                self.promoted_at = Some(epoch);
                self.reject_streak = 0;
                self.backoff_until = epoch + 1 + self.cooldown;
            }
            (Action::Retrain, "gate_rejected") => {
                // Exponential backoff on consecutive rejections: the
                // anti-flap half of the hysteresis.
                self.reject_streak = (self.reject_streak + 1).min(4);
                self.backoff_until =
                    epoch + 1 + (self.cooldown << self.reject_streak);
            }
            (Action::Retrain, "transient_exhausted") => {
                // The actuator is sick; do not hammer it next epoch.
                self.backoff_until = self.backoff_until.max(epoch + 2);
            }
            (Action::Rollback, "rolled_back") => {
                self.promoted_at = None;
                self.backoff_until = epoch + 1 + self.cooldown;
            }
            _ => {}
        }
    }

    fn reset(&mut self) {
        *self = Self { cooldown: self.cooldown, queue_threshold: self.queue_threshold, ..Self::new() };
    }
}

// ---------------------------------------------------------------------------
// Oracle ceiling
// ---------------------------------------------------------------------------

/// The clairvoyant controller: told the regime-change epoch out of
/// band, it acts at exactly the right moment and ignores sensors
/// entirely (so sensor faults cannot touch it). Still gated — the
/// oracle has perfect *timing*, not a license to skip validation.
#[derive(Clone, Copy, Debug)]
pub struct OracleController {
    /// The epoch the scenario regime lands (ground truth).
    pub shift_at: u64,
    promoted: bool,
}

impl OracleController {
    /// An oracle for a world whose regime changes at `shift_at`.
    pub fn new(shift_at: u64) -> Self {
        Self { shift_at, promoted: false }
    }
}

impl Controller for OracleController {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn decide(&mut self, view: &CtlView, _snapshot: Option<&SealedSnapshot>) -> Decision {
        // Act on the first regime epoch; retry once if the gate said no
        // (a rejected candidate means the incumbent is genuinely fine).
        if view.epoch >= self.shift_at && view.epoch <= self.shift_at + 1 && !self.promoted {
            let mut actions = vec![Action::RebuildIndex];
            actions.push(Action::Retrain);
            return Decision { observation: "ok", actions };
        }
        Decision::idle("idle")
    }

    fn observe_outcome(&mut self, _epoch: u64, action: Action, outcome: &'static str) {
        if action == Action::Retrain && outcome == "promoted" {
            self.promoted = true;
        }
    }
}

// ---------------------------------------------------------------------------
// Naive negative control
// ---------------------------------------------------------------------------

/// The unguarded controller the chaos suite exists to indict: trusts
/// snapshots without verifying their seal, reacts to every signal with
/// no cooldown, forges gate evidence so every candidate promotes, flips
/// steering arms blindly forward, and tightens admission on shed counts
/// alone. Under clean sensors it often looks fine — the fault families
/// are what separate it from [`RuleController`].
#[derive(Clone, Copy, Debug, Default)]
pub struct NaiveController;

impl Controller for NaiveController {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn decide(&mut self, view: &CtlView, snapshot: Option<&SealedSnapshot>) -> Decision {
        let Some(sealed) = snapshot else {
            return Decision::idle("no_snapshot");
        };
        // Bug under test: no verify() — a post-seal lie reads as truth.
        let s = &sealed.snapshot;
        let mut actions = Vec::new();
        if s.drift_alarmed(COMPONENT) {
            actions.push(Action::Retrain);
        }
        if s.index_miss_rate(INDEX).is_some_and(|r| r > 0.0) {
            actions.push(Action::RebuildIndex);
        }
        if s.regression_rate().is_some_and(|r| r > 0.25) {
            actions.push(Action::FlipSteering { to: (view.arm + 1) % 4 });
            actions.push(Action::FlushPlanCache);
        }
        if s.shed_rate().is_some_and(|r| r > 0.0) {
            actions.push(Action::TightenAdmission);
        }
        if actions.is_empty() {
            Decision::idle("idle")
        } else {
            Decision { observation: "ok", actions }
        }
    }

    fn forges_gate(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{lie_in_snapshot, storm_in_snapshot};
    use ml4db_obs::HealthSnapshot;

    fn view(epoch: u64) -> CtlView {
        CtlView { epoch, active_id: 0, last_good_id: 0, generation: 0, arm: 0 }
    }

    fn alarmed_snapshot(tick: u64) -> ml4db_obs::SealedSnapshot {
        let mut s = HealthSnapshot::new(tick);
        storm_in_snapshot(&mut s); // honest drift alarm, valid digest
        s.seal()
    }

    #[test]
    fn rule_discards_tampered_snapshots() {
        let mut ctl = RuleController::new();
        let mut sealed = HealthSnapshot::new(1).seal();
        lie_in_snapshot(&mut sealed.snapshot);
        let d = ctl.decide(&view(1), Some(&sealed));
        assert_eq!(d.observation, "digest_mismatch");
        assert!(d.actions.is_empty(), "a lie must not become an actuation");
    }

    #[test]
    fn rule_degrades_to_noop_on_blackout() {
        let mut ctl = RuleController::new();
        let d = ctl.decide(&view(0), None);
        assert_eq!(d.observation, "no_snapshot");
        assert!(d.actions.is_empty());
    }

    #[test]
    fn rule_retrains_on_verified_drift_with_cooldown() {
        let mut ctl = RuleController::new();
        let sealed = alarmed_snapshot(2);
        let d = ctl.decide(&view(2), Some(&sealed));
        assert!(d.actions.contains(&Action::Retrain));
        ctl.observe_outcome(2, Action::Retrain, "promoted");
        // Within the cooldown the same alarm is ignored.
        let d2 = ctl.decide(&view(3), Some(&alarmed_snapshot(3)));
        assert!(!d2.actions.contains(&Action::Retrain), "cooldown must hold");
        // After the cooldown it may fire again.
        let later = 3 + ctl.cooldown;
        let d3 = ctl.decide(&view(later), Some(&alarmed_snapshot(later)));
        assert!(d3.actions.contains(&Action::Retrain));
    }

    #[test]
    fn rule_backs_off_exponentially_on_rejections() {
        let mut ctl = RuleController::new();
        ctl.observe_outcome(0, Action::Retrain, "gate_rejected");
        let first = ctl.backoff_until();
        ctl.reset();
        ctl.observe_outcome(0, Action::Retrain, "gate_rejected");
        ctl.observe_outcome(first, Action::Retrain, "gate_rejected");
        assert!(
            ctl.backoff_until() - first > first,
            "consecutive rejections must grow the backoff window"
        );
    }

    #[test]
    fn rule_never_tightens_on_shed_counts_alone() {
        // The storm stutter fabricates shed counts but cannot fabricate
        // queue depth; the rule controller must not take the bait.
        let mut ctl = RuleController::new();
        let d = ctl.decide(&view(1), Some(&alarmed_snapshot(1)));
        assert!(!d.actions.contains(&Action::TightenAdmission));
    }

    #[test]
    fn rule_only_flips_toward_the_expert_arm() {
        let mut ctl = RuleController::new();
        let mut s = HealthSnapshot::new(1);
        s.queries = 10;
        s.regressions = 9;
        let sealed = s.seal();
        let mut v = view(1);
        v.arm = 2;
        let d = ctl.decide(&v, Some(&sealed));
        assert!(d.actions.contains(&Action::FlipSteering { to: 0 }));
        v.arm = 0;
        let d0 = ctl.decide(&v, Some(&sealed));
        assert!(
            !d0.actions.iter().any(|a| matches!(a, Action::FlipSteering { .. })),
            "already on the expert arm: no flip"
        );
    }

    #[test]
    fn naive_swallows_the_lie() {
        let mut naive = NaiveController;
        let mut sealed = HealthSnapshot::new(1).seal();
        lie_in_snapshot(&mut sealed.snapshot);
        let d = naive.decide(&view(1), Some(&sealed));
        assert!(d.actions.contains(&Action::Retrain));
        assert!(d.actions.contains(&Action::TightenAdmission));
        assert!(naive.forges_gate());
    }

    #[test]
    fn action_journal_roundtrip() {
        for a in [
            Action::Retrain,
            Action::Rollback,
            Action::RebuildIndex,
            Action::FlipSteering { to: 3 },
            Action::FlushPlanCache,
            Action::TightenAdmission,
        ] {
            assert_eq!(Action::from_journal(a.name(), a.arg()), Some(a));
        }
        assert_eq!(Action::from_journal("observe", -1), None);
    }
}
