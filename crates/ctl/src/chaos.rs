//! Controller-targeted chaos: fault families aimed at the autonomous
//! controller itself rather than at the learned components it manages.
//!
//! The closed-loop controller is one more unreliable component: its
//! sensors can lie, its actuators can fail, its triggers can stutter,
//! and it can crash between deciding and acting. This module holds the
//! *fault vocabulary* — the family enum, deterministic
//! snapshot-corruption functions, and the actuator fault clock — beside
//! the harness that drives a controller through them ([`crate::world`]),
//! its only reader.
//!
//! Every fault is a pure function of its parameters: corruption edits
//! fixed fields by fixed amounts, and the actuator clock is a counted
//! budget, so a chaos run is exactly as deterministic as a clean one.

use ml4db_obs::HealthSnapshot;

/// One controller-targeted fault family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CtlFault {
    /// No fault: the baseline the chaos families are compared against.
    None,
    /// Sensors lie: every snapshot delivered from `from_epoch` on is
    /// corrupted *after* sealing ([`lie_in_snapshot`]), so the digest no
    /// longer matches. A guarded controller notices
    /// (`SealedSnapshot::verify` fails) and discards the interval; a
    /// naive controller acts on fabricated drift, regressions, and
    /// admission pressure.
    LyingSensors {
        /// First control epoch whose snapshot is corrupted.
        from_epoch: u64,
    },
    /// Sensors go dark: no snapshot at all is delivered for `epochs`
    /// control intervals starting at `from_epoch`. The controller must
    /// degrade to no-op, not guess.
    SensorBlackout {
        /// First dark epoch.
        from_epoch: u64,
        /// Number of consecutive dark epochs.
        epochs: u64,
    },
    /// The retraining pipeline is poisoned: every candidate is trained
    /// on labels corrupted to cardinality 1 (the dangerous
    /// underestimate). The validation gate is the only defence — a
    /// controller that forges or skips gate evidence promotes garbage.
    PoisonedRetrain,
    /// The validation gate rejects every candidate (actuator failure:
    /// the gate scores arrive as `+inf`). A correct controller logs the
    /// rejection, leaves the incumbent serving, and backs off; it must
    /// never bypass the gate to "force" progress.
    GateRejectsAll,
    /// The next `times` actuator invocations fail transiently. A
    /// correct controller retries with bounded deterministic backoff
    /// and, if the budget outlasts its retry limit, degrades to no-op
    /// for the interval.
    ActuatorTransient {
        /// Number of consecutive actuator calls that fail.
        times: u32,
    },
    /// Trigger stutter: from `from_epoch` on, every snapshot is edited
    /// *before* sealing ([`storm_in_snapshot`]) to repeat a stale drift
    /// alarm and admission pressure each interval — the digest stays
    /// valid, so only hysteresis (cooldowns, rejection backoff) stands
    /// between the controller and an action storm.
    ActionStorm {
        /// First stuttering epoch.
        from_epoch: u64,
    },
    /// The controller process crashes between journaling a decision's
    /// intent and journaling its outcome (the action itself may or may
    /// not have applied). Recovery must replay the journal, resolve the
    /// in-flight intent idempotently, and end in a consistent state.
    CrashMidAction {
        /// 1-based index of the journaled decision whose outcome write
        /// crashes.
        at_decision: u64,
    },
}

impl CtlFault {
    /// Stable snake_case family name for logs and reports.
    pub fn name(&self) -> &'static str {
        match self {
            CtlFault::None => "none",
            CtlFault::LyingSensors { .. } => "lying_sensors",
            CtlFault::SensorBlackout { .. } => "sensor_blackout",
            CtlFault::PoisonedRetrain => "poisoned_retrain",
            CtlFault::GateRejectsAll => "gate_rejects_all",
            CtlFault::ActuatorTransient { .. } => "actuator_transient",
            CtlFault::ActionStorm { .. } => "action_storm",
            CtlFault::CrashMidAction { .. } => "crash_mid_action",
        }
    }

    /// The canonical chaos suite: one representative of every family,
    /// parameterized to bite (faults land at or before the regime
    /// change a controller would react to).
    pub fn all_families() -> [CtlFault; 7] {
        [
            CtlFault::LyingSensors { from_epoch: 0 },
            CtlFault::SensorBlackout { from_epoch: 0, epochs: 2 },
            CtlFault::PoisonedRetrain,
            CtlFault::GateRejectsAll,
            CtlFault::ActuatorTransient { times: 2 },
            CtlFault::ActionStorm { from_epoch: 0 },
            CtlFault::CrashMidAction { at_decision: 1 },
        ]
    }

    /// Whether snapshots from `epoch` are corrupted post-seal.
    pub fn lies_at(&self, epoch: u64) -> bool {
        matches!(self, CtlFault::LyingSensors { from_epoch } if epoch >= *from_epoch)
    }

    /// Whether the sensor feed is dark at `epoch`.
    pub fn dark_at(&self, epoch: u64) -> bool {
        matches!(self, CtlFault::SensorBlackout { from_epoch, epochs }
            if epoch >= *from_epoch && epoch < from_epoch + epochs)
    }

    /// Whether trigger stutter edits the snapshot pre-seal at `epoch`.
    pub fn storms_at(&self, epoch: u64) -> bool {
        matches!(self, CtlFault::ActionStorm { from_epoch } if epoch >= *from_epoch)
    }
}

/// The lying-sensor corruption, applied *after* sealing: fabricates the
/// exact signals a controller keys its most aggressive reactions on —
/// a screaming drift alarm, a regression storm, a fully stale index,
/// heavy shedding, and a steering-attributed latency collapse. Edits
/// are fixed increments of fixed fields: deterministic, and guaranteed
/// to change the canonical rendering (so a sealed digest breaks).
pub fn lie_in_snapshot(s: &mut HealthSnapshot) {
    *s.drift_checks.entry("card_estimator".to_string()).or_insert(0) += 64;
    *s.drift_fired.entry("card_estimator".to_string()).or_insert(0) += 64;
    s.queries = s.queries.saturating_add(100);
    s.regressions = s.regressions.saturating_add(100);
    let probes = s.index_probes.values().copied().sum::<u64>().max(1);
    *s.index_misses.entry("title_year".to_string()).or_insert(0) += probes;
    *s.index_probes.entry("title_year".to_string()).or_insert(0) += probes;
    let t = s.tenants.entry(0).or_default();
    t.shed = t.shed.saturating_add(100);
}

/// The action-storm stutter, applied *before* sealing (the upstream
/// sensor repeats a stale alarm, so the digest is valid): every
/// interval re-reports a drift alarm, regression pressure, and
/// admission pressure whether or not anything changed. Only hysteresis
/// protects the controller: a trigger-happy one retrains, flips
/// steering arms, and sheds real traffic every single interval.
pub fn storm_in_snapshot(s: &mut HealthSnapshot) {
    *s.drift_checks.entry("card_estimator".to_string()).or_insert(0) += 8;
    *s.drift_fired.entry("card_estimator".to_string()).or_insert(0) += 8;
    // Enough repeated regressions to cross a hair-trigger flip threshold
    // on a typical interval, without drowning the interval's real
    // counts (`queries` is left honest, so rates stay plausible).
    s.regressions = s.regressions.saturating_add(4);
    let t = s.tenants.entry(0).or_default();
    t.shed = t.shed.saturating_add(50);
}

/// A transient actuator failure, distinguishable from a rejection (the
/// action was *not* judged and refused — it never reached the target).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ActuatorTransient;

/// Counted-budget fault clock for actuator invocations, mirroring
/// `SimDisk`'s `ReadTransientAt`: the next `times` calls fail, then the
/// clock is exhausted. Deterministic by construction.
#[derive(Clone, Copy, Debug, Default)]
pub struct ActuatorClock {
    transient_left: u32,
    hits: u64,
}

impl ActuatorClock {
    /// A clock with no armed faults (every actuation succeeds).
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the next `times` actuator calls to fail transiently.
    pub fn arm_transient(&mut self, times: u32) {
        self.transient_left = times;
    }

    /// One actuator invocation: consumes a fault charge if any remain.
    pub fn actuate(&mut self) -> Result<(), ActuatorTransient> {
        if self.transient_left > 0 {
            self.transient_left -= 1;
            self.hits += 1;
            return Err(ActuatorTransient);
        }
        Ok(())
    }

    /// Total faults this clock has injected.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Remaining armed failures.
    pub fn remaining(&self) -> u32 {
        self.transient_left
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lie_breaks_a_sealed_digest() {
        let mut sealed = HealthSnapshot::new(4).seal();
        assert!(sealed.verify());
        lie_in_snapshot(&mut sealed.snapshot);
        assert!(!sealed.verify(), "post-seal corruption must be detectable");
        assert!(sealed.snapshot.drift_alarmed("card_estimator"));
        assert!(sealed.snapshot.regression_rate().unwrap() > 0.9);
        assert_eq!(sealed.snapshot.index_miss_rate("title_year"), Some(1.0));
        assert!(sealed.snapshot.shed_rate().unwrap() > 0.9);
    }

    #[test]
    fn storm_survives_sealing() {
        // Stutter happens upstream of the seal: the snapshot is "honestly
        // reported" garbage, so the digest must verify.
        let mut s = HealthSnapshot::new(9);
        storm_in_snapshot(&mut s);
        let sealed = s.seal();
        assert!(sealed.verify());
        assert!(sealed.snapshot.drift_alarmed("card_estimator"));
    }

    #[test]
    fn actuator_clock_is_a_counted_budget() {
        let mut clock = ActuatorClock::new();
        assert_eq!(clock.actuate(), Ok(()));
        clock.arm_transient(2);
        assert_eq!(clock.actuate(), Err(ActuatorTransient));
        assert_eq!(clock.actuate(), Err(ActuatorTransient));
        assert_eq!(clock.actuate(), Ok(()), "budget exhausts exactly");
        assert_eq!(clock.hits(), 2);
    }

    #[test]
    fn fault_windows_are_half_open() {
        let f = CtlFault::SensorBlackout { from_epoch: 2, epochs: 2 };
        assert!(!f.dark_at(1));
        assert!(f.dark_at(2));
        assert!(f.dark_at(3));
        assert!(!f.dark_at(4));
        let l = CtlFault::LyingSensors { from_epoch: 3 };
        assert!(!l.lies_at(2));
        assert!(l.lies_at(3));
        assert!(l.lies_at(u64::MAX));
        let s = CtlFault::ActionStorm { from_epoch: 1 };
        assert!(!s.storms_at(0));
        assert!(s.storms_at(5));
    }

    #[test]
    fn family_names_are_stable() {
        // Decision logs and chaos reports key on these strings.
        let names: Vec<&str> = CtlFault::all_families().iter().map(|f| f.name()).collect();
        assert_eq!(
            names,
            [
                "lying_sensors",
                "sensor_blackout",
                "poisoned_retrain",
                "gate_rejects_all",
                "actuator_transient",
                "action_storm",
                "crash_mid_action",
            ]
        );
    }
}
