//! The controller's decision log: every observation and every actuation,
//! in a canonical rendering that is byte-identical across
//! `ML4DB_THREADS` settings.
//!
//! The log is the controller's audit trail *and* its determinism
//! contract: a decision is a pure function of the (deterministic)
//! sealed snapshot stream and the controller's own replayed state, so
//! two runs of the same `(scenario, controller, fault, seed)` tuple
//! must produce the same bytes at any thread count. CI diffs the
//! rendering from both threading modes.

use std::collections::BTreeMap;

use ml4db_obs::digest::Fingerprint;
use serde_json::Value;

/// One logged controller decision: an observation verdict ("observe"
/// records, one per control epoch) or an executed action with its
/// outcome and retry accounting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DecisionRecord {
    /// Control epoch the decision belongs to.
    pub epoch: u64,
    /// 1-based sequence number across the run (0 for observe records).
    pub seq: u64,
    /// Action name ("observe", "retrain", "rollback", "rebuild_index",
    /// "flip_steering", "flush_plan_cache", "tighten_admission").
    pub action: &'static str,
    /// Action argument (steering target arm), `-1` when none.
    pub arg: i64,
    /// Outcome label ("promoted", "gate_rejected", "digest_mismatch",
    /// "transient_exhausted", ...).
    pub outcome: &'static str,
    /// Actuator attempts this decision took (1 = first try).
    pub attempts: u32,
    /// Deterministic backoff ticks spent on this decision's retries.
    pub backoff_ticks: u64,
    /// Registry generation before the action.
    pub pre_generation: u64,
    /// Registry generation after the action.
    pub post_generation: u64,
    /// Whether this outcome was resolved by crash recovery replaying
    /// the journal (rather than by the original in-flight execution).
    pub recovered: bool,
}

/// The full, ordered decision log of one controller run.
#[derive(Clone, Debug, PartialEq)]
pub struct DecisionLog {
    /// Scenario the run drove.
    pub scenario: &'static str,
    /// Controller variant ("rule", "noop", "oracle", "naive").
    pub controller: &'static str,
    /// Fault family in force ("none", "lying_sensors", ...).
    pub fault: &'static str,
    /// World seed.
    pub seed: u64,
    /// Records in decision order.
    pub records: Vec<DecisionRecord>,
}

impl DecisionLog {
    /// An empty log for one run.
    pub fn new(
        scenario: &'static str,
        controller: &'static str,
        fault: &'static str,
        seed: u64,
    ) -> Self {
        Self { scenario, controller, fault, seed, records: Vec::new() }
    }

    /// Appends a record.
    pub fn push(&mut self, r: DecisionRecord) {
        self.records.push(r);
    }

    /// Records whose action matches `action`.
    pub fn with_action<'a>(
        &'a self,
        action: &'a str,
    ) -> impl Iterator<Item = &'a DecisionRecord> + 'a {
        self.records.iter().filter(move |r| r.action == action)
    }

    /// Count of records whose outcome matches `outcome`.
    pub fn count_outcome(&self, outcome: &str) -> usize {
        self.records.iter().filter(|r| r.outcome == outcome).count()
    }

    /// Executed actions (everything except the per-epoch observe rows).
    pub fn actions(&self) -> impl Iterator<Item = &DecisionRecord> {
        self.records.iter().filter(|r| r.action != "observe")
    }

    /// Canonical JSON: sorted keys, integers only, no wall clock — a
    /// pure function of the run inputs.
    pub fn to_canonical_json(&self) -> Value {
        let num = Value::Number;
        let mut root: BTreeMap<String, Value> = BTreeMap::new();
        root.insert("scenario".into(), Value::String(self.scenario.into()));
        root.insert("controller".into(), Value::String(self.controller.into()));
        root.insert("fault".into(), Value::String(self.fault.into()));
        root.insert("seed".into(), num(self.seed as f64));
        root.insert(
            "records".into(),
            Value::Array(
                self.records
                    .iter()
                    .map(|r| {
                        let mut o: BTreeMap<String, Value> = BTreeMap::new();
                        o.insert("epoch".into(), num(r.epoch as f64));
                        o.insert("seq".into(), num(r.seq as f64));
                        o.insert("action".into(), Value::String(r.action.into()));
                        o.insert("arg".into(), num(r.arg as f64));
                        o.insert("outcome".into(), Value::String(r.outcome.into()));
                        o.insert("attempts".into(), num(f64::from(r.attempts)));
                        o.insert("backoff_ticks".into(), num(r.backoff_ticks as f64));
                        o.insert("pre_generation".into(), num(r.pre_generation as f64));
                        o.insert("post_generation".into(), num(r.post_generation as f64));
                        o.insert("recovered".into(), Value::Bool(r.recovered));
                        Value::Object(o)
                    })
                    .collect(),
            ),
        );
        Value::Object(root)
    }

    /// The canonical rendering as one string — the byte-compare surface.
    pub fn canonical_string(&self) -> String {
        self.to_canonical_json().to_string()
    }

    /// 64-bit fingerprint of the canonical string.
    pub fn bits(&self) -> u64 {
        Fingerprint::new().str(&self.canonical_string()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64) -> DecisionRecord {
        DecisionRecord {
            epoch: 3,
            seq,
            action: "retrain",
            arg: -1,
            outcome: "promoted",
            attempts: 2,
            backoff_ticks: 1,
            pre_generation: 0,
            post_generation: 1,
            recovered: false,
        }
    }

    #[test]
    fn canonical_rendering_is_stable_and_ordered() {
        let mut a = DecisionLog::new("shift_bulk_insert", "rule", "none", 42);
        a.push(record(1));
        a.push(record(2));
        let mut b = DecisionLog::new("shift_bulk_insert", "rule", "none", 42);
        b.push(record(1));
        b.push(record(2));
        assert_eq!(a.canonical_string(), b.canonical_string());
        assert_eq!(a.bits(), b.bits());
        // Order is semantic: swapping records must change the bytes.
        let mut c = DecisionLog::new("shift_bulk_insert", "rule", "none", 42);
        c.push(record(2));
        c.push(record(1));
        assert_ne!(a.canonical_string(), c.canonical_string());
    }

    #[test]
    fn filters_separate_observations_from_actions() {
        let mut log = DecisionLog::new("skew_storm", "rule", "none", 7);
        log.push(DecisionRecord { action: "observe", outcome: "idle", seq: 0, ..record(0) });
        log.push(record(1));
        assert_eq!(log.actions().count(), 1);
        assert_eq!(log.with_action("observe").count(), 1);
        assert_eq!(log.count_outcome("promoted"), 1);
    }
}
