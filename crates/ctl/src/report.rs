//! The standing controller evaluation: every zoo scenario driven three
//! ways — no-op, the guarded rule controller, and the oracle that knows
//! the change point — with per-cell do-no-harm checks and gap-closure
//! scoring on the shift family.
//!
//! `BENCH_ctl.json` is this report's canonical rendering; CI regenerates
//! it under both threading modes and byte-compares, so every number here
//! (including each cell's decision-log fingerprint) doubles as a
//! determinism check.

use std::collections::BTreeMap;

use serde_json::Value;

use ml4db_datagen::{ScenarioKind, ScenarioSpec};
use ml4db_obs::digest::Fingerprint;
use ml4db_optimizer::harness::{DRIFT_THRESHOLD, MSCN_HIDDEN};

use crate::chaos::CtlFault;
use crate::controller::{NoopController, OracleController, RuleController};
use crate::world::{
    run_world, CtlWorldConfig, INDEX_PENALTY_US, RETRY_LIMIT, SHED_PENALTY, SHIFT_AT, TOLERANCE,
};

/// Gap below which noop and oracle are considered tied and gap closure
/// is vacuous (the controller has nothing to recover).
const TIE_EPS: f64 = 1e-6;

/// One scenario scored under all three controllers.
#[derive(Clone, Debug)]
pub struct CtlCell {
    /// Scenario name.
    pub scenario: &'static str,
    /// Whether the scenario is one of the zoo's adversarial four.
    pub adversarial: bool,
    /// Whether the scenario is a data/workload shift (the gap-closure
    /// acceptance family).
    pub shift: bool,
    /// Total serving score under the no-op controller (µs).
    pub noop_us: f64,
    /// Total serving score under the rule controller (µs).
    pub ctl_us: f64,
    /// Total serving score under the oracle controller (µs).
    pub oracle_us: f64,
    /// Fraction of the noop→oracle gap the rule controller closed;
    /// `None` when noop and oracle tie (nothing to close).
    pub gap_closure: Option<f64>,
    /// Executed (non-observe) decisions the rule controller took.
    pub ctl_decisions: u64,
    /// Rule controller's decision-log fingerprint (thread invariant).
    pub ctl_log_bits: u64,
    /// Do-no-harm held: ctl ≤ noop on this cell.
    pub no_harm: bool,
}

/// The controller matrix over one zoo seed.
#[derive(Clone, Debug)]
pub struct CtlMatrixReport {
    /// Zoo master seed.
    pub seed: u64,
    /// World knobs echo (folded into every cell).
    pub config: CtlWorldConfig,
    /// One cell per zoo scenario, canonical zoo order.
    pub cells: Vec<CtlCell>,
}

impl CtlMatrixReport {
    /// Aggregate totals: (noop, ctl, oracle) summed over all cells.
    pub fn totals(&self) -> (f64, f64, f64) {
        self.cells.iter().fold((0.0, 0.0, 0.0), |(n, c, o), cell| {
            (n + cell.noop_us, c + cell.ctl_us, o + cell.oracle_us)
        })
    }

    /// The verdict CI gates on:
    /// 1. do-no-harm on **every** cell (ctl ≤ noop, adversarial included),
    /// 2. the controller strictly beats no-op on aggregate,
    /// 3. every shift cell with a real noop→oracle gap closes ≥ 50% of it,
    /// 4. the decision budget holds (≤ 3 executed actions per epoch per
    ///    cell — no action storms from our own controller).
    pub fn pass(&self) -> bool {
        let (noop, ctl, _) = self.totals();
        let budget = 3 * self.config.epochs;
        self.cells.iter().all(|c| c.no_harm)
            && ctl < noop
            && self
                .cells
                .iter()
                .filter(|c| c.shift)
                .all(|c| c.gap_closure.map_or(true, |g| g >= 0.5))
            && self.cells.iter().all(|c| c.ctl_decisions <= budget)
    }

    /// The cell for `scenario`, if present.
    pub fn cell(&self, scenario: &str) -> Option<&CtlCell> {
        self.cells.iter().find(|c| c.scenario == scenario)
    }

    /// Canonical JSON: sorted keys, no wall clock — a pure function of
    /// `(seed, config)`, byte-identical across `ML4DB_THREADS`.
    pub fn to_canonical_json(&self) -> Value {
        let num = Value::Number;
        let mut root: BTreeMap<String, Value> = BTreeMap::new();
        root.insert("seed".into(), num(self.seed as f64));
        let mut cfg: BTreeMap<String, Value> = BTreeMap::new();
        cfg.insert("base_rows".into(), num(self.config.base_rows as f64));
        cfg.insert("train_n".into(), num(self.config.train_n as f64));
        cfg.insert("eval_n".into(), num(self.config.eval_n as f64));
        cfg.insert("epochs".into(), num(self.config.epochs as f64));
        cfg.insert("shift_at".into(), num(SHIFT_AT as f64));
        cfg.insert("hidden".into(), num(MSCN_HIDDEN as f64));
        cfg.insert("train_epochs".into(), num(self.config.train_epochs as f64));
        cfg.insert("tolerance".into(), num(TOLERANCE));
        cfg.insert("drift_threshold".into(), num(DRIFT_THRESHOLD));
        cfg.insert("retry_limit".into(), num(f64::from(RETRY_LIMIT)));
        cfg.insert("index_penalty_us".into(), num(INDEX_PENALTY_US));
        cfg.insert("shed_penalty".into(), num(SHED_PENALTY));
        root.insert("config".into(), Value::Object(cfg));
        root.insert(
            "cells".into(),
            Value::Array(
                self.cells
                    .iter()
                    .map(|c| {
                        let mut o: BTreeMap<String, Value> = BTreeMap::new();
                        o.insert("scenario".into(), Value::String(c.scenario.into()));
                        o.insert("adversarial".into(), Value::Bool(c.adversarial));
                        o.insert("shift".into(), Value::Bool(c.shift));
                        o.insert("noop_us".into(), num(c.noop_us));
                        o.insert("ctl_us".into(), num(c.ctl_us));
                        o.insert("oracle_us".into(), num(c.oracle_us));
                        o.insert(
                            "gap_closure".into(),
                            c.gap_closure.map_or(Value::Null, num),
                        );
                        o.insert("ctl_decisions".into(), num(c.ctl_decisions as f64));
                        o.insert(
                            "ctl_log_bits".into(),
                            Value::String(format!("{:016x}", c.ctl_log_bits)),
                        );
                        o.insert("no_harm".into(), Value::Bool(c.no_harm));
                        Value::Object(o)
                    })
                    .collect(),
            ),
        );
        let (noop, ctl, oracle) = self.totals();
        let mut agg: BTreeMap<String, Value> = BTreeMap::new();
        agg.insert("noop_us".into(), num(noop));
        agg.insert("ctl_us".into(), num(ctl));
        agg.insert("oracle_us".into(), num(oracle));
        root.insert("aggregate".into(), Value::Object(agg));
        root.insert("pass".into(), Value::Bool(self.pass()));
        Value::Object(root)
    }

    /// 64-bit fingerprint of the canonical rendering.
    pub fn bits(&self) -> u64 {
        Fingerprint::new().str(&self.to_canonical_json().to_string()).finish()
    }
}

/// Drives noop / rule / oracle through every zoo scenario (fault-free)
/// and scores the cells. Each run constructs its controller fresh:
/// hysteresis never leaks across scenarios.
pub fn run_ctl_matrix(seed: u64, cfg: &CtlWorldConfig) -> CtlMatrixReport {
    let cells = ScenarioSpec::zoo(seed)
        .into_iter()
        .map(|spec| {
            let noop = run_world(spec, &mut NoopController, CtlFault::None, cfg);
            let rule = run_world(spec, &mut RuleController::new(), CtlFault::None, cfg);
            let oracle =
                run_world(spec, &mut OracleController::new(SHIFT_AT), CtlFault::None, cfg);
            let gap = noop.total_us - oracle.total_us;
            CtlCell {
                scenario: spec.name(),
                adversarial: spec.is_adversarial(),
                shift: matches!(spec.kind, ScenarioKind::Shift(_)),
                noop_us: noop.total_us,
                ctl_us: rule.total_us,
                oracle_us: oracle.total_us,
                gap_closure: (gap > TIE_EPS)
                    .then(|| (noop.total_us - rule.total_us) / gap),
                ctl_decisions: rule.log.actions().count() as u64,
                ctl_log_bits: rule.log.bits(),
                no_harm: rule.total_us <= noop.total_us + TIE_EPS,
            }
        })
        .collect();
    CtlMatrixReport { seed, config: *cfg, cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_rendering_is_deterministic() {
        let report = CtlMatrixReport {
            seed: 7,
            config: CtlWorldConfig::default(),
            cells: vec![CtlCell {
                scenario: "shift_bulk_insert",
                adversarial: false,
                shift: true,
                noop_us: 100.0,
                ctl_us: 60.0,
                oracle_us: 50.0,
                gap_closure: Some(0.8),
                ctl_decisions: 3,
                ctl_log_bits: 0xdead_beef,
                no_harm: true,
            }],
        };
        assert_eq!(report.bits(), report.bits());
        assert!(report.pass());
        let s = report.to_canonical_json().to_string();
        assert!(s.contains("\"ctl_log_bits\":\"00000000deadbeef\""));
    }

    #[test]
    fn pass_fails_on_harm_or_weak_gap_closure() {
        let mut report = CtlMatrixReport {
            seed: 7,
            config: CtlWorldConfig::default(),
            cells: vec![CtlCell {
                scenario: "shift_bulk_insert",
                adversarial: false,
                shift: true,
                noop_us: 100.0,
                ctl_us: 90.0,
                oracle_us: 50.0,
                gap_closure: Some(0.2),
                ctl_decisions: 3,
                ctl_log_bits: 0,
                no_harm: true,
            }],
        };
        assert!(!report.pass(), "20% gap closure on a shift cell must fail");
        report.cells[0].gap_closure = Some(0.9);
        report.cells[0].no_harm = false;
        assert!(!report.pass(), "a harmed cell must fail");
    }
}
