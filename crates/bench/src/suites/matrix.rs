//! Standing evaluation matrix: every optimizer policy × every
//! workload-zoo scenario, scored against per-cell regression budgets.

use ml4db_core::matrix::{run_matrix, MatrixConfig};
use ml4db_core::obs;

use crate::Outcome;

pub fn run() -> Outcome {
    let _mode = obs::ModeGuard::new(obs::Mode::Noop);
    let report = run_matrix(&MatrixConfig::default());

    let enforced_over: Vec<String> = report
        .cells
        .iter()
        .filter(|c| c.budget.enforced && !c.within_budget)
        .map(|c| format!("{}/{}", c.scenario, c.policy))
        .collect();
    let canary_over = report
        .cells
        .iter()
        .filter(|c| !c.budget.enforced && !c.within_budget)
        .count();
    eprintln!(
        "matrix: {} scenarios x {} policies = {} cells (bits {:016x})",
        report.scenarios,
        report.policies,
        report.cells.len(),
        report.bits()
    );
    for p in &report.probes {
        eprintln!(
            "  probe {} vs {}: unguarded {:.2} (>= {:.2}: {}), guarded {:.2} (<= {:.2}: {})",
            p.scenario,
            p.component,
            p.unguarded_metric,
            p.threshold,
            if p.defeated { "defeated" } else { "SURVIVED" },
            p.guarded_metric,
            p.guarded_budget,
            if p.guarded_ok { "ok" } else { "OVER" },
        );
    }
    eprintln!(
        "  enforced over budget: {enforced_over:?}; adversarial canaries over: {canary_over}"
    );
    Outcome { json: report.to_canonical_json(), pass: report.pass() }
}
