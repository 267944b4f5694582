//! Standing controller benchmark: noop vs rule vs oracle across the
//! workload zoo, with per-cell do-no-harm and shift gap-closure gates.
//! Each cell embeds the rule controller's decision-log fingerprint.

use ml4db_core::ctl::{run_ctl_matrix, CtlWorldConfig};
use ml4db_core::obs;

use crate::Outcome;

/// Zoo master seed of the committed artifact.
const SEED: u64 = 42;

pub fn run() -> Outcome {
    // The world manages collection itself (ModeGuard::collect per run);
    // outside runs the collector idles in Noop like the other suites.
    let _mode = obs::ModeGuard::new(obs::Mode::Noop);
    let cfg =
        CtlWorldConfig { base_rows: 160, train_n: 14, eval_n: 10, ..Default::default() };
    let report = run_ctl_matrix(SEED, &cfg);

    let (noop, ctl, oracle) = report.totals();
    eprintln!(
        "ctl: {} scenarios x 3 controllers (bits {:016x})",
        report.cells.len(),
        report.bits()
    );
    eprintln!(
        "  aggregate noop {noop:.0}us  ctl {ctl:.0}us  oracle {oracle:.0}us  \
         (ctl recovers {:.0}% of the noop->oracle gap)",
        if noop - oracle > 1e-6 { 100.0 * (noop - ctl) / (noop - oracle) } else { 100.0 }
    );
    for c in report.cells.iter().filter(|c| !c.no_harm) {
        eprintln!("  HARMED: {} ctl {:.0}us > noop {:.0}us", c.scenario, c.ctl_us, c.noop_us);
    }
    for c in report.cells.iter().filter(|c| c.shift) {
        eprintln!(
            "  shift {}: noop {:.0}us ctl {:.0}us oracle {:.0}us closure {}",
            c.scenario,
            c.noop_us,
            c.ctl_us,
            c.oracle_us,
            c.gap_closure.map_or("n/a".into(), |g| format!("{:.0}%", 100.0 * g)),
        );
    }
    Outcome { json: report.to_canonical_json(), pass: report.pass() }
}
