//! Walks the full model lifecycle under an injected workload shift, for
//! every seeded shift scenario: incumbent degrades → drift fires →
//! retrain → validation gate → promotion (plan-cache epoch bump, drift
//! rebaseline) → sabotaged candidate rejected.
//!
//! ```bash
//! cargo run --release --example shift_recovery
//! ```

use ml4db_core::datagen::ShiftScenario;
use ml4db_core::optimizer::harness::{DRIFT_THRESHOLD, GATE_TOLERANCE};
use ml4db_core::optimizer::{run_shift_recovery, ShiftRecoveryConfig};

fn main() {
    let cfg = ShiftRecoveryConfig::default();
    println!(
        "model lifecycle under workload shift (gate tolerance {:.0}%, \
         drift threshold {})\n",
        GATE_TOLERANCE * 100.0,
        DRIFT_THRESHOLD
    );
    println!(
        "{:<22} {:>8} {:>8} {:>9} {:>6} {:>6} {:>9} {:>9} {:>9} {:>9}",
        "scenario",
        "pre",
        "shifted",
        "recovered",
        "drift",
        "rearm",
        "cand",
        "incumbent",
        "baseline",
        "sabotage"
    );
    for scenario in ShiftScenario::all(7) {
        let r = run_shift_recovery(scenario, &cfg);
        println!(
            "{:<22} {:>8.3} {:>8.3} {:>9.3} {:>6} {:>6} {:>9.0} {:>9.0} {:>9.0} {:>9}",
            r.scenario,
            r.pre_err,
            r.shift_err,
            r.recovered_err,
            if r.drift_fired { "fired" } else { "quiet" },
            if r.drift_rearmed { "ok" } else { "NO" },
            r.candidate_score,
            r.incumbent_score,
            r.baseline_score,
            if r.sabotage_rejected { "rejected" } else { "PROMOTED" },
        );
        assert!(r.promoted && r.sabotage_rejected, "lifecycle invariant broken");
    }
    println!(
        "\ncolumns pre/shifted/recovered are mean |ln q-error| of the serving \
         estimator;\ncand/incumbent/baseline are total holdout latency (µs) as \
         scored by the gate."
    );
}
