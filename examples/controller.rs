//! Minimal closed loop, end to end: one shift scenario served epoch by
//! epoch while the do-no-harm controller watches sealed health
//! snapshots, rebuilds the stale index, and retrains behind the
//! validation gate — next to the no-op and change-point-oracle
//! baselines it is scored against.
//!
//! ```bash
//! cargo run --release --example controller
//! ```

use ml4db_core::ctl::world::{SHIFT_AT, TOLERANCE};
use ml4db_core::ctl::{
    run_world, CtlWorldConfig, NoopController, OracleController, RuleController,
};
use ml4db_core::datagen::{ScenarioKind, ScenarioSpec, ShiftKind};
use ml4db_core::ctl::chaos::CtlFault;

fn main() {
    let cfg = CtlWorldConfig::default();
    let spec = ScenarioSpec::new(ScenarioKind::Shift(ShiftKind::BulkDelete), 11);

    let noop = run_world(spec, &mut NoopController, CtlFault::None, &cfg);
    let rule = run_world(spec, &mut RuleController::new(), CtlFault::None, &cfg);
    let oracle = run_world(spec, &mut OracleController::new(SHIFT_AT), CtlFault::None, &cfg);

    println!(
        "closed loop on {} (shift lands at epoch {}, gate tolerance {:.0}%)\n",
        spec.name(),
        SHIFT_AT,
        TOLERANCE * 100.0
    );
    println!("{:<8} {:>12} {:>12} {:>12}", "epoch", "noop_us", "ctl_us", "oracle_us");
    for e in 0..cfg.epochs as usize {
        println!(
            "{:<8} {:>12.0} {:>12.0} {:>12.0}",
            e, noop.per_epoch_us[e], rule.per_epoch_us[e], oracle.per_epoch_us[e]
        );
    }
    println!(
        "{:<8} {:>12.0} {:>12.0} {:>12.0}\n",
        "total", noop.total_us, rule.total_us, oracle.total_us
    );

    println!("controller decision log (decisions journaled before and after execution):");
    for r in &rule.log.records {
        if r.action == "observe" {
            println!("  epoch {}: observe -> {}", r.epoch, r.outcome);
        } else {
            println!(
                "  epoch {}: #{} {}({}) -> {} [attempts {} backoff {} gen {}->{}]",
                r.epoch,
                r.seq,
                r.action,
                r.arg,
                r.outcome,
                r.attempts,
                r.backoff_ticks,
                r.pre_generation,
                r.post_generation
            );
        }
    }
    println!(
        "\nfinal: generation {} active v{} arm {} stale {} (log bits {:016x})",
        rule.final_generation,
        rule.final_active,
        rule.final_arm,
        rule.final_stale,
        rule.log.bits()
    );
    let gap = noop.total_us - oracle.total_us;
    if gap > 1e-6 {
        println!(
            "gap closure: {:.0}% of the noop->oracle recovery gap",
            100.0 * (noop.total_us - rule.total_us) / gap
        );
    }
}
