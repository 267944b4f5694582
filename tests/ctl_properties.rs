//! Property tests for the closed-loop controller: the decision log is a
//! pure function of the run inputs (byte-identical at any thread
//! count), and the guarded controller never does worse than no-op on
//! any cell it is pointed at. Also here: the `tests/golden/ctl.json`
//! snapshot of the smoke-scale controller matrix, so a drift in any
//! cell's score or decision-log fingerprint fails tier-1 instead of only
//! the full-scale `BENCH_ctl.json` comparison in CI. Regenerate it
//! deliberately with `ML4DB_BLESS=1 cargo test --test ctl_properties`.

mod common;

use ml4db_core::par;
use ml4db_ctl::{
    run_ctl_matrix, run_world, CtlWorldConfig, NoopController, RuleController,
};
use ml4db_datagen::ScenarioSpec;
use ml4db_ctl::chaos::CtlFault;
use proptest::prelude::*;

fn quick() -> CtlWorldConfig {
    CtlWorldConfig { base_rows: 100, train_n: 8, eval_n: 6, epochs: 4, train_epochs: 15 }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The decision log — and the whole world fingerprint — is
    /// byte-identical between the serial pool and a parallel pool.
    #[test]
    fn decision_log_is_byte_identical_across_thread_counts(
        scenario in 0usize..14,
        seed_step in 0u64..6,
    ) {
        let spec = ScenarioSpec::zoo(seed_step * 7 + 1)[scenario];
        let cfg = quick();
        let at = |threads: usize| {
            par::with_threads(threads, || {
                run_world(spec, &mut RuleController::new(), CtlFault::None, &cfg)
            })
        };
        let (serial, parallel) = (at(1), at(6));
        prop_assert_eq!(
            serial.log.canonical_string(),
            parallel.log.canonical_string()
        );
        prop_assert_eq!(serial.bits(), parallel.bits());
    }

    /// Do-no-harm as a property: on every non-adversarial cell the rule
    /// controller's total serving score is at most the no-op's.
    #[test]
    fn rule_controller_never_harms_non_adversarial_cells(
        scenario in 0usize..14,
        seed_step in 0u64..6,
    ) {
        let spec = ScenarioSpec::zoo(seed_step * 7 + 1)[scenario];
        if !spec.is_adversarial() {
            let cfg = quick();
            let noop = run_world(spec, &mut NoopController, CtlFault::None, &cfg);
            let rule = run_world(spec, &mut RuleController::new(), CtlFault::None, &cfg);
            prop_assert!(
                rule.total_us <= noop.total_us + 1e-6,
                "{} seed {}: rule {} > noop {}",
                spec.name(), spec.seed, rule.total_us, noop.total_us
            );
        }
    }
}

#[test]
fn golden_ctl_matrix_snapshot() {
    let report = run_ctl_matrix(7, &CtlWorldConfig::smoke());
    assert!(report.pass(), "the controller matrix must pass at smoke scale");
    common::check_golden("ctl.json", &report.to_canonical_json().to_string());
}
