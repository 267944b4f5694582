//! Negative controls for the adversarial wing of the workload zoo,
//! mirroring the chaos-harness contract: every adversarial scenario must
//! *demonstrably defeat* at least one unguarded learned component — a
//! zoo of attacks that nothing fails is not evidence of robustness — and
//! the guarded configuration must ride out the same attack within its
//! budget.
//!
//! Three distinct learned components fall: the trained MSCN joint
//! estimator (distribution-edge and correlation-trap scenarios), the PGM
//! learned index (segment bomb), and Bao's steering bandit
//! (plan-regression trap).

use std::sync::OnceLock;

use ml4db_core::datagen::zoo::{ScenarioKind, ScenarioSpec};
use ml4db_core::datagen::key_stream;
use ml4db_core::card::collect_samples;
use ml4db_core::index::PgmIndex;
use ml4db_core::matrix::{run_matrix, MatrixConfig, MatrixReport};
use ml4db_core::obs;
use ml4db_core::optimizer::harness::{qerr_stream, train_mscn};
use ml4db_core::pipeline::demo_database;
use ml4db_core::plan::{CardEstimator, ClassicEstimator, Query};
use ml4db_core::storage::Database;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One shared smoke-scale matrix run for the probe-level assertions.
fn smoke_report() -> &'static MatrixReport {
    static REPORT: OnceLock<MatrixReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let _prev = obs::set_mode(obs::Mode::Noop);
        run_matrix(&MatrixConfig::smoke())
    })
}

#[test]
fn every_adversarial_scenario_defeats_an_unguarded_component() {
    let _s = obs::serial();
    let r = smoke_report();
    assert_eq!(r.probes.len(), 4, "one probe per adversarial scenario");
    for p in &r.probes {
        assert!(
            p.defeated,
            "{} failed to defeat unguarded {}: metric {:.3} < threshold {:.3}",
            p.scenario, p.component, p.unguarded_metric, p.threshold
        );
        assert!(
            p.guarded_ok,
            "{}: guarded configuration over budget: {:.3} > {:.3}",
            p.scenario, p.guarded_metric, p.guarded_budget
        );
    }
    let components: std::collections::BTreeSet<_> =
        r.probes.iter().map(|p| p.component).collect();
    assert!(
        components.len() >= 3,
        "at least 3 distinct learned components must fall: {components:?}"
    );
}

#[test]
fn plan_regression_trap_snares_the_unguarded_bandit_only() {
    let _s = obs::serial();
    let r = smoke_report();
    let bao = r.cell("plan_regression_trap", "bao").expect("bao cell");
    assert!(bao.regressions >= 1, "the trap must produce >=1 unguarded Bao regression");
    let guarded = r.cell("plan_regression_trap", "guarded_bao").expect("guarded cell");
    assert!(
        guarded.within_budget,
        "guarded Bao must survive the same trap: p99x {:.2}, totx {:.2}",
        guarded.p99_ratio, guarded.total_ratio
    );
}

#[test]
fn pgm_segment_bomb_blows_up_the_learned_index_directly() {
    let _s = obs::serial();
    let base = demo_database(150, 11);
    let spec = ScenarioSpec::new(ScenarioKind::PgmSegmentBomb, 11);
    let applied = spec.apply(&base);

    let keys = key_stream(&applied, "title", "id");
    assert!(keys.len() > key_stream(&base, "title", "id").len(), "bomb must append keys");
    let epsilon = 16;
    let bombed =
        PgmIndex::build(keys.iter().map(|&k| (k, k)).collect(), epsilon).num_segments();
    let (lo, hi, n) = (keys[0], *keys.last().unwrap(), keys.len());
    let uniform: Vec<(u64, u64)> = (0..n)
        .map(|i| {
            let k = lo + ((hi - lo) as u128 * i as u128 / (n - 1) as u128) as u64;
            (k, k)
        })
        .collect();
    let baseline = PgmIndex::build(uniform, epsilon).num_segments().max(1);
    assert!(
        bombed as f64 / baseline as f64 >= 4.0,
        "clustered bursts must force segments: {bombed} vs uniform {baseline}"
    );
}

#[test]
fn correlation_trap_degrades_the_joint_model_more_than_classical() {
    let _s = obs::serial();
    // Same data, same queries, two estimators: the flip rearranges the
    // year–votes *joint* while re-analysis keeps per-column histograms
    // faithful, so the trained joint model must lose more ground than
    // the classical independence estimator when the data flips under
    // both.
    let base = demo_database(150, 13);
    let spec = ScenarioSpec::new(ScenarioKind::CorrelationTrap, 13);
    let applied = spec.apply(&base);
    let train = spec.train_workload(&base, 16);
    let eval = spec.eval_workload(&applied, 12);

    let mut rng = StdRng::seed_from_u64(13);
    let mscn = train_mscn(&base, &collect_samples(&base, &train), 25, &mut rng);

    fn ratio_of<E: CardEstimator>(
        est: &E,
        base: &Database,
        applied: &Database,
        eval: &[Query],
    ) -> f64 {
        qerr_stream(applied, est, eval).0 / qerr_stream(base, est, eval).0.max(1e-6)
    }
    let mscn_ratio = ratio_of(&mscn, &base, &applied, &eval);
    let classical_ratio = ratio_of(&ClassicEstimator, &base, &applied, &eval);

    assert!(mscn_ratio >= 1.25, "the flip must defeat the joint model: x{mscn_ratio:.2}");
    assert!(
        classical_ratio < mscn_ratio,
        "classical must degrade less than the joint model: \
         classical x{classical_ratio:.2} vs mscn x{mscn_ratio:.2}"
    );
}
