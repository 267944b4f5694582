//! **E15** — handling data & workload shifts (open problem 2): an
//! estimator trained on one regime degrades when the data changes; the
//! KS-based detector fires; Warper-style fast adaptation \[20\] and DDUp's
//! detect–distill–update \[19\] both restore accuracy, with DDUp retaining
//! old-regime knowledge.
//!
//! Expected shape: q-error spikes at the shift; detection delay is small;
//! both adapters recover on the new regime; DDUp stays better on the old
//! regime than Warper (distillation preserves it).

use ml4db_core::card::{
    collect_samples, CardSample, DdupAdapter, DriftDetector, MscnEstimator, WarperAdapter,
};
use ml4db_core::prelude::*;
use ml4db_core::storage::datasets::{joblite, DatasetConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::Record;

fn workload(base: i64, n: usize) -> Vec<Query> {
    (0..n)
        .map(|i| {
            Query::new(&["title"])
                .filter(0, "year", CmpOp::Ge, (base + (i as i64 * 7) % 25) as f64)
                .filter(0, "votes", CmpOp::Ge, (1000 + (i * 577) % 6000) as f64)
        })
        .collect()
}

fn median_qerr(db: &Database, est: &dyn CardEstimator, queries: &[Query]) -> f64 {
    let oracle = TrueCardinality::new();
    let errs: Vec<f64> = queries
        .iter()
        .map(|q| {
            ml4db_core::nn::metrics::q_error(est.estimate(db, q, 1), oracle.estimate(db, q, 1))
        })
        .collect();
    ml4db_core::nn::metrics::q_error_summary(&errs).expect("non-empty").median
}

pub fn regenerate(rec: &mut Record) {
    let mut rng = StdRng::seed_from_u64(150);
    let old_db = Database::analyze(
        joblite(&DatasetConfig { base_rows: 700, skew: 0.2, correlation: 0.9 }, &mut rng),
        &mut rng,
    );
    let new_db = Database::analyze(
        joblite(&DatasetConfig { base_rows: 700, skew: 1.5, correlation: 0.05 }, &mut rng),
        &mut rng,
    );
    let train = workload(1985, 50);
    let samples = collect_samples(&old_db, &train);
    let mut model = MscnEstimator::new(32, &mut rng);
    model.fit(&old_db, &samples, 60, 0.005, &mut rng);

    let old_eval = workload(1990, 15);
    let new_eval = workload(1990, 15);
    eprintln!("median q-error of the old-regime model:");
    let undrifted = median_qerr(&old_db, &model, &old_eval);
    eprintln!("  on old data: {undrifted:.2}");
    let degraded = median_qerr(&new_db, &model, &new_eval);
    eprintln!("  on new data: {degraded:.2}  ← degradation");

    // Detection delay on the error stream.
    let oracle = TrueCardinality::new();
    let mut detector = DriftDetector::new(12, 0.45);
    let stream = workload(1985, 80);
    let mut delay = None;
    for (i, q) in stream.iter().enumerate() {
        let db = if i < 40 { &old_db } else { &new_db };
        let err =
            ml4db_core::nn::metrics::q_error(model.estimate(db, q, 1), oracle.estimate(db, q, 1))
                .ln();
        if detector.observe(err) && delay.is_none() {
            delay = Some(i as i64 - 40);
        }
    }
    eprintln!(
        "detection delay after onset (query 40): {}",
        delay.map_or("not detected".to_string(), |d| format!("{d} queries"))
    );

    // Warper: fast retrain on a recent window.
    let mut warper_model = MscnEstimator::new(32, &mut rng);
    warper_model.fit(&old_db, &samples, 60, 0.005, &mut rng);
    let mut warper = WarperAdapter::new(60);
    for s in collect_samples(&new_db, &workload(1985, 40)) {
        warper.record(s);
    }
    warper.adapt(&new_db, &mut warper_model, 40, &mut rng);

    // DDUp: distill old knowledge + new samples into a fresh model.
    let old_queries: Vec<(Query, u64)> = train.iter().map(|q| (q.clone(), 1u64)).collect();
    let new_samples: Vec<CardSample> = collect_samples(&new_db, &workload(1985, 40));
    let ddup_model =
        DdupAdapter::update(&new_db, &model, &old_queries, &new_samples, 40, &mut rng);

    eprintln!("\nmedian q-error after adaptation:");
    eprintln!(
        "{:<10} {:>10} {:>10}",
        "adapter", "new data", "old data"
    );
    let w_new = median_qerr(&new_db, &warper_model, &new_eval);
    let w_old = median_qerr(&old_db, &warper_model, &old_eval);
    let d_new = median_qerr(&new_db, &ddup_model, &new_eval);
    let d_old = median_qerr(&old_db, &ddup_model, &old_eval);
    eprintln!("{:<10} {:>10.2} {:>10.2}", "warper", w_new, w_old);
    eprintln!("{:<10} {:>10.2} {:>10.2}", "ddup", d_new, d_old);
    rec.value("old_model_median_q_error/old_data", undrifted);
    rec.value("old_model_median_q_error/new_data", degraded);
    // -1: the detector never fired.
    rec.value("detection_delay_queries", delay.unwrap_or(-1));
    rec.value("adapted_median_q_error/warper/new_data", w_new);
    rec.value("adapted_median_q_error/warper/old_data", w_old);
    rec.value("adapted_median_q_error/ddup/new_data", d_new);
    rec.value("adapted_median_q_error/ddup/old_data", d_old);
    rec.check(
        "both recover on new data; detection fires",
        w_new < degraded && d_new < degraded && delay.is_some(),
    );
}
