//! **E11** — ParamTree \[50\]: tune the formula cost model's R-params from
//! observed executions instead of replacing the model. Our engine's true
//! latency *is* linear in the work counters, so the fit should recover the
//! ground-truth weights, and the tuned formula should predict plan costs
//! far better than the mis-calibrated defaults.
//!
//! Expected shape: recovered weights ≈ TRUE_WEIGHTS; prediction error of
//! the tuned formula ≪ default formula; explainable (7 named parameters,
//! no black box).

use ml4db_core::optimizer::{collect_observations_diverse, Env, ParamTree};
use ml4db_core::prelude::*;
use ml4db_core::storage::TRUE_WEIGHTS;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{factor, Record};

pub fn regenerate(rec: &mut Record) {
    let db = demo_database(150, 110);
    let env = Env::new(&db);
    let mut rng = StdRng::seed_from_u64(111);
    let train = demo_workload(&db, 30, 112);
    let obs = collect_observations_diverse(&env, &train, 2, &mut rng);
    let pt = ParamTree::fit(&obs);

    let default = ml4db_core::storage::CostWeights::postgres_defaults();
    eprintln!("{:<14} {:>10} {:>10} {:>10}", "R-param", "default", "tuned", "true");
    let rows: [(&str, f64, f64, f64); 7] = [
        ("seq_page", default.seq_page, pt.weights.seq_page, TRUE_WEIGHTS.seq_page),
        ("random_page", default.random_page, pt.weights.random_page, TRUE_WEIGHTS.random_page),
        ("cpu_tuple", default.cpu_tuple, pt.weights.cpu_tuple, TRUE_WEIGHTS.cpu_tuple),
        ("cpu_compare", default.cpu_compare, pt.weights.cpu_compare, TRUE_WEIGHTS.cpu_compare),
        ("hash_build", default.hash_build, pt.weights.hash_build, TRUE_WEIGHTS.hash_build),
        ("hash_probe", default.hash_probe, pt.weights.hash_probe, TRUE_WEIGHTS.hash_probe),
        ("sort_op", default.sort_op, pt.weights.sort_op, TRUE_WEIGHTS.sort_op),
    ];
    for (name, d, t, truth) in rows {
        eprintln!("{name:<14} {d:>10.4} {t:>10.4} {truth:>10.4}");
        rec.value(format!("r_param/{name}/default"), d);
        rec.value(format!("r_param/{name}/tuned"), t);
        rec.value(format!("r_param/{name}/true"), truth);
    }

    // Prediction accuracy on fresh executions.
    let test = demo_workload(&db, 12, 113);
    let fresh = collect_observations_diverse(&env, &test, 1, &mut rng);
    let err = |w: ml4db_core::storage::CostWeights| -> f64 {
        fresh
            .iter()
            .map(|o| (o.stats.latency_us(&w) - o.latency_us).abs() / o.latency_us.max(1.0))
            .sum::<f64>()
            / fresh.len() as f64
    };
    let tuned_err = err(pt.weights);
    let default_err = err(default);
    eprintln!("\nmean relative cost-prediction error on fresh executions:");
    eprintln!("  default weights: {default_err:.3}");
    eprintln!("  tuned weights:   {tuned_err:.3}  ({} of default)", factor(tuned_err, default_err));
    rec.value("prediction_error/default", default_err);
    rec.value("prediction_error/tuned", tuned_err);
    rec.check("tuned ≪ default prediction error", tuned_err < default_err * 0.3);
}
