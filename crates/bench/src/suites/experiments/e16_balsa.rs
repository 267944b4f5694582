//! **E16** — Balsa \[51\]: learning an optimizer *without expert
//! demonstrations*. Phase 1 trains on the simulated cost model only (zero
//! executions); phase 2 fine-tunes on real executions under a safe
//! timeout that turns would-be stalls into bounded, pessimistically
//! labeled observations.
//!
//! Expected shape: simulation-only Balsa already avoids disasters;
//! fine-tuning improves it toward the expert; with tight budgets the
//! timeout path fires but per-query cost stays bounded.

use ml4db_core::optimizer::{evaluate, Balsa, Env};
use ml4db_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::Record;

pub fn regenerate(rec: &mut Record) {
    let db = demo_database(150, 160);
    let env = Env::new(&db);
    let mut rng = StdRng::seed_from_u64(161);
    let train = demo_workload(&db, 20, 162);
    let test = demo_workload(&db, 10, 163);

    let mut balsa = Balsa::new(&mut rng);
    balsa.simulate(&env, &train, 3, 12, &mut rng);
    let sim_report = evaluate(&env, &test, |env, q| balsa.plan(env, q, &mut StdRng::seed_from_u64(1)));
    eprintln!("after simulation only (0 executions):");
    eprintln!(
        "  relative total vs expert {:.2}, regressions {}/{}",
        sim_report.relative_total,
        sim_report.regressions,
        test.len()
    );

    let mut total_timeouts = 0usize;
    for round in 0..3 {
        let observed = balsa.finetune(&env, &train, 8, &mut rng);
        let avg = observed.iter().sum::<f64>() / observed.len().max(1) as f64;
        eprintln!(
            "  fine-tune round {round}: mean observed {avg:.0} µs, timeouts so far {}",
            balsa.timeouts
        );
        rec.value(format!("finetune_round_{round}/mean_observed_us"), avg);
        total_timeouts = balsa.timeouts;
    }
    let ft_report = evaluate(&env, &test, |env, q| balsa.plan(env, q, &mut StdRng::seed_from_u64(1)));
    eprintln!("after fine-tuning:");
    eprintln!(
        "  relative total vs expert {:.2}, regressions {}/{}",
        ft_report.relative_total,
        ft_report.regressions,
        test.len()
    );
    eprintln!("  safe-execution timeouts during training: {total_timeouts}");
    rec.value("queries", test.len());
    rec.value("simulation_only/relative_total", sim_report.relative_total);
    rec.value("simulation_only/regressions", sim_report.regressions);
    rec.value("fine_tuned/relative_total", ft_report.relative_total);
    rec.value("fine_tuned/regressions", ft_report.regressions);
    rec.value("training_timeouts", total_timeouts);
    rec.check(
        "no expert needed; fine-tuned ≤ sim-only * 1.2",
        ft_report.relative_total <= sim_report.relative_total * 1.2,
    );
}
