//! **E17** — training-data generation (open problem 4, SAM \[49\]): fit a
//! generator to a workload's (range, cardinality) feedback on a private
//! table, sample a synthetic table, and verify the workload's
//! cardinalities reproduce — with and without Laplace-privatized counts.
//!
//! Expected shape: small mean relative error on workload constraints;
//! correlation direction preserved; privacy noise degrades accuracy
//! gracefully with the noise scale.

use ml4db_core::datagen::{observe_constraints, privatize_constraints, SamGenerator};
use ml4db_core::storage::{ColumnData, DataType, Schema, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::Record;

fn private_table(rng: &mut StdRng) -> Table {
    let n = 5000;
    let c0: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..100.0)).collect();
    let c1: Vec<f64> = c0.iter().map(|&v| v * 0.7 + rng.gen_range(0.0..30.0)).collect();
    Table::new(
        "private",
        Schema::new(&[("a", DataType::Float), ("b", DataType::Float)]),
        vec![ColumnData::Float(c0), ColumnData::Float(c1)],
    )
}

fn grid_queries() -> Vec<((f64, f64), (f64, f64))> {
    let mut qs = Vec::new();
    for i in 0..5 {
        for j in 0..5 {
            qs.push((
                (i as f64 * 20.0, (i + 1) as f64 * 20.0),
                (j as f64 * 20.0, (j + 1) as f64 * 20.0),
            ));
        }
    }
    qs
}

fn mean_rel_err(
    truth: &[ml4db_core::datagen::RangeConstraint],
    synth: &Table,
    queries: &[((f64, f64), (f64, f64))],
) -> f64 {
    let got = observe_constraints(synth, "c0", "c1", queries);
    let mut err = 0.0;
    let mut n = 0;
    for (t, g) in truth.iter().zip(&got) {
        if t.count >= 50.0 {
            err += (g.count - t.count).abs() / t.count;
            n += 1;
        }
    }
    err / n.max(1) as f64
}

pub fn regenerate(rec: &mut Record) {
    let mut rng = StdRng::seed_from_u64(170);
    let private = private_table(&mut rng);
    let queries = grid_queries();
    let constraints = observe_constraints(&private, "a", "b", &queries);

    eprintln!("{:<22} {:>22}", "setting", "mean rel. card error");
    let clean = SamGenerator::fit(&constraints, (0.0, 100.0), (0.0, 100.0), 5000.0, 10, 30);
    let synth = clean.sample_table("synth", 5000, &mut rng);
    let clean_err = mean_rel_err(&constraints, &synth, &queries);
    eprintln!("{:<22} {:>22.3}", "no privacy noise", clean_err);
    let mut noisy_errs = Vec::new();
    for b in [10.0, 50.0, 200.0] {
        let noisy = privatize_constraints(&constraints, b, &mut rng);
        let gen = SamGenerator::fit(&noisy, (0.0, 100.0), (0.0, 100.0), 5000.0, 10, 30);
        let s = gen.sample_table("synth", 5000, &mut rng);
        let e = mean_rel_err(&constraints, &s, &queries);
        noisy_errs.push(e);
        eprintln!("{:<22} {:>22.3}", format!("laplace scale {b}"), e);
        rec.value(format!("mean_relative_card_error/laplace_scale_{b}"), e);
    }

    // Correlation preservation.
    let c0: Vec<f64> = (0..synth.num_rows()).map(|i| synth.columns[0].get_f64(i)).collect();
    let c1: Vec<f64> = (0..synth.num_rows()).map(|i| synth.columns[1].get_f64(i)).collect();
    let corr = ml4db_core::nn::metrics::pearson(&c0, &c1);
    eprintln!("\nsynthetic column correlation: {corr:.3} (private data is strongly positive)");
    rec.value("mean_relative_card_error/no_noise", clean_err);
    rec.value("synthetic_column_correlation", corr);
    rec.check(
        "faithful without noise; degrades gracefully with noise",
        clean_err < 0.35 && corr > 0.4 && noisy_errs[2] >= clean_err,
    );
}
