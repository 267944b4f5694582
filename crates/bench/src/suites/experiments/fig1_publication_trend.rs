//! **Figure 1**: publication trend in machine learning for index & query
//! optimizer, SIGMOD/VLDB 2018–2023, replacement vs ML-enhanced.
//!
//! Expected shape (per the tutorial): replacement counts concentrate
//! early; ML-enhanced counts rise sharply from 2021 — "a noticeable shift
//! from the replacement paradigm to the ML-enhanced paradigm".

use ml4db_core::survey::{figure1_series, late_share, render_figure1, Paradigm, Problem};

use super::Record;

pub fn regenerate(rec: &mut Record) {
    let series = figure1_series();
    eprint!("{}", render_figure1(&series));
    for (name, problem, paradigm) in [
        ("index_replacement", Problem::Index, Paradigm::Replacement),
        ("index_ml_enhanced", Problem::Index, Paradigm::MlEnhanced),
        ("qo_replacement", Problem::QueryOptimizer, Paradigm::Replacement),
        ("qo_ml_enhanced", Problem::QueryOptimizer, Paradigm::MlEnhanced),
    ] {
        // `figure1_series` is year-ascending within each (problem, paradigm).
        let counts: Vec<usize> = series
            .iter()
            .filter(|p| p.problem == problem && p.paradigm == paradigm)
            .map(|p| p.count)
            .collect();
        rec.value(format!("counts_2018_2023/{name}"), counts);
    }
    let enh = late_share(&series, Paradigm::MlEnhanced);
    let repl = late_share(&series, Paradigm::Replacement);
    eprintln!("\nshare of publications in 2021-2023:");
    eprintln!("  replacement: {:.0}%", repl * 100.0);
    eprintln!("  ml-enhanced: {:.0}%", enh * 100.0);
    rec.value("late_share/replacement", repl);
    rec.value("late_share/ml_enhanced", enh);
    rec.check("shift to ML-enhanced", enh > repl);
}
