//! **E12** — the comparative study of query-plan representation components
//! (\[57\]): interchange feature encodings and tree models on the same cost
//! task; report absolute (median q-error) and relative (rank correlation)
//! metrics, and decompose the grid variance into encoding- vs
//! model-explained spreads.
//!
//! Expected shape (\[57\]'s headline): the encoding factor's spread is at
//! least comparable to — and typically exceeds — the tree-model factor's,
//! even though the literature focuses on tree models.

use ml4db_core::repr::study::{factor_spreads, factor_spreads_rank, run_study, LabeledPlan, StudyConfig};
use ml4db_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::Record;

fn build_corpus(db: &Database, n_queries: usize, rng: &mut StdRng) -> Vec<LabeledPlan> {
    let queries = demo_workload(db, n_queries, 121);
    let planner = Planner::default();
    let cost_model = CostModel::default();
    let mut corpus = Vec::new();
    for q in &queries {
        let mut plans = Vec::new();
        if let Some(p) = planner.best_plan(db, q, &ClassicEstimator) {
            plans.push(p);
        }
        plans.extend(planner.random_plans(db, q, &ClassicEstimator, 2, rng));
        for mut p in plans {
            cost_model.cost_plan(db, q, &mut p, &ClassicEstimator);
            let latency = ml4db_core::plan::execute(db, q, &p).expect("valid").latency_us;
            corpus.push(LabeledPlan { query: q.clone(), plan: p, latency_us: latency });
        }
    }
    corpus
}

pub fn regenerate(rec: &mut Record) {
    let mut rng = StdRng::seed_from_u64(120);
    let db = demo_database(200, 122);
    let corpus = build_corpus(&db, 40, &mut rng);
    eprintln!("corpus: {} labeled plans", corpus.len());
    let config = StudyConfig { epochs: 20, ..Default::default() };
    let cells = run_study(&db, &corpus, &config, &mut rng);

    eprintln!(
        "\n{:<16} {:<12} {:>12} {:>12}",
        "encoding", "model", "median qerr", "rank corr"
    );
    for c in &cells {
        eprintln!(
            "{:<16} {:<12} {:>12.2} {:>12.3}",
            c.encoding.label(),
            c.model.label(),
            c.median_q_error,
            c.rank_correlation
        );
        let cell = format!("{}/{}", c.encoding.label(), c.model.label());
        rec.value(format!("median_q_error/{cell}"), c.median_q_error);
        rec.value(format!("rank_correlation/{cell}"), c.rank_correlation);
    }
    let (enc, model) = factor_spreads(&cells);
    let (enc_r, model_r) = factor_spreads_rank(&cells);
    eprintln!("\nfactor spreads:");
    eprintln!("  absolute metric (log q-error): encoding {enc:.3}, model {model:.3}");
    eprintln!("  relative metric (rank corr):   encoding {enc_r:.3}, model {model_r:.3}");
    rec.value("corpus_plans", corpus.len());
    rec.value("factor_spread/log_q_error/encoding", enc);
    rec.value("factor_spread/log_q_error/model", model);
    rec.value("factor_spread/rank_correlation/encoding", enc_r);
    rec.value("factor_spread/rank_correlation/model", model_r);
    rec.check(
        "[57]: encoding matters — dominates on at least one metric, material on both",
        (enc_r >= model_r || enc >= model) && enc * 2.0 >= model,
    );
}
