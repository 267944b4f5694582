//! **E14** — model efficiency (open problem 1): the NNGP estimator \[55\]
//! trains in closed form ("a few seconds" at paper scale, microseconds
//! here) where gradient-trained models need epochs; learned index models
//! are orders of magnitude smaller than the structures they replace.
//!
//! Expected shape: NNGP training time ≪ MLP training time at comparable
//! accuracy; model-size table shows learned ≪ classical. The two training
//! durations are host wall clock: they and their ratio go to stderr only,
//! and the gated half of the claim is the exact size comparison.

use ml4db_core::card::{collect_samples, MscnEstimator, NngpEstimator};
use ml4db_core::index::keys::{generate_entries, KeyDistribution};
use ml4db_core::prelude::*;
use ml4db_core::storage::datasets::{joblite, DatasetConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{factor, Record};

fn workload(n: usize) -> Vec<Query> {
    (0..n)
        .map(|i| {
            Query::new(&["title"])
                .filter(0, "year", CmpOp::Ge, (1985 + (i * 7) % 30) as f64)
                .filter(0, "votes", CmpOp::Ge, (1000 + (i * 577) % 6000) as f64)
        })
        .collect()
}

pub fn regenerate(rec: &mut Record) {
    let mut rng = StdRng::seed_from_u64(140);
    let db = Database::analyze(
        joblite(&DatasetConfig { base_rows: 800, skew: 0.3, correlation: 0.85 }, &mut rng),
        &mut rng,
    );
    let samples = collect_samples(&db, &workload(60));
    let oracle = TrueCardinality::new();
    let test = workload(90).split_off(60);
    let median_qerr = |est: &dyn CardEstimator| -> f64 {
        let errs: Vec<f64> = test
            .iter()
            .map(|q| {
                ml4db_core::nn::metrics::q_error(
                    est.estimate(&db, q, 1),
                    oracle.estimate(&db, q, 1),
                )
            })
            .collect();
        ml4db_core::nn::metrics::q_error_summary(&errs).expect("non-empty").median
    };

    let t0 = std::time::Instant::now();
    let mut mscn = MscnEstimator::new(32, &mut rng);
    mscn.fit(&db, &samples, 60, 0.005, &mut rng);
    let mscn_time = t0.elapsed();
    let mut nngp = NngpEstimator::new();
    let nngp_time = nngp.fit(&db, &samples);

    let (q_mscn, q_nngp, q_classic) =
        (median_qerr(&mscn), median_qerr(&nngp), median_qerr(&ClassicEstimator));
    eprintln!("cardinality estimation ({} samples):", samples.len());
    eprintln!(
        "{:<10} {:>14} {:>14} {:>16}",
        "model", "train time", "median qerr", "size proxy"
    );
    eprintln!(
        "{:<10} {:>14} {:>14.2} {:>16}",
        "mscn",
        format!("{mscn_time:?}"),
        q_mscn,
        format!("{} params", mscn.num_params())
    );
    eprintln!(
        "{:<10} {:>14} {:>14.2} {:>16}",
        "nngp",
        format!("{nngp_time:?}"),
        q_nngp,
        format!("{} pts", nngp.train_size())
    );
    eprintln!(
        "{:<10} {:>14} {:>14.2} {:>16}",
        "classic", "0 (analytic)", q_classic, "-"
    );
    eprintln!(
        "nngp training speedup over mscn (wall clock, not gated): {}",
        factor(mscn_time.as_secs_f64(), nngp_time.as_secs_f64())
    );

    // Index model sizes (the space side of model efficiency).
    let entries = generate_entries(KeyDistribution::LogNormal { sigma: 2.0 }, 200_000, &mut rng);
    let btree = BPlusTree::bulk_load(&entries);
    let pgm = PgmIndex::build(entries.clone(), 32);
    eprintln!("\nindex structure sizes (200k keys):");
    eprintln!("  b+tree: {} bytes, pgm: {} bytes ({} smaller)",
        btree.size_bytes(), pgm.size_bytes(), factor(btree.size_bytes() as f64, pgm.size_bytes() as f64));
    rec.value("training_samples", samples.len());
    rec.value("median_q_error/mscn", q_mscn);
    rec.value("median_q_error/nngp", q_nngp);
    rec.value("median_q_error/classic", q_classic);
    rec.value("mscn_params", mscn.num_params());
    rec.value("nngp_train_points", nngp.train_size());
    rec.value("index_bytes/btree", btree.size_bytes());
    rec.value("index_bytes/pgm", pgm.size_bytes());
    rec.check("learned index much smaller", pgm.size_bytes() * 10 < btree.size_bytes());
}
