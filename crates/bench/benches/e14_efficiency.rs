//! **E14** — model efficiency (open problem 1): the NNGP estimator \[55\]
//! trains in closed form ("a few seconds" at paper scale, microseconds
//! here) where gradient-trained models need epochs; learned index models
//! are orders of magnitude smaller than the structures they replace.
//!
//! Expected shape: NNGP training time ≪ MLP training time at comparable
//! accuracy; model-size table shows learned ≪ classical.

use criterion::{black_box, Criterion};
use ml4db_bench::{banner, factor, quick_criterion};
use ml4db_core::card::{collect_samples, MscnEstimator, NngpEstimator};
use ml4db_core::index::keys::{generate_entries, KeyDistribution};
use ml4db_core::prelude::*;
use ml4db_core::storage::datasets::{joblite, joblite_db, DatasetConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workload(n: usize) -> Vec<Query> {
    (0..n)
        .map(|i| {
            Query::new(&["title"])
                .filter(0, "year", CmpOp::Ge, (1985 + (i * 7) % 30) as f64)
                .filter(0, "votes", CmpOp::Ge, (1000 + (i * 577) % 6000) as f64)
        })
        .collect()
}

fn regenerate() {
    banner("E14", "model efficiency: training time, accuracy, and model size");
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

    println!("cardinality estimation ({} samples):", samples.len());
    println!(
        "{:<10} {:>14} {:>14} {:>16}",
        "model", "train time", "median qerr", "size proxy"
    );
    println!(
        "{:<10} {:>14} {:>14.2} {:>16}",
        "mscn",
        format!("{mscn_time:?}"),
        median_qerr(&mscn),
        format!("{} params", mscn.num_params())
    );
    println!(
        "{:<10} {:>14} {:>14.2} {:>16}",
        "nngp",
        format!("{nngp_time:?}"),
        median_qerr(&nngp),
        format!("{} pts", nngp.train_size())
    );
    println!(
        "{:<10} {:>14} {:>14.2} {:>16}",
        "classic", "0 (analytic)", median_qerr(&ClassicEstimator), "-"
    );
    println!(
        "nngp training speedup over mscn: {}",
        factor(mscn_time.as_secs_f64(), nngp_time.as_secs_f64())
    );

    // Index model sizes (the space side of model efficiency).
    let entries = generate_entries(KeyDistribution::LogNormal { sigma: 2.0 }, 200_000, &mut rng);
    let btree = BPlusTree::bulk_load(&entries);
    let pgm = PgmIndex::build(entries.clone(), 32);
    println!("\nindex structure sizes (200k keys):");
    println!("  b+tree: {} bytes, pgm: {} bytes ({} smaller)",
        btree.size_bytes(), pgm.size_bytes(), factor(btree.size_bytes() as f64, pgm.size_bytes() as f64));
    println!(
        "shape check (NNGP much faster to train; learned index much smaller): {}",
        if nngp_time < mscn_time && pgm.size_bytes() * 10 < btree.size_bytes() {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
}

fn bench(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(141);
    let db = joblite_db(300, &[], &mut rng);
    let samples = collect_samples(&db, &workload(30));
    let mut g = c.benchmark_group("e14/train");
    g.bench_function("nngp_fit", |b| {
        b.iter(|| {
            let mut gp = NngpEstimator::new();
            gp.fit(&db, black_box(&samples))
        })
    });
    g.bench_function("mscn_fit_10_epochs", |b| {
        b.iter(|| {
            let mut m = MscnEstimator::new(32, &mut rng);
            m.fit(&db, black_box(&samples), 10, 0.005, &mut rng)
        })
    });
    g.finish();
}

fn main() {
    regenerate();
    let mut c = quick_criterion();
    bench(&mut c);
    c.final_summary();
}
