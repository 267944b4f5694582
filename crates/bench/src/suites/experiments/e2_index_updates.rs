//! **E2** — replacement-index robustness under updates: the static RMI
//! cannot absorb inserts (the original limitation), while ALEX \[6\] and the
//! dynamic PGM \[8\] adapt and the B+Tree is unconditionally stable.
//!
//! Expected shape: RMI becomes stale (misses every new key); ALEX/PGM stay
//! exact with bounded structural churn.

use ml4db_core::index::keys::{generate_entries, KeyDistribution};
use ml4db_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::Record;

pub fn regenerate(rec: &mut Record) {
    let mut rng = StdRng::seed_from_u64(2);
    let base = generate_entries(KeyDistribution::Uniform { max: 1 << 40 }, 50_000, &mut rng);
    let mut btree = BPlusTree::bulk_load(&base);
    let mut alex = AlexIndex::bulk_load(&base);
    let mut dpgm = DynamicPgm::from_sorted(base.clone(), 32);
    let rmi = Rmi::build(base.clone(), 1024);

    // Skewed insert burst into an unseen key region.
    let inserts: Vec<u64> =
        (0..50_000).map(|_| rng.gen_range(0u64..1 << 40) | 1 << 41).collect();
    for &k in &inserts {
        btree.insert(k, 7);
        alex.insert(k, 7);
        dpgm.insert(k, 7);
    }

    let recall = |f: &dyn Fn(u64) -> Option<u64>| {
        let hits = inserts.iter().step_by(97).filter(|&&k| f(k) == Some(7)).count();
        hits as f64 / inserts.iter().step_by(97).count() as f64
    };
    let (r_btree, r_alex, r_dpgm, r_rmi) = (
        recall(&|k| btree.get(k)),
        recall(&|k| alex.get(k)),
        recall(&|k| dpgm.get(k)),
        recall(&|k| rmi.get(k)),
    );
    eprintln!("{:<14} {:>16} {:>22}", "index", "new-key recall", "structural churn");
    eprintln!("{:<14} {:>16.2} {:>22}", "b+tree", r_btree, "-");
    eprintln!(
        "{:<14} {:>16.2} {:>22}",
        "alex",
        r_alex,
        format!("{} splits, {} expands", alex.splits, alex.expansions)
    );
    eprintln!("{:<14} {:>16.2} {:>22}", "dynamic pgm", r_dpgm, format!("{} runs", dpgm.num_runs()));
    eprintln!("{:<14} {:>16.2} {:>22}", "static rmi", r_rmi, "stale (no insert)");
    eprintln!();
    rec.value("new_key_recall/btree", r_btree);
    rec.value("new_key_recall/alex", r_alex);
    rec.value("new_key_recall/dynamic_pgm", r_dpgm);
    rec.value("new_key_recall/static_rmi", r_rmi);
    rec.value("alex_splits", alex.splits);
    rec.value("alex_expansions", alex.expansions);
    rec.value("dynamic_pgm_runs", dpgm.num_runs());
    rec.check(
        "adaptive learned stay exact, static RMI stale",
        r_alex == 1.0 && r_dpgm == 1.0 && r_rmi == 0.0,
    );
}
