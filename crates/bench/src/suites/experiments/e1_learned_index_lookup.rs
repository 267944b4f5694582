//! **E1** — learned index vs B+Tree on static lookups (the RMI claim \[17\]
//! that opened the replacement paradigm): learned indexes match or beat the
//! B+Tree on reads while their structures are orders of magnitude smaller.
//!
//! Expected shape: model sizes RMI/PGM/RadixSpline ≪ B+Tree; error bounds
//! small on smooth CDFs and larger on hard ones. The read-speed half is
//! wall clock, so it is measured where wall clock is: `ml4db-bench index`
//! and the benchmark's `index.pgm.get_ns` / `index.btree.get_ns` layers.

use ml4db_core::index::keys::{generate_entries, KeyDistribution};
use ml4db_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::Record;

const N: usize = 200_000;

fn build(dist: KeyDistribution) -> (BPlusTree, Rmi, PgmIndex, RadixSpline) {
    let mut rng = StdRng::seed_from_u64(1);
    let entries = generate_entries(dist, N, &mut rng);
    let btree = BPlusTree::bulk_load(&entries);
    let rmi = Rmi::build(entries.clone(), 2048);
    let pgm = PgmIndex::build(entries.clone(), 32);
    let spline = RadixSpline::build(entries.clone(), 32);
    (btree, rmi, pgm, spline)
}

pub fn regenerate(rec: &mut Record) {
    eprintln!(
        "{:<36} {:>12} {:>10} {:>10} {:>12}",
        "distribution", "btree bytes", "rmi bytes", "pgm bytes", "spline bytes"
    );
    for (name, dist) in [
        ("sequential", KeyDistribution::Sequential),
        ("uniform", KeyDistribution::Uniform { max: 1 << 44 }),
        ("lognormal", KeyDistribution::LogNormal { sigma: 2.0 }),
        ("clustered", KeyDistribution::Clustered { clusters: 128 }),
    ] {
        let (btree, rmi, pgm, spline) = build(dist);
        rec.value(format!("bytes/{name}/btree"), btree.size_bytes());
        rec.value(format!("bytes/{name}/rmi"), rmi.size_bytes());
        rec.value(format!("bytes/{name}/pgm"), pgm.size_bytes());
        rec.value(format!("bytes/{name}/radix_spline"), spline.size_bytes());
        eprintln!(
            "{:<36} {:>12} {:>10} {:>10} {:>12}",
            format!("{dist:?}"),
            btree.size_bytes(),
            rmi.size_bytes(),
            pgm.size_bytes(),
            spline.size_bytes()
        );
    }
    let (btree, rmi, pgm, _) = build(KeyDistribution::LogNormal { sigma: 2.0 });
    eprintln!(
        "\nlognormal detail: rmi max err {}, pgm {} segments / {} levels",
        rmi.max_error(),
        pgm.num_segments(),
        pgm.num_levels()
    );
    rec.value("lognormal/rmi_max_error", rmi.max_error());
    rec.value("lognormal/pgm_segments", pgm.num_segments());
    rec.value("lognormal/pgm_levels", pgm.num_levels());
    rec.check("learned ≪ btree", rmi.size_bytes() * 10 < btree.size_bytes());
}
