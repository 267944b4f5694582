//! **E5** — ML-enhanced bulk loading: PLATON \[48\] packs the R-tree
//! top-down with an MCTS-learned partition policy that optimizes the given
//! data + workload instance, under a per-decision simulation budget (the
//! paper's linear-time optimization).
//!
//! Expected shape: PLATON ≤ STR on the optimized workload (its guardrail
//! enforces this); a larger MCTS budget does not hurt.

use ml4db_core::spatial::data::{
    generate_points, generate_range_queries, workload_leaf_accesses, SpatialDistribution,
};
use ml4db_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{factor, Record};

pub fn regenerate(rec: &mut Record) {
    let mut rng = StdRng::seed_from_u64(6);
    let points = generate_points(SpatialDistribution::Skewed, 3000, &mut rng);
    let history = generate_range_queries(60, 0.06, true, &mut rng);
    let future = generate_range_queries(60, 0.06, true, &mut rng);

    let str_tree = RTree::bulk_load_str(&points);
    // PLATON's objective is the *given* data + workload instance, so the
    // headline table reports the optimized workload; the fresh draw shows
    // generalization.
    let str_hist = workload_leaf_accesses(&str_tree, &history);
    let str_fut = workload_leaf_accesses(&str_tree, &future);
    eprintln!(
        "{:<24} {:>16} {:>10} {:>14}",
        "packer", "given workload", "vs STR", "fresh draw"
    );
    eprintln!("{:<24} {:>16.2} {:>10} {:>14.2}", "str", str_hist, "1.00x", str_fut);
    rec.value("leaf_accesses/given_workload/str", str_hist);
    rec.value("leaf_accesses/fresh_draw/str", str_fut);
    let mut never_worse = true;
    for sims in [16usize, 64, 256] {
        let platon = PlatonPacker { simulations: sims, ..Default::default() }
            .pack(&points, &history, 7);
        let hist = workload_leaf_accesses(&platon, &history);
        let fut = workload_leaf_accesses(&platon, &future);
        eprintln!(
            "{:<24} {:>16.2} {:>10} {:>14.2}",
            format!("platon (sims={sims})"),
            hist,
            factor(hist, str_hist),
            fut
        );
        rec.value(format!("leaf_accesses/given_workload/platon_sims{sims}"), hist);
        rec.value(format!("leaf_accesses/fresh_draw/platon_sims{sims}"), fut);
        never_worse &= hist <= str_hist + 1e-9;
    }
    eprintln!();
    rec.check("PLATON ≤ STR on its workload at every budget", never_worse);
}
