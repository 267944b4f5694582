//! **E6** — ML-enhanced search: the AI+R tree \[2\] routes high-overlap
//! range queries through learned per-leaf classifiers (skipping extraneous
//! leaf accesses) and low-overlap queries through the plain R-tree.
//!
//! Expected shape: on high-overlap queries AI+R touches fewer leaves than
//! the R-tree at high (but not perfect) recall; low-overlap queries are
//! untouched (exact, same cost) — the balanced-performance claim.

use ml4db_core::spatial::air::Route;
use ml4db_core::spatial::data::{
    generate_points, generate_range_queries, SpatialDistribution,
};
use ml4db_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{factor, Record};

fn setup() -> (AiRTree, Vec<ml4db_core::spatial::Rect>, Vec<ml4db_core::spatial::Rect>) {
    let mut rng = StdRng::seed_from_u64(8);
    let points =
        generate_points(SpatialDistribution::Clustered { clusters: 16 }, 6000, &mut rng);
    let tree = RTree::bulk_load_str(&points);
    let train_high = generate_range_queries(100, 0.25, false, &mut rng);
    let air = AiRTree::build(tree, &train_high, 6);
    let high = generate_range_queries(50, 0.25, false, &mut rng);
    let low = generate_range_queries(50, 0.02, false, &mut rng);
    (air, high, low)
}

pub fn regenerate(rec: &mut Record) {
    let (air, high, low) = setup();
    let mut table = |name: &str, queries: &[ml4db_core::spatial::Rect]| {
        let mut air_acc = 0u64;
        let mut rtree_acc = 0u64;
        let mut ai_routed = 0usize;
        for q in queries {
            let (_, stats, route) = air.range_query(q);
            air_acc += stats.leaf_accesses;
            rtree_acc += air.rtree().range_query(q).1.leaf_accesses;
            if route == Route::AiTree {
                ai_routed += 1;
            }
        }
        eprintln!(
            "{:<14} ai-routed {:>3}/{:<3} | leaf accesses: r-tree {:>6}, ai+r {:>6} ({})",
            name,
            ai_routed,
            queries.len(),
            rtree_acc,
            air_acc,
            factor(air_acc as f64, rtree_acc as f64)
        );
        rec.value(format!("{name}/queries"), queries.len());
        rec.value(format!("{name}/ai_routed"), ai_routed);
        rec.value(format!("{name}/leaf_accesses/rtree"), rtree_acc);
        rec.value(format!("{name}/leaf_accesses/air"), air_acc);
        (air_acc, rtree_acc, ai_routed)
    };
    let (high_air, high_rtree, high_routed) = table("high-overlap", &high);
    let (_, _, low_routed) = table("low-overlap", &low);
    let recall = air.ai_recall(&high);
    eprintln!("ai-path recall on high-overlap queries: {recall:.3}");
    rec.value("high-overlap/ai_recall", recall);
    rec.check(
        "high-overlap saves leaves via AI path, low-overlap mostly classical",
        high_air < high_rtree
            && high_routed * 2 > high.len()
            && low_routed * 2 < low.len()
            && recall > 0.8,
    );
}
