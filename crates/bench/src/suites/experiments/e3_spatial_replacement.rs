//! **E3** — replacement learned spatial indexes vs the R-tree: ZM \[43\],
//! LISA \[25\], and the rank-space RSMI \[36\] answer ranges exactly, but the
//! Z-interval scan pays false positives (ZM's weakness), LISA's learned
//! direct mapping avoids them, rank space reduces model size on skew
//! (RSMI's improvement), and z-order kNN is only approximate.

use ml4db_core::spatial::data::{
    generate_points, generate_range_queries, unit_domain, SpatialDistribution,
};
use ml4db_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::Record;

fn setup() -> (Vec<ml4db_core::spatial::Entry>, Vec<ml4db_core::spatial::Rect>) {
    let mut rng = StdRng::seed_from_u64(3);
    let points = generate_points(SpatialDistribution::Skewed, 20_000, &mut rng);
    let queries = generate_range_queries(100, 0.05, false, &mut rng);
    (points, queries)
}

pub fn regenerate(rec: &mut Record) {
    let (points, queries) = setup();
    let rtree = RTree::bulk_load_str(&points);
    let zm = ZmIndex::build(points.clone(), unit_domain(), 32);
    let lisa = LisaIndex::build(points.clone(), 128);
    let rsmi = RsmiIndex::build(points.clone(), 32);

    let mut r_access = 0u64;
    let mut z_scan = 0u64;
    let mut l_scan = 0u64;
    let mut s_scan = 0u64;
    let mut results = 0u64;
    for q in &queries {
        let (ids, st) = rtree.range_query(q);
        results += ids.len() as u64;
        r_access += st.leaf_accesses * 8; // entries per leaf ~ MAX_ENTRIES
        z_scan += zm.range_query(q).1;
        l_scan += lisa.range_query(q).1;
        s_scan += rsmi.range_query(q).1;
    }
    eprintln!("{} range queries, {results} total results", queries.len());
    eprintln!("{:<10} {:>16} {:>14}", "index", "entries touched", "model bytes");
    eprintln!("{:<10} {:>16} {:>14}", "r-tree", r_access, "-");
    eprintln!("{:<10} {:>16} {:>14}", "zm", z_scan, zm.size_bytes());
    eprintln!("{:<10} {:>16} {:>14}", "lisa", l_scan, lisa.size_bytes());
    eprintln!("{:<10} {:>16} {:>14}", "rsmi", s_scan, rsmi.size_bytes());
    eprintln!(
        "\nzm vs rsmi segments on skew: {} vs {} (rank space flattens the CDF)",
        zm.num_segments(),
        rsmi.num_segments()
    );

    // Approximate kNN recall — the ZM robustness limitation.
    let mut recall_sum = 0.0;
    let mut trials = 0;
    for q in queries.iter().take(20) {
        let p = q.center();
        let (exact, _) = rtree.knn(&p, 10);
        let approx = zm.knn_approximate(&p, 10, 64);
        let set: std::collections::BTreeSet<usize> = exact.into_iter().collect();
        recall_sum += approx.iter().filter(|id| set.contains(id)).count() as f64 / 10.0;
        trials += 1;
    }
    let recall = recall_sum / trials as f64;
    eprintln!("zm approximate kNN recall@10: {recall:.3} (r-tree: 1.000 exact)");
    rec.value("range_results", results);
    rec.value("entries_touched/rtree", r_access);
    rec.value("entries_touched/zm", z_scan);
    rec.value("entries_touched/lisa", l_scan);
    rec.value("entries_touched/rsmi", s_scan);
    rec.value("model_bytes/zm", zm.size_bytes());
    rec.value("model_bytes/lisa", lisa.size_bytes());
    rec.value("model_bytes/rsmi", rsmi.size_bytes());
    rec.value("segments/zm", zm.num_segments());
    rec.value("segments/rsmi", rsmi.num_segments());
    // Reported, not gated: the approximate kNN may be exact on a draw.
    rec.value("zm_knn_recall_at_10", recall);
    rec.check("lisa scans ≤ zm scans", l_scan <= z_scan);
}
