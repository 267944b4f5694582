//! An RSMI-style index (Qi et al. \[36\]): rank-space transformation before
//! the space-filling curve. Mapping each coordinate to its *rank* uniformly
//! spreads skewed data, so the learned CDF over rank-space Z-values needs
//! far fewer segments than raw-space ZM on skewed inputs — the improvement
//! RSMI demonstrated over ZM. (The full RSMI adds recursive partitioning;
//! this reproduction keeps the rank-space + learned-CDF core and documents
//! the simplification in DESIGN.md.)

use crate::geom::{z_interleave, Point, Rect, Z_BITS};
use crate::rtree::Entry;
use crate::zm::ZCurve;
use ml4db_index::pgm::Segment;

/// The rank-space model index.
#[derive(Clone, Debug)]
pub struct RsmiIndex {
    /// Entries along the rank-space Z-curve and the CDF learned over it.
    curve: ZCurve,
    /// Sorted x coordinates (for query-time rank mapping).
    xs: Vec<f64>,
    /// Sorted y coordinates.
    ys: Vec<f64>,
}

impl RsmiIndex {
    /// Builds the index with CDF error bound `epsilon`.
    pub fn build(entries: Vec<Entry>, epsilon: usize) -> Self {
        let mut xs: Vec<f64> = entries.iter().map(|e| e.rect.center().x).collect();
        let mut ys: Vec<f64> = entries.iter().map(|e| e.rect.center().y).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        ys.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let curve = ZCurve::build(entries, epsilon, |p| rank_z(&xs, &ys, p));
        Self { curve, xs, ys }
    }

    fn rank_z(&self, p: &Point) -> u64 {
        rank_z(&self.xs, &self.ys, p)
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.curve.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of learned segments — compare with raw-space ZM on skewed
    /// data to see the rank-space benefit.
    pub fn num_segments(&self) -> usize {
        self.curve.num_segments()
    }

    /// Exact range query; returns `(ids, scanned)`.
    pub fn range_query(&self, query: &Rect) -> (Vec<usize>, u64) {
        self.curve.range_query(query, self.rank_z(&query.min), self.rank_z(&query.max))
    }

    /// Approximate kNN in rank space (same caveat as ZM).
    pub fn knn_approximate(&self, point: &Point, k: usize, window: usize) -> Vec<usize> {
        self.curve.knn_approximate(point, self.rank_z(point), k, window)
    }

    /// Model size in bytes. The rank arrays are counted: they are the price
    /// of the rank-space transform.
    pub fn size_bytes(&self) -> usize {
        self.curve.num_segments() * std::mem::size_of::<Segment>()
            + (self.xs.len() + self.ys.len()) * 8
    }
}

/// The Z-value of `p`'s per-axis ranks among the sorted coordinates.
fn rank_z(xs: &[f64], ys: &[f64], p: &Point) -> u64 {
    z_interleave(scaled_rank(xs, p.x), scaled_rank(ys, p.y))
}

/// `v`'s rank among `sorted`, scaled onto the Z-curve's per-axis grid.
fn scaled_rank(sorted: &[f64], v: f64) -> u32 {
    if sorted.len() <= 1 {
        return 0;
    }
    let rank = sorted.partition_point(|&x| x < v) as u64;
    (rank * ((1u64 << Z_BITS) - 1) / sorted.len() as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{generate_points, unit_domain, SpatialDistribution};
    use crate::zm::ZmIndex;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn range_query_exact() {
        let mut rng = StdRng::seed_from_u64(1);
        let pts = generate_points(SpatialDistribution::Skewed, 2000, &mut rng);
        let idx = RsmiIndex::build(pts.clone(), 16);
        let q = Rect::new(Point::new(50.0, 50.0), Point::new(300.0, 250.0));
        let (mut got, _) = idx.range_query(&q);
        got.sort_unstable();
        let mut expected: Vec<usize> = pts
            .iter()
            .filter(|e| q.contains_point(&e.rect.center()))
            .map(|e| e.id)
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn rank_space_needs_fewer_segments_on_skew() {
        let mut rng = StdRng::seed_from_u64(2);
        let pts = generate_points(SpatialDistribution::Skewed, 8000, &mut rng);
        let zm = ZmIndex::build(pts.clone(), unit_domain(), 16);
        let rsmi = RsmiIndex::build(pts, 16);
        assert!(
            rsmi.num_segments() <= zm.num_segments(),
            "rank space ({}) should not need more segments than raw ({})",
            rsmi.num_segments(),
            zm.num_segments()
        );
    }

    #[test]
    fn knn_approximate_reasonable_recall() {
        let mut rng = StdRng::seed_from_u64(3);
        let pts = generate_points(SpatialDistribution::Clustered { clusters: 4 }, 2000, &mut rng);
        let idx = RsmiIndex::build(pts.clone(), 16);
        // Probe at a data point (see zm.rs: recall near data is the claim;
        // a fixed coordinate may land in dead space between clusters).
        let p = pts[pts.len() / 2].rect.center();
        let got = idx.knn_approximate(&p, 10, 64);
        assert_eq!(got.len(), 10);
        let mut truth: Vec<(f64, usize)> =
            pts.iter().map(|e| (e.rect.center().distance(&p), e.id)).collect();
        truth.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let truth_ids: std::collections::BTreeSet<usize> =
            truth[..10].iter().map(|&(_, id)| id).collect();
        let recall = got.iter().filter(|id| truth_ids.contains(id)).count() as f64 / 10.0;
        assert!(recall >= 0.4, "recall {recall}");
    }
}
