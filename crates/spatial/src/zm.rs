//! The ZM index (Wang et al. \[43\]) — the "replacement" learned spatial
//! index: linearize points with the Z-curve and learn the CDF of the
//! z-values (here with ε-bounded piecewise linear segments, reusing the
//! PGM machinery). Exhibits the two limitations the tutorial highlights:
//! range queries scan false positives inside the z-interval, and kNN is
//! approximate.

use crate::geom::{z_value, Point, Rect};
use crate::rtree::Entry;
use ml4db_index::pgm::{build_segments, Segment};

/// Everything after the point → z-value mapping, shared by [`ZmIndex`]
/// (raw-domain z-values) and [`crate::rsmi::RsmiIndex`] (rank-space
/// z-values): entries sorted along the curve, the learned CDF over their
/// z-values, and the queries that walk it.
#[derive(Clone, Debug)]
pub(crate) struct ZCurve {
    /// Entries sorted by z-value; parallel to `zs`.
    entries: Vec<Entry>,
    /// Sorted z-values (the sort is stable — duplicates are allowed).
    zs: Vec<u64>,
    segments: Vec<Segment>,
}

impl ZCurve {
    /// Sorts `entries` along the curve `z_of` and learns the CDF of their
    /// z-values with error bound `epsilon`.
    pub(crate) fn build(
        mut entries: Vec<Entry>,
        epsilon: usize,
        z_of: impl Fn(&Point) -> u64,
    ) -> Self {
        entries.sort_by_key(|e| z_of(&e.rect.center()));
        let zs: Vec<u64> = entries.iter().map(|e| z_of(&e.rect.center())).collect();
        // build_segments expects sorted keys; duplicates are tolerated by
        // the cone (dx == 0 entries are skipped).
        let segments = build_segments(&zs, epsilon.max(1));
        Self { entries, zs, segments }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// First position with z-value `>= z`: the covering segment's
    /// prediction (clamped into its range, as in the PGM), widened
    /// exponentially on the raw z array until it brackets the answer.
    fn lower_bound(&self, z: u64) -> usize {
        if self.zs.is_empty() {
            return 0;
        }
        let last = self.zs.len() - 1;
        let idx = self
            .segments
            .partition_point(|s| s.first_key <= z)
            .saturating_sub(1);
        let seg = &self.segments[idx];
        let range_end =
            self.segments.get(idx + 1).map_or(self.zs.len(), |next| next.start);
        let pred = seg
            .model
            .predict(z, self.zs.len())
            .clamp(seg.start, range_end.saturating_sub(1).max(seg.start));
        let (mut lo, mut hi) = (pred, pred);
        let mut radius = 1usize;
        while lo > 0 && self.zs[lo] >= z {
            lo = lo.saturating_sub(radius);
            radius *= 2;
        }
        radius = 1;
        while hi < last && self.zs[hi] < z {
            hi = (hi + radius).min(last);
            radius *= 2;
        }
        lo + self.zs[lo..=hi].partition_point(|&v| v < z)
    }

    /// Ids of entries inside `query`, whose corners map to `z_lo` and
    /// `z_hi`, plus the number of candidates examined in that z-interval.
    pub(crate) fn range_query(&self, query: &Rect, z_lo: u64, z_hi: u64) -> (Vec<usize>, u64) {
        let start = self.lower_bound(z_lo);
        let scanned = self.zs[start..].partition_point(|&v| v <= z_hi);
        let ids = self.entries[start..start + scanned]
            .iter()
            .filter(|e| query.contains_point(&e.rect.center()))
            .map(|e| e.id)
            .collect();
        (ids, scanned as u64)
    }

    /// The `k` nearest to `point` among the `2 * (window + k)` entries
    /// around `z`, the point's position on the curve.
    pub(crate) fn knn_approximate(
        &self,
        point: &Point,
        z: u64,
        k: usize,
        window: usize,
    ) -> Vec<usize> {
        let pos = self.lower_bound(z);
        let lo = pos.saturating_sub(window + k);
        let hi = (pos + window + k).min(self.entries.len());
        let mut cands: Vec<(f64, usize)> = self.entries[lo..hi]
            .iter()
            .map(|e| (e.rect.center().distance(point), e.id))
            .collect();
        cands.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        cands.truncate(k);
        cands.into_iter().map(|(_, id)| id).collect()
    }
}

/// A ZM index over points.
#[derive(Clone, Debug)]
pub struct ZmIndex {
    curve: ZCurve,
    epsilon: usize,
    domain: Rect,
}

impl ZmIndex {
    /// Builds the index with CDF error bound `epsilon`.
    pub fn build(entries: Vec<Entry>, domain: Rect, epsilon: usize) -> Self {
        let epsilon = epsilon.max(1);
        let curve = ZCurve::build(entries, epsilon, |p| z_value(p, &domain));
        Self { curve, epsilon, domain }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.curve.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of learned segments (model size).
    pub fn num_segments(&self) -> usize {
        self.curve.num_segments()
    }

    /// Range query: exact results, but the scan may touch false positives
    /// inside the z-interval. Returns `(ids, scanned)` where `scanned`
    /// counts candidate entries examined (the ZM inefficiency metric).
    pub fn range_query(&self, query: &Rect) -> (Vec<usize>, u64) {
        let z_lo = z_value(&query.min, &self.domain);
        let z_hi = z_value(&query.max, &self.domain);
        self.curve.range_query(query, z_lo, z_hi)
    }

    /// **Approximate** kNN: examines `2 * window + k` candidates around the
    /// query's z-position and returns the `k` nearest among them. Recall
    /// below 1.0 is expected — the robustness limitation of z-order kNN the
    /// tutorial calls out.
    pub fn knn_approximate(&self, point: &Point, k: usize, window: usize) -> Vec<usize> {
        self.curve.knn_approximate(point, z_value(point, &self.domain), k, window)
    }

    /// Point lookup by exact coordinates: a one-point range query.
    pub fn contains(&self, point: &Point) -> bool {
        !self.range_query(&Rect::from_point(*point)).0.is_empty()
    }

    /// Model size in bytes (segments only).
    pub fn size_bytes(&self) -> usize {
        self.curve.num_segments() * std::mem::size_of::<Segment>()
    }

    /// The ε used at build time.
    pub fn epsilon(&self) -> usize {
        self.epsilon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{generate_points, unit_domain, SpatialDistribution};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, seed: u64) -> (Vec<Entry>, ZmIndex) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = generate_points(SpatialDistribution::Clustered { clusters: 6 }, n, &mut rng);
        let zm = ZmIndex::build(pts.clone(), unit_domain(), 16);
        (pts, zm)
    }

    #[test]
    fn range_query_is_exact() {
        let (pts, zm) = setup(2000, 1);
        let q = Rect::new(Point::new(200.0, 200.0), Point::new(500.0, 450.0));
        let (mut got, scanned) = zm.range_query(&q);
        got.sort_unstable();
        let mut expected: Vec<usize> = pts
            .iter()
            .filter(|e| q.contains_point(&e.rect.center()))
            .map(|e| e.id)
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
        assert!(
            scanned as usize >= expected.len(),
            "scan must cover all results"
        );
    }

    #[test]
    fn scan_overhead_exists() {
        // The z-interval contains false positives — the documented weakness.
        let (_, zm) = setup(5000, 2);
        let q = Rect::new(Point::new(450.0, 450.0), Point::new(560.0, 560.0));
        let (got, scanned) = zm.range_query(&q);
        assert!(
            scanned as usize >= got.len(),
            "scanned {scanned} < results {}",
            got.len()
        );
    }

    #[test]
    fn knn_is_approximate_but_reasonable() {
        let (pts, zm) = setup(3000, 3);
        // Probe at a data point: a fixed coordinate can fall in dead space
        // between clusters, where a z-interval window legitimately finds
        // nothing — the claim under test is recall *near data*.
        let p = pts[pts.len() / 2].rect.center();
        let k = 10;
        let got = zm.knn_approximate(&p, k, 256);
        assert_eq!(got.len(), k);
        // Recall vs brute force.
        let mut truth: Vec<(f64, usize)> =
            pts.iter().map(|e| (e.rect.center().distance(&p), e.id)).collect();
        truth.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let truth_ids: std::collections::BTreeSet<usize> =
            truth[..k].iter().map(|&(_, id)| id).collect();
        let hit = got.iter().filter(|id| truth_ids.contains(id)).count();
        let recall = hit as f64 / k as f64;
        // Approximate by design — the tutorial's robustness point — but a
        // wide window should still find a fair share of the true neighbors.
        assert!(recall >= 0.3, "recall {recall} unreasonably low");
        assert!(recall <= 1.0);
    }

    #[test]
    fn model_much_smaller_than_data() {
        let (pts, zm) = setup(5000, 4);
        let data_bytes = pts.len() * std::mem::size_of::<Entry>();
        assert!(zm.size_bytes() * 5 < data_bytes);
    }

    #[test]
    fn contains_finds_members() {
        let (pts, zm) = setup(1000, 5);
        for e in pts.iter().step_by(97) {
            assert!(zm.contains(&e.rect.center()));
        }
        assert!(!zm.contains(&Point::new(-5.0, -5.0)));
    }

    #[test]
    fn empty_index() {
        let zm = ZmIndex::build(Vec::new(), unit_domain(), 8);
        assert!(zm.is_empty());
        assert_eq!(zm.range_query(&unit_domain()).0.len(), 0);
        assert!(zm.knn_approximate(&Point::new(0.0, 0.0), 3, 8).is_empty());
    }
}
