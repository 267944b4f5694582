//! A LISA-style learned spatial index (Li et al. \[25\]): instead of a
//! space-filling curve, learn a direct mapping from points to a 1-D value —
//! here, equi-depth x-strips with a per-strip learned CDF over y. Range
//! queries decompose exactly over strips (no z-interval false positives),
//! which is LISA's advantage over ZM.

use crate::geom::Rect;
use crate::rtree::Entry;
use ml4db_index::model::LinearModel;

/// One x-strip: points sorted by y with a learned y→rank model.
#[derive(Clone, Debug)]
struct Strip {
    /// X-range lower bound of the strip.
    x_lo: f64,
    /// Entries sorted by y.
    entries: Vec<Entry>,
    /// Learned CDF over y (position prediction).
    model: LinearModel,
    /// Max prediction error of `model`.
    err: usize,
}

/// The LISA-style index.
#[derive(Clone, Debug)]
pub struct LisaIndex {
    strips: Vec<Strip>,
    len: usize,
}

impl LisaIndex {
    /// Builds the index with roughly `per_strip` points per x-strip.
    pub fn build(mut entries: Vec<Entry>, per_strip: usize) -> Self {
        let len = entries.len();
        let per_strip = per_strip.max(8);
        entries.sort_by(|a, b| {
            a.rect
                .center()
                .x
                .partial_cmp(&b.rect.center().x)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut strips = Vec::new();
        for chunk in entries.chunks(per_strip) {
            let x_lo = chunk.first().map(|e| e.rect.center().x).unwrap_or(0.0);
            let mut strip: Vec<Entry> = chunk.to_vec();
            strip.sort_by(|a, b| {
                a.rect
                    .center()
                    .y
                    .partial_cmp(&b.rect.center().y)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            // Learn y → rank on a quantized integer scale.
            let ys: Vec<u64> = strip.iter().map(|e| quantize(e.rect.center().y)).collect();
            let model = LinearModel::fit_positions(&ys);
            let err = model.max_error(&ys);
            strips.push(Strip { x_lo, entries: strip, model, err });
        }
        Self { strips, len }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Exact range query. Returns `(ids, scanned)` — `scanned` counts
    /// entries examined, which for LISA stays close to the result size
    /// except at strip boundaries.
    pub fn range_query(&self, query: &Rect) -> (Vec<usize>, u64) {
        let mut out = Vec::new();
        let mut scanned = 0u64;
        // Strips intersecting the x-range: [first strip with x_lo <= x_hi,
        // starting from the last strip whose x_lo <= x_lo].
        let start = self
            .strips
            .partition_point(|s| s.x_lo <= query.min.x)
            .saturating_sub(1);
        for strip in &self.strips[start..] {
            if strip.x_lo > query.max.x {
                break;
            }
            // Learned lower bound on y inside the strip.
            let y_key = quantize(query.min.y);
            let n = strip.entries.len();
            let pred = strip.model.predict(y_key, n);
            let mut i = pred.saturating_sub(strip.err + 1);
            // Correct the bound: walk to the true first y >= query.min.y.
            while i > 0 && strip.entries[i - 1].rect.center().y >= query.min.y {
                i -= 1;
            }
            while i < n && strip.entries[i].rect.center().y < query.min.y {
                i += 1;
            }
            for e in &strip.entries[i..] {
                let c = e.rect.center();
                if c.y > query.max.y {
                    break;
                }
                scanned += 1;
                if c.x >= query.min.x && c.x <= query.max.x {
                    out.push(e.id);
                }
            }
        }
        (out, scanned)
    }

    /// Model size in bytes (strip boundaries + models).
    pub fn size_bytes(&self) -> usize {
        self.strips.len() * (std::mem::size_of::<f64>() + std::mem::size_of::<LinearModel>() + 8)
    }
}

fn quantize(v: f64) -> u64 {
    // Domain coordinates are non-negative in our generators; scale to keep
    // fractional resolution.
    (v.max(0.0) * 1000.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{generate_points, SpatialDistribution};
    use crate::geom::Point;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, seed: u64) -> (Vec<Entry>, LisaIndex) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = generate_points(SpatialDistribution::Skewed, n, &mut rng);
        let lisa = LisaIndex::build(pts.clone(), 64);
        (pts, lisa)
    }

    #[test]
    fn range_query_exact() {
        let (pts, lisa) = setup(3000, 1);
        for (qx, qy, w) in [(100.0, 100.0, 200.0), (0.0, 0.0, 50.0), (400.0, 300.0, 500.0)] {
            let q = Rect::new(Point::new(qx, qy), Point::new(qx + w, qy + w));
            let (mut got, _) = lisa.range_query(&q);
            got.sort_unstable();
            let mut expected: Vec<usize> = pts
                .iter()
                .filter(|e| q.contains_point(&e.rect.center()))
                .map(|e| e.id)
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected, "range ({qx},{qy})+{w}");
        }
    }

    #[test]
    fn scan_overhead_bounded_by_strip_structure() {
        let (_, lisa) = setup(5000, 2);
        let q = Rect::new(Point::new(100.0, 100.0), Point::new(300.0, 300.0));
        let (got, scanned) = lisa.range_query(&q);
        // Scanned entries are within the y-band of intersected strips; the
        // overhead is the x-boundary strips only.
        assert!(scanned >= got.len() as u64);
        assert!(
            scanned < (got.len() as u64 + 1) * 8,
            "scan overhead too large: {scanned} for {} results",
            got.len()
        );
    }

    #[test]
    fn empty_and_tiny() {
        let lisa = LisaIndex::build(Vec::new(), 32);
        assert!(lisa.is_empty());
        let q = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        assert!(lisa.range_query(&q).0.is_empty());
        let one = LisaIndex::build(
            vec![Entry { rect: Rect::from_point(Point::new(5.0, 5.0)), id: 7 }],
            32,
        );
        assert_eq!(one.range_query(&q).0, vec![7]);
    }

    #[test]
    fn model_smaller_than_data() {
        let (pts, lisa) = setup(5000, 3);
        assert!(lisa.size_bytes() * 10 < pts.len() * std::mem::size_of::<Entry>());
    }
}
