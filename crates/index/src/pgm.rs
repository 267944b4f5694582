//! The PGM-index (Ferragina & Vinciguerra \[8\]): a multi-level piecewise
//! linear index with a provable per-level error bound ε, built in a single
//! streaming pass, plus a dynamic LSM-style variant supporting inserts.
//!
//! The lookup path is split two-phase (jdb_pgm-style): [`PgmCore`] owns only
//! the models and answers [`PgmCore::predict_range`] with a half-open window
//! guaranteed to contain the key's position (or insertion point); the caller
//! finishes with a last-mile search over its own borrowed slice. The data
//! level is stored flattened (structure-of-arrays) so the per-probe walk
//! touches dense `u64`/`f64` arrays instead of pointer-sized AoS records.

use crate::model::LinearModel;
use crate::search::{last_mile_search, Keyed};
use crate::{KeyValue, MutableIndex, OrderedIndex, TwoPhaseIndex};

/// One ε-bounded linear segment covering keys `>= first_key`.
#[derive(Clone, Copy, Debug)]
pub struct Segment {
    /// Smallest key covered by this segment.
    pub first_key: u64,
    /// The key→position model of this segment.
    pub model: LinearModel,
    /// First position (in the indexed array) covered by this segment.
    /// Predictions are clamped to `[start, next.start)` so keys falling in
    /// the gap between segments cannot extrapolate arbitrarily far.
    pub start: usize,
}

/// Builds an ε-bounded piecewise linear approximation of `(key, position)`
/// using the shrinking-cone algorithm (single pass, O(n)): a new segment is
/// opened whenever no line through the segment origin can keep every point
/// within ±ε.
///
/// Models are anchored at the segment origin (`key0 = first_key`,
/// `intercept = start`), matching the cone construction exactly and keeping
/// full precision for large-magnitude keys. Slopes are never negative: keys
/// and positions both ascend, and whenever the cone midpoint dips below
/// zero the cone still contains zero (every upper constraint is positive),
/// so clamping stays feasible — monotone models are what lets two-phase
/// windows cover absent keys in segment gaps.
pub fn build_segments(keys: &[u64], epsilon: usize) -> Vec<Segment> {
    let eps = epsilon as f64;
    let mut segments = Vec::new();
    if keys.is_empty() {
        return segments;
    }
    let close = |start: usize, slope: f64| Segment {
        first_key: keys[start],
        model: LinearModel { slope, intercept: start as f64, key0: keys[start] },
        start,
    };
    let mut start = 0usize;
    let (mut slope_lo, mut slope_hi) = (f64::NEG_INFINITY, f64::INFINITY);
    for i in 1..keys.len() {
        let dx = (keys[i] - keys[start]) as f64;
        if dx == 0.0 {
            continue; // duplicate keys share a position estimate
        }
        let dy = (i - start) as f64;
        let lo = (dy - eps) / dx;
        let hi = (dy + eps) / dx;
        let new_lo = slope_lo.max(lo);
        let new_hi = slope_hi.min(hi);
        if new_lo > new_hi {
            // Close the segment with a feasible slope.
            segments.push(close(start, feasible_slope(slope_lo, slope_hi)));
            start = i;
            slope_lo = f64::NEG_INFINITY;
            slope_hi = f64::INFINITY;
        } else {
            slope_lo = new_lo;
            slope_hi = new_hi;
        }
    }
    segments.push(close(start, feasible_slope(slope_lo, slope_hi)));
    segments
}

fn feasible_slope(lo: f64, hi: f64) -> f64 {
    let mid = match (lo.is_finite(), hi.is_finite()) {
        (true, true) => 0.5 * (lo + hi),
        (true, false) => lo,
        (false, true) => hi,
        (false, false) => 0.0, // single-point segment
    };
    // Every finite upper constraint (dy + ε)/dx is positive, so when the
    // midpoint is negative the cone still contains 0.
    mid.max(0.0)
}

/// Flattened structure-of-arrays layout of the data-level segments: four
/// parallel dense arrays instead of a `Vec<Segment>`, so a probe's segment
/// walk and model evaluation stream through contiguous same-typed memory.
#[derive(Clone, Debug, Default)]
pub struct FlatSegments {
    first_keys: Vec<u64>,
    slopes: Vec<f64>,
    intercepts: Vec<f64>,
    starts: Vec<u32>,
}

impl FlatSegments {
    fn from_segments(segs: &[Segment]) -> Self {
        Self {
            first_keys: segs.iter().map(|s| s.first_key).collect(),
            slopes: segs.iter().map(|s| s.model.slope).collect(),
            intercepts: segs.iter().map(|s| s.model.intercept).collect(),
            starts: segs.iter().map(|s| s.start as u32).collect(),
        }
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.first_keys.len()
    }

    /// True when no segments are stored.
    pub fn is_empty(&self) -> bool {
        self.first_keys.is_empty()
    }

    fn model(&self, i: usize) -> LinearModel {
        LinearModel {
            slope: self.slopes[i],
            intercept: self.intercepts[i],
            key0: self.first_keys[i],
        }
    }

    fn size_bytes(&self) -> usize {
        self.len() * (8 + 8 + 8 + 4)
    }
}

/// The model half of a PGM-index: recursive ε-bounded segment levels over a
/// sorted key array it does **not** own. Phase 1 of a lookup asks
/// [`PgmCore::predict_range`] for a window; phase 2 is the caller's
/// last-mile search over its own slice — no per-probe allocation, and the
/// same core can serve any storage of the keys it was built from.
#[derive(Clone, Debug)]
pub struct PgmCore {
    n: usize,
    epsilon: usize,
    /// Data-level segments, flattened.
    data: FlatSegments,
    /// `upper[0]` indexes the data segments' first keys; `upper[k+1]`
    /// indexes `upper[k]`. The last level has at most `BASE_FANOUT` entries.
    upper: Vec<Vec<Segment>>,
}

const BASE_FANOUT: usize = 8;

/// Rightmost index in `0..below_len` whose first key is `<= key` (0 when
/// every first key is above `key`), found by walking outward from the
/// model's clamped guess. The walk length is bounded by the model's actual
/// misprediction (≤ ε + 2 by the cone bound and monotone slopes), and
/// unlike a fixed ±ε window it is *always* correct, so window-containment
/// guarantees never rest on the guess being good.
fn refine_segment<F: Fn(usize) -> u64>(
    first_key_at: F,
    below_len: usize,
    seg: &Segment,
    key: u64,
    range_end: usize,
) -> usize {
    let guess = seg
        .model
        .predict(key, below_len)
        .clamp(seg.start, range_end.saturating_sub(1).max(seg.start));
    let mut j = guess;
    while j + 1 < below_len && first_key_at(j + 1) <= key {
        j += 1;
    }
    while j > 0 && first_key_at(j) > key {
        j -= 1;
    }
    j
}

impl PgmCore {
    /// Builds the recursive segment hierarchy with error bound `epsilon`
    /// over a strictly sorted key array.
    pub fn build(keys: &[u64], epsilon: usize) -> Self {
        let epsilon = epsilon.max(1);
        if keys.is_empty() {
            return Self { n: 0, epsilon, data: FlatSegments::default(), upper: Vec::new() };
        }
        assert!(keys.len() <= u32::MAX as usize, "PgmCore: > u32::MAX keys");
        let mut segs = build_segments(keys, epsilon);
        let data = FlatSegments::from_segments(&segs);
        let mut upper = Vec::new();
        while segs.len() > BASE_FANOUT {
            let level_keys: Vec<u64> = segs.iter().map(|s| s.first_key).collect();
            segs = build_segments(&level_keys, epsilon);
            upper.push(segs.clone());
        }
        Self { n: keys.len(), epsilon, data, upper }
    }

    /// Number of keys the core was built over.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when built over no keys.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The error bound ε.
    pub fn epsilon(&self) -> usize {
        self.epsilon
    }

    /// Number of levels (1 = segments directly over the data).
    pub fn num_levels(&self) -> usize {
        if self.n == 0 {
            0
        } else {
            1 + self.upper.len()
        }
    }

    /// Total number of segments across levels.
    pub fn num_segments(&self) -> usize {
        self.data.len() + self.upper.iter().map(|l| l.len()).sum::<usize>()
    }

    /// Structural footprint in bytes (models only; the key array belongs to
    /// the caller).
    pub fn size_bytes(&self) -> usize {
        self.data.size_bytes()
            + self
                .upper
                .iter()
                .map(|l| l.len() * std::mem::size_of::<Segment>())
                .sum::<usize>()
    }

    /// Index of the data-level segment responsible for `key`: the rightmost
    /// segment with `first_key <= key`, or 0 when `key` precedes them all.
    pub fn locate_data_segment(&self, key: u64) -> usize {
        debug_assert!(self.n > 0, "locate on empty core");
        let mut idx = match self.upper.last() {
            None => {
                // Few data segments: find directly.
                return self.data.first_keys.partition_point(|&k| k <= key).saturating_sub(1);
            }
            Some(top) => top.partition_point(|s| s.first_key <= key).saturating_sub(1),
        };
        // Descend: upper[d] predicts into upper[d-1], upper[0] into the
        // flattened data level.
        for d in (1..self.upper.len()).rev() {
            let seg = &self.upper[d][idx];
            let below = &self.upper[d - 1];
            let range_end = self.upper[d].get(idx + 1).map_or(below.len(), |s| s.start);
            idx = refine_segment(|j| below[j].first_key, below.len(), seg, key, range_end);
        }
        let seg = &self.upper[0][idx];
        let range_end = self.upper[0].get(idx + 1).map_or(self.data.len(), |s| s.start);
        refine_segment(|j| self.data.first_keys[j], self.data.len(), seg, key, range_end)
    }

    /// True when data segment `idx` is the one [`Self::locate_data_segment`]
    /// would return for `key` — the cheap check that lets sorted batch
    /// lookups reuse the previous probe's segment.
    pub fn segment_covers(&self, idx: usize, key: u64) -> bool {
        if idx >= self.data.len() {
            return false;
        }
        (idx == 0 || self.data.first_keys[idx] <= key)
            && (idx + 1 == self.data.len() || key < self.data.first_keys[idx + 1])
    }

    /// Phase-1 window for `key` given its covering data segment: a half-open
    /// `[lo, hi)` with `hi <= len()` that contains `key`'s position when
    /// present and its insertion point otherwise (`hi` itself may *be* the
    /// insertion point for keys above every indexed key).
    pub fn predict_range_in(&self, idx: usize, key: u64) -> (usize, usize) {
        let s = self.data.starts[idx] as usize;
        let e = if idx + 1 < self.data.len() {
            self.data.starts[idx + 1] as usize
        } else {
            self.n
        };
        let pred = self
            .data
            .model(idx)
            .predict(key, self.n)
            .clamp(s, e.saturating_sub(1).max(s));
        // ε from the cone, +1 for gap keys between members (monotone
        // models), +1 for integer rounding in `predict`.
        let w = self.epsilon + 2;
        let lo = pred.saturating_sub(w);
        let hi = (pred + w + 1).min(self.n);
        (lo, hi.max(lo))
    }

    /// Phase-1 window for `key`: locate + [`Self::predict_range_in`].
    pub fn predict_range(&self, key: u64) -> (usize, usize) {
        if self.n == 0 {
            return (0, 0);
        }
        let idx = self.locate_data_segment(key);
        self.predict_range_in(idx, key)
    }

    /// Both phases over `slots`, a borrowed sorted array holding the keys
    /// this core was built from: the [`Self::predict_range`] window, then
    /// the last-mile search. `slice::binary_search` contract.
    #[inline]
    pub fn search<T: Keyed>(&self, slots: &[T], key: u64) -> Result<usize, usize> {
        let (lo, hi) = self.predict_range(key);
        last_mile_search(slots, key, lo, hi)
    }
}

/// A static PGM-index: a [`PgmCore`] plus ownership of the sorted entries it
/// indexes. Every level guarantees its predictions are within ±ε of the
/// true position, so each lookup searches an `O(ε)` window.
#[derive(Clone, Debug)]
pub struct PgmIndex {
    entries: Vec<KeyValue>,
    core: PgmCore,
}

impl PgmIndex {
    /// Builds a PGM-index with error bound `epsilon` over sorted entries.
    ///
    /// # Panics
    /// Panics (in debug builds) if input is not strictly sorted.
    pub fn build(entries: Vec<KeyValue>, epsilon: usize) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "PgmIndex::build: unsorted input"
        );
        let keys: Vec<u64> = entries.iter().map(|e| e.0).collect();
        let core = PgmCore::build(&keys, epsilon);
        Self { entries, core }
    }

    /// The error bound ε.
    pub fn epsilon(&self) -> usize {
        self.core.epsilon()
    }

    /// Number of levels (1 = segments directly over the data).
    pub fn num_levels(&self) -> usize {
        self.core.num_levels()
    }

    /// Total number of segments across levels.
    pub fn num_segments(&self) -> usize {
        self.core.num_segments()
    }

    /// Borrow the model half (for callers doing phase 2 over their own copy
    /// of the data).
    pub fn core(&self) -> &PgmCore {
        &self.core
    }

    /// First position whose key is `>= key`.
    pub fn lower_bound(&self, key: u64) -> usize {
        match self.core.search(&self.entries, key) {
            Ok(i) | Err(i) => i,
        }
    }

    /// Borrow the underlying sorted entries.
    pub fn entries(&self) -> &[KeyValue] {
        &self.entries
    }
}

impl OrderedIndex for PgmIndex {
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn get(&self, key: u64) -> Option<u64> {
        self.lookup(key)
    }

    fn range(&self, lo: u64, hi: u64) -> Vec<KeyValue> {
        if lo > hi || self.entries.is_empty() {
            return Vec::new();
        }
        let start = self.lower_bound(lo);
        self.entries[start..].iter().take_while(|e| e.0 <= hi).copied().collect()
    }

    fn size_bytes(&self) -> usize {
        self.core.size_bytes()
    }
}

impl TwoPhaseIndex for PgmIndex {
    fn entries(&self) -> &[KeyValue] {
        &self.entries
    }

    fn predict_range(&self, key: u64) -> (usize, usize) {
        self.core.predict_range(key)
    }

    /// Sorted probes reuse the previous probe's data segment (checked with
    /// one key comparison, no re-descent) and floor-narrow each window to
    /// the previous landing position.
    fn lookup_batch_sorted(&self, keys: &[u64], out: &mut Vec<Option<u64>>) {
        debug_assert!(keys.windows(2).all(|w| w[0] <= w[1]), "unsorted probe batch");
        out.clear();
        out.reserve(keys.len());
        if self.entries.is_empty() {
            out.extend(keys.iter().map(|_| None));
            return;
        }
        let mut seg = 0usize;
        let mut floor = 0usize;
        for &key in keys {
            if !self.core.segment_covers(seg, key) {
                // Sorted probes usually step into the adjacent segment.
                seg = if self.core.segment_covers(seg + 1, key) {
                    seg + 1
                } else {
                    self.core.locate_data_segment(key)
                };
            }
            let (lo, hi) = self.core.predict_range_in(seg, key);
            let lo = lo.max(floor);
            let hi = hi.max(lo);
            match last_mile_search(&self.entries, key, lo, hi) {
                Ok(i) => {
                    out.push(Some(self.entries[i].1));
                    floor = i;
                }
                Err(i) => {
                    out.push(None);
                    floor = i;
                }
            }
        }
    }
}

/// A dynamic PGM: LSM-style logarithmic collection of static PGM runs plus
/// an unsorted insert buffer, as in the fully-dynamic PGM-index.
#[derive(Clone, Debug)]
pub struct DynamicPgm {
    buffer: Vec<KeyValue>,
    buffer_cap: usize,
    /// Runs in increasing size order; each run's length is at most half the
    /// next run's.
    runs: Vec<PgmIndex>,
    epsilon: usize,
    len: usize,
}

impl DynamicPgm {
    /// Creates an empty dynamic PGM with error bound `epsilon`.
    pub fn new(epsilon: usize) -> Self {
        Self { buffer: Vec::new(), buffer_cap: 256, runs: Vec::new(), epsilon, len: 0 }
    }

    /// Builds from sorted entries (one static run).
    pub fn from_sorted(entries: Vec<KeyValue>, epsilon: usize) -> Self {
        let len = entries.len();
        Self {
            buffer: Vec::new(),
            buffer_cap: 256,
            runs: vec![PgmIndex::build(entries, epsilon)],
            epsilon,
            len,
        }
    }

    fn flush_buffer(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        self.buffer.sort_unstable_by_key(|e| e.0);
        self.buffer.dedup_by_key(|e| e.0);
        let mut merged: Vec<KeyValue> = std::mem::take(&mut self.buffer);
        // Merge with runs smaller than the merged result (geometric policy),
        // newest runs shadow older values for duplicate keys.
        while let Some(last) = self.runs.last() {
            if last.len() <= merged.len() * 2 {
                let run = self.runs.pop().expect("checked non-empty");
                merged = merge_shadowing(&merged, run.entries());
            } else {
                break;
            }
        }
        self.runs.push(PgmIndex::build(merged, self.epsilon));
        self.runs.sort_by_key(|r| std::cmp::Reverse(r.len()));
        self.len = self.runs.iter().map(|r| r.len()).sum();
    }

    /// Number of static runs currently held.
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }
}

/// Merges two sorted runs; entries of `newer` shadow `older` on key ties.
fn merge_shadowing(newer: &[KeyValue], older: &[KeyValue]) -> Vec<KeyValue> {
    let mut out = Vec::with_capacity(newer.len() + older.len());
    let (mut i, mut j) = (0, 0);
    while i < newer.len() && j < older.len() {
        match newer[i].0.cmp(&older[j].0) {
            std::cmp::Ordering::Less => {
                out.push(newer[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(older[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(newer[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&newer[i..]);
    out.extend_from_slice(&older[j..]);
    out
}

impl OrderedIndex for DynamicPgm {
    fn len(&self) -> usize {
        // Upper bound: duplicate keys across runs/buffer are counted once at
        // flush time; the buffer may shadow run keys until then.
        self.len + self.buffer.len()
    }

    fn get(&self, key: u64) -> Option<u64> {
        // Newest first: buffer, then runs from smallest (newest) to largest.
        if let Some(e) = self.buffer.iter().rev().find(|e| e.0 == key) {
            return Some(e.1);
        }
        for run in self.runs.iter().rev() {
            if let Some(v) = run.get(key) {
                return Some(v);
            }
        }
        None
    }

    fn range(&self, lo: u64, hi: u64) -> Vec<KeyValue> {
        if lo > hi {
            return Vec::new();
        }
        // Gather from newest to oldest so the first occurrence of a key wins.
        let mut seen = std::collections::BTreeMap::new();
        for run in &self.runs {
            for (k, v) in run.range(lo, hi) {
                seen.insert(k, v);
            }
        }
        for &(k, v) in &self.buffer {
            if k >= lo && k <= hi {
                seen.insert(k, v);
            }
        }
        seen.into_iter().collect()
    }

    fn size_bytes(&self) -> usize {
        self.runs.iter().map(|r| r.size_bytes()).sum::<usize>()
            + self.buffer.capacity() * std::mem::size_of::<KeyValue>()
    }
}

impl MutableIndex for DynamicPgm {
    fn insert(&mut self, key: u64, value: u64) {
        self.buffer.retain(|e| e.0 != key);
        self.buffer.push((key, value));
        if self.buffer.len() >= self.buffer_cap {
            self.flush_buffer();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{generate_entries, KeyDistribution};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn segments_respect_epsilon() {
        let mut rng = StdRng::seed_from_u64(1);
        for dist in [
            KeyDistribution::Uniform { max: 1 << 40 },
            KeyDistribution::LogNormal { sigma: 2.0 },
            KeyDistribution::Clustered { clusters: 8 },
        ] {
            let entries = generate_entries(dist, 5000, &mut rng);
            let keys: Vec<u64> = entries.iter().map(|e| e.0).collect();
            for eps in [4usize, 16, 64] {
                let segs = build_segments(&keys, eps);
                // Verify: every key's predicted position is within eps of truth.
                let mut seg_idx = 0;
                for (i, &k) in keys.iter().enumerate() {
                    while seg_idx + 1 < segs.len() && segs[seg_idx + 1].first_key <= k {
                        seg_idx += 1;
                    }
                    let pred = segs[seg_idx].model.predict_f(k);
                    let err = (pred - i as f64).abs();
                    assert!(
                        err <= eps as f64 + 1.0,
                        "{dist:?} eps={eps} key {k}: err {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn segments_have_nonnegative_slopes() {
        let mut rng = StdRng::seed_from_u64(7);
        let entries =
            generate_entries(KeyDistribution::LogNormal { sigma: 2.5 }, 20_000, &mut rng);
        let keys: Vec<u64> = entries.iter().map(|e| e.0).collect();
        for eps in [1usize, 4, 64] {
            for s in build_segments(&keys, eps) {
                assert!(s.model.slope >= 0.0, "eps={eps}: negative slope {}", s.model.slope);
            }
        }
    }

    #[test]
    fn smaller_epsilon_more_segments() {
        let mut rng = StdRng::seed_from_u64(2);
        let entries = generate_entries(KeyDistribution::LogNormal { sigma: 2.0 }, 10_000, &mut rng);
        let keys: Vec<u64> = entries.iter().map(|e| e.0).collect();
        let coarse = build_segments(&keys, 128).len();
        let fine = build_segments(&keys, 4).len();
        assert!(fine > coarse, "fine {fine} !> coarse {coarse}");
    }

    #[test]
    fn lookup_all_present_keys() {
        let mut rng = StdRng::seed_from_u64(3);
        for dist in [
            KeyDistribution::Sequential,
            KeyDistribution::Uniform { max: 1 << 40 },
            KeyDistribution::LogNormal { sigma: 2.0 },
        ] {
            let entries = generate_entries(dist, 8000, &mut rng);
            let pgm = PgmIndex::build(entries.clone(), 16);
            for &(k, v) in &entries {
                assert_eq!(pgm.get(k), Some(v), "{dist:?} key {k}");
            }
        }
    }

    #[test]
    fn multi_level_build() {
        let mut rng = StdRng::seed_from_u64(4);
        let entries =
            generate_entries(KeyDistribution::LogNormal { sigma: 2.5 }, 50_000, &mut rng);
        let pgm = PgmIndex::build(entries.clone(), 4);
        assert!(pgm.num_levels() >= 2, "expected recursion, got {}", pgm.num_levels());
        for &(k, v) in entries.iter().step_by(97) {
            assert_eq!(pgm.get(k), Some(v));
        }
    }

    #[test]
    fn range_matches_filter() {
        let entries: Vec<KeyValue> = (0..3000u64).map(|k| (k * 5 + 7, k)).collect();
        let pgm = PgmIndex::build(entries.clone(), 8);
        let got = pgm.range(500, 1500);
        let expected: Vec<KeyValue> =
            entries.iter().filter(|e| e.0 >= 500 && e.0 <= 1500).copied().collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn predict_range_contains_position_or_insertion_point() {
        let mut rng = StdRng::seed_from_u64(5);
        let entries =
            generate_entries(KeyDistribution::LogNormal { sigma: 2.0 }, 10_000, &mut rng);
        let pgm = PgmIndex::build(entries.clone(), 8);
        let probe = |k: u64| {
            let (lo, hi) = pgm.core().predict_range(k);
            let p = match entries.binary_search_by_key(&k, |e| e.0) {
                Ok(i) => i,
                Err(i) => i,
            };
            assert!(lo <= p && p <= hi, "key {k}: pos {p} outside [{lo}, {hi})");
            assert!(hi <= entries.len());
        };
        for &(k, _) in entries.iter().step_by(13) {
            probe(k);
            probe(k.wrapping_add(1));
            probe(k.saturating_sub(1));
        }
        probe(0);
        probe(u64::MAX); // insertion point n must stay inside the window
    }

    #[test]
    fn sorted_batch_matches_single_lookups() {
        let mut rng = StdRng::seed_from_u64(6);
        let entries =
            generate_entries(KeyDistribution::Uniform { max: 1 << 40 }, 20_000, &mut rng);
        let pgm = PgmIndex::build(entries.clone(), 16);
        // Present, absent, and out-of-domain probes, sorted.
        let mut probes: Vec<u64> = entries.iter().step_by(3).map(|e| e.0).collect();
        probes.extend(entries.iter().step_by(7).map(|e| e.0 ^ 1));
        probes.push(0);
        probes.push(u64::MAX);
        probes.sort_unstable();
        let mut batch = Vec::new();
        pgm.lookup_batch_sorted(&probes, &mut batch);
        assert_eq!(batch.len(), probes.len());
        for (i, &k) in probes.iter().enumerate() {
            assert_eq!(batch[i], pgm.get(k), "probe {k}");
        }
    }

    #[test]
    fn dynamic_insert_then_get() {
        let mut pgm = DynamicPgm::new(16);
        for k in 0..5000u64 {
            pgm.insert(k * 3, k);
        }
        for k in 0..5000u64 {
            assert_eq!(pgm.get(k * 3), Some(k), "key {}", k * 3);
            assert_eq!(pgm.get(k * 3 + 1), None);
        }
        assert!(pgm.num_runs() >= 1);
    }

    #[test]
    fn dynamic_overwrite_shadow() {
        let mut pgm = DynamicPgm::new(16);
        for k in 0..1000u64 {
            pgm.insert(k, 1);
        }
        for k in 0..1000u64 {
            pgm.insert(k, 2);
        }
        for k in (0..1000u64).step_by(37) {
            assert_eq!(pgm.get(k), Some(2), "key {k} not shadowed");
        }
    }

    #[test]
    fn dynamic_range_across_runs_and_buffer() {
        let mut pgm = DynamicPgm::from_sorted((0..1000u64).map(|k| (k * 2, k)).collect(), 16);
        pgm.insert(3, 999);
        pgm.insert(5, 998);
        let r = pgm.range(0, 8);
        assert_eq!(r, vec![(0, 0), (2, 1), (3, 999), (4, 2), (5, 998), (6, 3), (8, 4)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// ε-bound invariant: for any strictly sorted key set and ε, the
        /// produced segmentation predicts every member key within ε+1.
        #[test]
        fn epsilon_invariant(
            keys in proptest::collection::btree_set(0u64..1_000_000, 2..400),
            eps in 1usize..32,
        ) {
            let keys: Vec<u64> = keys.into_iter().collect();
            let segs = build_segments(&keys, eps);
            let mut seg_idx = 0;
            for (i, &k) in keys.iter().enumerate() {
                while seg_idx + 1 < segs.len() && segs[seg_idx + 1].first_key <= k {
                    seg_idx += 1;
                }
                let pred = segs[seg_idx].model.predict_f(k);
                prop_assert!((pred - i as f64).abs() <= eps as f64 + 1.0);
            }
        }

        /// Dynamic PGM agrees with a BTreeMap oracle under mixed workloads.
        #[test]
        fn dynamic_oracle(ops in proptest::collection::vec((0u64..5000, 0u64..100), 1..600)) {
            let mut pgm = DynamicPgm::new(8);
            let mut oracle = std::collections::BTreeMap::new();
            for (k, v) in ops {
                pgm.insert(k, v);
                oracle.insert(k, v);
            }
            for (&k, &v) in oracle.iter().step_by(7) {
                prop_assert_eq!(pgm.get(k), Some(v));
            }
            let got = pgm.range(1000, 2000);
            let expected: Vec<KeyValue> =
                oracle.range(1000..=2000).map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(got, expected);
        }
    }
}
