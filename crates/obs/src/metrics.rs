//! The metrics half of the observability substrate: counters and
//! fixed-bucket histograms in a [`MetricsRegistry`] whose merge is
//! **associative and commutative**, so per-shard registries accumulated
//! by `ml4db-par` workers fold into one global registry that cannot
//! depend on how the work was scheduled.
//!
//! # Determinism contract
//!
//! Every accumulator here is chosen so that `merge` is exact:
//!
//! * counters — `u64` saturating addition (associative, commutative,
//!   no float rounding);
//! * histograms — per-bucket `u64` counts plus `f64` min/max. There is
//!   deliberately **no floating-point sum**: `a + (b + c)` and
//!   `(a + b) + c` differ in f64, which would make merged output depend
//!   on shard boundaries.
//!
//! Serialization goes through [`MetricsRegistry::to_json`], which emits a
//! `serde_json::Value` with `BTreeMap`-sorted keys — two registries with
//! equal contents always render byte-identical JSON.

use std::collections::BTreeMap;

use serde_json::Value;

/// A fixed-bucket histogram: `bounds` are strictly increasing upper
/// bounds, with an implicit final bucket for everything above the last
/// bound. Observations are pure bucket increments — no floating-point
/// accumulation — so merging histograms is exact.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Inclusive upper bounds of each bucket, strictly increasing.
    bounds: Vec<f64>,
    /// Bucket counts; `counts.len() == bounds.len() + 1` (overflow last).
    counts: Vec<u64>,
    /// Observations that were NaN (kept out of every bucket).
    nan_count: u64,
    /// Smallest non-NaN observation, `+inf` before any.
    min: f64,
    /// Largest non-NaN observation, `-inf` before any.
    max: f64,
}

impl Histogram {
    /// A histogram over the given inclusive upper bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let n = bounds.len() + 1;
        Self { bounds, counts: vec![0; n], nan_count: 0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Log10-spaced bounds `10^0, 10^1, ..., 10^(decades-1)` — the
    /// default shape for latency-like quantities in microseconds.
    pub fn log10(decades: u32) -> Self {
        Self::new((0..decades).map(|d| 10f64.powi(d as i32)).collect())
    }

    /// Fine-grained geometric bounds for latency quantiles: upper bounds
    /// grow by ×2^(1/4) (~19%) from 0.25 µs to past 10⁸ µs, ~115 buckets.
    /// Quantiles read off these buckets ([`Histogram::quantile`]) carry at
    /// most one bucket ratio of error, tight enough for p50/p99/p999
    /// serving reports while staying exactly mergeable across shards.
    pub fn latency_us() -> Self {
        let ratio = 2f64.powf(0.25);
        let mut bounds = Vec::new();
        let mut b = 0.25f64;
        while b < 2.0e8 {
            bounds.push(b);
            b *= ratio;
        }
        Self::new(bounds)
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// first bucket where the cumulative count reaches `ceil(q · total)`,
    /// clamped to the observed `[min, max]` so reported quantiles never
    /// exceed any real observation. `None` before any observation.
    /// Deterministic: a pure function of the (mergeable) bucket counts.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.total();
        if total == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                let upper = if i < self.bounds.len() { self.bounds[i] } else { self.max };
                return Some(upper.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// The bucket index `v` falls into: the first bound `>= v`, or the
    /// overflow bucket. NaN returns `None`.
    pub fn bucket_for(&self, v: f64) -> Option<usize> {
        if v.is_nan() {
            return None;
        }
        Some(self.bounds.partition_point(|&b| b < v))
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        match self.bucket_for(v) {
            Some(b) => {
                self.counts[b] = self.counts[b].saturating_add(1);
                self.min = self.min.min(v);
                self.max = self.max.max(v);
            }
            None => self.nan_count = self.nan_count.saturating_add(1),
        }
    }

    /// Total non-NaN observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().fold(0u64, |a, &c| a.saturating_add(c))
    }

    /// The bucket counts (overflow bucket last).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Folds another histogram into this one. Exact — pure `u64` adds and
    /// `f64` min/max, all associative and commutative.
    ///
    /// # Panics
    /// Panics if the bucket bounds differ: histograms are only mergeable
    /// within one metric definition.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "cannot merge histograms with different buckets");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c = c.saturating_add(*o);
        }
        self.nan_count = self.nan_count.saturating_add(other.nan_count);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Forgets every observation, keeping the buckets (and their
    /// allocation) — for a shard-local histogram that is merged into a
    /// shared one and then reused.
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.nan_count = 0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }

    /// Deterministic JSON rendering (sorted keys, exact counts).
    pub fn to_json(&self) -> Value {
        let mut o = BTreeMap::new();
        o.insert("bounds".into(), Value::Array(self.bounds.iter().map(|&b| Value::Number(b)).collect()));
        o.insert(
            "counts".into(),
            Value::Array(self.counts.iter().map(|&c| Value::Number(c as f64)).collect()),
        );
        o.insert("total".into(), Value::Number(self.total() as f64));
        if self.nan_count > 0 {
            o.insert("nan_count".into(), Value::Number(self.nan_count as f64));
        }
        if self.total() > 0 {
            o.insert("min".into(), Value::Number(self.min));
            o.insert("max".into(), Value::Number(self.max));
        }
        Value::Object(o)
    }
}

/// Counters and histograms under string names.
///
/// One registry per worker shard plus [`MetricsRegistry::merge`] gives
/// scheduling-independent totals; a single shared registry behind a lock
/// gives the same totals because every accumulator is commutative.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry, usable in `static` initializers
    /// (`BTreeMap::new` is const).
    pub const fn const_new() -> Self {
        Self { counters: BTreeMap::new(), histograms: BTreeMap::new() }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Adds `n` to the counter `name`.
    pub fn counter_add(&mut self, name: &str, n: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c = c.saturating_add(n),
            None => {
                self.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records one observation into the histogram `name`, creating it
    /// with `default_buckets` bounds on first use.
    pub fn histogram_observe(&mut self, name: &str, v: f64, default_buckets: impl FnOnce() -> Histogram) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(v),
            None => {
                let mut h = default_buckets();
                h.observe(v);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// The histogram `name`, if ever observed into.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Folds `other` into `self`. Associative and commutative: any
    /// grouping or ordering of shard merges yields the same registry.
    ///
    /// # Panics
    /// Panics if the same histogram name carries different bucket bounds
    /// in the two registries (a metric-definition bug, not a data race).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            self.counter_add(k, *v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }

    /// Deterministic JSON rendering: both sections with `BTreeMap`-sorted
    /// keys. Equal registries render byte-identically.
    pub fn to_json(&self) -> Value {
        let mut o = BTreeMap::new();
        o.insert(
            "counters".to_string(),
            Value::Object(
                self.counters.iter().map(|(k, &v)| (k.clone(), Value::Number(v as f64))).collect(),
            ),
        );
        o.insert(
            "histograms".to_string(),
            Value::Object(self.histograms.iter().map(|(k, h)| (k.clone(), h.to_json())).collect()),
        );
        Value::Object(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_histograms_roundtrip() {
        let mut r = MetricsRegistry::new();
        r.counter_add("a", 2);
        r.counter_add("a", 3);
        r.histogram_observe("h", 7.0, || Histogram::log10(4));
        r.histogram_observe("h", 70.0, || Histogram::log10(4));
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.histogram("h").unwrap().total(), 2);
        let rendered = r.to_json().to_string();
        assert!(rendered.contains("\"counters\""), "{rendered}");
    }

    #[test]
    fn reset_returns_a_histogram_to_its_empty_state() {
        let mut h = Histogram::latency_us();
        for v in [0.1, 3.0, f64::NAN, 9.0e9] {
            h.observe(v);
        }
        assert_ne!(h, Histogram::latency_us());
        h.reset();
        assert_eq!(h, Histogram::latency_us());
    }

    #[test]
    fn merge_is_exact_and_symmetric() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.counter_add("x", 1);
        b.counter_add("x", 2);
        b.counter_add("y", 7);
        a.histogram_observe("h", 0.5, || Histogram::log10(3));
        b.histogram_observe("h", 500.0, || Histogram::log10(3));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.to_json().to_string(), ba.to_json().to_string());
        assert_eq!(ab.counter("x"), 3);
        assert_eq!(ab.histogram("h").unwrap().total(), 2);
    }

    #[test]
    fn histogram_buckets_cover_the_line() {
        let h = Histogram::new(vec![1.0, 10.0, 100.0]);
        assert_eq!(h.bucket_for(0.0), Some(0));
        assert_eq!(h.bucket_for(1.0), Some(0)); // inclusive upper bound
        assert_eq!(h.bucket_for(1.5), Some(1));
        assert_eq!(h.bucket_for(100.0), Some(2));
        assert_eq!(h.bucket_for(1e9), Some(3)); // overflow bucket
        assert_eq!(h.bucket_for(f64::NAN), None);
    }

    #[test]
    fn nan_observations_are_quarantined() {
        let mut h = Histogram::log10(3);
        h.observe(f64::NAN);
        h.observe(5.0);
        assert_eq!(h.total(), 1);
        assert_eq!(h.nan_count, 1);
        let j = h.to_json().to_string();
        assert!(j.contains("nan_count"), "{j}");
    }

    #[test]
    fn quantiles_track_bucket_uppers_and_clamp_to_observations() {
        let mut h = Histogram::latency_us();
        assert_eq!(h.quantile(0.5), None);
        h.observe(100.0);
        // A single observation: every quantile is that observation (the
        // bucket upper bound clamps to max).
        assert_eq!(h.quantile(0.0), Some(100.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        for v in [10.0, 20.0, 30.0, 40.0, 1000.0] {
            h.observe(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((20.0..=45.0).contains(&p50), "p50 ≈ 30µs ±bucket, got {p50}");
        let p999 = h.quantile(0.999).unwrap();
        assert_eq!(p999, 1000.0, "tail quantile clamps to observed max");
        // Quantiles survive merging exactly: counts are the only state.
        let mut a = Histogram::latency_us();
        let mut b = Histogram::latency_us();
        for v in [10.0, 20.0, 30.0] {
            a.observe(v);
        }
        for v in [40.0, 100.0, 1000.0] {
            b.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.quantile(0.5), h.quantile(0.5));
        assert_eq!(a.quantile(0.99), h.quantile(0.99));
    }

    #[test]
    fn latency_buckets_are_fine_enough_for_p99() {
        let h = Histogram::latency_us();
        // Worst-case quantile error is one bucket ratio: ≤ 2^(1/4).
        for w in h.bounds().windows(2) {
            assert!(w[1] / w[0] < 1.20, "bucket ratio too coarse: {:?}", w);
        }
        assert!(h.bounds()[0] <= 0.25 && *h.bounds().last().unwrap() >= 1.0e8);
    }

    #[test]
    #[should_panic(expected = "different buckets")]
    fn mismatched_bounds_refuse_to_merge() {
        let mut a = Histogram::log10(3);
        let b = Histogram::log10(4);
        a.merge(&b);
    }
}
