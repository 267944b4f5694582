//! Linear key→position models — the atoms of every learned index.
//!
//! Models are anchored at a base key (`key0`) and fit/predict in
//! **key-offset space**: `pos ≈ slope * (key - key0) + intercept`. The
//! offset `key - key0` is computed exactly in `u64` before the `f64`
//! conversion, so segments over large-magnitude keys (near `2^53` and
//! beyond, where `key as f64` rounds) keep full precision as long as the
//! segment's key *span* fits in a `f64` mantissa — which it does for any
//! segment a learned index would build.

/// A linear model `pos ≈ slope * (key - key0) + intercept` over `f64`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinearModel {
    /// Slope, in positions per key unit.
    pub slope: f64,
    /// Predicted position at `key == key0`.
    pub intercept: f64,
    /// Anchor key; predictions are computed in offsets from it.
    pub key0: u64,
}

impl LinearModel {
    /// Identity-ish model mapping everything to position 0.
    pub fn flat() -> Self {
        Self { slope: 0.0, intercept: 0.0, key0: 0 }
    }

    /// Signed `f64` offset of `key` from the anchor, exact whenever the
    /// magnitude of the difference fits a mantissa.
    #[inline]
    fn offset(&self, key: u64) -> f64 {
        if key >= self.key0 {
            (key - self.key0) as f64
        } else {
            -((self.key0 - key) as f64)
        }
    }

    /// Least-squares fit of positions `0..n` against the given sorted keys,
    /// anchored at `keys[0]`.
    pub fn fit_positions(keys: &[u64]) -> Self {
        let n = keys.len();
        if n == 0 {
            return Self::flat();
        }
        let key0 = keys[0];
        if n == 1 {
            return Self { slope: 0.0, intercept: 0.0, key0 };
        }
        // Offsets from the first key are exact in u64, then convert.
        let xs: Vec<f64> = keys.iter().map(|&k| (k - key0) as f64).collect();
        let mean_x = xs.iter().sum::<f64>() / n as f64;
        let mean_y = (n as f64 - 1.0) / 2.0;
        let mut cov = 0.0;
        let mut var = 0.0;
        for (i, &x) in xs.iter().enumerate() {
            cov += (x - mean_x) * (i as f64 - mean_y);
            var += (x - mean_x) * (x - mean_x);
        }
        if var == 0.0 {
            return Self { slope: 0.0, intercept: mean_y, key0 };
        }
        let slope = cov / var;
        Self { slope, intercept: mean_y - slope * mean_x, key0 }
    }

    /// Fits the line through two `(key, position)` anchor points.
    pub fn through(a: (u64, f64), b: (u64, f64)) -> Self {
        if a.0 == b.0 {
            return Self { slope: 0.0, intercept: a.1, key0: a.0 };
        }
        let (lo, hi) = if a.0 < b.0 { (a, b) } else { (b, a) };
        let slope = (hi.1 - lo.1) / ((hi.0 - lo.0) as f64);
        Self { slope, intercept: lo.1, key0: lo.0 }
    }

    /// Predicted (unclamped, real-valued) position for a key.
    #[inline]
    pub fn predict_f(&self, key: u64) -> f64 {
        self.slope * self.offset(key) + self.intercept
    }

    /// Predicted position clamped to `[0, n)`.
    ///
    /// The clamp-to-`n - 1` is an *array access* guard, not a search
    /// bound: a key above every trained key predicts `n - 1` here, and
    /// two-phase windows built from it must extend one past the clamp
    /// (`hi = pred + err + 1`, half-open) so the insertion point `n`
    /// stays inside the window — see `TwoPhaseIndex::predict_range`.
    #[inline]
    pub fn predict(&self, key: u64, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        let p = self.predict_f(key);
        if p <= 0.0 {
            0
        } else if p >= (n - 1) as f64 {
            n - 1
        } else {
            p as usize
        }
    }

    /// Maximum absolute prediction error over sorted keys at their true
    /// positions. The error bound learned indexes search within.
    pub fn max_error(&self, keys: &[u64]) -> usize {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| {
                let p = self.predict(k, keys.len());
                p.abs_diff(i)
            })
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_perfectly_linear_keys() {
        let keys: Vec<u64> = (0..100).map(|i| 10 + i * 5).collect();
        let m = LinearModel::fit_positions(&keys);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(m.predict(k, keys.len()), i, "key {k}");
        }
        assert_eq!(m.max_error(&keys), 0);
    }

    #[test]
    fn fit_handles_duplicated_plateau() {
        let keys = vec![5u64; 10];
        let m = LinearModel::fit_positions(&keys);
        let p = m.predict(5, 10);
        assert!(p < 10);
    }

    #[test]
    fn predict_clamps() {
        let keys: Vec<u64> = (100..200).collect();
        let m = LinearModel::fit_positions(&keys);
        assert_eq!(m.predict(0, keys.len()), 0);
        assert_eq!(m.predict(10_000, keys.len()), keys.len() - 1);
    }

    #[test]
    fn through_two_points() {
        let m = LinearModel::through((10, 0.0), (20, 10.0));
        assert!((m.predict_f(15) - 5.0).abs() < 1e-9);
        // Reversed anchor order fits the same line.
        let r = LinearModel::through((20, 10.0), (10, 0.0));
        assert!((r.predict_f(15) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn max_error_reflects_curvature() {
        // A quadratic CDF has non-zero linear-fit error.
        let keys: Vec<u64> = (0..100u64).map(|i| i * i).collect();
        let m = LinearModel::fit_positions(&keys);
        assert!(m.max_error(&keys) > 0);
    }

    #[test]
    fn large_magnitude_keys_keep_precision() {
        // Keys near u64::MAX with unit spacing: `key as f64` rounds to
        // multiples of 2048 up there, which made the pre-offset-space fit
        // degenerate (all xs identical → flat model, error ≈ n). In
        // offset space the fit is exact.
        let base = u64::MAX - 1000;
        let keys: Vec<u64> = (0..500).map(|i| base + i * 2).collect();
        let m = LinearModel::fit_positions(&keys);
        assert_eq!(
            m.max_error(&keys),
            0,
            "offset-space fit must be exact on large-magnitude linear keys"
        );
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(m.predict(k, keys.len()), i, "key {k}");
        }
    }

    #[test]
    fn large_magnitude_keys_near_2_pow_53() {
        // The boundary where f64 loses integer exactness.
        let base = (1u64 << 53) + 12_345;
        let keys: Vec<u64> = (0..300).map(|i| base + i * 3).collect();
        let m = LinearModel::fit_positions(&keys);
        assert_eq!(m.max_error(&keys), 0);
        // `through` anchored in offset space is exact too.
        let t = LinearModel::through((keys[0], 0.0), (keys[299], 299.0));
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(t.predict(k, keys.len()), i);
        }
    }
}
