//! Learned secondary indexes over table columns.
//!
//! A [`SecondaryIndex`] maps a column to a postings layout — distinct
//! encoded keys, per-key offsets, and row ids grouped by key — with a
//! [`PgmCore`] (two-phase `predict_range`) over the key array. Because row
//! ids for one key form a contiguous run, an equality probe returns a
//! borrowed `&[u32]` slice with **zero allocation**: model prediction,
//! last-mile search over the borrowed key column, slice the run. Range
//! probes return one contiguous slice covering every matching key.
//!
//! Column values are `f64` (ints widen), so keys are stored in an
//! order-preserving `u64` encoding ([`encode_f64`]) that makes integer
//! comparison agree with `f64` ordering.

use ml4db_index::PgmCore;

use crate::table::ColumnData;

/// Order-preserving encoding of an `f64` into a `u64`: for any two non-NaN
/// floats `a < b` iff `encode_f64(a) < encode_f64(b)`.
///
/// `-0.0` is normalized to `0.0` first (they compare equal as floats, so
/// they must encode equal — the same rule as `Value::hash_key`). NaNs
/// encode above `+inf` (positive NaN) or below `-inf` (negative NaN), so
/// any range probe with finite or infinite bounds excludes them — matching
/// the executor's predicate semantics, where every comparison with NaN is
/// false.
#[inline]
pub fn encode_f64(v: f64) -> u64 {
    let v = if v == 0.0 { 0.0 } else { v };
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// ε for the per-index PGM core: small enough that last-mile windows fit a
/// few cache lines, large enough that segments stay coarse.
const INDEX_EPSILON: usize = 16;

/// A learned secondary index over one column: postings grouped by distinct
/// key with a PGM model over the key array.
#[derive(Clone, Debug)]
pub struct SecondaryIndex {
    /// Distinct encoded keys, ascending.
    keys: Vec<u64>,
    /// `offsets[k]..offsets[k + 1]` is key `k`'s run in `row_ids`
    /// (`keys.len() + 1` entries).
    offsets: Vec<u32>,
    /// Row ids grouped by key ascending; ascending within each run.
    row_ids: Vec<u32>,
    /// Two-phase model over `keys`.
    core: PgmCore,
}

impl SecondaryIndex {
    /// Builds the index over a column.
    pub fn build(col: &ColumnData) -> Self {
        let n = col.len();
        assert!(n <= u32::MAX as usize, "SecondaryIndex: > u32::MAX rows");
        let mut pairs: Vec<(u64, u32)> =
            (0..n).map(|i| (encode_f64(col.get_f64(i)), i as u32)).collect();
        // Sorting (key, row_id) groups by key with ascending row ids per run.
        pairs.sort_unstable();
        let mut keys = Vec::new();
        let mut offsets = Vec::new();
        let mut row_ids = Vec::with_capacity(n);
        for (k, r) in pairs {
            if keys.last() != Some(&k) {
                keys.push(k);
                offsets.push(row_ids.len() as u32);
            }
            row_ids.push(r);
        }
        offsets.push(row_ids.len() as u32);
        let core = PgmCore::build(&keys, INDEX_EPSILON);
        Self { keys, offsets, row_ids, core }
    }

    /// Number of rows indexed.
    pub fn num_rows(&self) -> usize {
        self.row_ids.len()
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        self.keys.len()
    }

    /// Structural footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.keys.len() * 8 + self.offsets.len() * 4 + self.row_ids.len() * 4
            + self.core.size_bytes()
    }

    /// First index in `keys` whose key is `>= ek` (two-phase: model window,
    /// then last-mile over the borrowed key column).
    #[inline]
    fn key_lower_bound(&self, ek: u64) -> usize {
        match self.core.search(&self.keys, ek) {
            Ok(i) | Err(i) => i,
        }
    }

    /// Row ids whose column value equals `v`, as a borrowed run — zero
    /// allocation. Empty for NaN (never equal to anything) and absent keys.
    #[inline]
    pub fn probe_eq(&self, v: f64) -> &[u32] {
        if v.is_nan() {
            return &[];
        }
        match self.core.search(&self.keys, encode_f64(v)) {
            Ok(i) => &self.row_ids[self.offsets[i] as usize..self.offsets[i + 1] as usize],
            Err(_) => &[],
        }
    }

    /// Row ids whose column value lies in `[lo, hi]`, as one borrowed
    /// contiguous slice (grouped by key, **not** sorted by row id). Empty
    /// when the range is empty or either bound is NaN.
    pub fn range_rows(&self, lo: f64, hi: f64) -> &[u32] {
        if lo.is_nan() || hi.is_nan() || lo > hi {
            return &[];
        }
        let ki_lo = self.key_lower_bound(encode_f64(lo));
        // Distinct keys: upper bound is the lower bound nudged past an
        // exact hit.
        let ki_hi = match self.core.search(&self.keys, encode_f64(hi)) {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        if ki_lo >= ki_hi {
            return &[];
        }
        &self.row_ids[self.offsets[ki_lo] as usize..self.offsets[ki_hi] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_preserves_order() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -1.0,
            -f64::MIN_POSITIVE,
            0.0,
            f64::MIN_POSITIVE,
            0.5,
            1.0,
            2.5,
            1e300,
            f64::INFINITY,
        ];
        for w in vals.windows(2) {
            assert!(encode_f64(w[0]) < encode_f64(w[1]), "{} vs {}", w[0], w[1]);
        }
        // -0.0 and 0.0 compare equal as floats, so they must encode equal.
        assert_eq!(encode_f64(-0.0), encode_f64(0.0));
        // NaN sorts outside the infinities, so ranges never include it.
        assert!(encode_f64(f64::NAN) > encode_f64(f64::INFINITY));
    }

    fn col(values: &[i64]) -> ColumnData {
        ColumnData::Int(values.to_vec())
    }

    #[test]
    fn probe_eq_returns_ascending_run() {
        let c = col(&[5, 3, 5, 1, 5, 3]);
        let idx = SecondaryIndex::build(&c);
        assert_eq!(idx.probe_eq(5.0), &[0, 2, 4]);
        assert_eq!(idx.probe_eq(3.0), &[1, 5]);
        assert_eq!(idx.probe_eq(1.0), &[3]);
        assert_eq!(idx.probe_eq(2.0), &[] as &[u32]);
        assert_eq!(idx.probe_eq(f64::NAN), &[] as &[u32]);
        assert_eq!(idx.num_rows(), 6);
        assert_eq!(idx.num_keys(), 3);
    }

    #[test]
    fn range_rows_matches_scan() {
        let values: Vec<i64> = (0..5000).map(|i| (i * 37) % 251 - 100).collect();
        let c = col(&values);
        let idx = SecondaryIndex::build(&c);
        for (lo, hi) in [(-50.0, 50.0), (-200.0, 300.0), (10.0, 10.0), (40.0, 20.0)] {
            let mut got: Vec<u32> = idx.range_rows(lo, hi).to_vec();
            got.sort_unstable();
            let expected: Vec<u32> = values
                .iter()
                .enumerate()
                .filter(|&(_, &v)| (v as f64) >= lo && (v as f64) <= hi)
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(got, expected, "range [{lo}, {hi}]");
        }
        assert!(idx.range_rows(f64::NAN, 10.0).is_empty());
        assert!(idx.range_rows(0.0, f64::NAN).is_empty());
    }

    #[test]
    fn negative_and_zero_keys() {
        let c = ColumnData::Float(vec![-2.5, -0.0, 0.0, 2.5, -2.5]);
        let idx = SecondaryIndex::build(&c);
        // -0.0 and 0.0 share a key.
        assert_eq!(idx.probe_eq(0.0), &[1, 2]);
        assert_eq!(idx.probe_eq(-0.0), &[1, 2]);
        assert_eq!(idx.probe_eq(-2.5), &[0, 4]);
        let mut r: Vec<u32> = idx.range_rows(-3.0, 0.0).to_vec();
        r.sort_unstable();
        assert_eq!(r, vec![0, 1, 2, 4]);
    }

    #[test]
    fn large_index_probe_everything() {
        let values: Vec<i64> = (0..50_000).map(|i| (i * 7919) % 10_007).collect();
        let c = col(&values);
        let idx = SecondaryIndex::build(&c);
        for probe in (0..10_007).step_by(97) {
            let expected: Vec<u32> = values
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v == probe)
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(idx.probe_eq(probe as f64), expected.as_slice(), "probe {probe}");
        }
    }
}
