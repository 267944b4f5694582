//! Evaluation metrics used across the workspace: q-error (the standard
//! cardinality-estimation metric), regression errors, rank correlations
//! (for "relative performance" evaluation per \[57\]), and tail statistics.

/// Q-error between an estimate and the truth: `max(est/true, true/est)`.
///
/// Both values are clamped to at least 1 so empty results don't explode; a
/// perfect estimate yields 1.0.
pub fn q_error(estimate: f64, truth: f64) -> f64 {
    let e = estimate.max(1.0);
    let t = truth.max(1.0);
    (e / t).max(t / e)
}

/// Summary of a q-error distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QErrorSummary {
    /// Median q-error.
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
    /// Geometric mean.
    pub gmean: f64,
}

/// Summarizes a set of q-errors. Returns `None` for empty input.
pub fn q_error_summary(errors: &[f64]) -> Option<QErrorSummary> {
    if errors.is_empty() {
        return None;
    }
    let mut sorted = errors.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let gmean =
        (sorted.iter().map(|&e| e.max(1e-12).ln()).sum::<f64>() / sorted.len() as f64).exp();
    Some(QErrorSummary {
        median: percentile(&sorted, 0.5),
        p90: percentile(&sorted, 0.9),
        p99: percentile(&sorted, 0.99),
        max: *sorted.last().expect("non-empty"),
        gmean,
    })
}

/// Percentile (0.0..=1.0) of an ascending-sorted slice, nearest-rank.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Mean absolute error.
pub fn mae(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    if pred.is_empty() {
        return 0.0;
    }
    pred.iter().zip(truth).map(|(&p, &t)| (p - t).abs()).sum::<f64>() / pred.len() as f64
}

/// Spearman rank correlation — the "relative performance" metric of the
/// representation study \[57\]: do two scorings order plans the same way?
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let ra = ranks(a);
    let rb = ranks(b);
    pearson(&ra, &rb)
}

/// Kendall tau-a rank correlation (pairwise concordance).
pub fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in i + 1..n {
            let da = a[i] - a[j];
            let db = b[i] - b[j];
            let s = da * db;
            if s > 0.0 {
                concordant += 1;
            } else if s < 0.0 {
                discordant += 1;
            }
        }
    }
    let pairs = (n * (n - 1) / 2) as f64;
    (concordant - discordant) as f64 / pairs
}

/// Pearson correlation coefficient.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len() as f64;
    if a.len() < 2 {
        return 1.0;
    }
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

/// Average ranks with ties getting their midpoint rank.
fn ranks(v: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..v.len()).collect();
    idx.sort_by(|&a, &b| v[a].partial_cmp(&v[b]).unwrap_or(std::cmp::Ordering::Equal));
    let mut out = vec![0.0; v.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && v[idx[j + 1]] == v[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

/// Latency/latency-like tail summary used by the optimizer experiments.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TailSummary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

/// Summarizes a latency distribution. Returns `None` for empty input.
pub fn tail_summary(values: &[f64]) -> Option<TailSummary> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    Some(TailSummary {
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        p50: percentile(&sorted, 0.5),
        p90: percentile(&sorted, 0.9),
        p99: percentile(&sorted, 0.99),
        max: *sorted.last().expect("non-empty"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_error_symmetric_and_min_one() {
        assert_eq!(q_error(10.0, 10.0), 1.0);
        assert_eq!(q_error(100.0, 10.0), 10.0);
        assert_eq!(q_error(10.0, 100.0), 10.0);
        assert_eq!(q_error(0.0, 5.0), 5.0, "clamped to 1");
    }

    #[test]
    fn q_error_summary_ordering() {
        let errs = vec![1.0, 2.0, 4.0, 8.0, 100.0];
        let s = q_error_summary(&errs).unwrap();
        assert!(s.median <= s.p90);
        assert!(s.p90 <= s.p99);
        assert!(s.p99 <= s.max);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn spearman_monotone_is_one() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![10.0, 100.0, 1000.0, 10000.0];
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-9);
        let rev: Vec<f64> = b.iter().rev().copied().collect();
        assert!((spearman(&a, &rev) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn spearman_handles_ties() {
        let a = vec![1.0, 1.0, 2.0];
        let b = vec![5.0, 5.0, 9.0];
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn kendall_agrees_with_signs() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![1.0, 3.0, 2.0];
        // Pairs: (1,2)C (1,3)C (2,3)D → (2-1)/3
        assert!((kendall_tau(&a, &b) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn tail_summary_percentiles() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let t = tail_summary(&v).unwrap();
        assert_eq!(t.p50, 50.0);
        assert_eq!(t.p90, 90.0);
        assert_eq!(t.p99, 99.0);
        assert_eq!(t.max, 100.0);
    }

    #[test]
    fn pearson_of_uncorrelated_is_zeroish() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![1.0, -1.0, 1.0, -1.0];
        assert!(pearson(&a, &b).abs() < 0.5);
    }
}
