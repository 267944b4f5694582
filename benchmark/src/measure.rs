//! The measuring code itself: order statistics, the tail-percentile rule,
//! process CPU time and peak RSS. Everything here is unit-tested because
//! every number the benchmark prints goes through it.

use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: a metric with no samples is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` in (0, 1] of an ascending-sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A tail latency together with the percentile it actually is.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Percentile reported, in percent (99.0 when the sample supports it).
    pub percentile: f64,
    /// The value at that percentile.
    pub value: f64,
}

/// p99 when at least ten samples lie beyond it, else the highest
/// percentile that still has ten samples beyond it (the median when the
/// sample is too small for any).
pub fn tail(sorted: &[f64]) -> Tail {
    const BEYOND: usize = 10;
    let n = sorted.len();
    assert!(n > 0, "tail of no samples");
    let p99_idx = ((0.99 * n as f64).ceil() as usize).clamp(1, n) - 1;
    if n - 1 - p99_idx >= BEYOND {
        return Tail {
            percentile: 99.0,
            value: sorted[p99_idx],
        };
    }
    if n <= BEYOND {
        return Tail {
            percentile: 50.0,
            value: percentile(sorted, 0.5),
        };
    }
    let idx = n - 1 - BEYOND;
    Tail {
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
        value: sorted[idx],
    }
}

/// Interquartile range over the median — the A/A spread the acceptance
/// rule compares against a metric's bound.
pub fn relative_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let q = quartiles(&v);
    let m = median(&v);
    if m == 0.0 {
        0.0
    } else {
        (q.1 - q.0) / m.abs()
    }
}

/// First and third quartile by the exclusive method (what Python's
/// `statistics.quantiles(values, n=4)` computes) of a sorted slice.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        return (sorted[0], sorted[0]);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + frac * (sorted[j] - sorted[j - 1])
    };
    (at(1), at(3))
}

/// Process CPU time (user + system, all threads, exited ones included) in
/// seconds, from `/proc/self/stat`. Far less sensitive to a shared host
/// than wall time. Resolution is one clock tick (10 ms), which is why
/// [`EndToEnd`] divides the CPU time of *all* timed blocks by all their
/// operations instead of taking a per-round median.
pub fn process_cpu_s() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may contain spaces; fields resume after the last ')'.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the comm field: state is index 0, utime index 11, stime index 12.
    let ticks = |i: usize| fields[i].parse::<f64>().expect("tick count");
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in kB");
    kb / 1024.0
}

/// Wall and CPU clocks read together around one timed phase.
pub struct PhaseClock {
    wall: Instant,
    cpu_s: f64,
}

impl PhaseClock {
    /// Starts both clocks.
    pub fn start() -> Self {
        Self {
            cpu_s: process_cpu_s(),
            wall: Instant::now(),
        }
    }

    /// `(wall seconds, cpu seconds)` since [`PhaseClock::start`], less the
    /// `excluded_s` the caller spent on its own single-threaded work (the
    /// yardstick), which costs as much CPU as wall.
    pub fn stop(&self, excluded_s: f64) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        (wall - excluded_s, process_cpu_s() - self.cpu_s - excluded_s)
    }
}

/// What one timed round of a workload produced. Times are as measured;
/// [`EndToEnd`] scales them by `speed`.
pub struct Round {
    /// The host's speed index during the block (`Yardstick::speed_index`).
    pub speed: f64,
    /// Seconds the round's set-up took.
    pub setup_s: f64,
    /// Operations attempted in the timed block.
    pub ops: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Wall seconds of the timed block, yardstick ticks excluded.
    pub wall_s: f64,
    /// Process CPU seconds of the timed block, yardstick ticks excluded.
    pub cpu_s: f64,
    /// Per-operation latencies (µs) of the timed block.
    pub latencies_us: Vec<f64>,
    /// Peak RSS (MiB) right after the timed block, before verification
    /// allocates anything.
    pub rss_peak_mb: f64,
}

/// The end-to-end metrics of a run. Rounds are identical work (same seed)
/// on a host whose speed wanders, so every timing is taken per round,
/// scaled by that round's speed index (see `yardstick.rs`), and the
/// **median over rounds** is reported — a slow spell that hits a round or
/// two does not move them. CPU time alone is totalled
/// over rounds, because its clock ticks only every 10 ms.
pub struct EndToEnd {
    pub ops_per_s: f64,
    pub cpu_us_per_op: f64,
    pub p50_us: f64,
    /// Latency samples in each round.
    pub samples_per_round: usize,
    pub setup_s: f64,
    pub rss_peak_mb: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl EndToEnd {
    /// The value reported under an end-to-end metric's name.
    ///
    /// # Panics
    /// Panics on a name this struct does not measure.
    pub fn get(&self, name: &str) -> f64 {
        match name {
            "ops_per_s" => self.ops_per_s,
            "cpu_us_per_op" => self.cpu_us_per_op,
            "p50_us" => self.p50_us,
            "setup_s" => self.setup_s,
            "rss_peak_mb" => self.rss_peak_mb,
            other => panic!("no end-to-end metric named {other}"),
        }
    }

    /// Folds rounds into the reported metrics. Peak RSS is the first
    /// round's, before later rounds' allocator reuse can blur it.
    pub fn from_rounds(rounds: &[Round]) -> Self {
        let over_rounds =
            |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        let sorted: Vec<Vec<f64>> = rounds
            .iter()
            .map(|r| {
                let mut v = r.latencies_us.clone();
                v.sort_unstable_by(f64::total_cmp);
                v
            })
            .collect();
        let attempted: u64 = rounds.iter().map(|r| r.ops).sum();
        Self {
            ops_per_s: over_rounds(&|r| r.ops as f64 / (r.wall_s * r.speed)),
            cpu_us_per_op: rounds.iter().map(|r| r.cpu_s * r.speed).sum::<f64>() * 1e6
                / attempted as f64,
            p50_us: median(
                &sorted
                    .iter()
                    .zip(rounds)
                    .map(|(v, r)| percentile(v, 0.5) * r.speed)
                    .collect::<Vec<_>>(),
            ),
            samples_per_round: sorted[0].len(),
            setup_s: over_rounds(&|r| r.setup_s * r.speed),
            rss_peak_mb: rounds[0].rss_peak_mb,
            attempted,
            failed: rounds.iter().map(|r| r.failed).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_segments_takes_the_middle() {
        assert_eq!(median(&[5.0, 1.0, 9.0, 3.0, 7.0]), 5.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        // One slow segment (a noisy neighbour) does not move the median.
        assert_eq!(median(&[100.0, 101.0, 99.0, 100.5, 12.0]), 100.0);
    }

    #[test]
    fn tail_is_p99_only_with_ten_samples_beyond() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 1980.0);
        // 1000 samples: exactly ten lie beyond the p99 rank.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            tail(&v),
            Tail {
                percentile: 99.0,
                value: 990.0
            }
        );
    }

    #[test]
    fn tail_falls_back_to_highest_supported_percentile() {
        // 200 samples: p99 would have only 2 beyond it; the highest
        // percentile with ten beyond is rank 190 of 200 = p95.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 190.0);
        assert!((t.percentile - 95.0).abs() < 1e-9);
        // Too few samples for any tail: the median.
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(
            tail(&v),
            Tail {
                percentile: 50.0,
                value: 4.0
            }
        );
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(relative_spread(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn cpu_clock_advances_under_load_and_rss_is_positive() {
        let c = PhaseClock::start();
        let mut x = 0u64;
        while c.wall.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let (wall, cpu) = c.stop(0.0);
        assert!(wall >= 0.06);
        assert!(cpu > 0.0 && cpu < 1.0, "cpu {cpu}");
        assert!(rss_peak_mb() > 0.5);
    }

    #[test]
    fn rounds_fold_to_medians_over_rounds() {
        let round = |wall_s: f64, lat: f64| Round {
            speed: 1.0,
            setup_s: wall_s / 10.0,
            ops: 100,
            failed: 0,
            wall_s,
            cpu_s: wall_s / 2.0,
            latencies_us: vec![lat; 100],
            rss_peak_mb: 7.5 * wall_s,
        };
        let e = EndToEnd::from_rounds(&[round(1.0, 10.0), round(2.0, 20.0), round(4.0, 30.0)]);
        assert_eq!(e.ops_per_s, 50.0);
        assert!((e.cpu_us_per_op - 3.5e6 / 300.0).abs() < 1e-9);
        assert_eq!(e.setup_s, 0.2);
        assert_eq!(e.p50_us, 20.0);
        assert_eq!(e.samples_per_round, 100);
        assert_eq!((e.attempted, e.rss_peak_mb), (300, 7.5));
        // A host at half speed takes twice as long; the reported times do not.
        let slow = Round {
            speed: 0.5,
            setup_s: 0.4,
            wall_s: 4.0,
            cpu_s: 2.0,
            ..round(0.0, 40.0)
        };
        let e = EndToEnd::from_rounds(&[slow]);
        assert_eq!((e.ops_per_s, e.p50_us, e.setup_s), (50.0, 20.0, 0.2));
        assert_eq!(e.cpu_us_per_op, 10_000.0);
    }
}
