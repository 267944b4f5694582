//! The four workloads. Each is one file with its constants, its set-up,
//! its timed round (tracer off) and its traced pass.
//!
//! A **round** is set-up + warm-up + one timed block of a *constant*
//! number of operations over the same seeded op sequence; a run repeats
//! identical rounds until the timed blocks add up to `--seconds`. Because
//! rounds are identical work, throughput / CPU / set-up are medians over
//! rounds, latencies are pooled, and every program-side count repeats
//! exactly from round to round and from run to run.

pub mod analytic_closed;
pub mod kv_durable;
pub mod learned_plan;
pub mod point_closed;
mod served_walk;

use crate::layers::LayerValues;
use crate::measure::{self, EndToEnd, Round};
use crate::trace::Span;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "point_closed",
    "analytic_closed",
    "learned_plan",
    "kv_durable",
];

/// Fewest rounds a run measures, however slow the host.
const MIN_ROUNDS: usize = 3;

/// Result of the traced pass of one workload.
pub struct Traced {
    pub layers: LayerValues,
    pub spans: Vec<Span>,
    pub attempted: u64,
    pub failed: u64,
}

/// Records the latency tail of a traced pass: the 99th percentile, or the
/// highest percentile with ten samples beyond it, and which it is.
fn set_tail(layers: &mut LayerValues, mut latencies_us: Vec<f64>) {
    latencies_us.sort_unstable_by(f64::total_cmp);
    let tail = measure::tail(&latencies_us);
    layers.set("tail.p99_us", tail.value);
    layers.set("tail.percentile", tail.percentile);
}

/// Repeats `round` until the timed blocks add up to `seconds`.
fn timed_rounds(seconds: f64, mut round: impl FnMut(usize) -> Round) -> Vec<Round> {
    let mut rounds = Vec::new();
    let mut timed = 0.0;
    while rounds.len() < MIN_ROUNDS || timed < seconds {
        let r = round(rounds.len());
        timed += r.wall_s;
        rounds.push(r);
    }
    rounds
}

/// Runs `name` with the tracer off for `seconds` of timed work.
pub fn run_untraced(name: &str, seed: u64, seconds: f64) -> Option<(Vec<Round>, EndToEnd)> {
    let round: fn(u64, usize) -> Round = match name {
        "point_closed" => point_closed::round,
        "analytic_closed" => analytic_closed::round,
        "learned_plan" => learned_plan::round,
        "kv_durable" => kv_durable::round,
        _ => return None,
    };
    let rounds = timed_rounds(seconds, |index| round(seed, index));
    let end_to_end = EndToEnd::from_rounds(&rounds);
    Some((rounds, end_to_end))
}

/// Runs the traced pass of `name`, sized to about `seconds`.
pub fn run_traced(name: &str, seed: u64, seconds: f64) -> Option<Traced> {
    Some(match name {
        "point_closed" => point_closed::traced(seed, seconds),
        "analytic_closed" => analytic_closed::traced(seed, seconds),
        "learned_plan" => learned_plan::traced(seed, seconds),
        "kv_durable" => kv_durable::traced(seed, seconds),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_repeat_until_the_time_budget_is_spent() {
        let round = |wall_s: f64| Round {
            speed: 1.0,
            setup_s: 0.0,
            ops: 1,
            failed: 0,
            wall_s,
            cpu_s: 0.0,
            latencies_us: vec![1.0],
            rss_peak_mb: 1.0,
        };
        assert_eq!(timed_rounds(10.0, |_| round(2.5)).len(), 4);
        assert_eq!(timed_rounds(0.1, |_| round(2.5)).len(), MIN_ROUNDS);
    }
}
