//! The repo's end-to-end benchmark. See `benchmark/README.md`.
//!
//! Two ways in, one binary:
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` — one run of one
//!   workload in this process. The last line of standard output is one
//!   JSON object `{correct, attempted, failed, metrics}`: the end-to-end
//!   metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! * no `--workload` — the whole suite (`suite.rs`): every workload in
//!   its own child process, optionally traced, optionally repeated for an
//!   A/A spread check.

mod gen;
mod layers;
mod measure;
mod serve_loop;
mod suite;
mod trace;
mod workloads;
mod yardstick;

use std::collections::BTreeMap;
use std::process::ExitCode;

use serde_json::Value;

/// Where the traced pass and the suite write their files, relative to the
/// repository root the benchmark is run from.
const OUT_DIR: &str = "benchmark/out";

/// Timed seconds per run when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.trace = true,
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Prints every metric as `name unit value`, then the result object as
/// the last line. Returns whether the run was correct.
fn report(attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> bool {
    let correct = failed == 0 && attempted > 0;
    let mut by_name = BTreeMap::new();
    for &(name, unit, value) in metrics {
        println!("{name} {unit} {value}");
        let mut m = BTreeMap::new();
        m.insert("value".to_string(), Value::Number(value));
        m.insert("unit".to_string(), Value::from(unit));
        by_name.insert(name.to_string(), Value::Object(m));
    }
    let mut out = BTreeMap::new();
    out.insert("correct".to_string(), Value::Bool(correct));
    out.insert("attempted".to_string(), Value::from(attempted));
    out.insert("failed".to_string(), Value::from(failed));
    out.insert("metrics".to_string(), Value::Object(by_name));
    println!("{}", Value::Object(out));
    correct
}

fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    let unknown = || format!("unknown workload {workload}; one of {:?}", workloads::NAMES);
    // The no-op sink constructs and drops every event: the instrumented
    // sites run, nothing accumulates.
    ml4db_obs::set_mode(ml4db_obs::Mode::Noop);
    if args.trace {
        let mut traced =
            workloads::run_traced(workload, args.seed, args.seconds).ok_or_else(unknown)?;
        let layers = &mut traced.layers;
        layers.set("bench.span_floor_ns", trace::span_floor_ns());
        layers.set("par.threads", ml4db_par::max_threads() as f64);
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/trace-{workload}.json");
        let doc = trace::trace_json(workload, args.seed, &traced.spans);
        std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("write {path}: {e}"))?;
        Ok(report(
            traced.attempted,
            traced.failed,
            &traced.layers.all(),
        ))
    } else {
        let (rounds, e) =
            workloads::run_untraced(workload, args.seed, args.seconds).ok_or_else(unknown)?;
        let per_round: Vec<String> = rounds
            .iter()
            .map(|r| format!("{:.0}@{:.2}", r.ops as f64 / r.wall_s, r.speed))
            .collect();
        eprintln!(
            "{workload}: measured ops/s @ speed index of each round: {}",
            per_round.join(" ")
        );
        eprintln!(
            "{workload}: {} rounds of {} latency samples, {} worker thread(s) + 1 driver",
            rounds.len(),
            e.samples_per_round,
            serve_loop::worker_threads(),
        );
        let metrics: Vec<(&str, &str, f64)> = layers::END_TO_END
            .iter()
            .map(|&(name, unit)| (name, unit, e.get(name)))
            .collect();
        Ok(report(e.attempted, e.failed, &metrics))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(w) => run_one(w, &args),
        None => suite::run(args.seed, args.seconds, args.trace, args.repeat),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
