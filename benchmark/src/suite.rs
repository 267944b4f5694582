//! The whole suite in one command: every workload in its own child
//! process (so `rss_peak_mb` is per workload), every metric printed as
//! `workload name unit value`, everything written to
//! `benchmark/out/result.json`, and — with `--repeat N` — an A/A check of
//! each end-to-end metric's run-to-run spread against its bound in
//! `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use serde_json::Value;

use crate::measure::{median, relative_spread};
use crate::workloads::NAMES;
use crate::OUT_DIR;

/// One child run: the parsed result object of its last output line.
fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{workload} printed nothing"))?;
    let result = serde_json::from_str(last).map_err(|e| format!("{workload} result: {e:?}"))?;
    if !out.status.success() {
        eprintln!(
            "suite: {workload} (trace {}) exited with {}",
            u8::from(trace),
            out.status
        );
    }
    Ok(result)
}

/// `name → bound` of the end-to-end metrics, from `BENCHMARK.json` in the
/// current directory (the repository root).
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let list = doc["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| match (m["name"].as_str(), m["bound"].as_f64()) {
            (Some(name), Some(bound)) => Ok((name.to_string(), bound)),
            _ => Err("BENCHMARK.json: end_to_end entry without name or bound".to_string()),
        })
        .collect()
}

/// Spread of one metric over the repeats: interquartile range over the
/// median, or the full range over the median when there are too few runs
/// for quartiles.
fn spread(values: &[f64]) -> f64 {
    if values.len() >= 4 {
        return relative_spread(values);
    }
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    (hi - lo) / median(values).abs()
}

pub fn run(seed: u64, seconds: f64, traced: bool, repeat: usize) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut ok = true;
    let mut runs = Vec::new();
    // (workload, metric) → one value per repeat, end-to-end metrics only.
    let mut series: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    for rep in 0..repeat {
        for workload in NAMES {
            for trace in [false, true] {
                if trace && !traced {
                    continue;
                }
                let result = run_child(workload, seed, seconds, trace)?;
                ok &= result["correct"].as_bool() == Some(true);
                let metrics = result["metrics"]
                    .as_object()
                    .ok_or("result without metrics")?;
                for (name, m) in metrics {
                    let value = m["value"].as_f64().ok_or("metric without value")?;
                    println!(
                        "{workload} {name} {} {value}",
                        m["unit"].as_str().unwrap_or("?")
                    );
                    if !trace {
                        series
                            .entry((workload, name.clone()))
                            .or_default()
                            .push(value);
                    }
                }
                let mut run = BTreeMap::new();
                run.insert("workload".to_string(), Value::from(workload));
                run.insert("trace".to_string(), Value::Bool(trace));
                run.insert("repeat".to_string(), Value::from(rep));
                run.insert("result".to_string(), result);
                runs.push(Value::Object(run));
            }
        }
    }

    let mut aa = Vec::new();
    if repeat > 1 {
        println!("# A/A over {repeat} runs: workload metric spread bound verdict");
        for ((workload, name), values) in &series {
            let bound = *bounds
                .get(name)
                .ok_or(format!("{name} has no bound in BENCHMARK.json"))?;
            let s = spread(values);
            // Set-up time is reported, not enforced: the acceptance rule
            // judges it on its median only.
            let within = s <= bound || name == "setup_s";
            ok &= within;
            println!(
                "{workload} {name} {s:.4} {bound} {}",
                if within { "ok" } else { "EXCEEDS" }
            );
            let mut row = BTreeMap::new();
            row.insert("workload".to_string(), Value::from(*workload));
            row.insert("metric".to_string(), Value::from(name.as_str()));
            row.insert("spread".to_string(), Value::Number(s));
            row.insert("bound".to_string(), Value::Number(bound));
            row.insert("median".to_string(), Value::Number(median(values)));
            aa.push(Value::Object(row));
        }
    }

    let mut doc = BTreeMap::new();
    doc.insert("seed".to_string(), Value::from(seed));
    doc.insert("seconds".to_string(), Value::Number(seconds));
    doc.insert("runs".to_string(), Value::Array(runs));
    doc.insert("aa".to_string(), Value::Array(aa));
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/result.json");
    std::fs::write(&path, format!("{}\n", Value::Object(doc)))
        .map_err(|e| format!("write {path}: {e}"))?;
    println!(
        "# wrote {path}; {}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_uses_range_for_few_runs_and_quartiles_for_many() {
        assert!((spread(&[100.0, 104.0]) - 4.0 / 102.0).abs() < 1e-12);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }
}
