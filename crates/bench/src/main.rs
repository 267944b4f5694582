//! The one bench binary: regenerates the six committed `BENCH_*.json`
//! artifacts at the committed full-scale configuration.
//!
//! ```bash
//! cargo run --release -p ml4db-bench --bin ml4db-bench            # all six
//! cargo run --release -p ml4db-bench --bin ml4db-bench -- matrix ctl
//! cargo run --release -p ml4db-bench --bin ml4db-bench -- experiments
//! ```
//!
//! Positional names select suites; nothing configures them — smoke scale
//! lives in the tier-1 tests (`MatrixConfig::smoke()`,
//! `CtlWorldConfig::smoke()`). `BENCH_matrix.json`, `BENCH_ctl.json`,
//! `BENCH_serve.json` and `BENCH_experiments.json` (the paper's Figure 1,
//! Table 1 and claims E1–E17, every one a gated check) are canonical: pure
//! functions of the committed constants, byte-identical across machines
//! and `ML4DB_THREADS`, so CI `git diff`s them. `BENCH_index.json` and
//! `BENCH_storage.json` carry host wall-clock — compare their figures only
//! within one run (the storage suite's two run counts are exact, and one
//! is its gate). Wall time of every suite goes to stderr, never into an
//! artifact.
//!
//! Exit status: 0 when every selected suite's gate held, 1 when one
//! failed (after all selected suites have run and written their
//! artifact), 2 on an unknown suite name.

use std::time::Instant;

use serde_json::Value;

mod suites {
    pub mod ctl;
    pub mod experiments;
    pub mod index;
    pub mod matrix;
    pub mod serve;
    pub mod storage;
}

/// What a suite hands the driver: its artifact and whether its gate held.
pub struct Outcome {
    /// The `BENCH_<name>.json` document.
    pub json: Value,
    /// The suite's verdict; suites without a gate always pass.
    pub pass: bool,
}

const SUITES: [(&str, fn() -> Outcome); 6] = [
    ("experiments", suites::experiments::run),
    ("index", suites::index::run),
    ("storage", suites::storage::run),
    ("serve", suites::serve::run),
    ("matrix", suites::matrix::run),
    ("ctl", suites::ctl::run),
];

/// Times a closure on the wall clock.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

fn main() {
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = wanted.iter().find(|w| !SUITES.iter().any(|(name, _)| name == w)) {
        let known: Vec<&str> = SUITES.iter().map(|(name, _)| *name).collect();
        eprintln!("unknown suite {bad:?}; known suites: {}", known.join(" "));
        std::process::exit(2);
    }
    let mut all_pass = true;
    for (name, run) in SUITES {
        if !wanted.is_empty() && !wanted.iter().any(|w| w == name) {
            continue;
        }
        let (outcome, secs) = time(run);
        let path = format!("BENCH_{name}.json");
        std::fs::write(&path, format!("{}\n", outcome.json))
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("{}", outcome.json);
        eprintln!("{name}: wrote {path} in {secs:.1}s, pass={}", outcome.pass);
        all_pass &= outcome.pass;
    }
    if !all_pass {
        std::process::exit(1);
    }
}
