//! Serving benchmark: drives the deterministic closed-loop simulator at
//! a 10⁵-client scale. Every number (queries/s, p99 µs, shed rate) is
//! measured on the **virtual** clock, so the artifact is byte-stable
//! across machines and `ML4DB_THREADS`; real serving throughput is the
//! end-to-end benchmark's job (`benchmark/`).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::Value;

use ml4db_core::datagen::{LoadGen, LoadSpec, SchemaGraph, TemplateMix};
use ml4db_core::obs;
use ml4db_core::optimizer::Env;
use ml4db_core::serve::{run_closed_loop, AdmissionConfig, SimConfig};
use ml4db_core::storage::datasets::joblite_db;

use crate::Outcome;

const CLIENTS: u32 = 100_000;
const REQUESTS: u64 = 60_000;
const THINK_NS: u64 = 4_000_000_000;
const WORKERS: usize = 8;
const SEED: u64 = 42;

pub fn run() -> Outcome {
    let mut rng = StdRng::seed_from_u64(SEED);
    // Index-free on purpose: the committed artifact was measured without
    // the `title.year` index the other harnesses declare.
    let db = joblite_db(400, &[], &mut rng);
    let env = Env::new(&db);
    let mix = TemplateMix::generate(&db, &SchemaGraph::joblite(), 4, 6, 4, SEED ^ 0xA5A5);
    let spec = LoadSpec {
        clients: CLIENTS,
        classes: 3,
        mean_think_ns: THINK_NS,
        total_requests: REQUESTS,
    };
    let mut gen = LoadGen::new(spec, mix, SEED);
    let cfg = SimConfig {
        workers: WORKERS,
        admission: AdmissionConfig { capacity: 256, soft_limit: 192, classes: 3, seed: SEED },
    };

    let _mode = obs::ModeGuard::new(obs::Mode::Noop);
    let report = run_closed_loop(&env, &mut gen, &cfg);

    let mut o = match report.to_canonical_json() {
        Value::Object(o) => o,
        _ => BTreeMap::new(),
    };
    o.insert("bench".to_string(), Value::String("serve_closed_loop".to_string()));
    o.insert("clients".to_string(), Value::Number(f64::from(CLIENTS)));
    o.insert("requests".to_string(), Value::Number(REQUESTS as f64));
    o.insert("workers".to_string(), Value::Number(WORKERS as f64));
    o.insert("seed".to_string(), Value::Number(SEED as f64));
    eprintln!(
        "serve: {} submitted, {} completed, qps={:.1}, p99={:?}us, shed_rate={:.4}",
        report.submitted(),
        report.completed(),
        report.queries_per_sec.unwrap_or(0.0),
        report.p99_us(),
        report.shed_rate(),
    );
    Outcome { json: Value::Object(o), pass: true }
}
