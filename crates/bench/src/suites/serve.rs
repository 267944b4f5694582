//! Serving benchmark: drives the deterministic closed-loop simulator at
//! a 10⁵-client scale. Every number (queries/s, p99 µs, shed rate) is
//! measured on the **virtual** clock, so the artifact is byte-stable
//! across machines and `ML4DB_THREADS`; real serving throughput is the
//! end-to-end benchmark's job (`benchmark/`). What this suite adds on the
//! wall clock goes to stderr only: the threaded `Server` over the same
//! mix at 1, 2, 4 and 8 workers — the "does a second worker pay" row.

use std::collections::{BTreeMap, VecDeque};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::Value;

use ml4db_core::datagen::{LoadGen, LoadSpec, SchemaGraph, TemplateMix};
use ml4db_core::obs;
use ml4db_core::optimizer::Env;
use ml4db_core::serve::{
    run_closed_loop, AdmissionConfig, Outcome as Served, Request, ServeConfig, Server, SimConfig,
};
use ml4db_core::plan::Query;
use ml4db_core::storage::datasets::joblite_db;
use ml4db_core::storage::Database;

use crate::Outcome;

const CLIENTS: u32 = 100_000;
const REQUESTS: u64 = 60_000;
const THINK_NS: u64 = 4_000_000_000;
const WORKERS: usize = 8;
const SEED: u64 = 42;
const ADMISSION: AdmissionConfig =
    AdmissionConfig { capacity: 256, soft_limit: 192, classes: 3, seed: SEED };

/// Requests per row of the threaded scaling table, and how many one
/// driver thread keeps outstanding (well below `soft_limit`: none shed).
const THREADED_REQUESTS: usize = 20_000;
const THREADED_IN_FLIGHT: usize = 16;

/// Requests per second of the threaded server over `mix`, closed loop
/// from one driver thread, at each worker count — each on a fresh engine
/// warmed by one untimed pass over the mix.
fn threaded_scaling_row(db: &Database, mix: &TemplateMix) -> Vec<(u64, f64)> {
    let queries: Vec<(u32, &Query)> = mix
        .pools
        .iter()
        .enumerate()
        .flat_map(|(tenant, pool)| pool.iter().flatten().map(move |q| (tenant as u32, q)))
        .collect();
    [1u64, 2, 4, 8]
        .into_iter()
        .map(|workers| {
            let env = Env::new(db);
            let server =
                Server::new(&env, ServeConfig { admission: ADMISSION, tenants: mix.tenants() });
            let drive = |ids: std::ops::Range<usize>| {
                let mut outstanding = VecDeque::with_capacity(THREADED_IN_FLIGHT);
                for i in ids {
                    let (tenant, query) = queries[i % queries.len()];
                    let id = i as u64;
                    server.submit(Request {
                        id,
                        session: id % THREADED_IN_FLIGHT as u64,
                        tenant,
                        class: (i % 3) as u8,
                        query: query.clone(),
                    });
                    outstanding.push_back(id);
                    if outstanding.len() == THREADED_IN_FLIGHT {
                        let oldest = outstanding.pop_front().expect("just filled");
                        assert!(matches!(server.await_take(oldest).outcome, Served::Done { .. }));
                    }
                }
                for id in outstanding {
                    assert!(matches!(server.await_take(id).outcome, Served::Done { .. }));
                }
            };
            let secs = std::thread::scope(|s| {
                for w in 0..workers {
                    let server = &server;
                    s.spawn(move || server.run_worker(w));
                }
                drive(0..queries.len());
                let ((), secs) = crate::time(|| drive(queries.len()..queries.len() + THREADED_REQUESTS));
                server.close();
                secs
            });
            let report = server.report(true);
            assert_eq!(report.completed() as usize, queries.len() + THREADED_REQUESTS);
            (workers, THREADED_REQUESTS as f64 / secs)
        })
        .collect()
}

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
    let mut gen = LoadGen::new(spec, mix.clone(), SEED);
    let cfg = SimConfig {
        workers: WORKERS,
        admission: ADMISSION,
    };

    let report = {
        let _mode = obs::ModeGuard::new(obs::Mode::Noop);
        run_closed_loop(&env, &mut gen, &cfg)
    };

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
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "serve, threaded (wall clock, {cores} cores, one driver thread, {THREADED_IN_FLIGHT} in flight, \
         {THREADED_REQUESTS} requests per row):"
    );
    for (workers, ops_per_s) in threaded_scaling_row(&db, &mix) {
        eprintln!("  workers={workers} ops_per_s={ops_per_s:.0}");
    }
    Outcome { json: Value::Object(o), pass: true }
}
