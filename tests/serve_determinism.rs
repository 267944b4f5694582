//! Serving determinism regression: the closed-loop simulator's
//! canonical report is a pure function of `(database seed, load spec,
//! mix, load seed, sim config)` — byte-identical across repeated runs
//! and across `ML4DB_THREADS` settings. This is the serving layer's
//! entry in the workspace-wide determinism contract (see
//! `tests/determinism.rs` for the batch side).

use ml4db_core::par;
use ml4db_core::prelude::*;
use ml4db_core::storage::datasets::joblite_db;
use ml4db_datagen::{LoadGen, LoadSpec, TemplateMix};
use ml4db_serve::{run_closed_loop, AdmissionConfig, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One full simulated serving run, rendered canonically.
fn canonical_run(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(17);
    let db = joblite_db(150, &[], &mut rng);
    let env = Env::new(&db);
    let mix = TemplateMix::generate(&db, &SchemaGraph::joblite(), 4, 4, 3, 23);
    let spec = LoadSpec {
        clients: 600,
        classes: 3,
        mean_think_ns: 2_000_000,
        total_requests: 5_000,
    };
    let mut gen = LoadGen::new(spec, mix, seed);
    let cfg = SimConfig {
        workers: 8,
        admission: AdmissionConfig { capacity: 48, soft_limit: 24, classes: 3, seed },
    };
    run_closed_loop(&env, &mut gen, &cfg).to_canonical_json().to_string()
}

/// Repeated runs with identical inputs render byte-identically.
#[test]
fn repeated_runs_are_byte_identical() {
    let a = canonical_run(42);
    let b = canonical_run(42);
    assert_eq!(a, b, "canonical serving report must replay byte-for-byte");
    // And the report actually says something: nonzero throughput and a
    // p99, so the identity above is not vacuous.
    assert!(a.contains("\"queries_per_sec\":"));
    assert!(a.contains("\"p99_us\":"));
    assert_ne!(a, canonical_run(43), "the load seed must reach the report");
}

/// The thread-count axis: `ML4DB_THREADS=1` and a many-thread pool must
/// produce the same bytes. The simulator itself is single-threaded;
/// this pins that no wall-clock or pool-order effect leaks in through
/// the engine underneath.
#[test]
fn thread_count_cannot_change_the_report() {
    let serial = par::with_threads(1, || canonical_run(42));
    let threaded = par::with_threads(6, || canonical_run(42));
    assert_eq!(serial, threaded, "serving report differs across thread counts");
}
