//! A tour of the serving layer: the threaded server with real session
//! and worker threads, then the deterministic closed-loop simulator
//! that produces the canonical throughput/tail-latency numbers.
//!
//! ```bash
//! cargo run --release --example serve
//! ```

use ml4db_core::prelude::*;
use ml4db_core::serve::{
    run_closed_loop, AdmissionConfig, Outcome, Request, ServeConfig, Server, SimConfig,
};
use ml4db_core::storage::datasets::joblite_db;
use ml4db_datagen::{LoadGen, LoadSpec, TemplateMix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let db = joblite_db(200, &[], &mut rng);
    let env = Env::new(&db);
    let mix = TemplateMix::generate(&db, &SchemaGraph::joblite(), 4, 4, 3, 7);

    // ── 1. The threaded server: 4 worker threads, 8 session threads ──
    let server = Server::new(
        &env,
        ServeConfig {
            admission: AdmissionConfig { capacity: 16, soft_limit: 8, classes: 3, seed: 7 },
            tenants: 4,
        },
    );
    std::thread::scope(|s| {
        for w in 0..4 {
            let server = &server;
            s.spawn(move || server.run_worker(w));
        }
        let sessions: Vec<_> = (0..8u64)
            .map(|session| {
                let server = &server;
                let mix = &mix;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(100 + session);
                    let tenant = (session % 4) as u32;
                    let pool = &mix.pools[tenant as usize];
                    let mut done = 0u32;
                    let mut shed = 0u32;
                    for seq in 0..100u64 {
                        let id = (session << 32) | seq;
                        let t = rng.gen_range(0..pool.len());
                        server.submit(Request {
                            id,
                            session,
                            tenant,
                            class: (session % 3) as u8,
                            query: pool[t][rng.gen_range(0..pool[t].len())].clone(),
                        });
                        match server.await_take(id).outcome {
                            Outcome::Done { .. } => done += 1,
                            Outcome::Shed(_) => shed += 1,
                            other => panic!("unexpected outcome: {other:?}"),
                        }
                    }
                    (session, done, shed)
                })
            })
            .collect();
        for h in sessions {
            let (session, done, shed) = h.join().unwrap();
            println!("session {session}: {done} done, {shed} shed");
        }
        server.close();
    });
    let report = server.report(true);
    println!(
        "threaded server: {} submitted, {} completed, {} shed, duplicates={}",
        report.submitted(),
        report.completed(),
        report.shed(),
        server.duplicate_responses()
    );

    // ── 2. The simulator: 20k virtual clients on the virtual clock ──
    let spec = LoadSpec {
        clients: 20_000,
        classes: 3,
        mean_think_ns: 1_000_000_000,
        total_requests: 20_000,
    };
    let mut gen = LoadGen::new(spec, mix, 7);
    let cfg = SimConfig {
        workers: 8,
        admission: AdmissionConfig { capacity: 128, soft_limit: 96, classes: 3, seed: 7 },
    };
    let sim = run_closed_loop(&env, &mut gen, &cfg);
    println!(
        "simulated serving: qps={:.1} p99={:.0}us shed_rate={:.3} (virtual makespan {:.3}s)",
        sim.queries_per_sec.unwrap_or(0.0),
        sim.p99_us().unwrap_or(0.0),
        sim.shed_rate(),
        sim.virtual_ns.unwrap_or(0) as f64 / 1e9
    );
}
