//! The threaded [`Server`] and the discrete-event simulator are two
//! front ends over one set of parts, so on everything that does not
//! depend on timing they must agree. One seeded [`LoadGen`] population —
//! every client issues exactly one request (the whole population arrives
//! within nanoseconds, before the first completion can send anyone round
//! again), fewer clients than the queue's `soft_limit`, so nothing is shed
//! and the request multiset is the same whatever the interleaving — goes
//! through `sim::run_closed_loop` and through the server at 1, 2 and 4
//! workers. Per-tenant ledgers must be
//! equal field by field, and the multiset of simulated execution
//! latencies equal bit for bit. The server's merged per-tenant latency
//! histograms must also hold exactly one observation per completed
//! request: a worker that left without merging its own histograms shows
//! here.
//!
//! The controller reads a serve run through neither: it reads
//! `HealthSnapshot`, built from the `ServeVerdict` events. So the same two
//! front ends, under admission tight enough to shed and with malformed
//! requests among the good ones, must leave per-tenant verdict counts in
//! the snapshot equal to their ledgers.

use ml4db_core::prelude::*;
use ml4db_core::storage::datasets::joblite_db;
use ml4db_datagen::{LoadGen, LoadSpec, TemplateMix};
use ml4db_obs::{Event, HealthSnapshot, TenantCounters, Trace};
use ml4db_serve::{run_closed_loop, AdmissionConfig, Outcome, Request, ServeConfig, ServeReport, Server, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TENANTS: u32 = 3;
const CLIENTS: u32 = 600;
const LOAD_SEED: u64 = 0x5EED;

/// Below `soft_limit` even if every client were queued at once.
const ADMISSION: AdmissionConfig = AdmissionConfig { capacity: 1024, soft_limit: 768, classes: 3, seed: 11 };

fn load(mix: &TemplateMix) -> LoadGen {
    let spec = LoadSpec {
        clients: CLIENTS,
        classes: 3,
        // Arrivals at 1-10 virtual ns; a service takes microseconds.
        mean_think_ns: 1,
        total_requests: u64::from(CLIENTS),
    };
    LoadGen::new(spec, mix.clone(), LOAD_SEED)
}

/// The six timing-independent counters of every tenant.
fn ledger(report: &ServeReport) -> Vec<[u64; 6]> {
    report
        .tenants
        .iter()
        .map(|t| [t.submitted, t.admitted, t.completed, t.failed, t.shed, t.rejected])
        .collect()
}

fn sorted_bits(latencies: impl Iterator<Item = f64>) -> Vec<u64> {
    let mut bits: Vec<u64> = latencies.map(f64::to_bits).collect();
    bits.sort_unstable();
    bits
}

#[test]
fn server_and_simulator_agree_on_every_timing_independent_output() {
    let db = joblite_db(150, &[("title", "year")], &mut StdRng::seed_from_u64(17));
    let mix = TemplateMix::generate(&db, &SchemaGraph::joblite(), TENANTS, 4, 3, 23);
    // Held throughout: the server below must not emit into another test's
    // collection window.
    let _serial = ml4db_obs::serial();

    // The simulator's per-request latencies are its `Executed` events.
    let (sim_ledger, sim_latencies) = {
        let _collect = ml4db_obs::ModeGuard::collect();
        let env = Env::new(&db);
        let report = run_closed_loop(&env, &mut load(&mix), &SimConfig { workers: 4, admission: ADMISSION });
        let trace = ml4db_obs::take_trace();
        let latencies = sorted_bits(trace.all_events().filter_map(|e| match e {
            Event::Executed { latency_us, .. } => Some(*latency_us),
            _ => None,
        }));
        (ledger(&report), latencies)
    };
    let completed: u64 = sim_ledger.iter().map(|t| t[2]).sum();
    assert_eq!(sim_ledger.iter().map(|t| t[0]).sum::<u64>(), u64::from(CLIENTS));
    assert_eq!(sim_latencies.len() as u64, completed);
    assert!(completed > 0 && sim_ledger.iter().all(|t| t[4] == 0), "{sim_ledger:?}");

    for workers in [1u64, 2, 4] {
        let env = Env::new(&db);
        let server = Server::new(&env, ServeConfig { admission: ADMISSION, tenants: TENANTS });
        let mut gen = load(&mix);
        let mut latencies = Vec::new();
        std::thread::scope(|s| {
            for w in 0..workers {
                let server = &server;
                s.spawn(move || server.run_worker(w));
            }
            let mut sent = Vec::new();
            while let Some(arrival) = gen.next_arrival() {
                let req = gen.request_for(arrival.client);
                let id = u64::from(req.client);
                server.submit(Request {
                    id,
                    session: id,
                    tenant: req.tenant,
                    class: req.class,
                    query: req.query,
                });
                sent.push(id);
            }
            for id in sent {
                if let Outcome::Done { latency_us } = server.await_take(id).outcome {
                    latencies.push(latency_us);
                }
            }
            server.close();
        });
        let report = server.report(true);
        assert_eq!(server.duplicate_responses(), 0);
        assert_eq!(ledger(&report), sim_ledger, "{workers} workers: ledgers differ from the simulator's");
        assert_eq!(
            sorted_bits(latencies.into_iter()),
            sim_latencies,
            "{workers} workers: simulated latencies differ from the simulator's"
        );
        for (tenant, t) in report.tenants.iter().enumerate() {
            assert_eq!(
                server.latency_histogram(tenant as u32).total(),
                t.completed,
                "{workers} workers, tenant {tenant}: a worker's latencies never reached the report"
            );
        }
    }
}

/// Per tenant: admitted / shed / rejected as `HealthSnapshot` counts them
/// from the trace equal the ledger's.
fn assert_snapshot_matches_ledger(front_end: &str, report: &ServeReport, trace: &Trace) {
    let health = HealthSnapshot::from_trace(0, trace);
    for (tenant, t) in report.tenants.iter().enumerate() {
        assert_eq!(
            health.tenants.get(&(tenant as u32)).copied().unwrap_or_default(),
            TenantCounters { admitted: t.admitted, shed: t.shed, rejected: t.rejected },
            "{front_end}, tenant {tenant}: the health snapshot and the ledger disagree"
        );
    }
}

#[test]
fn health_snapshot_counts_every_verdict_the_ledger_does() {
    // Far below the 600-client population, so most arrivals are shed.
    const TIGHT: AdmissionConfig = AdmissionConfig { capacity: 64, soft_limit: 16, classes: 3, seed: 11 };
    let db = joblite_db(150, &[("title", "year")], &mut StdRng::seed_from_u64(17));
    let mix = TemplateMix::generate(&db, &SchemaGraph::joblite(), TENANTS, 4, 3, 23);
    let _serial = ml4db_obs::serial();
    let _collect = ml4db_obs::ModeGuard::collect();

    let env = Env::new(&db);
    let report = run_closed_loop(&env, &mut load(&mix), &SimConfig { workers: 4, admission: TIGHT });
    assert!(report.shed() > 0, "the simulator shed nothing: {:?}", ledger(&report));
    assert_snapshot_matches_ledger("simulator", &report, &ml4db_obs::take_trace());

    let env = Env::new(&db);
    let server = Server::new(&env, ServeConfig { admission: TIGHT, tenants: TENANTS });
    let mut gen = load(&mix);
    // Everything is submitted before a worker starts, so the queue overflows.
    let mut sent = Vec::new();
    while let Some(arrival) = gen.next_arrival() {
        let req = gen.request_for(arrival.client);
        let id = u64::from(req.client);
        server.submit(Request { id, session: id, tenant: req.tenant, class: req.class, query: req.query });
        sent.push(id);
    }
    for tenant in 0..TENANTS {
        let id = u64::from(CLIENTS + tenant);
        let query = Query::new(&["no_such_table"]);
        server.submit(Request { id, session: id, tenant, class: 0, query });
        sent.push(id);
    }
    std::thread::scope(|s| {
        s.spawn(|| server.run_worker(0));
        for id in sent {
            server.await_take(id);
        }
        server.close();
    });
    let report = server.report(true);
    assert!(report.shed() > 0, "the server shed nothing: {:?}", ledger(&report));
    assert_eq!(report.rejected(), u64::from(TENANTS), "one malformed query per tenant");
    assert_snapshot_matches_ledger("server", &report, &ml4db_obs::take_trace());
}
