//! Serving stress suite: the threaded [`Server`] under real worker and
//! session threads. What must hold no matter how the OS interleaves:
//!
//! * no panics escape the serving layer;
//! * every submitted request resolves to **exactly one** response
//!   (`duplicate_responses() == 0`, a second take returns `None`);
//! * per-tenant ledgers balance: `admitted + shed + rejected ==
//!   submitted` and, once drained, `completed + failed == admitted`;
//! * session-local verdict counts agree with the server's own ledgers;
//! * a poisoned lock shard (response table or engine cache) cannot
//!   wedge submission, execution, or delivery.

use std::sync::atomic::{AtomicU64, Ordering};

use ml4db_core::prelude::*;
use ml4db_core::storage::datasets::joblite_db;
use ml4db_core::storage::Database;
use ml4db_datagen::TemplateMix;
use ml4db_serve::{AdmissionConfig, Outcome, Request, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WORKERS: u64 = 8;
const SESSIONS: u64 = 16;
const REQUESTS_PER_SESSION: u64 = 150;
const TENANTS: u32 = 4;

fn setup(seed: u64) -> (Database, TemplateMix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = joblite_db(150, &[], &mut rng);
    let mix = TemplateMix::generate(&db, &SchemaGraph::joblite(), TENANTS, 4, 3, seed);
    (db, mix)
}

/// Drives `SESSIONS` client threads against `WORKERS` worker threads and
/// checks the exactly-once ledger from both sides.
#[test]
fn stress_exactly_once_accounting() {
    let (db, mix) = setup(0xBEEF);
    let env = Env::new(&db);
    let server = Server::new(
        &env,
        ServeConfig {
            // Small queue relative to 16 concurrent sessions so the
            // overload band and queue_full sheds actually trigger.
            admission: AdmissionConfig { capacity: 8, soft_limit: 4, classes: 3, seed: 7 },
            tenants: TENANTS,
        },
    );
    // Session-side tallies, indexed [tenant][kind].
    let submitted = (0..TENANTS).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
    let shed = (0..TENANTS).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
    let rejected = (0..TENANTS).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
    let resolved = (0..TENANTS).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();

    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let server = &server;
            s.spawn(move || server.run_worker(w));
        }
        let handles: Vec<_> = (0..SESSIONS)
            .map(|session| {
                let server = &server;
                let mix = &mix;
                let submitted = &submitted;
                let shed = &shed;
                let rejected = &rejected;
                let resolved = &resolved;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ session);
                    let tenant = (session % u64::from(TENANTS)) as u32;
                    let class = (session % 3) as u8;
                    let pool = &mix.pools[tenant as usize];
                    for seq in 0..REQUESTS_PER_SESSION {
                        let t = rng.gen_range(0..pool.len());
                        let v = rng.gen_range(0..pool[t].len());
                        let id = (session << 32) | seq;
                        submitted[tenant as usize].fetch_add(1, Ordering::Relaxed);
                        server.submit(Request {
                            id,
                            session,
                            tenant,
                            class,
                            query: pool[t][v].clone(),
                        });
                        let resp = server.await_take(id);
                        assert_eq!(resp.request_id, id);
                        assert_eq!(resp.tenant, tenant);
                        match resp.outcome {
                            Outcome::Shed(_) => {
                                shed[tenant as usize].fetch_add(1, Ordering::Relaxed);
                            }
                            Outcome::Rejected(r) => {
                                rejected[tenant as usize].fetch_add(1, Ordering::Relaxed);
                                panic!("well-formed request rejected: {r}");
                            }
                            Outcome::Done { latency_us } => {
                                assert!(latency_us > 0.0, "zero simulated latency");
                            }
                            Outcome::Failed(_) => {}
                        }
                        resolved[tenant as usize].fetch_add(1, Ordering::Relaxed);
                        // Exactly-once: the response was removed by the take.
                        assert!(server.try_take(id).is_none());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("session thread panicked");
        }
        server.close();
    });

    // check_invariants(drained=true) runs inside report().
    let report = server.report(true);
    assert_eq!(server.duplicate_responses(), 0, "a response was deposited twice");
    assert_eq!(report.submitted(), SESSIONS * REQUESTS_PER_SESSION);
    for t in 0..TENANTS as usize {
        assert_eq!(report.tenants[t].submitted, submitted[t].load(Ordering::Relaxed));
        assert_eq!(report.tenants[t].shed, shed[t].load(Ordering::Relaxed));
        assert_eq!(report.tenants[t].rejected, rejected[t].load(Ordering::Relaxed));
        assert_eq!(
            report.tenants[t].submitted,
            resolved[t].load(Ordering::Relaxed),
            "tenant {t}: some submission never produced a response"
        );
    }
    assert!(report.completed() > 0, "nothing completed under stress");
    assert!(report.shed() > 0, "the tiny queue should have shed under 16 sessions");
    assert!(report.p99_us().is_some(), "latency quantiles missing");
}

/// Malformed submissions are rejected synchronously — exactly one
/// response each, correct ledger, no worker involvement.
#[test]
fn stress_rejections_resolve_synchronously() {
    let (db, mix) = setup(0xF00D);
    let env = Env::new(&db);
    let server = Server::new(&env, ServeConfig { tenants: 2, ..Default::default() });

    // Unknown tenant: refused before any ledger is touched.
    let q = mix.pools[0][0][0].clone();
    let v = server.submit(Request { id: 1, session: 0, tenant: 99, class: 0, query: q.clone() });
    assert_eq!(v.kind(), "rejected");
    assert_eq!(server.try_take(1).unwrap().outcome, Outcome::Rejected("bad_tenant"));

    // Unknown class: refused by admission, ledgered under its tenant.
    let v = server.submit(Request { id: 2, session: 0, tenant: 0, class: 99, query: q });
    assert_eq!(v.kind(), "rejected");
    assert_eq!(server.try_take(2).unwrap().outcome, Outcome::Rejected("bad_class"));

    let report = server.report(true);
    assert_eq!(report.rejected(), 1, "bad_tenant must not pollute any tenant ledger");
    assert_eq!(report.submitted(), 1);
}

/// Poisoned shards — a response-table shard and an engine cache shard,
/// poisoned exactly as a panicking worker would — must not wedge
/// serving: submissions still resolve, workers still drain, ledgers
/// still balance.
#[test]
fn stress_poisoned_shard_does_not_wedge_serving() {
    let (db, mix) = setup(0xDEAD);
    let env = Env::new(&db);
    let server = Server::new(
        &env,
        ServeConfig {
            admission: AdmissionConfig { capacity: 64, soft_limit: 64, classes: 3, seed: 1 },
            tenants: TENANTS,
        },
    );
    server.poison_shards_for_test();

    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let server = &server;
            s.spawn(move || server.run_worker(w));
        }
        let handles: Vec<_> = (0..4u64)
            .map(|session| {
                let server = &server;
                let mix = &mix;
                s.spawn(move || {
                    let tenant = (session % u64::from(TENANTS)) as u32;
                    let pool = &mix.pools[tenant as usize];
                    // 200 ids per session: plenty hash into the poisoned
                    // response shard 0.
                    for seq in 0..200u64 {
                        let id = (session << 32) | seq;
                        server.submit(Request {
                            id,
                            session,
                            tenant,
                            class: 0,
                            query: pool[(seq as usize) % pool.len()][0].clone(),
                        });
                        let resp = server.await_take(id);
                        assert_eq!(resp.request_id, id);
                        assert!(
                            !matches!(resp.outcome, Outcome::Rejected(_)),
                            "valid request rejected through a poisoned shard"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("session thread wedged or panicked on a poisoned shard");
        }
        server.close();
    });

    let report = server.report(true);
    assert_eq!(server.duplicate_responses(), 0);
    assert_eq!(report.submitted(), 4 * 200);
    assert!(report.completed() > 0);
}
