//! Graceful-shutdown suite: `Server::shutdown` drains the admission
//! queue and fsyncs the attached durability journal, so **no request
//! the server accepted is lost** — the serving-layer end of the crash
//! consistency contract.
//!
//! The journal is a `DurableStore<SimDisk>` shared with the test
//! through an `Arc<Mutex<_>>` sink. After shutdown we clone the
//! simulated disk (exactly the bytes a real machine would hold after
//! power loss), reboot a fresh store from it, and check every admitted
//! request id against the recovered committed state.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use ml4db_core::prelude::*;
use ml4db_core::storage::datasets::joblite_db;
use ml4db_core::storage::Database;
use ml4db_datagen::TemplateMix;
use ml4db_serve::{AdmissionConfig, AdmissionVerdict, DurabilitySink, Request, ServeConfig, Server};
use ml4db_storage::durable::{DurableStore, SimDisk, StoreConfig, WalError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WORKERS: u64 = 4;
const SESSIONS: u64 = 8;
const REQUESTS_PER_SESSION: u64 = 60;
const TENANTS: u32 = 4;

/// Test-side handle on the journal: the server holds one clone as its
/// sink, the test keeps the other to inspect the disk afterwards.
struct SharedJournal(Arc<Mutex<DurableStore<SimDisk>>>);

impl DurabilitySink for SharedJournal {
    fn record(&mut self, request_id: u64, tenant: u32) -> Result<(), WalError> {
        self.0.lock().unwrap().put(request_id, u64::from(tenant))
    }
    fn sync(&mut self) -> Result<(), WalError> {
        self.0.lock().unwrap().commit().map(|_| ())
    }
}

fn setup(seed: u64) -> (Database, TemplateMix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = joblite_db(120, &[], &mut rng);
    let mix = TemplateMix::generate(&db, &SchemaGraph::joblite(), TENANTS, 4, 3, seed);
    (db, mix)
}

/// Drives sessions against workers with a journal attached, shuts down
/// gracefully, then reboots from the journal's disk: every admitted
/// request must be present in recovered committed state, tagged with
/// its tenant.
#[test]
fn shutdown_loses_no_accepted_request() {
    let (db, mix) = setup(0xD00D);
    let env = Env::new(&db);
    let server = Server::new(
        &env,
        ServeConfig {
            admission: AdmissionConfig { capacity: 16, soft_limit: 12, classes: 3, seed: 5 },
            tenants: TENANTS,
        },
    );
    let journal = Arc::new(Mutex::new(
        DurableStore::create(SimDisk::new(), StoreConfig::default()).expect("create journal"),
    ));
    server.set_journal(Box::new(SharedJournal(Arc::clone(&journal))));

    let admitted: Mutex<BTreeSet<(u64, u32)>> = Mutex::new(BTreeSet::new());
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let server = &server;
            s.spawn(move || server.run_worker(w));
        }
        let handles: Vec<_> = (0..SESSIONS)
            .map(|session| {
                let server = &server;
                let mix = &mix;
                let admitted = &admitted;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xFACE ^ session);
                    let tenant = (session % u64::from(TENANTS)) as u32;
                    let class = (session % 3) as u8;
                    let pool = &mix.pools[tenant as usize];
                    for seq in 0..REQUESTS_PER_SESSION {
                        let t = rng.gen_range(0..pool.len());
                        let v = rng.gen_range(0..pool[t].len());
                        let id = (session << 32) | seq;
                        let verdict = server.submit(Request {
                            id,
                            session,
                            tenant,
                            class,
                            query: pool[t][v].clone(),
                        });
                        if matches!(verdict, AdmissionVerdict::Admitted) {
                            admitted.lock().unwrap().insert((id, tenant));
                        }
                        // Closed loop: wait for the response so the
                        // queue drains and sheds stay rare.
                        let resp = server.await_take(id);
                        assert_eq!(resp.request_id, id);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("session thread panicked");
        }
        server.shutdown().expect("graceful shutdown failed");
    });
    assert_eq!(server.journal_errors(), 0, "journal writes failed during the run");

    let admitted = admitted.into_inner().unwrap();
    assert!(
        admitted.len() as u64 >= SESSIONS * REQUESTS_PER_SESSION / 2,
        "too few admissions ({}) for the test to mean anything",
        admitted.len()
    );

    // Reboot: clone the disk exactly as shutdown left it and recover.
    let disk = journal.lock().unwrap().medium().clone();
    let (recovered, report) =
        DurableStore::open(disk, StoreConfig::default()).expect("reboot failed");
    assert_eq!(report.uncommitted_dropped, 0, "shutdown left a dangling uncommitted batch");
    let state = recovered.committed_state();
    for &(id, tenant) in &admitted {
        assert_eq!(
            state.get(&id).copied(),
            Some(u64::from(tenant)),
            "request {id:#x} was accepted but lost across shutdown + reboot"
        );
    }
}

/// Negative control: without the `shutdown()` sync, the same workload's
/// journal records are uncommitted and a reboot drops them — proof the
/// final commit barrier is load-bearing, not decorative.
#[test]
fn skipping_shutdown_sync_loses_accepted_requests() {
    let (db, mix) = setup(0xD00E);
    let env = Env::new(&db);
    let server = Server::new(
        &env,
        ServeConfig {
            admission: AdmissionConfig { capacity: 16, soft_limit: 12, classes: 3, seed: 5 },
            tenants: TENANTS,
        },
    );
    let journal = Arc::new(Mutex::new(
        DurableStore::create(SimDisk::new(), StoreConfig::default()).expect("create journal"),
    ));
    server.set_journal(Box::new(SharedJournal(Arc::clone(&journal))));

    let mut admissions = 0u64;
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let server = &server;
            s.spawn(move || server.run_worker(w));
        }
        let mut rng = StdRng::seed_from_u64(0xFACE);
        let pool = &mix.pools[0];
        for seq in 0..REQUESTS_PER_SESSION {
            let t = rng.gen_range(0..pool.len());
            let v = rng.gen_range(0..pool[t].len());
            let verdict = server.submit(Request {
                id: seq,
                session: 0,
                tenant: 0,
                class: 0,
                query: pool[t][v].clone(),
            });
            if matches!(verdict, AdmissionVerdict::Admitted) {
                admissions += 1;
            }
            server.await_take(seq);
        }
        // Abrupt stop: close the doors but never sync the journal.
        server.close();
    });
    assert!(admissions > 0);

    let disk = journal.lock().unwrap().medium().clone();
    let (recovered, _) =
        DurableStore::open(disk, StoreConfig::default()).expect("reboot failed");
    assert!(
        recovered.committed_state().is_empty(),
        "records survived without any commit barrier — the positive test proves nothing"
    );
}
