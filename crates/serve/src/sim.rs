//! The deterministic closed-loop serving simulator.
//!
//! This is where throughput numbers come from: a discrete-event
//! simulation of the whole serving loop — seeded client arrivals from
//! [`LoadGen`], admission control, a pool of virtual workers whose
//! service times are the executor's *simulated* latencies, and closed-
//! loop think-time feedback — on a virtual nanosecond clock.
//!
//! Because every input is deterministic (integer virtual time, seeded
//! RNG streams, the simulated executor) the run is a pure function of
//! `(database, spec, mix, seed, config)`: the canonical report is
//! byte-identical across repeated runs **and across `ML4DB_THREADS`
//! settings** — the simulator itself is single-threaded; thread count
//! only changes who warmed the shared plan cache, which cannot change
//! any cached value. `tests/serve_determinism.rs` pins this.
//!
//! Wall-clock enters nowhere: real time spent *driving* the simulation
//! is reported separately by the bench binary as a non-canonical
//! drive-rate figure.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ml4db_datagen::{GenRequest, LoadGen};
use ml4db_obs::Histogram;
use ml4db_optimizer::Env;

use crate::admission::{AdmissionConfig, AdmissionQueue, AdmissionVerdict};
use crate::report::{ServeReport, TenantReport};

/// Simulator knobs.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Virtual worker count — the service parallelism being modeled.
    pub workers: usize,
    /// Admission-control knobs.
    pub admission: AdmissionConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self { workers: 8, admission: AdmissionConfig::default() }
    }
}

/// A queued admitted request: payload plus its arrival timestamp, so
/// sojourn time (queueing + service) is measurable at completion.
struct Pending {
    req: GenRequest,
    arrived_ns: u64,
}

/// One in-flight service, keyed into the completion heap by
/// `(finish_ns, seq)` — the seq tiebreak keeps simultaneous finishes in
/// start order, so the schedule is a total order.
struct InFlight {
    worker: usize,
    client: u32,
    tenant: u32,
    arrived_ns: u64,
    ok: bool,
}

/// Runs the closed loop to exhaustion: every request the population
/// issues is submitted, admitted work is serviced by `cfg.workers`
/// virtual workers (FIFO within class, strict class priority), and
/// clients think and retry off their verdicts — shed clients back off
/// and re-arrive like real ones. Returns the drained per-tenant report
/// with virtual-time throughput.
pub fn run_closed_loop(env: &Env<'_>, gen: &mut LoadGen, cfg: &SimConfig) -> ServeReport {
    assert!(cfg.workers > 0, "at least one virtual worker");
    let tenants = (0..gen.spec().clients).map(|c| gen.tenant_of(c) + 1).max().unwrap_or(1) as usize;

    let mut queue: AdmissionQueue<Pending> = AdmissionQueue::new(cfg.admission);
    let mut counters = vec![TenantReport::default(); tenants];
    let mut hist: Vec<Histogram> = (0..tenants).map(|_| Histogram::latency_us()).collect();
    // Per-worker session views — the same hot path the threaded server
    // runs: session-local memo first, sharded engine caches on miss.
    let mut views: Vec<_> = (0..cfg.workers).map(|w| env.session(w as u64)).collect();
    let mut idle: Vec<usize> = (0..cfg.workers).rev().collect();
    let mut completions: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    let mut in_flight: Vec<Option<InFlight>> = (0..cfg.workers).map(|_| None).collect();
    let mut seq = 0u64;
    // Monotone virtual clock: the timestamp of the event being handled.
    let mut now_ns = 0u64;

    loop {
        // Start queued work on every idle worker before advancing time.
        while let (Some(&w), true) = (idle.last(), queue.depth() > 0) {
            let Some(ticket) = queue.pop() else { break };
            idle.pop();
            let Pending { req, arrived_ns } = ticket.item;
            let (ok, latency_us) = match views[w].serve(&req.query) {
                Some(us) => (true, us),
                None => (false, 0.0),
            };
            let service_ns = ((latency_us * 1_000.0).round() as u64).max(1);
            let finish_ns = now_ns.max(arrived_ns).saturating_add(service_ns);
            in_flight[w] = Some(InFlight {
                worker: w,
                client: req.client,
                tenant: req.tenant,
                arrived_ns,
                ok,
            });
            completions.push(Reverse((finish_ns, seq, w)));
            seq += 1;
        }

        // Next event: the earlier of next completion and next arrival;
        // completions win ties so capacity frees before a simultaneous
        // arrival is judged (a defined, deterministic order). The
        // arrival is *peeked*, not held, because handling a completion
        // can schedule an earlier re-arrival.
        let tc = completions.peek().map(|Reverse((t, _, _))| *t);
        let ta = gen.peek_arrival().map(|a| a.vtime_ns);
        let take_completion = match (tc, ta) {
            (None, None) => break,
            (Some(tc), Some(ta)) => tc <= ta,
            (Some(_), None) => true,
            (None, Some(_)) => false,
        };
        if take_completion {
            {
                let Reverse((t, _, w)) = completions.pop().unwrap();
                now_ns = t;
                let c = in_flight[w].take().expect("completion without in-flight work");
                idle.push(c.worker);
                let tr = &mut counters[c.tenant as usize];
                if c.ok {
                    tr.completed += 1;
                    hist[c.tenant as usize].observe((t - c.arrived_ns) as f64 / 1_000.0);
                } else {
                    tr.failed += 1;
                }
                gen.complete(c.client, t);
            }
        } else {
            {
                let ta = ta.expect("arrival branch without an arrival");
                let arrival = gen.next_arrival().expect("peeked arrival vanished");
                now_ns = ta;
                let req = gen.request_for(arrival.client);
                let (tenant, class, client) = (req.tenant, req.class, req.client);
                counters[tenant as usize].submitted += 1;
                let offered = queue.offer(Pending { req, arrived_ns: ta }, class);
                let depth = queue.depth() as u32;
                let verdict = match &offered {
                    Ok(v) => *v,
                    Err((_, v)) => *v,
                };
                observe(tenant, class, verdict.kind(), depth);
                match verdict {
                    AdmissionVerdict::Admitted => counters[tenant as usize].admitted += 1,
                    AdmissionVerdict::Shed(_) => {
                        counters[tenant as usize].shed += 1;
                        gen.complete(client, ta);
                    }
                    AdmissionVerdict::Rejected(_) => {
                        counters[tenant as usize].rejected += 1;
                        gen.complete(client, ta);
                    }
                }
            }
        }
    }

    let tenants_report: Vec<TenantReport> =
        counters.into_iter().zip(&hist).map(|(t, h)| t.with_quantiles(h)).collect();
    let completed: u64 = tenants_report.iter().map(|t| t.completed).sum();
    let makespan_ns = now_ns;
    let qps =
        if makespan_ns > 0 { completed as f64 / (makespan_ns as f64 / 1e9) } else { 0.0 };
    let report = ServeReport {
        tenants: tenants_report,
        virtual_ns: Some(makespan_ns),
        queries_per_sec: Some(qps),
    };
    report.check_invariants(true);
    report
}

fn observe(tenant: u32, class: u8, verdict: &'static str, depth: u32) {
    ml4db_obs::emit_with(|| ml4db_obs::Event::ServeVerdict {
        tenant,
        class,
        verdict,
        queue_depth: depth,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4db_datagen::{LoadSpec, SchemaGraph, TemplateMix};
    use ml4db_storage::datasets::joblite_db;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_once(seed: u64) -> String {
        let mut rng = StdRng::seed_from_u64(3);
        let db = joblite_db(120, &[], &mut rng);
        let env = Env::new(&db);
        let mix = TemplateMix::generate(&db, &SchemaGraph::joblite(), 3, 3, 2, 5);
        let spec = LoadSpec {
            clients: 400,
            classes: 3,
            mean_think_ns: 3_000_000,
            total_requests: 3_000,
        };
        let mut gen = LoadGen::new(spec, mix, seed);
        let cfg = SimConfig {
            workers: 4,
            admission: AdmissionConfig { capacity: 32, soft_limit: 16, classes: 3, seed },
        };
        let report = run_closed_loop(&env, &mut gen, &cfg);
        assert_eq!(report.submitted(), 3_000);
        assert!(report.completed() > 0, "some work must complete");
        assert!(report.queries_per_sec.unwrap() > 0.0);
        report.to_canonical_json().to_string()
    }

    #[test]
    fn closed_loop_drains_and_repeats_byte_identically() {
        let a = run_once(9);
        let b = run_once(9);
        assert_eq!(a, b);
        let c = run_once(10);
        assert_ne!(a, c, "the load seed must matter");
    }
}
