//! Load drivers for the real threaded `ml4db_serve::Server`: the closed
//! loop both server workloads time, and the open-loop rate ladder the
//! traced pass of `analytic_closed` adds as a diagnostic.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;

use ml4db_optimizer::Env;
use ml4db_plan::Query;
use ml4db_serve::{AdmissionConfig, Outcome, Request, ServeConfig, Server};
use ml4db_storage::Database;

use crate::measure::{rss_peak_mb, tail, PhaseClock, Round, Tail};
use crate::trace::Tracer;
use crate::yardstick::Yardstick;

/// Logical sessions the closed-loop driver multiplexes. Well below the
/// admission queue's `soft_limit`, so nothing is ever shed.
pub const IN_FLIGHT: usize = 16;

/// `run_worker` threads: every core but the driver's, at least one — so
/// driver + workers never exceed the core count on a multi-core host.
pub fn worker_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .saturating_sub(1)
        .max(1)
}

/// Runs `drive` on the calling (driver) thread against a server over
/// `env` whose workers run on scoped threads; closes the server, joins
/// the workers, then checks the exactly-once ledger. Returns `drive`'s
/// result and whether the ledger held.
pub fn with_server<R>(env: &Env, drive: impl FnOnce(&Server) -> R) -> (R, bool) {
    let cfg = ServeConfig {
        tenants: 1,
        admission: AdmissionConfig {
            classes: 1,
            ..AdmissionConfig::default()
        },
    };
    let server = Server::new(env, cfg);
    let out = std::thread::scope(|s| {
        for w in 0..worker_threads() {
            let server = &server;
            s.spawn(move || server.run_worker(w as u64));
        }
        let out = drive(&server);
        server.close();
        out
    });
    // `report(true)` itself asserts that no admitted request was lost.
    let report = server.report(true);
    let exactly_once = server.duplicate_responses() == 0
        && report.submitted()
            == report.completed() + report.failed() + report.shed() + report.rejected();
    (out, exactly_once)
}

fn request(id: u64, query: &Query) -> Request {
    Request {
        id,
        session: id % IN_FLIGHT as u64,
        tenant: 0,
        class: 0,
        query: query.clone(),
    }
}

/// What a closed loop observed, one entry per request in submission order.
#[derive(Default)]
pub struct Observed {
    /// Submit → response observed, µs.
    pub latencies_us: Vec<f64>,
    pub outcomes: Vec<Outcome>,
}

/// Closed loop: submit until `sessions` requests are outstanding, take
/// the oldest, refill. `order[i]` indexes `queries`; request ids start at
/// `id_base`. The driver's own calls into the server are spans on
/// `tracer` (a disabled tracer for the timed rounds).
pub fn closed_loop(
    server: &Server,
    queries: &[Query],
    order: &[u32],
    id_base: u64,
    sessions: usize,
    tracer: &Tracer,
) -> Observed {
    let mut seen = Observed::default();
    let mut in_flight: VecDeque<(u64, Instant)> = VecDeque::with_capacity(sessions);
    let mut next = 0usize;
    while next < order.len() || !in_flight.is_empty() {
        while in_flight.len() < sessions && next < order.len() {
            let id = id_base + next as u64;
            let sent = Instant::now();
            let req = request(id, &queries[order[next] as usize]);
            tracer.span("serve.submit", || server.submit(req));
            in_flight.push_back((id, sent));
            next += 1;
        }
        let (id, sent) = in_flight
            .pop_front()
            .expect("loop invariant: something in flight");
        let response = tracer.span("serve.await_take", || server.await_take(id));
        seen.latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
        seen.outcomes.push(response.outcome);
    }
    seen
}

/// One round of a server workload, its set-up time left at 0 for the
/// caller to fill in: on a fresh engine and server, serves `order[..warm]`
/// untimed, then times `order[warm..]` in chunks of `chunk` requests with a
/// yardstick tick after each (the loop drains at every chunk end), with
/// [`IN_FLIGHT`] sessions and the tracer off. Answers are checked against
/// `reference` (see [`count_failures`]); a broken exactly-once ledger fails
/// every request.
pub fn closed_loop_round(
    db: &Database,
    queries: &[Query],
    order: &[u32],
    warm: usize,
    chunk: usize,
    reference: &[f64],
) -> Round {
    let env = Env::new(db);
    let off = Tracer::new(false);
    let mut yardstick = Yardstick::new(1 + worker_threads());
    let ((seen, (wall_s, cpu_s), rss_peak_mb), exactly_once) = with_server(&env, |server| {
        closed_loop(server, queries, &order[..warm], 0, IN_FLIGHT, &off);
        let mut seen = Observed::default();
        let clock = PhaseClock::start();
        for (i, part) in order[warm..].chunks(chunk).enumerate() {
            let id_base = (warm + i * chunk) as u64;
            let part_seen = closed_loop(server, queries, part, id_base, IN_FLIGHT, &off);
            seen.latencies_us.extend(part_seen.latencies_us);
            seen.outcomes.extend(part_seen.outcomes);
            yardstick.tick();
        }
        (seen, clock.stop(yardstick.spent_s()), rss_peak_mb())
    });
    let ops = (order.len() - warm) as u64;
    let failed = if exactly_once {
        count_failures(&seen.outcomes, &order[warm..], reference)
    } else {
        ops
    };
    Round {
        speed: yardstick.speed_index(),
        setup_s: 0.0,
        ops,
        failed,
        wall_s,
        cpu_s,
        latencies_us: seen.latencies_us,
        rss_peak_mb,
    }
}

/// Simulated latencies of `queries` served serially on a fresh engine —
/// the reference every `Outcome::Done` must equal bit for bit.
pub fn reference_latencies(db: &Database, queries: &[Query]) -> Vec<f64> {
    let env = Env::new(db);
    let mut view = env.session(0);
    queries
        .iter()
        .map(|q| view.serve(q).expect("generated queries always plan"))
        .collect()
}

/// Requests that did not complete, or completed with a simulated latency
/// different from the serial reference. `reference` may cover only a
/// prefix of the query set; requests beyond it need only complete.
pub fn count_failures(outcomes: &[Outcome], order: &[u32], reference: &[f64]) -> u64 {
    outcomes
        .iter()
        .zip(order)
        .filter(|(outcome, &q)| match outcome {
            Outcome::Done { latency_us } => reference
                .get(q as usize)
                .is_some_and(|r| r.to_bits() != latency_us.to_bits()),
            _ => true,
        })
        .count() as u64
}

/// Latency limit of the open-loop ladder, on the tail percentile.
pub const OPEN_LOOP_LIMIT: Duration = Duration::from_millis(100);

/// One rung of the open-loop ladder.
pub struct Rung {
    pub rate_per_s: f64,
    pub sent: u64,
    /// Shed, rejected or failed — each misses the latency limit.
    pub refused: u64,
    /// Tail latency timed from the *due* time, refusals counted as +∞.
    pub tail: Tail,
    /// Requests outstanding when the last arrival was sent.
    pub backlog_at_end: usize,
    /// How late the generator sent each request (µs).
    pub gen_lag_us: Vec<f64>,
    /// Tail within the limit and the backlog not growing.
    pub meets_limit: bool,
}

/// Open loop: seeded Poisson arrivals at `rate_per_s` for `seconds`,
/// sent on schedule whether or not earlier requests have completed.
pub fn open_loop_rung(
    server: &Server,
    next_query: &mut dyn FnMut() -> Query,
    rate_per_s: f64,
    seconds: f64,
    id_base: u64,
    rng: &mut StdRng,
) -> Rung {
    let mut due = Vec::new();
    let mut at = 0.0f64;
    loop {
        at += -(1.0 - rng.gen::<f64>()).ln() / rate_per_s;
        if at >= seconds {
            break;
        }
        due.push(Duration::from_secs_f64(at));
    }
    let queries: Vec<Query> = due.iter().map(|_| next_query()).collect();

    let mut latencies_us = Vec::with_capacity(due.len());
    let mut gen_lag_us = Vec::with_capacity(due.len());
    let mut refused = 0u64;
    let mut outstanding: VecDeque<(u64, Duration)> = VecDeque::new();
    let mut backlog_at_end = 0usize;
    let mut next = 0usize;
    let start = Instant::now();
    loop {
        while next < due.len() && due[next] <= start.elapsed() {
            let id = id_base + next as u64;
            gen_lag_us.push((start.elapsed() - due[next]).as_secs_f64() * 1e6);
            server.submit(request(id, &queries[next]));
            outstanding.push_back((id, due[next]));
            next += 1;
            if next == due.len() {
                backlog_at_end = outstanding.len();
            }
        }
        // Single class, FIFO: the oldest outstanding request finishes first.
        while let Some(&(id, due_at)) = outstanding.front() {
            let Some(response) = server.try_take(id) else {
                break;
            };
            outstanding.pop_front();
            match response.outcome {
                Outcome::Done { .. } => {
                    latencies_us.push((start.elapsed() - due_at).as_secs_f64() * 1e6)
                }
                _ => {
                    refused += 1;
                    latencies_us.push(f64::INFINITY);
                }
            }
        }
        if next == due.len() && outstanding.is_empty() {
            break;
        }
        std::hint::spin_loop();
    }
    latencies_us.sort_unstable_by(f64::total_cmp);
    let tail = tail(&latencies_us);
    let limit_us = OPEN_LOOP_LIMIT.as_secs_f64() * 1e6;
    let backlog_limit = rate_per_s * OPEN_LOOP_LIMIT.as_secs_f64();
    Rung {
        rate_per_s,
        sent: due.len() as u64,
        refused,
        tail,
        backlog_at_end,
        gen_lag_us,
        meets_limit: tail.value <= limit_us && backlog_at_end as f64 <= backlog_limit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{joblite_db, point_hot_set, rng_for};

    #[test]
    fn closed_loop_answers_match_the_serial_reference() {
        let db = joblite_db(1, 200, &[("title", "id"), ("title", "year")]);
        let hot = point_hot_set(20, 200, &mut rng_for(1, 2));
        let reference = reference_latencies(&db, &hot);
        let order: Vec<u32> = (0..400).map(|i| i % 20).collect();
        let env = Env::new(&db);
        let tracer = Tracer::new(true);
        let (seen, exactly_once) = with_server(&env, |s| {
            closed_loop(s, &hot, &order, 0, IN_FLIGHT, &tracer)
        });
        assert!(exactly_once);
        assert_eq!((seen.latencies_us.len(), seen.outcomes.len()), (400, 400));
        assert_eq!(
            tracer.into_spans().len(),
            800,
            "one submit and one take span per request"
        );
        let mut out = seen.outcomes;
        assert_eq!(count_failures(&out, &order, &reference), 0);
        // A wrong reference is detected, as is a refused request.
        let mut wrong = reference.clone();
        wrong[3] += 1.0;
        assert_eq!(count_failures(&out, &order, &wrong), 20);
        out[0] = Outcome::Shed("load_shed");
        assert_eq!(count_failures(&out, &order, &reference), 1);
    }

    #[test]
    fn open_loop_rung_sends_every_arrival_and_times_from_due() {
        let db = joblite_db(1, 200, &[("title", "id")]);
        let hot = point_hot_set(8, 200, &mut rng_for(1, 2));
        let env = Env::new(&db);
        let mut i = 0usize;
        let mut next = || {
            i += 1;
            hot[i % hot.len()].clone()
        };
        let (rung, exactly_once) = with_server(&env, |s| {
            open_loop_rung(s, &mut next, 2_000.0, 0.2, 0, &mut rng_for(1, 5))
        });
        assert!(exactly_once);
        assert!(rung.sent > 200 && rung.sent < 600, "sent {}", rung.sent);
        assert_eq!(rung.gen_lag_us.len() as u64, rung.sent);
        assert_eq!(rung.refused, 0);
        assert!(rung.tail.value.is_finite());
    }
}
