//! `analytic_closed` — generated joins through the threaded server.
//!
//! The same closed loop and server as `point_closed`, on `joblite` at
//! `base_rows = 400` with no secondary index; `WorkloadGenerator`'s
//! default 1–3-table joins, redrawn until the fingerprint is new, so the
//! shared plan cache and the session memo miss on every request and the
//! unbounded plan cache grows for the whole block. The data and the query
//! pool are pinned (`gen::PINNED_CONTENT_SEED`); `--seed` orders the pool.
//!
//! Why: `plan.executor` does almost all the work, `plan.enumerate` runs
//! on every request and `serve` does almost nothing — the mirror image of
//! `point_closed`, and the "same layer used differently" case for the
//! plan cache (all inserts, no hits).

use std::time::Instant;

use rand::seq::SliceRandom;

use ml4db_datagen::WorkloadConfig;
use ml4db_optimizer::Env;
use ml4db_plan::Query;
use ml4db_storage::Database;

use super::served_walk::{fill_layers, walk_for};
use super::Traced;
use crate::gen::{joblite_db, rng_for, FreshQueries, PINNED_CONTENT_SEED};
use crate::layers::LayerValues;
use crate::measure::{median, Round};
use crate::serve_loop::{
    closed_loop, closed_loop_round, count_failures, open_loop_rung, reference_latencies,
    with_server, Rung, IN_FLIGHT,
};
use crate::trace::{LayerTable, Tracer};

const BASE_ROWS: usize = 400;
/// Set-ups timed per round (the median is the round's): one takes under
/// 10 ms here, too short for a single sample to repeat.
const SETUPS_PER_ROUND: usize = 5;
/// Untimed requests before the timed block.
const WARM_OPS: usize = 100;
/// Requests in one timed block; about 2 s on the 2-core reference sandbox.
const BLOCK_OPS: usize = 1_300;
/// Leading requests of the timed block whose simulated latency is checked
/// against a serial re-execution (the rest need only complete).
const VERIFY_OPS: usize = 128;
/// Timed requests between two yardstick ticks; about 130 ms, and several
/// times the sessions in flight, because the loop drains at every tick.
const CHUNK_OPS: usize = 100;
/// Requests in one block of the traced walk.
const TRACE_BLOCK_OPS: usize = 300;
/// Open-loop ladder: six fixed arrival rates ×1.2 apart, straddling the
/// closed-loop capacity of the seed commit on the reference sandbox.
const LADDER_RATES_PER_S: [f64; 6] = [338.0, 405.0, 486.0, 583.0, 700.0, 840.0];
/// Share of `--seconds` each rung lasts.
const RUNG_SHARE: f64 = 0.1;

struct Inputs {
    db: Database,
    /// The timed block's queries first, then the warm-up's.
    queries: Vec<Query>,
    /// Warm-up indexes, then the timed block's.
    order: Vec<u32>,
    stream: FreshQueries,
}

fn setup(seed: u64) -> Inputs {
    let db = joblite_db(PINNED_CONTENT_SEED, BASE_ROWS, &[]);
    let mut stream = FreshQueries::new(WorkloadConfig::default(), rng_for(PINNED_CONTENT_SEED, 4));
    let queries = stream.take(&db, BLOCK_OPS + WARM_OPS);
    let (block, total) = (BLOCK_OPS as u32, (BLOCK_OPS + WARM_OPS) as u32);
    // The pool is pinned; the seed decides the order it is requested in.
    let mut timed: Vec<u32> = (0..block).collect();
    timed.shuffle(&mut rng_for(seed, 4));
    let order = (block..total).chain(timed).collect();
    Inputs {
        db,
        queries,
        order,
        stream,
    }
}

pub fn round(seed: u64, _index: usize) -> Round {
    let mut setup_s = Vec::with_capacity(SETUPS_PER_ROUND);
    let mut inputs = None;
    for _ in 0..SETUPS_PER_ROUND {
        let started = Instant::now();
        inputs = Some(setup(seed));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let Inputs {
        db, queries, order, ..
    } = inputs.expect("set up at least once");
    let reference = reference_latencies(&db, &queries[..VERIFY_OPS]);
    Round {
        setup_s: median(&setup_s),
        ..closed_loop_round(&db, &queries, &order, WARM_OPS, CHUNK_OPS, &reference)
    }
}

/// The highest rung that meets the limit with every lower rung meeting
/// it too (and its rate), or the lowest rung and rate 0 if none does.
fn best_rung(rungs: &[Rung]) -> (&Rung, f64) {
    match rungs.iter().take_while(|r| r.meets_limit).last() {
        Some(r) => (r, r.rate_per_s),
        None => (&rungs[0], 0.0),
    }
}

pub fn traced(seed: u64, seconds: f64) -> Traced {
    let mut inputs = setup(seed);
    let db = &inputs.db;
    let queries = &inputs.queries;
    let block: Vec<u32> = (0..TRACE_BLOCK_OPS as u32).collect();
    let mut layers = LayerValues::default();

    // The serial walk, for about a quarter of the budget.
    let tracer = Tracer::new(true);
    let (first, blocks) = walk_for(
        seconds / 4.0,
        db,
        queries,
        &block,
        &tracer,
        None,
        &mut layers,
    );

    // The driver's own view of the server on this stream.
    let reference = reference_latencies(db, &queries[..VERIFY_OPS]);
    let env = Env::new(db);
    let (seen, once_a) = with_server(&env, |s| {
        closed_loop(s, queries, &block, 0, IN_FLIGHT, &tracer)
    });
    let mut failed = count_failures(&seen.outcomes, &block, &reference);

    // Open-loop ladder on the same kind of stream, fresh queries per rung.
    let rung_s = seconds * RUNG_SHARE;
    let mut rng = rng_for(seed, 5);
    let stream = &mut inputs.stream;
    let mut next_query = || stream.next(db);
    let ladder_env = Env::new(db);
    let (rungs, once_b) = with_server(&ladder_env, |s| {
        LADDER_RATES_PER_S
            .iter()
            .enumerate()
            .map(|(i, &rate)| {
                open_loop_rung(s, &mut next_query, rate, rung_s, (i as u64) << 32, &mut rng)
            })
            .collect::<Vec<Rung>>()
    });
    let (best, slo_rate) = best_rung(&rungs);
    layers.set("serve.open.slo_rate_per_s", slo_rate);
    // A rung on which a hundredth of the requests were refused has no
    // finite tail; the limit stands in for it.
    layers.set("serve.open.p99_us", best.tail.value.min(1e9));
    let top = rungs.last().expect("six rungs");
    layers.set("serve.open.shed_rate", top.refused as f64 / top.sent as f64);
    let lag: Vec<f64> = rungs
        .iter()
        .flat_map(|r| r.gen_lag_us.iter().copied())
        .collect();
    layers.set("serve.open.gen_lag_us", median(&lag));
    for r in &rungs {
        eprintln!(
            "analytic_closed open loop: {:.0}/s for {rung_s:.2} s: sent {}, refused {}, p{:.1} {:.0} us, backlog at end {}, meets 100 ms limit: {}",
            r.rate_per_s, r.sent, r.refused, r.tail.percentile, r.tail.value, r.backlog_at_end, r.meets_limit
        );
    }

    let spans = tracer.into_spans();
    let table = LayerTable::new(&spans);
    fill_layers(&mut layers, &table, &first, seen.latencies_us);

    let ladder_sent: u64 = rungs.iter().map(|r| r.sent).sum();
    let attempted = (blocks + 1) * TRACE_BLOCK_OPS as u64 + ladder_sent;
    if !(once_a && once_b) {
        failed = attempted;
    }
    Traced {
        layers,
        spans,
        attempted,
        failed,
    }
}
