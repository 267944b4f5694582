//! `point_closed` — indexed point lookups through the threaded server.
//!
//! Closed loop, 16 logical sessions multiplexed by one driver thread,
//! single priority class, `Server::submit` / `await_take`. `joblite` at
//! `base_rows = 20_000` with secondary indexes on `title.id` and
//! `title.year`; 80 % equality lookups on `title.id`, 20 % one-year ranges
//! on `title.year`, drawn uniformly from a 96-fingerprint hot set so the
//! 256-entry session memo always hits.
//!
//! Why: executor work per request is microseconds, so `serve` locking and
//! hand-off, the `optimizer` session memo, `plan.cache` key hashing and
//! the `storage.lindex` / `index` probe carry the run.

use std::time::Instant;

use rand::Rng;

use ml4db_obs as obs;
use ml4db_optimizer::Env;
use ml4db_plan::Query;
use ml4db_storage::Database;

use super::served_walk::{fill_layers, walk_for, IdProbes};
use super::Traced;
use crate::gen::{joblite_db, point_hot_set, rng_for};
use crate::layers::LayerValues;
use crate::measure::{median, Round};
use crate::serve_loop::{
    closed_loop, closed_loop_round, count_failures, reference_latencies, with_server, IN_FLIGHT,
};
use crate::trace::{LayerTable, Tracer};

const BASE_ROWS: usize = 20_000;
const HOT_SET: usize = 96;
/// Untimed requests that fill the session memo and the plan cache.
const WARM_OPS: usize = 2_000;
/// Requests in one timed block; about 2 s on the 2-core reference sandbox.
const BLOCK_OPS: usize = 200_000;
/// Timed requests between two yardstick ticks; about 40 ms.
const CHUNK_OPS: usize = 4_000;
/// Requests in one block of the traced walk.
const TRACE_BLOCK_OPS: usize = 10_000;
/// Requests in each driver-side pass of the traced run.
const TRACE_SERVER_OPS: usize = 20_000;

struct Inputs {
    db: Database,
    hot: Vec<Query>,
    /// Indexes into `hot`: the warm-up prefix, then one timed block.
    order: Vec<u32>,
}

fn setup(seed: u64) -> Inputs {
    let db = joblite_db(seed, BASE_ROWS, &[("title", "id"), ("title", "year")]);
    let hot = point_hot_set(HOT_SET, BASE_ROWS, &mut rng_for(seed, 2));
    let mut rng = rng_for(seed, 3);
    let order = (0..WARM_OPS + BLOCK_OPS)
        .map(|_| rng.gen_range(0..HOT_SET as u32))
        .collect();
    Inputs { db, hot, order }
}

pub fn round(seed: u64, _index: usize) -> Round {
    let started = Instant::now();
    let Inputs { db, hot, order } = setup(seed);
    let setup_s = started.elapsed().as_secs_f64();
    let reference = reference_latencies(&db, &hot);
    Round {
        setup_s,
        ..closed_loop_round(&db, &hot, &order, WARM_OPS, CHUNK_OPS, &reference)
    }
}

pub fn traced(seed: u64, seconds: f64) -> Traced {
    let inputs = setup(seed);
    let (db, hot) = (&inputs.db, &inputs.hot);
    let probes = IdProbes::new(db, BASE_ROWS);
    let mut layers = LayerValues::default();

    // The serial walk, for about a third of the budget.
    let tracer = Tracer::new(true);
    let block = &inputs.order[..TRACE_BLOCK_OPS];
    let (first, blocks) = walk_for(
        seconds / 3.0,
        db,
        hot,
        block,
        &tracer,
        Some(&probes),
        &mut layers,
    );

    // The driver's own view of the server: per-call submit / take times.
    let order = &inputs.order[..TRACE_SERVER_OPS];
    let reference = reference_latencies(db, hot);
    let env = Env::new(db);
    let (seen, once_a) = with_server(&env, |s| closed_loop(s, hot, order, 0, IN_FLIGHT, &tracer));
    let mut failed = count_failures(&seen.outcomes, order, &reference);

    // Hand-off: one request in flight at a time through the server, against
    // the same stream served serially with no server at all.
    let off = Tracer::new(false);
    let (ping, once_b) = with_server(&env, |s| closed_loop(s, hot, order, 0, 1, &off));
    failed += count_failures(&ping.outcomes, order, &reference);
    let mut view = env.session(99);
    let serial_us: Vec<f64> = order
        .iter()
        .map(|&q| {
            let t = Instant::now();
            std::hint::black_box(view.serve(&hot[q as usize]));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let ping_us = median(&ping.latencies_us);
    layers.set("serve.handoff_us", ping_us - median(&serial_us));

    // ml4db-obs collecting events against its no-op sink, alternating.
    let warmed = &inputs.order[..WARM_OPS + TRACE_SERVER_OPS];
    let mut rates = [Vec::new(), Vec::new()];
    for i in 0..6 {
        let collect = i % 2 == 1;
        obs::set_mode(if collect {
            obs::Mode::Collect
        } else {
            obs::Mode::Noop
        });
        let run = closed_loop_round(db, hot, warmed, WARM_OPS, CHUNK_OPS, &reference);
        obs::set_mode(obs::Mode::Noop);
        obs::reset();
        failed += run.failed;
        rates[usize::from(collect)].push(run.ops as f64 / run.wall_s);
    }
    layers.set(
        "obs.collect_overhead_ratio",
        median(&rates[1]) / median(&rates[0]),
    );

    let spans = tracer.into_spans();
    let table = LayerTable::new(&spans);
    fill_layers(&mut layers, &table, &first, seen.latencies_us);
    layers.set(
        "optimizer.session.memo_hit_ns",
        table.median_ns("optimizer.session.expert_plan"),
    );
    eprintln!(
        "point_closed traced: {blocks} walk blocks of {TRACE_BLOCK_OPS}; ping-pong p50 {ping_us:.1} us over {} samples",
        ping.latencies_us.len()
    );
    let attempted = blocks * TRACE_BLOCK_OPS as u64 + 8 * TRACE_SERVER_OPS as u64;
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
