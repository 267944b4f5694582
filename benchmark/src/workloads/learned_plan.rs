//! `learned_plan` — the learned planning path, in process and serial.
//!
//! No `Server` (it serves only the expert path today). One cold stream of
//! 2–3-table joins on `joblite` at `base_rows = 100` (data, training
//! stream and query pool pinned by `gen::PINNED_CONTENT_SEED`, served in
//! an order `--seed` draws); every query is
//! served by guarded Bao (`GuardedSteering::run_guarded` over a `Bao`
//! trained on a 60-query benign stream, with the closure policy
//! `core::matrix` builds) and by guarded MSCN (`Env::plan_with_estimator`
//! with a `GuardedCardEstimator<MscnEstimator>`, then `Env::run`), each
//! on its own engine. One operation is one query served by one learned
//! policy. The traced pass adds the classical `SessionView::serve` on a
//! third engine as the baseline the learned wall-clock is divided by.
//!
//! Why: the only workload where `optimizer.bao`, `card.mscn`, `nn` and
//! `guard` inference plus five-arm enumeration are a large share of
//! latency — planning and inference wall-clock the simulated scores never
//! charge.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::seq::SliceRandom;

use ml4db_card::{collect_samples, DriftDetector, MscnEstimator};
use ml4db_datagen::WorkloadConfig;
use ml4db_guard::{BreakerConfig, GuardedCardEstimator, GuardedSteering};
use ml4db_nn::bayes::BayesianLinearRegression;
use ml4db_optimizer::{plan_features, Bao, Env, PLAN_FEATURE_DIM};
use ml4db_plan::executor::{naive_execute, normalize_row};
use ml4db_plan::{
    bao_arms, execute, CardEstimator, ClassicEstimator, HintSet, PlanNode, Planner, Query,
};
use ml4db_storage::Database;

use super::{set_tail, Traced};
use crate::gen::{joblite_db, rng_for, FreshQueries, PINNED_CONTENT_SEED};
use crate::layers::LayerValues;
use crate::measure::{median, rss_peak_mb, PhaseClock, Round};
use crate::trace::{LayerTable, Span, Tracer};
use crate::yardstick::Yardstick;

const BASE_ROWS: usize = 100;
/// Benign training stream for both models.
const TRAIN_QUERIES: usize = 60;
/// Untimed queries per policy before the timed block.
const WARM_QUERIES: usize = 20;
/// Queries in one timed block (each served by both learned policies);
/// about 2 s on the 2-core reference sandbox.
const BLOCK_QUERIES: usize = 2_400;
/// Queries each policy serves between two yardstick ticks; about 40 ms.
const CHUNK_QUERIES: usize = 100;
/// Queries per block whose served rows are compared with `naive_execute`.
const VERIFY_QUERIES: usize = 6;
/// Queries in one block of the traced pass.
const TRACE_BLOCK_QUERIES: usize = 150;
/// Plan-cache tag of the MSCN-planned key space (nonzero: not the expert's).
const MSCN_TAG: u64 = 0xBE7C;
/// `GuardedCardEstimator` plausibility band, as `core::matrix` sets it.
const MSCN_MAX_RATIO: f64 = 8.0;

struct Inputs {
    db: Database,
    bao: Bao,
    mscn: MscnEstimator,
    /// Warm-up queries, then one timed block.
    queries: Vec<Query>,
    /// Block queries whose served rows are checked against the reference
    /// executor — the same ones whatever the seed.
    verify: Vec<Query>,
}

fn setup(seed: u64) -> Inputs {
    let content = PINNED_CONTENT_SEED;
    let db = joblite_db(content, BASE_ROWS, &[("title", "year")]);
    let config = WorkloadConfig {
        min_tables: 2,
        max_tables: 3,
        ..WorkloadConfig::default()
    };
    let mut stream = FreshQueries::new(config, rng_for(content, 6));
    let train = stream.take(&db, TRAIN_QUERIES);

    let train_env = Env::new(&db);
    let mut bao = Bao::new(bao_arms());
    let mut rng = rng_for(content, 7);
    for q in &train {
        bao.step(&train_env, q, &mut rng);
    }
    let samples = collect_samples(&db, &train);
    let mut rng = rng_for(content, 8);
    let mut mscn = MscnEstimator::new(16, &mut rng);
    mscn.fit(&db, &samples, 25, 0.005, &mut rng);

    // The pool is pinned; the seed decides the order it is served in.
    let mut queries = stream.take(&db, WARM_QUERIES + BLOCK_QUERIES);
    let verify = queries[WARM_QUERIES..WARM_QUERIES + VERIFY_QUERIES].to_vec();
    queries[WARM_QUERIES..].shuffle(&mut rng_for(seed, 6));
    Inputs {
        db,
        bao,
        mscn,
        queries,
        verify,
    }
}

/// The steering policy exactly as `core::matrix` builds it.
fn bao_hint(bao: &Bao, env: &Env, q: &Query) -> HintSet {
    bao.arms[bao.choose_greedy(env, q).arm]
}

fn mscn_plan<E: CardEstimator>(env: &Env, q: &Query, est: &E) -> PlanNode {
    env.plan_with_estimator(q, HintSet::all(), est, MSCN_TAG)
        .expect("generated queries always plan")
}

/// Sorted, plan-independent form of a result set.
fn multiset(
    db: &Database,
    q: &Query,
    rows: &[ml4db_storage::Row],
    layout: &[usize],
) -> Vec<String> {
    let mut v: Vec<String> = rows
        .iter()
        .map(|r| format!("{:?}", normalize_row(db, q, layout, r)))
        .collect();
    v.sort_unstable();
    v
}

/// Whether `plan` serves exactly the rows the brute-force reference does.
fn serves_reference_rows(db: &Database, q: &Query, plan: &PlanNode) -> bool {
    let identity: Vec<usize> = (0..q.num_tables()).collect();
    let truth = multiset(
        db,
        q,
        &naive_execute(db, q).expect("reference executes"),
        &identity,
    );
    execute(db, q, plan).is_ok_and(|r| multiset(db, q, &r.rows, &r.layout) == truth)
}

pub fn round(seed: u64, _index: usize) -> Round {
    let started = Instant::now();
    let Inputs {
        db,
        bao,
        mscn,
        queries,
        verify,
    } = setup(seed);
    let setup_s = started.elapsed().as_secs_f64();

    let (bao_env, mscn_env) = (Env::new(&db), Env::new(&db));
    let steering = GuardedSteering::new(|e: &Env, q: &Query| bao_hint(&bao, e, q));
    let estimator = GuardedCardEstimator::new(mscn, MSCN_MAX_RATIO);
    let (warm, block) = queries.split_at(WARM_QUERIES);
    for q in warm {
        steering.run_guarded(&bao_env, q);
        mscn_env.run(q, &mscn_plan(&mscn_env, q, &estimator));
    }

    let mut latencies_us = Vec::with_capacity(2 * block.len());
    let (mut bao_sim_us, mut mscn_sim_us) = (Vec::new(), Vec::new());
    // `Bao::choose_greedy` fans its arms out over the `ml4db_par` pool.
    let mut yardstick = Yardstick::new(ml4db_par::max_threads());
    let clock = PhaseClock::start();
    for chunk in block.chunks(CHUNK_QUERIES) {
        for q in chunk {
            let t = Instant::now();
            bao_sim_us.push(steering.run_guarded(&bao_env, q));
            latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        yardstick.tick();
        for q in chunk {
            let t = Instant::now();
            mscn_sim_us.push(mscn_env.run(q, &mscn_plan(&mscn_env, q, &estimator)));
            latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        yardstick.tick();
    }
    let (wall_s, cpu_s) = clock.stop(yardstick.spent_s());
    let rss_peak_mb = rss_peak_mb();

    // Every served latency is a positive finite simulated time, and the
    // guard kept each steered query within (1 + budget) × the expert.
    let worst = 1.0 + steering.budget_factor;
    let served = bao_sim_us.iter().chain(&mscn_sim_us);
    let mut failed = served.filter(|l| !(l.is_finite() && **l > 0.0)).count() as u64;
    failed += block
        .iter()
        .zip(&bao_sim_us)
        .filter(|(q, &l)| {
            l > worst * bao_env.expert_latency(q).expect("expert plans") * (1.0 + 1e-9)
        })
        .count() as u64;
    // On a sample, the plans both policies serve return the reference rows.
    for q in &verify {
        let steered = bao_env
            .plan_with_hint(q, bao_hint(&bao, &bao_env, q))
            .expect("arm plans");
        let estimated = mscn_plan(&mscn_env, q, &estimator);
        failed += u64::from(!serves_reference_rows(&db, q, &steered));
        failed += u64::from(!serves_reference_rows(&db, q, &estimated));
    }
    Round {
        speed: yardstick.speed_index(),
        setup_s,
        ops: 2 * block.len() as u64,
        failed,
        wall_s,
        cpu_s,
        latencies_us,
        rss_peak_mb,
    }
}

/// A `CardEstimator` that records a span around every call into the
/// estimator it wraps — the benchmark's way of timing inference that
/// happens deep inside `Planner::best_plan`.
struct Timed<'t, E> {
    inner: &'t E,
    name: &'static str,
    tracer: &'t Tracer,
}

impl<E: CardEstimator> CardEstimator for Timed<'_, E> {
    fn estimate(&self, db: &Database, query: &Query, mask: u64) -> f64 {
        self.tracer
            .span(self.name, || self.inner.estimate(db, query, mask))
    }
}

/// Total duration per request id of the spans called `name`.
fn per_request_ns(spans: &[Span], name: &str) -> BTreeMap<u64, f64> {
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *out.entry(s.request).or_insert(0.0) += s.duration_ns() as f64;
    }
    out
}

/// Program-side counts of one traced block; they repeat exactly for a
/// given seed because every block is the same queries on fresh engines.
#[derive(Default)]
struct BlockCounts {
    /// Summed simulated latency of the classical serves.
    classical_us: f64,
    /// Summed simulated latency of both learned policies' serves.
    learned_us: f64,
    steering_trips: u64,
    estimator_fallback_rate: f64,
}

/// One block of the traced pass: every query served three ways on three
/// fresh engines, then its inner public functions re-timed on a fourth.
fn trace_block(
    inputs: &Inputs,
    queries: &[Query],
    tracer: &Tracer,
    request_base: u64,
) -> BlockCounts {
    let db = &inputs.db;
    let bao = &inputs.bao;
    let (classical_env, bao_env, mscn_env, replica_env) =
        (Env::new(db), Env::new(db), Env::new(db), Env::new(db));
    let mut view = classical_env.session(0);
    let steering = GuardedSteering::new(|e: &Env, q: &Query| {
        tracer.span("optimizer.bao.choose_greedy", || bao_hint(bao, e, q))
    });
    // `GuardedCardEstimator::new`'s defaults, spelled out because both
    // estimators it runs side by side are wrapped.
    let guard = GuardedCardEstimator::with_config(
        Timed {
            inner: &inputs.mscn,
            name: "card.mscn.estimate",
            tracer,
        },
        Timed {
            inner: &ClassicEstimator,
            name: "card.classic.estimate",
            tracer,
        },
        MSCN_MAX_RATIO,
        BreakerConfig::default(),
        DriftDetector::new(40, 0.5),
    );
    let estimator = Timed {
        inner: &guard,
        name: "guard.estimator.estimate",
        tracer,
    };
    let blr_weights = BayesianLinearRegression::new(PLAN_FEATURE_DIM, 1.0, 4.0).posterior_mean();
    let mut sims = BlockCounts::default();
    for (i, q) in queries.iter().enumerate() {
        tracer.set_request(request_base + i as u64);
        sims.classical_us += tracer
            .span("request.classical", || {
                tracer.span("optimizer.session.serve", || view.serve(q))
            })
            .expect("generated queries always plan");
        sims.learned_us += tracer.span("request.bao", || {
            tracer.span("guard.steering.run_guarded", || {
                steering.run_guarded(&bao_env, q)
            })
        });
        sims.learned_us += tracer.span("request.mscn", || {
            let plan = tracer.span("plan.plan_with_estimator", || {
                mscn_plan(&mscn_env, q, &estimator)
            });
            tracer.span("plan.executor.execute", || mscn_env.run(q, &plan))
        });
        tracer.span("replica", || {
            // What run_guarded does besides calling the policy: the expert's
            // memoised latency (cold here: plan + execute), a plan-cache hit
            // for the chosen arm, and the arm's execution.
            tracer.span("optimizer.expert_latency", || replica_env.expert_latency(q));
            let hint = bao_hint(bao, &replica_env, q);
            let plan = tracer
                .span("optimizer.plan_with_hint", || {
                    replica_env.plan_with_hint(q, hint)
                })
                .expect("arm plans");
            tracer.span("optimizer.run_arm", || {
                replica_env.run_with_timeout(q, &plan, f64::INFINITY)
            });
            let features = tracer.span("optimizer.bao.plan_features", || plan_features(&plan));
            tracer.span("nn.blr.predict_with", || {
                BayesianLinearRegression::predict_with(&blr_weights, &features)
            });
            let planner = Planner {
                cost_model: replica_env.cost_model,
                hint: HintSet::all(),
                ..Default::default()
            };
            let mut plan = tracer
                .span("plan.enumerate.best_plan", || {
                    planner.best_plan(db, q, &ClassicEstimator)
                })
                .expect("generated queries always plan");
            tracer.span("plan.cost.cost_plan", || {
                replica_env
                    .cost_model
                    .cost_plan(db, q, &mut plan, &ClassicEstimator)
            });
        });
    }
    sims.steering_trips = steering.breaker().trips();
    sims.estimator_fallback_rate = guard.breaker().fallback_rate();
    sims
}

pub fn traced(seed: u64, seconds: f64) -> Traced {
    let inputs = setup(seed);
    let queries = &inputs.queries[..TRACE_BLOCK_QUERIES];
    let mut layers = LayerValues::default();

    let tracer = Tracer::new(true);
    let started = Instant::now();
    let sims = trace_block(&inputs, queries, &tracer, 0);
    let mut blocks = 1u64;
    while started.elapsed().as_secs_f64() < seconds / 2.0 {
        trace_block(
            &inputs,
            queries,
            &tracer,
            blocks * TRACE_BLOCK_QUERIES as u64,
        );
        blocks += 1;
    }
    let traced_s = started.elapsed().as_secs_f64();
    let off = Tracer::new(false);
    let started = Instant::now();
    for _ in 0..blocks {
        trace_block(&inputs, queries, &off, 1);
    }
    layers.set(
        "bench.trace_overhead_ratio",
        started.elapsed().as_secs_f64() / traced_s,
    );

    let spans = tracer.into_spans();
    let table = LayerTable::new(&spans);
    for (metric, span) in [
        ("optimizer.bao.choose_ns", "optimizer.bao.choose_greedy"),
        ("optimizer.bao.features_ns", "optimizer.bao.plan_features"),
        ("nn.blr.predict_ns", "nn.blr.predict_with"),
        ("optimizer.expert_latency_ns", "optimizer.expert_latency"),
        ("card.mscn.estimate_ns", "card.mscn.estimate"),
        ("card.classic.estimate_ns", "card.classic.estimate"),
        ("plan.enumerate.best_plan_ns", "plan.enumerate.best_plan"),
        ("plan.cost.cost_plan_ns", "plan.cost.cost_plan"),
        ("plan.executor.execute_ns", "plan.executor.execute"),
    ] {
        layers.set(metric, table.median_ns(span));
    }
    let plans = table.calls("plan.plan_with_estimator") as f64;
    layers.set(
        "card.mscn.calls_per_plan",
        table.calls("card.mscn.estimate") as f64 / plans,
    );

    // Guard overhead per request: run_guarded minus what it calls.
    let guarded = per_request_ns(&spans, "guard.steering.run_guarded");
    let callees: Vec<BTreeMap<u64, f64>> = [
        "optimizer.bao.choose_greedy",
        "optimizer.expert_latency",
        "optimizer.plan_with_hint",
        "optimizer.run_arm",
    ]
    .iter()
    .map(|name| per_request_ns(&spans, name))
    .collect();
    let overhead: Vec<f64> = guarded
        .iter()
        .map(|(r, total)| {
            total
                - callees
                    .iter()
                    .map(|c| c.get(r).copied().unwrap_or(0.0))
                    .sum::<f64>()
        })
        .collect();
    layers.set("guard.steering.overhead_ns", median(&overhead));
    layers.set("guard.steering.trips", sims.steering_trips as f64);
    layers.set(
        "guard.estimator.fallback_rate",
        sims.estimator_fallback_rate,
    );

    // The learned path against the classical baseline on the same queries.
    let learned_ns = table.total_ns("request.bao") + table.total_ns("request.mscn");
    let inference_ns =
        table.total_ns("optimizer.bao.choose_greedy") + table.total_ns("guard.estimator.estimate");
    layers.set("learned.inference_share", inference_ns / learned_ns);
    let learned = [
        table.durations_ns("request.bao"),
        table.durations_ns("request.mscn"),
    ]
    .concat();
    layers.set(
        "learned.wall_ratio_vs_classical",
        median(&learned) / median(table.durations_ns("request.classical")),
    );
    set_tail(&mut layers, learned.iter().map(|ns| ns / 1e3).collect());
    layers.set(
        "learned.sim_cost_ratio",
        sims.learned_us / (2.0 * sims.classical_us),
    );
    layers.set(
        "plan.executor.share",
        table.share_of("plan.executor.execute", "request.mscn"),
    );

    Traced {
        layers,
        spans,
        attempted: 3 * blocks * TRACE_BLOCK_QUERIES as u64,
        failed: 0,
    }
}
