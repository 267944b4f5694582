//! ParamTree (Yang et al. \[50\]) — "why start from scratch?": instead of
//! replacing the formula cost model with a learned one, *tune its
//! hyper-parameters* (the R-params: `seq_page_cost`, `random_page_cost`,
//! `cpu_tuple_cost`, ...) from observed executions. Two stages, as in the
//! paper: (1) a global least-squares fit of the R-params against observed
//! latencies, (2) per-context regression trees on the residuals. The tuned
//! formula model is explainable, tiny, and adapts by refitting (E11).

use ml4db_nn::linalg::{solve_spd, MatF64};
use ml4db_nn::tree_ensemble::{GradientBoosting, TreeParams};
use ml4db_plan::{CardEstimator, CostModel, PlanNode, Query};
use ml4db_storage::exec::ExecStats;
use ml4db_storage::{CostWeights, Database};

use crate::env::Env;

/// One observed execution: the work counters and the measured latency.
#[derive(Clone, Copy, Debug)]
pub struct Observation {
    /// Executor work counters.
    pub stats: ExecStats,
    /// Observed latency (µs).
    pub latency_us: f64,
}

fn counters(stats: &ExecStats) -> [f64; 7] {
    [
        stats.pages_read as f64,
        stats.random_pages as f64,
        stats.tuples as f64,
        stats.comparisons as f64,
        stats.hash_builds as f64,
        stats.hash_probes as f64,
        stats.sort_ops as f64,
    ]
}

/// Stage 1: least-squares R-param estimation from observations.
///
/// Solves `min_w ||C w − latency||²` with ridge regularization and clamps
/// the result to non-negative weights (costs can't be negative).
pub fn fit_r_params(observations: &[Observation]) -> CostWeights {
    let n = observations.len();
    assert!(n >= 7, "need at least as many observations as parameters");
    let mut xtx = MatF64::zeros(7, 7);
    let mut xty = vec![0.0f64; 7];
    for obs in observations {
        let c = counters(&obs.stats);
        for i in 0..7 {
            for j in 0..7 {
                xtx[(i, j)] += c[i] * c[j];
            }
            xty[i] += c[i] * obs.latency_us;
        }
    }
    xtx.add_diag(1e-3);
    let w = solve_spd(&xtx, &xty).expect("ridge-regularized normal equations are SPD");
    CostWeights {
        seq_page: w[0].max(0.0),
        random_page: w[1].max(0.0),
        cpu_tuple: w[2].max(0.0),
        cpu_compare: w[3].max(0.0),
        hash_build: w[4].max(0.0),
        hash_probe: w[5].max(0.0),
        sort_op: w[6].max(0.0),
    }
}

/// The full ParamTree model: tuned R-params plus a residual corrector.
pub struct ParamTree {
    /// The tuned formula weights.
    pub weights: CostWeights,
    /// Residual model over plan-context features (stage 2).
    residual: Option<GradientBoosting>,
}

impl ParamTree {
    /// Fits both stages from a set of executed plans.
    pub fn fit(observations: &[Observation]) -> Self {
        let weights = fit_r_params(observations);
        // Stage 2: boost the residuals in log space over the counter
        // context (captures non-linear effects like cache behaviour).
        let x: Vec<Vec<f32>> = observations
            .iter()
            .map(|o| counters(&o.stats).iter().map(|&v| (v + 1.0).log10() as f32).collect())
            .collect();
        let y: Vec<f32> = observations
            .iter()
            .map(|o| {
                let formula = o.stats.latency_us(&weights);
                (o.latency_us - formula) as f32
            })
            .collect();
        let residual = if observations.len() >= 20 {
            Some(GradientBoosting::fit(&x, &y, 30, 0.2, TreeParams::default()))
        } else {
            None
        };
        Self { weights, residual }
    }

    /// Predicted latency of an execution's counters.
    pub fn predict(&self, stats: &ExecStats) -> f64 {
        let base = stats.latency_us(&self.weights);
        let corr = self.residual.as_ref().map_or(0.0, |r| {
            r.predict(
                &counters(stats)
                    .iter()
                    .map(|&v| (v + 1.0).log10() as f32)
                    .collect::<Vec<f32>>(),
            ) as f64
        });
        (base + corr).max(0.0)
    }

    /// A cost model using the tuned weights (drop-in for planning).
    pub fn cost_model(&self) -> CostModel {
        CostModel::new(self.weights)
    }
}

/// Collects observations by executing the expert plan of each query.
///
/// Per-query planning and execution fan out over the `ml4db_par` pool;
/// observations come back in query order, identical to the serial loop.
///
/// Expert-only traces leave rarely-chosen operators (e.g. nested loops)
/// unidentified in the least-squares fit; prefer
/// [`collect_observations_diverse`] when fitting R-params.
pub fn collect_observations(env: &Env, queries: &[Query]) -> Vec<Observation> {
    let per_query: Vec<Option<Observation>> = ml4db_par::par_map(queries, |q| {
        let plan = env.expert_plan(q)?;
        let result = ml4db_plan::execute_summary(env.db, q, &plan).ok()?;
        Some(Observation { stats: result.stats, latency_us: result.latency_us })
    });
    per_query.into_iter().flatten().collect()
}

/// Collects observations from the expert plan *plus* `per_query` random
/// plans per query, so every operator class (and hence every R-param)
/// appears with enough variation to be identified.
///
/// Randomness is pre-drawn: one seed per query comes off the caller's
/// RNG serially, and each query's random plans are generated from its
/// own seeded RNG inside the parallel region. The observation list is
/// therefore a pure function of (env, queries, per_query, rng state) —
/// the same at every thread count.
pub fn collect_observations_diverse<R: rand::Rng + ?Sized>(
    env: &Env,
    queries: &[Query],
    per_query: usize,
    rng: &mut R,
) -> Vec<Observation> {
    use rand::SeedableRng;
    let seeds: Vec<u64> = queries.iter().map(|_| rng.gen()).collect();
    let planner = ml4db_plan::Planner::default();
    let mut out = collect_observations(env, queries);
    let random: Vec<Vec<Observation>> = ml4db_par::par_map_indexed(queries, |i, q| {
        let mut qrng = rand::rngs::StdRng::seed_from_u64(seeds[i]);
        planner
            .random_plans(env.db, q, &env.estimator, per_query, &mut qrng)
            .iter()
            .filter_map(|plan| {
                let result = ml4db_plan::execute_summary(env.db, q, plan).ok()?;
                Some(Observation { stats: result.stats, latency_us: result.latency_us })
            })
            .collect()
    });
    out.extend(random.into_iter().flatten());
    out
}

/// Plan-cost prediction error (mean relative) of a weight setting over a
/// set of executed plans — used to compare default vs tuned R-params.
pub fn weight_error(
    db: &Database,
    executions: &[(Query, PlanNode, f64)],
    weights: CostWeights,
    estimator: &dyn CardEstimator,
) -> f64 {
    let model = CostModel::new(weights);
    let mut err = 0.0;
    for (q, plan, latency) in executions {
        let mut p = plan.clone();
        let cost = model.cost_plan(db, q, &mut p, estimator);
        err += ((cost - latency).abs() / latency.max(1.0)).min(10.0);
    }
    err / executions.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4db_storage::datasets::joblite_db;
    use ml4db_storage::TRUE_WEIGHTS;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Database, Vec<Query>) {
        let mut rng = StdRng::seed_from_u64(71);
        let mut db = joblite_db(150, &[], &mut rng);
        db.add_index("title", "year");
        let queries = ml4db_datagen::WorkloadGenerator::new(
            ml4db_datagen::SchemaGraph::joblite(),
            ml4db_datagen::WorkloadConfig { min_tables: 1, max_tables: 3, ..Default::default() },
        )
        .generate_many(&db, 30, &mut rng);
        (db, queries)
    }

    #[test]
    fn recovers_true_r_params() {
        let (db, queries) = setup();
        let env = Env::new(&db);
        let mut rng = StdRng::seed_from_u64(1);
        let obs = collect_observations_diverse(&env, &queries, 2, &mut rng);
        assert!(obs.len() >= 20);
        let w = fit_r_params(&obs);
        // The engine's latency is exactly linear in the counters, so the
        // fit should recover the true weights closely wherever the counter
        // appears with enough variation.
        assert!(
            (w.cpu_tuple - TRUE_WEIGHTS.cpu_tuple).abs() < TRUE_WEIGHTS.cpu_tuple,
            "cpu_tuple {} vs true {}",
            w.cpu_tuple,
            TRUE_WEIGHTS.cpu_tuple
        );
        assert!(
            (w.seq_page - TRUE_WEIGHTS.seq_page).abs() < TRUE_WEIGHTS.seq_page,
            "seq_page {} vs true {}",
            w.seq_page,
            TRUE_WEIGHTS.seq_page
        );
    }

    #[test]
    fn paramtree_prediction_beats_default_weights() {
        let (db, queries) = setup();
        let env = Env::new(&db);
        let obs = collect_observations(&env, &queries);
        let pt = ParamTree::fit(&obs);
        let mut tuned_err = 0.0;
        let mut default_err = 0.0;
        let default = ml4db_storage::CostWeights::postgres_defaults();
        for o in &obs {
            tuned_err += (pt.predict(&o.stats) - o.latency_us).abs() / o.latency_us.max(1.0);
            default_err +=
                (o.stats.latency_us(&default) - o.latency_us).abs() / o.latency_us.max(1.0);
        }
        assert!(
            tuned_err < default_err * 0.5,
            "tuned {tuned_err} should be far better than default {default_err}"
        );
    }

    #[test]
    fn tuned_weights_predict_plan_costs_better() {
        let (db, queries) = setup();
        let env = Env::new(&db);
        let obs = collect_observations(&env, &queries);
        let pt = ParamTree::fit(&obs);
        // Cost-prediction accuracy over executed plans, with cardinality
        // errors factored out via the true-cardinality oracle so the
        // comparison isolates the R-params.
        let oracle = ml4db_plan::TrueCardinality::new();
        let executions: Vec<(Query, PlanNode, f64)> = queries
            .iter()
            .filter_map(|q| {
                let plan = env.expert_plan(q)?;
                let lat = env.run(q, &plan);
                Some((q.clone(), plan, lat))
            })
            .collect();
        let tuned_err = weight_error(&db, &executions, pt.weights, &oracle);
        let default_err = weight_error(
            &db,
            &executions,
            ml4db_storage::CostWeights::postgres_defaults(),
            &oracle,
        );
        assert!(
            tuned_err < default_err * 0.5,
            "tuned weight error {tuned_err} vs default {default_err}"
        );
    }

    #[test]
    fn tuned_cost_model_plans_well_with_true_cards() {
        let (db, queries) = setup();
        let env = Env::new(&db);
        let mut rng = StdRng::seed_from_u64(2);
        let obs = collect_observations_diverse(&env, &queries, 2, &mut rng);
        let pt = ParamTree::fit(&obs);
        let oracle = ml4db_plan::TrueCardinality::new();
        // With cardinalities fixed to the truth, truer weights must rank
        // plans at least as well as the mis-calibrated defaults.
        let tuned_planner =
            ml4db_plan::Planner { cost_model: pt.cost_model(), ..Default::default() };
        let default_planner = ml4db_plan::Planner::default();
        let mut tuned_total = 0.0;
        let mut default_total = 0.0;
        for q in queries.iter().take(12) {
            if let (Some(tp), Some(dp)) = (
                tuned_planner.best_plan(&db, q, &oracle),
                default_planner.best_plan(&db, q, &oracle),
            ) {
                tuned_total += env.run(q, &tp);
                default_total += env.run(q, &dp);
            }
        }
        assert!(
            tuned_total <= default_total * 1.05,
            "tuned {tuned_total} vs default {default_total}"
        );
    }

    #[test]
    #[should_panic(expected = "at least as many observations")]
    fn too_few_observations_panics() {
        fit_r_params(&[Observation { stats: ExecStats::default(), latency_us: 1.0 }]);
    }
}
