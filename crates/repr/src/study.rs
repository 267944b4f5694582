//! The comparative study harness (E12): reproduces the methodology of
//! Zhao et al. \[57\] — isolate the representation components (feature
//! encoding × tree model), interchange them on the same task, and compare
//! both absolute accuracy (q-error) and relative ordering (Spearman).
//!
//! The paper's headline finding: **the choice of feature encoding often
//! matters more than the choice of tree model**, even though the literature
//! focuses on the latter. The harness returns enough structure for the
//! bench to verify that shape.

use rand::Rng;

use ml4db_plan::{PlanNode, Query};
use ml4db_storage::Database;

use crate::encoder::TreeModelKind;
use crate::features::{featurize_plan, FeatureConfig, NODE_DIM};
use crate::task::CostRegressor;

/// One labeled plan: the query, its annotated plan, and observed latency.
#[derive(Clone, Debug)]
pub struct LabeledPlan {
    /// The query.
    pub query: Query,
    /// The physical plan (with cost-model annotations for the statistics
    /// features).
    pub plan: PlanNode,
    /// Observed simulated latency (µs).
    pub latency_us: f64,
}

/// Result of one (encoding, model) grid cell.
#[derive(Clone, Debug)]
pub struct StudyCell {
    /// Feature-family configuration.
    pub encoding: FeatureConfig,
    /// Tree-model strategy.
    pub model: TreeModelKind,
    /// Median q-error on the held-out split (absolute accuracy).
    pub median_q_error: f64,
    /// Spearman rank correlation on the held-out split (relative accuracy).
    pub rank_correlation: f64,
}

/// Grid configuration.
#[derive(Clone, Debug)]
pub struct StudyConfig {
    /// Encodings to evaluate.
    pub encodings: Vec<FeatureConfig>,
    /// Tree models to evaluate.
    pub models: Vec<TreeModelKind>,
    /// Training epochs per cell.
    pub epochs: usize,
    /// Hidden width of encoders and heads.
    pub hidden: usize,
    /// Learning rate.
    pub lr: f32,
    /// Train fraction (rest is held out).
    pub train_fraction: f64,
}

impl Default for StudyConfig {
    fn default() -> Self {
        Self {
            encodings: vec![
                FeatureConfig::semantic_only(),
                FeatureConfig::statistics_only(),
                FeatureConfig::full(),
            ],
            models: TreeModelKind::all().to_vec(),
            epochs: 20,
            hidden: 16,
            lr: 0.01,
            train_fraction: 0.8,
        }
    }
}

/// Runs the full grid: for every (encoding, model) pair, featurize the
/// corpus, train a [`CostRegressor`], and evaluate on the held-out split.
pub fn run_study<R: Rng + ?Sized>(
    db: &Database,
    corpus: &[LabeledPlan],
    config: &StudyConfig,
    rng: &mut R,
) -> Vec<StudyCell> {
    assert!(corpus.len() >= 4, "study needs a corpus");
    let split = ((corpus.len() as f64) * config.train_fraction) as usize;
    let split = split.clamp(1, corpus.len() - 1);
    let mut cells = Vec::new();
    for &encoding in &config.encodings {
        let data: Vec<(ml4db_nn::Tree, f64)> = corpus
            .iter()
            .map(|lp| (featurize_plan(db, &lp.query, &lp.plan, encoding), lp.latency_us))
            .collect();
        let (train, test) = data.split_at(split);
        for &model in &config.models {
            let mut reg = CostRegressor::new(model, NODE_DIM, config.hidden, rng);
            reg.fit(train, config.epochs, config.lr, rng);
            let q = ml4db_nn::metrics::q_error_summary(&reg.eval_q_errors(test))
                .map(|s| s.median)
                .unwrap_or(f64::INFINITY);
            let rank = reg.eval_rank_correlation(test);
            cells.push(StudyCell {
                encoding,
                model,
                median_q_error: q,
                rank_correlation: rank,
            });
        }
    }
    cells
}

/// Decomposes grid variance into encoding-explained and model-explained
/// parts (on log q-error): the study's headline comparison. Returns
/// `(encoding_spread, model_spread)` — the mean range of log q-error when
/// varying one factor while holding the other fixed.
pub fn factor_spreads(cells: &[StudyCell]) -> (f64, f64) {
    factor_spreads_by(cells, |c| c.median_q_error.max(1.0).ln())
}

/// Factor spreads on the *relative* metric (rank correlation) — \[57\]
/// evaluates both absolute and relative performance, and the
/// encoding-dominates finding is most visible here.
pub fn factor_spreads_rank(cells: &[StudyCell]) -> (f64, f64) {
    factor_spreads_by(cells, |c| c.rank_correlation)
}

fn factor_spreads_by(cells: &[StudyCell], metric: impl Fn(&StudyCell) -> f64) -> (f64, f64) {
    let log_q = metric;
    let encodings: Vec<&'static str> = {
        let mut v: Vec<&'static str> = cells.iter().map(|c| c.encoding.label()).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let models: Vec<TreeModelKind> = {
        let mut v: Vec<TreeModelKind> = cells.iter().map(|c| c.model).collect();
        v.sort_by_key(|m| m.label());
        v.dedup();
        v
    };
    // Encoding spread: for each model, range of log q-error across encodings.
    let mut enc_spread = 0.0;
    for &m in &models {
        let vals: Vec<f64> =
            cells.iter().filter(|c| c.model == m).map(&log_q).collect();
        if let (Some(mx), Some(mn)) = (
            vals.iter().copied().reduce(f64::max),
            vals.iter().copied().reduce(f64::min),
        ) {
            enc_spread += mx - mn;
        }
    }
    enc_spread /= models.len().max(1) as f64;
    // Model spread: for each encoding, range across models.
    let mut model_spread = 0.0;
    for &e in &encodings {
        let vals: Vec<f64> = cells
            .iter()
            .filter(|c| c.encoding.label() == e)
            .map(&log_q)
            .collect();
        if let (Some(mx), Some(mn)) = (
            vals.iter().copied().reduce(f64::max),
            vals.iter().copied().reduce(f64::min),
        ) {
            model_spread += mx - mn;
        }
    }
    model_spread /= encodings.len().max(1) as f64;
    (enc_spread, model_spread)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4db_plan::{ClassicEstimator, CostModel, Planner, TrueCardinality};
    use ml4db_storage::datasets::{joblite, DatasetConfig};
    use ml4db_storage::CmpOp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn corpus(db: &Database, rng: &mut StdRng, n: usize) -> Vec<LabeledPlan> {
        let oracle = TrueCardinality::new();
        let mut out = Vec::new();
        let planner = Planner::default();
        for i in 0..n {
            let year = 1960 + (i as f64 * 3.7) as i64 % 60;
            let q = Query::new(&["title", "cast_info"])
                .join(0, "id", 1, "movie_id")
                .filter(0, "year", CmpOp::Ge, year as f64);
            let plans = planner.random_plans(db, &q, &ClassicEstimator, 2, rng);
            for mut p in plans {
                CostModel::default().cost_plan(db, &q, &mut p, &ClassicEstimator);
                let latency = ml4db_plan::execute_summary(db, &q, &p).unwrap().latency_us;
                out.push(LabeledPlan { query: q.clone(), plan: p, latency_us: latency });
            }
            let _ = &oracle;
        }
        out
    }

    #[test]
    fn study_grid_runs_and_reports() {
        let mut rng = StdRng::seed_from_u64(21);
        let cat = joblite(&DatasetConfig { base_rows: 80, ..Default::default() }, &mut rng);
        let db = Database::analyze(cat, &mut rng);
        let corpus = corpus(&db, &mut rng, 12);
        let config = StudyConfig {
            encodings: vec![FeatureConfig::semantic_only(), FeatureConfig::full()],
            models: vec![TreeModelKind::FlatVector, TreeModelKind::TreeCnn],
            epochs: 5,
            ..Default::default()
        };
        let cells = run_study(&db, &corpus, &config, &mut rng);
        assert_eq!(cells.len(), 4);
        for c in &cells {
            assert!(c.median_q_error.is_finite());
            assert!((-1.0..=1.0).contains(&c.rank_correlation));
        }
        let (enc, model) = factor_spreads(&cells);
        assert!(enc >= 0.0 && model >= 0.0);
    }
}
