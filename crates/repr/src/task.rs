//! Downstream task models over plan encodings: cost/latency regression
//! (E2E-Cost style) and pairwise plan ranking (LEON style), trained
//! end-to-end with the encoder.

use rand::seq::SliceRandom;
use rand::Rng;

use ml4db_nn::layers::{Activation, Mlp};
use ml4db_nn::optim::{Adam, Optimizer};
use ml4db_nn::{loss, Matrix, Trainable, Tree};

use crate::encoder::{PlanEncoder, TreeModelKind};

/// Normalizes a latency (µs) into the regression target space.
pub fn latency_to_target(latency_us: f64) -> f32 {
    ((latency_us.max(0.0) + 1.0).log10() / 8.0) as f32
}

/// Inverse of [`latency_to_target`].
pub fn target_to_latency(target: f32) -> f64 {
    10f64.powf(target as f64 * 8.0) - 1.0
}

/// A cost/latency regressor: encoder + MLP head, trained with Huber loss on
/// log latency.
pub struct CostRegressor {
    /// The plan encoder.
    pub encoder: PlanEncoder,
    /// The regression head.
    pub head: Mlp,
}

impl CostRegressor {
    /// Creates a regressor with the given tree-model strategy.
    pub fn new<R: Rng + ?Sized>(
        kind: TreeModelKind,
        in_dim: usize,
        hidden: usize,
        rng: &mut R,
    ) -> Self {
        let encoder = PlanEncoder::new(kind, in_dim, hidden, rng);
        let head = Mlp::new(&[encoder.out_dim(), hidden, 1], Activation::LeakyRelu, rng);
        Self { encoder, head }
    }

    /// Predicted latency (µs) for a feature tree.
    pub fn predict_latency(&self, tree: &Tree) -> f64 {
        let mut y = [0.0];
        self.head.predict(self.encoder.encode(tree).row_slice(0), &mut y);
        target_to_latency(y[0])
    }

    /// One SGD pass over the data (shuffled); returns the mean loss.
    pub fn train_epoch<R: Rng + ?Sized>(
        &mut self,
        data: &[(Tree, f64)],
        opt: &mut Adam,
        rng: &mut R,
    ) -> f32 {
        let mut order: Vec<usize> = (0..data.len()).collect();
        order.shuffle(rng);
        let mut total = 0.0;
        for &i in &order {
            let (tree, latency) = &data[i];
            self.encoder.zero_grad();
            self.head.zero_grad();
            let (emb, ec) = self.encoder.forward(tree);
            let (y, hc) = self.head.forward(&emb);
            let target = Matrix::row(vec![latency_to_target(*latency)]);
            let (l, dy) = loss::huber(&y, &target, 0.1);
            total += l;
            let demb = self.head.backward(&hc, &dy);
            self.encoder.backward(&ec, &demb);
            let mut params = self.encoder.params_mut();
            params.extend(self.head.params_mut());
            ml4db_nn::optim::clip_grad_norm(&mut params, 5.0);
            opt.step(&mut params);
        }
        total / data.len().max(1) as f32
    }

    /// Trains for `epochs` passes; returns the final epoch's mean loss.
    pub fn fit<R: Rng + ?Sized>(
        &mut self,
        data: &[(Tree, f64)],
        epochs: usize,
        lr: f32,
        rng: &mut R,
    ) -> f32 {
        let mut opt = Adam::new(lr);
        let mut last = f32::MAX;
        for _ in 0..epochs {
            last = self.train_epoch(data, &mut opt, rng);
        }
        last
    }

    /// Q-errors of predicted vs true latency over a dataset.
    pub fn eval_q_errors(&self, data: &[(Tree, f64)]) -> Vec<f64> {
        data.iter()
            .map(|(t, lat)| ml4db_nn::metrics::q_error(self.predict_latency(t), *lat))
            .collect()
    }

    /// Spearman rank correlation between predicted and true latencies —
    /// the "relative performance" metric of \[57\].
    pub fn eval_rank_correlation(&self, data: &[(Tree, f64)]) -> f64 {
        let pred: Vec<f64> = data.iter().map(|(t, _)| self.predict_latency(t)).collect();
        let truth: Vec<f64> = data.iter().map(|(_, l)| *l).collect();
        ml4db_nn::metrics::spearman(&pred, &truth)
    }

    /// Total scalar parameters (model-size accounting, E14).
    pub fn num_params(&mut self) -> usize {
        self.encoder.num_params() + self.head.num_params()
    }
}

/// A pairwise plan ranker (LEON's training objective): scores plans so that
/// worse plans get higher scores, trained with a hinge on (better, worse)
/// pairs.
pub struct PairwiseRanker {
    /// The plan encoder.
    pub encoder: PlanEncoder,
    /// The scoring head.
    pub head: Mlp,
}

impl PairwiseRanker {
    /// Creates a ranker with the given strategy.
    pub fn new<R: Rng + ?Sized>(
        kind: TreeModelKind,
        in_dim: usize,
        hidden: usize,
        rng: &mut R,
    ) -> Self {
        let encoder = PlanEncoder::new(kind, in_dim, hidden, rng);
        let head = Mlp::new(&[encoder.out_dim(), hidden, 1], Activation::LeakyRelu, rng);
        Self { encoder, head }
    }

    /// Plan score (higher = predicted worse).
    pub fn score(&self, tree: &Tree) -> f32 {
        let mut y = [0.0];
        self.head.predict(self.encoder.encode(tree).row_slice(0), &mut y);
        y[0]
    }

    /// One pass over (better, worse) pairs; returns mean hinge loss.
    pub fn train_epoch<R: Rng + ?Sized>(
        &mut self,
        pairs: &[(Tree, Tree)],
        opt: &mut Adam,
        margin: f32,
        rng: &mut R,
    ) -> f32 {
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.shuffle(rng);
        let mut total = 0.0;
        for &i in &order {
            let (better, worse) = &pairs[i];
            self.encoder.zero_grad();
            self.head.zero_grad();
            let (eb, cb) = self.encoder.forward(better);
            let (sb, hb) = self.head.forward(&eb);
            let (ew, cw) = self.encoder.forward(worse);
            let (sw, hw) = self.head.forward(&ew);
            let (l, gb, gw) = loss::pairwise_hinge(&sb, &sw, margin);
            total += l;
            if l > 0.0 {
                let db = self.head.backward(&hb, &gb);
                self.encoder.backward(&cb, &db);
                let dw = self.head.backward(&hw, &gw);
                self.encoder.backward(&cw, &dw);
                let mut params = self.encoder.params_mut();
                params.extend(self.head.params_mut());
                ml4db_nn::optim::clip_grad_norm(&mut params, 5.0);
                opt.step(&mut params);
            }
        }
        total / pairs.len().max(1) as f32
    }

    /// Fraction of evaluation pairs ranked correctly.
    pub fn pairwise_accuracy(&self, pairs: &[(Tree, Tree)]) -> f64 {
        if pairs.is_empty() {
            return 1.0;
        }
        let correct = pairs
            .iter()
            .filter(|(better, worse)| self.score(better) < self.score(worse))
            .count();
        correct as f64 / pairs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Synthetic trees whose "latency" depends on both node features and
    /// structure: deep chains are slow, shallow trees fast.
    fn synth_data(rng: &mut StdRng, n: usize) -> Vec<(Tree, f64)> {
        (0..n)
            .map(|_| {
                let depth = rng.gen_range(1..6);
                let feat = rng.gen_range(0.0f32..1.0);
                let mut t = Tree::leaf(vec![feat, 0.0]);
                for _ in 0..depth {
                    t = Tree::branch(
                        vec![rng.gen_range(0.0..1.0), 1.0],
                        Some(t),
                        Some(Tree::leaf(vec![rng.gen_range(0.0..1.0), 0.0])),
                    );
                }
                let latency = 100.0 * (depth as f64).exp() * (1.0 + feat as f64);
                (t, latency)
            })
            .collect()
    }

    #[test]
    fn latency_target_roundtrip() {
        for lat in [0.0, 1.0, 100.0, 1e6] {
            let t = latency_to_target(lat);
            let back = target_to_latency(t);
            assert!((back - lat).abs() / (lat + 1.0) < 0.01, "{lat} -> {t} -> {back}");
        }
    }

    #[test]
    fn regressor_learns_latency_ordering() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = synth_data(&mut rng, 60);
        let mut model = CostRegressor::new(TreeModelKind::TreeCnn, 2, 16, &mut rng);
        let before = model.eval_rank_correlation(&data);
        model.fit(&data, 30, 0.01, &mut rng);
        let after = model.eval_rank_correlation(&data);
        assert!(after > 0.8, "rank corr after training: {after} (before {before})");
    }

    #[test]
    fn regressor_qerror_improves_with_training() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = synth_data(&mut rng, 60);
        let mut model = CostRegressor::new(TreeModelKind::TreeLstm, 2, 16, &mut rng);
        let q_before = ml4db_nn::metrics::q_error_summary(&model.eval_q_errors(&data))
            .unwrap()
            .median;
        model.fit(&data, 30, 0.01, &mut rng);
        let q_after = ml4db_nn::metrics::q_error_summary(&model.eval_q_errors(&data))
            .unwrap()
            .median;
        assert!(q_after < q_before, "median q-error {q_before} -> {q_after}");
        assert!(q_after < 3.0, "median q-error too high after training: {q_after}");
    }

    #[test]
    fn ranker_orders_pairs() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = synth_data(&mut rng, 40);
        // Build (better, worse) pairs from the labeled corpus.
        let mut pairs = Vec::new();
        for i in 0..data.len() {
            for j in 0..data.len() {
                if data[i].1 * 2.0 < data[j].1 {
                    pairs.push((data[i].0.clone(), data[j].0.clone()));
                }
            }
        }
        pairs.truncate(200);
        let mut ranker = PairwiseRanker::new(TreeModelKind::TreeCnn, 2, 16, &mut rng);
        let mut opt = Adam::new(0.01);
        for _ in 0..15 {
            ranker.train_epoch(&pairs, &mut opt, 0.5, &mut rng);
        }
        let acc = ranker.pairwise_accuracy(&pairs);
        assert!(acc > 0.85, "pairwise accuracy {acc}");
    }
}
