//! Feed-forward building blocks: linear layers, activations, layer norm,
//! dropout, and the [`Mlp`] used as the task head of every ML4DB model.
//!
//! Backpropagation is functional: `forward` returns the output together with
//! a cache, and `backward` consumes the cache, accumulates parameter
//! gradients into the module, and returns the input gradient. The same cell
//! can therefore be applied at many positions (sequence steps, tree nodes)
//! and back-propagated through each application independently.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::param::{Param, Trainable};
use crate::tensor::Matrix;

/// Pointwise non-linearity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Identity (no non-linearity).
    Identity,
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with slope 0.01 for negative inputs.
    LeakyRelu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Applies the activation elementwise.
    pub fn forward(self, x: &Matrix) -> Matrix {
        let mut y = x.clone();
        self.apply(y.as_mut_slice());
        y
    }

    /// Applies the activation elementwise, in place.
    fn apply(self, xs: &mut [f32]) {
        fn each(xs: &mut [f32], f: impl Fn(f32) -> f32) {
            for v in xs {
                *v = f(*v);
            }
        }
        match self {
            Activation::Identity => {}
            Activation::Relu => each(xs, |v| v.max(0.0)),
            Activation::LeakyRelu => each(xs, |v| if v > 0.0 { v } else { 0.01 * v }),
            Activation::Tanh => each(xs, f32::tanh),
            Activation::Sigmoid => each(xs, sigmoid),
        }
    }

    /// Given the activation *output* `y` and upstream gradient `dy`, returns
    /// the gradient with respect to the activation input.
    pub fn backward(self, y: &Matrix, dy: &Matrix) -> Matrix {
        match self {
            Activation::Identity => dy.clone(),
            Activation::Relu => y.zip(dy, |yv, g| if yv > 0.0 { g } else { 0.0 }),
            Activation::LeakyRelu => y.zip(dy, |yv, g| if yv > 0.0 { g } else { 0.01 * g }),
            Activation::Tanh => y.zip(dy, |yv, g| (1.0 - yv * yv) * g),
            Activation::Sigmoid => y.zip(dy, |yv, g| yv * (1.0 - yv) * g),
        }
    }
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Fully connected layer computing `y = x W + b`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Linear {
    /// Weight matrix, `in_dim x out_dim`.
    pub w: Param,
    /// Bias row vector, `1 x out_dim`.
    pub b: Param,
}

/// Cache produced by [`Linear::forward`], consumed by [`Linear::backward`].
#[derive(Clone, Debug)]
pub struct LinearCache {
    x: Matrix,
}

impl Linear {
    /// Creates a layer with Xavier/Glorot-uniform initialized weights.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        let scale = (6.0 / (in_dim + out_dim) as f32).sqrt();
        Self {
            w: Param::new(Matrix::uniform(in_dim, out_dim, scale, rng)),
            b: Param::new(Matrix::zeros(1, out_dim)),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.value.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.value.cols()
    }

    /// Computes `x W + b`; `x` is `batch x in_dim`.
    pub fn forward(&self, x: &Matrix) -> (Matrix, LinearCache) {
        let y = x.matmul(&self.w.value).add_row_broadcast(&self.b.value);
        (y, LinearCache { x: x.clone() })
    }

    /// [`Linear::forward`] of the one-row batch `x`, written into `out`
    /// without a cache: per output, the same additions in the same order.
    fn apply_row(&self, x: &[f32], out: &mut [f32]) {
        out.fill(0.0);
        self.w.value.add_row_product(x, out);
        for (o, &b) in out.iter_mut().zip(self.b.value.as_slice()) {
            *o += b;
        }
    }

    /// Accumulates `dW`, `db`, and returns `dx`.
    pub fn backward(&mut self, cache: &LinearCache, dy: &Matrix) -> Matrix {
        self.w.grad += &cache.x.t_matmul(dy);
        self.b.grad += &dy.sum_rows();
        dy.matmul_t(&self.w.value)
    }
}

impl Trainable for Linear {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }
}

/// Layer normalization over the feature dimension of each row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LayerNorm {
    /// Learned per-feature scale.
    pub gamma: Param,
    /// Learned per-feature shift.
    pub beta: Param,
    eps: f32,
}

/// Cache produced by [`LayerNorm::forward`].
#[derive(Clone, Debug)]
pub struct LayerNormCache {
    normalized: Matrix,
    inv_std: Vec<f32>,
}

impl LayerNorm {
    /// Creates a layer norm over `dim` features.
    pub fn new(dim: usize) -> Self {
        Self {
            gamma: Param::new(Matrix::full(1, dim, 1.0)),
            beta: Param::new(Matrix::zeros(1, dim)),
            eps: 1e-5,
        }
    }

    /// Normalizes each row to zero mean / unit variance, then scales and shifts.
    pub fn forward(&self, x: &Matrix) -> (Matrix, LayerNormCache) {
        let (rows, cols) = (x.rows(), x.cols());
        let mut normalized = Matrix::zeros(rows, cols);
        let mut inv_std = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = x.row_slice(r);
            let mean = row.iter().sum::<f32>() / cols as f32;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
            let istd = 1.0 / (var + self.eps).sqrt();
            inv_std.push(istd);
            for (o, &v) in normalized.row_slice_mut(r).iter_mut().zip(row) {
                *o = (v - mean) * istd;
            }
        }
        let mut y = normalized.clone();
        for r in 0..rows {
            let row = y.row_slice_mut(r);
            for c in 0..cols {
                row[c] = row[c] * self.gamma.value[(0, c)] + self.beta.value[(0, c)];
            }
        }
        (y, LayerNormCache { normalized, inv_std })
    }

    /// Backward pass; accumulates gamma/beta gradients and returns `dx`.
    pub fn backward(&mut self, cache: &LayerNormCache, dy: &Matrix) -> Matrix {
        let (rows, cols) = (dy.rows(), dy.cols());
        let n = cols as f32;
        let mut dx = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let xhat = cache.normalized.row_slice(r);
            let g = dy.row_slice(r);
            // d gamma, d beta
            for c in 0..cols {
                self.gamma.grad[(0, c)] += g[c] * xhat[c];
                self.beta.grad[(0, c)] += g[c];
            }
            // dxhat = dy * gamma
            let dxhat: Vec<f32> =
                (0..cols).map(|c| g[c] * self.gamma.value[(0, c)]).collect();
            let sum_dxhat: f32 = dxhat.iter().sum();
            let sum_dxhat_xhat: f32 = dxhat.iter().zip(xhat).map(|(&a, &b)| a * b).sum();
            let istd = cache.inv_std[r];
            for c in 0..cols {
                dx[(r, c)] =
                    istd / n * (n * dxhat[c] - sum_dxhat - xhat[c] * sum_dxhat_xhat);
            }
        }
        dx
    }
}

impl Trainable for LayerNorm {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }
}

/// Inverted dropout; active only when training.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dropout {
    /// Probability of zeroing each unit during training.
    pub p: f32,
}

/// Mask produced by [`Dropout::forward`].
#[derive(Clone, Debug)]
pub struct DropoutCache {
    mask: Option<Matrix>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    pub fn new(p: f32) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0,1)");
        Self { p }
    }

    /// Applies inverted dropout when `training` is true; identity otherwise.
    pub fn forward<R: Rng + ?Sized>(
        &self,
        x: &Matrix,
        training: bool,
        rng: &mut R,
    ) -> (Matrix, DropoutCache) {
        if !training || self.p == 0.0 {
            return (x.clone(), DropoutCache { mask: None });
        }
        let keep = 1.0 - self.p;
        let mask = Matrix::from_vec(
            x.rows(),
            x.cols(),
            (0..x.len())
                .map(|_| if rng.gen::<f32>() < keep { 1.0 / keep } else { 0.0 })
                .collect(),
        );
        (x.hadamard(&mask), DropoutCache { mask: Some(mask) })
    }

    /// Backward pass through the stored mask.
    pub fn backward(&self, cache: &DropoutCache, dy: &Matrix) -> Matrix {
        match &cache.mask {
            Some(mask) => dy.hadamard(mask),
            None => dy.clone(),
        }
    }
}

/// Widest hidden layer [`Mlp::predict`] keeps on the stack.
const PREDICT_STACK_WIDTH: usize = 64;

/// Multi-layer perceptron: a stack of [`Linear`] layers with a shared hidden
/// activation and an identity output layer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

/// Cache produced by [`Mlp::forward`].
#[derive(Clone, Debug)]
pub struct MlpCache {
    linear_caches: Vec<LinearCache>,
    activations: Vec<Matrix>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[in, hidden, out]`.
    ///
    /// # Panics
    /// Panics if fewer than two dims are given.
    pub fn new<R: Rng + ?Sized>(dims: &[usize], activation: Activation, rng: &mut R) -> Self {
        assert!(dims.len() >= 2, "Mlp::new: need at least input and output dims");
        let layers = dims.windows(2).map(|w| Linear::new(w[0], w[1], rng)).collect();
        Self { layers, activation }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("mlp has layers").out_dim()
    }

    /// Forward pass over a batch (`batch x in_dim`).
    pub fn forward(&self, x: &Matrix) -> (Matrix, MlpCache) {
        let mut linear_caches = Vec::with_capacity(self.layers.len());
        let mut activations = Vec::with_capacity(self.layers.len());
        let mut h = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            let (y, cache) = layer.forward(&h);
            linear_caches.push(cache);
            h = if i + 1 == self.layers.len() { y } else { self.activation.forward(&y) };
            activations.push(h.clone());
        }
        (h, MlpCache { linear_caches, activations })
    }

    /// Inference on one example: writes [`Mlp::forward`]'s output for the
    /// one-row batch `x` into `out`, bit for bit. Each layer runs the same
    /// operations in the same order as `forward`'s matmul → bias →
    /// activation: every output accumulates over the inputs in ascending
    /// order, skipping inputs equal to 0.0, and adds its bias after. Hidden
    /// activations live in two stack buffers while every hidden layer is at
    /// most 64 wide, so such a call never allocates; a wider layer costs one
    /// heap buffer.
    ///
    /// # Panics
    /// Panics if `x` is not `in_dim` wide or `out` is not `out_dim` wide.
    pub fn predict(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.in_dim(), "Mlp::predict: input width");
        assert_eq!(out.len(), self.out_dim(), "Mlp::predict: output width");
        let (last, hidden) = self.layers.split_last().expect("mlp has layers");
        let width = hidden.iter().map(Linear::out_dim).max().unwrap_or(0);
        let mut stack = [0.0f32; 2 * PREDICT_STACK_WIDTH];
        let mut heap = Vec::new();
        let buf = if width <= PREDICT_STACK_WIDTH {
            &mut stack[..2 * width]
        } else {
            heap.resize(2 * width, 0.0);
            &mut heap[..]
        };
        let (mut h, mut next) = buf.split_at_mut(width);
        // The width of the activations in `h`; `None` while the input is `x`.
        let mut h_width = None;
        for layer in hidden {
            let y = &mut next[..layer.out_dim()];
            layer.apply_row(h_width.map_or(x, |n| &h[..n]), y);
            self.activation.apply(y);
            h_width = Some(y.len());
            std::mem::swap(&mut h, &mut next);
        }
        last.apply_row(h_width.map_or(x, |n| &h[..n]), out);
    }

    /// Backward pass; accumulates all layer gradients and returns `dx`.
    pub fn backward(&mut self, cache: &MlpCache, dy: &Matrix) -> Matrix {
        let mut grad = dy.clone();
        for i in (0..self.layers.len()).rev() {
            if i + 1 != self.layers.len() {
                grad = self.activation.backward(&cache.activations[i], &grad);
            }
            grad = self.layers[i].backward(&cache.linear_caches[i], &grad);
        }
        grad
    }
}

impl Trainable for Mlp {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(|l| l.params_mut()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::grad_check;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_forward_matches_manual() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(2, 2, &mut rng);
        l.w.value = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0]]);
        l.b.value = Matrix::row(vec![0.5, -0.5]);
        let (y, _) = l.forward(&Matrix::row(vec![3.0, 4.0]));
        assert_eq!(y.as_slice(), &[3.5, 7.5]);
    }

    #[test]
    fn linear_grad_check() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = Matrix::uniform(3, 4, 1.0, &mut rng);
        let mut layer = Linear::new(4, 2, &mut rng);
        grad_check(
            &mut layer,
            &x,
            |l, x| l.forward(x),
            |l, c, dy| l.backward(c, dy),
            1e-2,
        );
    }

    #[test]
    fn mlp_grad_check() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Matrix::uniform(2, 3, 1.0, &mut rng);
        let mut mlp = Mlp::new(&[3, 5, 1], Activation::Tanh, &mut rng);
        grad_check(
            &mut mlp,
            &x,
            |m, x| m.forward(x),
            |m, c, dy| m.backward(c, dy),
            1e-2,
        );
    }

    #[test]
    fn predict_equals_forward_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut x = Matrix::uniform(3, 4, 2.0, &mut rng);
        // `matmul` skips inputs equal to 0.0 (of either sign), and so must
        // the one-row kernel; ReLU feeds it exact zeros between layers too.
        x[(0, 1)] = 0.0;
        x[(1, 0)] = -0.0;
        x[(1, 3)] = 0.0;
        let (limit, above) = (PREDICT_STACK_WIDTH, PREDICT_STACK_WIDTH + 1);
        for activation in [
            Activation::Identity,
            Activation::Relu,
            Activation::LeakyRelu,
            Activation::Tanh,
            Activation::Sigmoid,
        ] {
            for dims in [&[4, 2][..], &[4, 6, 5, 2], &[4, limit, 7, 2], &[4, 9, above, 2]] {
                let mlp = Mlp::new(dims, activation, &mut rng);
                let y = mlp.forward(&x).0;
                for r in 0..x.rows() {
                    let mut p = [0.0f32; 2];
                    mlp.predict(x.row_slice(r), &mut p);
                    assert_eq!(
                        p.map(f32::to_bits),
                        [y[(r, 0)].to_bits(), y[(r, 1)].to_bits()],
                        "{activation:?} over {dims:?}, row {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let ln = LayerNorm::new(4);
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0]]);
        let (y, _) = ln.forward(&x);
        let mean: f32 = y.row_slice(0).iter().sum::<f32>() / 4.0;
        let var: f32 = y.row_slice(0).iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layernorm_grad_check() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = Matrix::uniform(3, 6, 1.0, &mut rng);
        let mut ln = LayerNorm::new(6);
        grad_check(
            &mut ln,
            &x,
            |l, x| l.forward(x),
            |l, c, dy| l.backward(c, dy),
            2e-2,
        );
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = Dropout::new(0.5);
        let x = Matrix::uniform(2, 8, 1.0, &mut rng);
        let (y, _) = d.forward(&x, false, &mut rng);
        assert_eq!(y, x);
    }

    #[test]
    fn dropout_preserves_expectation_roughly() {
        let mut rng = StdRng::seed_from_u64(6);
        let d = Dropout::new(0.3);
        let x = Matrix::full(1, 10_000, 1.0);
        let (y, _) = d.forward(&x, true, &mut rng);
        assert!((y.mean() - 1.0).abs() < 0.05);
    }

    #[test]
    fn sigmoid_is_stable() {
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn activation_backward_matches_numeric() {
        for act in [Activation::Relu, Activation::Tanh, Activation::Sigmoid, Activation::LeakyRelu]
        {
            let x = Matrix::row(vec![0.3, -0.7, 1.5]);
            let y = act.forward(&x);
            let dy = Matrix::row(vec![1.0, 1.0, 1.0]);
            let dx = act.backward(&y, &dy);
            let eps = 1e-3;
            for i in 0..3 {
                let mut xp = x.clone();
                xp.as_mut_slice()[i] += eps;
                let mut xm = x.clone();
                xm.as_mut_slice()[i] -= eps;
                let num =
                    (act.forward(&xp).as_slice()[i] - act.forward(&xm).as_slice()[i]) / (2.0 * eps);
                assert!(
                    (dx.as_slice()[i] - num).abs() < 1e-2,
                    "{act:?} grad mismatch at {i}: {} vs {num}",
                    dx.as_slice()[i]
                );
            }
        }
    }
}
