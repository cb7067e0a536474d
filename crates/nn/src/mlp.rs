//! Fully-connected networks with manual backpropagation.
//!
//! The paper's TTP is "a fully-connected neural network, with two hidden
//! layers with 64 neurons each" (§4.5); the linear-model ablation (§4.6) is
//! the same network with zero hidden layers.  [`Mlp`] covers both, plus the
//! somewhat larger Pensieve policy/value networks.

use crate::matrix::{axpy_with, Matrix, Tier};
use crate::optim::Optimizer;

/// Hidden-layer nonlinearity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// max(0, x) — used by the TTP.
    Relu,
    /// tanh(x).
    Tanh,
    /// No nonlinearity; `Mlp::new(&[i, o], Identity, ..)` is linear regression.
    Identity,
}

impl Activation {
    fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x,
        }
    }

    /// Derivative expressed in terms of the *activated* output `y = f(x)`.
    fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Identity => 1.0,
        }
    }

    pub(crate) fn name(self) -> &'static str {
        match self {
            Activation::Relu => "relu",
            Activation::Tanh => "tanh",
            Activation::Identity => "identity",
        }
    }

    pub(crate) fn from_name(s: &str) -> Option<Self> {
        match s {
            "relu" => Some(Activation::Relu),
            "tanh" => Some(Activation::Tanh),
            "identity" => Some(Activation::Identity),
            _ => None,
        }
    }
}

/// One dense layer `y = x·W + b` with accumulated gradients.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weights, shape `in_dim × out_dim`.
    pub w: Matrix,
    /// Bias, length `out_dim`.
    pub b: Vec<f32>,
    /// Gradient of the loss w.r.t. `w`, accumulated by [`Mlp::backward_into`].
    pub gw: Matrix,
    /// Gradient of the loss w.r.t. `b`.
    pub gb: Vec<f32>,
}

impl Linear {
    /// He-initialized layer (appropriate for ReLU; harmless for the others).
    pub fn new<R: rand::Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        let std = (2.0 / in_dim as f64).sqrt();
        let mut w = Matrix::zeros(in_dim, out_dim);
        for x in w.data_mut() {
            *x = (crate::standard_normal(rng) * std) as f32;
        }
        Linear {
            w,
            b: vec![0.0; out_dim],
            gw: Matrix::zeros(in_dim, out_dim),
            gb: vec![0.0; out_dim],
        }
    }

    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass `out = x·W + b` for a batch (`x`: batch × in_dim) into a
    /// caller-owned output matrix (no allocation once `out` has grown to the
    /// steady-state batch size).
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_into(&self.w, out);
        out.add_row_broadcast(&self.b);
    }

    pub fn zero_grad(&mut self) {
        self.gw.data_mut().fill(0.0);
        self.gb.fill(0.0);
    }
}

/// Caller-owned per-layer activation storage for training forward passes.
///
/// Unlike inference (which only needs the final output and can ping/pong two
/// buffers), backprop needs every layer's activation, so the cache keeps one
/// matrix per layer plus the input batch.  All matrices are resized in place;
/// once they have grown to the steady-state minibatch shape, a training step
/// performs no heap allocations.
///
/// Usage: fill the batch via [`TrainCache::input_mut`], run
/// [`Mlp::forward_train`], read [`TrainCache::logits`], then hand the cache
/// to [`Mlp::backward_into`].
#[derive(Debug, Clone, Default)]
pub struct TrainCache {
    /// `acts[0]` is the input batch; `acts[i]` for `0 < i < L` are
    /// post-activation hidden outputs; `acts[L]` is the raw logits (the final
    /// layer has no nonlinearity).
    acts: Vec<Matrix>,
}

impl TrainCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Resize the input activation buffer for a `rows × cols` batch and
    /// return it for the caller to fill (contents are unspecified; overwrite
    /// every element).
    // lint: panic-free — acts[0] exists: the branch above pushes it when the cache is empty
    // lint: alloc-free — the input matrix grows once to the steady minibatch shape; warm epochs reuse it (tests/alloc_gate.rs)
    pub fn input_mut(&mut self, rows: usize, cols: usize) -> &mut Matrix {
        if self.acts.is_empty() {
            self.acts.push(Matrix::zeros(0, 0));
        }
        self.acts[0].resize(rows, cols);
        &mut self.acts[0]
    }

    /// Raw network output (pre-softmax logits) of the last
    /// [`Mlp::forward_train`] pass.
    // lint: panic-free — documented contract: forward_train fills the cache before logits are read
    pub fn logits(&self) -> &Matrix {
        self.acts.last().expect("forward_train fills the cache before logits are read")
    }
}

/// Caller-owned buffers for [`Mlp::backward_into`]: gradient ping/pong and
/// the transposed operands of the two backward products.
#[derive(Debug, Clone, Default)]
pub struct BackwardScratch {
    /// Gradient w.r.t. the current layer's output.
    grad: Matrix,
    /// Scratch for the gradient w.r.t. the layer below's output.
    tmp: Matrix,
    /// The current layer's input, transposed.
    xt: Matrix,
    /// The current layer's weights, transposed.
    wt: Matrix,
}

impl BackwardScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Reusable ping/pong activation buffers for [`Mlp::forward_into`].
///
/// Keeping these caller-owned lets steady-state inference (the TTP is queried
/// for every rung of every lookahead step of every chunk decision) run with
/// zero heap allocations after warm-up.
#[derive(Debug, Clone, Default)]
pub struct MlpScratch {
    ping: Matrix,
    pong: Matrix,
}

impl MlpScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Resize the staged first-layer buffer to `rows × cols` and return it
    /// for the caller to fill (contents are unspecified; overwrite every row,
    /// e.g. via [`Mlp::first_layer_shared_last_rows`]).  This is the input to
    /// [`Mlp::forward_staged_into`], which finishes the pass over all rows at
    /// once — the cross-stream batching entry point.
    // lint: alloc-free — the staged buffer grows once to the max batch rows; warm calls only hand out the slice
    pub fn staged_rows_mut(&mut self, rows: usize, cols: usize) -> &mut Matrix {
        self.ping.resize(rows, cols);
        &mut self.ping
    }
}

/// A multi-layer perceptron: dense layers with a shared hidden activation and
/// a linear output layer.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

impl Mlp {
    /// Build a network with the given layer sizes, e.g. `&[22, 64, 64, 21]`
    /// for the TTP.  `dims.len() >= 2`; `dims.len() == 2` yields a pure linear
    /// model (the paper's linear-regression ablation).
    pub fn new<R: rand::Rng + ?Sized>(dims: &[usize], activation: Activation, rng: &mut R) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let layers = dims.windows(2).map(|w| Linear::new(w[0], w[1], rng)).collect();
        Mlp { layers, activation }
    }

    /// Construct from explicit layers (used by checkpoint loading).
    pub fn from_layers(layers: Vec<Linear>, activation: Activation) -> Self {
        assert!(!layers.is_empty());
        for pair in layers.windows(2) {
            assert_eq!(pair[0].out_dim(), pair[1].in_dim(), "layer shape chain broken");
        }
        Mlp { layers, activation }
    }

    pub fn activation(&self) -> Activation {
        self.activation
    }

    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Mutable access to the layers (weight surgery in tests and fault
    /// injection; training goes through the gradient path instead).
    pub fn layers_mut(&mut self) -> &mut [Linear] {
        &mut self.layers
    }

    // lint: panic-free — a constructed Mlp always has at least one layer
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Forward pass through caller-owned scratch buffers: no allocations once
    /// the scratch has reached steady-state size.  Returns a reference to the
    /// scratch matrix holding the output.
    // lint: panic-free — layer indexing is over self.layers; input dims are asserted at entry
    pub fn forward_into<'a>(&self, x: &Matrix, scratch: &'a mut MlpScratch) -> &'a mut Matrix {
        self.layers[0].forward_into(x, &mut scratch.ping);
        if self.layers.len() > 1 {
            scratch.ping.map_inplace(|v| self.activation.apply(v));
        }
        self.forward_tail(scratch)
    }

    /// Layers 1.. of the forward pass, with `scratch.ping` already holding
    /// the activated output of layer 0.
    fn forward_tail<'a>(&self, scratch: &'a mut MlpScratch) -> &'a mut Matrix {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate().skip(1) {
            layer.forward_into(&scratch.ping, &mut scratch.pong);
            if i != last {
                scratch.pong.map_inplace(|v| self.activation.apply(v));
            }
            std::mem::swap(&mut scratch.ping, &mut scratch.pong);
        }
        &mut scratch.ping
    }

    /// Stage the *pre-bias* first-layer rows of one shared-prefix group into
    /// rows `row0..row0 + last_feature.len()` of `staged` (grown beforehand
    /// via [`MlpScratch::staged_rows_mut`]).
    ///
    /// A group's rows are identical except for the *final* feature — the
    /// TTP's per-rung proposed-size column — so the first layer's response
    /// to the shared prefix is computed once and each row's last-feature
    /// contribution added on top.  Many groups — one per concurrent stream —
    /// can be stacked into a single staged matrix and finished by one
    /// [`Mlp::forward_staged_into`] pass per step-net.  The op sequence per
    /// row (zeroed partial accumulated by k-ascending `axpy` with the same
    /// zero-skip, then the row's own last-feature `axpy`) is the ikj
    /// matmul's on the materialized row, whose last feature is the final
    /// accumulation step, so every staged row is bit-identical to
    /// [`Mlp::forward_into`]'s first layer on that row.
    ///
    /// `partial` is a reusable hidden-width accumulator owned by the caller
    /// (it cannot live in the scratch, whose `ping` is lent out as `staged`).
    // lint: panic-free — entry asserts pin shared-prefix dims; row offsets derive from them
    // lint: alloc-free — the output buffer grows once to rows*width; warm calls reuse it (tests/alloc_gate.rs)
    pub fn first_layer_shared_last_rows(
        &self,
        shared: &[f32],
        last_feature: &[f32],
        partial: &mut Vec<f32>,
        staged: &mut Matrix,
        row0: usize,
    ) {
        let l0 = &self.layers[0];
        assert_eq!(shared.len() + 1, l0.in_dim(), "shared prefix + 1 == input dim");
        let h = l0.out_dim();
        assert_eq!(staged.cols(), h, "staged width must match the first layer");
        assert!(row0 + last_feature.len() <= staged.rows(), "staged rows overflow");

        let tier = Tier::detect();
        partial.resize(h, 0.0);
        partial.fill(0.0);
        for (k, &a) in shared.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            axpy_with(tier, a, l0.w.row(k), partial);
        }
        let w_last = l0.w.row(shared.len());
        for (i, &a) in last_feature.iter().enumerate() {
            let row = staged.row_mut(row0 + i);
            row.copy_from_slice(partial);
            if a != 0.0 {
                axpy_with(tier, a, w_last, row);
            }
        }
    }

    /// Finish a staged batch: add the first layer's bias, apply the hidden
    /// activation, and run layers 1.. over every staged row at once.
    ///
    /// The bias broadcast, activation, and tail matmuls are all row-wise
    /// independent with a fixed per-element operation order, so each row of
    /// the result is bit-identical to [`Mlp::forward_into`] on the
    /// materialized row — the argument `docs/BATCHING.md` spells out.
    /// Returns the logits (one row per staged row).
    // lint: panic-free — entry asserts pin the staged dims; layer indexing is over self.layers
    pub fn forward_staged_into<'a>(&self, scratch: &'a mut MlpScratch) -> &'a mut Matrix {
        let l0 = &self.layers[0];
        assert_eq!(scratch.ping.cols(), l0.out_dim(), "stage rows before finishing the batch");
        scratch.ping.add_row_broadcast(&l0.b);
        if self.layers.len() > 1 {
            scratch.ping.map_inplace(|v| self.activation.apply(v));
        }
        self.forward_tail(scratch)
    }

    /// Forward pass over the batch already loaded into `cache`'s input
    /// buffer (see [`TrainCache::input_mut`]), retaining every layer's
    /// activation for [`Mlp::backward_into`].
    ///
    /// The same matmul kernel, bias add, and activation, in the same order,
    /// as [`Mlp::forward_into`], but every layer's output is kept, in
    /// caller-owned storage, so steady-state training minibatches allocate
    /// nothing.
    // lint: panic-free — entry asserts pin the batch dims; per-layer indexing is over self.layers
    // lint: alloc-free — cache matrices grow once to the minibatch shape; warm epochs are allocation-free per tests/alloc_gate.rs
    pub fn forward_train(&self, cache: &mut TrainCache) {
        assert!(!cache.acts.is_empty(), "fill the input via TrainCache::input_mut first");
        assert_eq!(cache.acts[0].cols(), self.input_dim(), "batch width must match input dim");
        cache.acts.resize_with(self.layers.len() + 1, Matrix::default);
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let (lo, hi) = cache.acts.split_at_mut(i + 1);
            layer.forward_into(&lo[i], &mut hi[0]);
            if i != last {
                hi[0].map_inplace(|v| self.activation.apply(v));
            }
        }
    }

    /// Backpropagate `dlogits` through the activations retained by
    /// [`Mlp::forward_train`], accumulating parameter gradients into each
    /// layer's `gw`/`gb` with zero heap allocations in steady state.
    ///
    /// Both products run as row kernels over transposed operands held in
    /// `scratch`: `gw += xᵀ·dy` over `xᵀ` ([`Matrix::matmul_acc_with`], so
    /// each weight's chain skips the samples where its input unit is zero)
    /// and `dx = dy·Wᵀ` over `Wᵀ` ([`Matrix::matmul_dense_into_with`], no
    /// skip).
    ///
    /// The gradient w.r.t. the *input batch* is not computed: training never
    /// consumes it, and skipping it saves one matmul per step without
    /// affecting any parameter gradient.
    // lint: panic-free — entry asserts pin dlogits dims; layer indexing mirrors the forward pass
    // lint: alloc-free — gradient ping/pong buffers grow once; warm epochs are allocation-free per tests/alloc_gate.rs
    pub fn backward_into(
        &mut self,
        cache: &TrainCache,
        dlogits: &Matrix,
        scratch: &mut BackwardScratch,
    ) {
        assert_eq!(cache.acts.len(), self.layers.len() + 1, "cache/net mismatch");
        let n_layers = self.layers.len();
        let tier = Tier::detect();
        scratch.grad.resize(dlogits.rows(), dlogits.cols());
        scratch.grad.data_mut().copy_from_slice(dlogits.data());
        for i in (0..n_layers).rev() {
            if i != n_layers - 1 {
                // Multiply by activation derivative at this layer's output.
                let y = &cache.acts[i + 1];
                let act = self.activation;
                for (g, &out) in scratch.grad.data_mut().iter_mut().zip(y.data()) {
                    *g *= act.derivative_from_output(out);
                }
            }
            let layer = &mut self.layers[i];
            cache.acts[i].transpose_into(&mut scratch.xt);
            scratch.xt.matmul_acc_with(tier, &scratch.grad, &mut layer.gw);
            scratch.grad.col_sums_acc(&mut layer.gb);
            if i > 0 {
                layer.w.transpose_into(&mut scratch.wt);
                scratch.grad.matmul_dense_into_with(tier, &scratch.wt, &mut scratch.tmp);
                std::mem::swap(&mut scratch.grad, &mut scratch.tmp);
            }
        }
    }

    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Clip the global gradient norm to `max_norm` (returns the pre-clip norm).
    // lint: panic-free — the only division is f32 by a norm already checked > max_norm > 0
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let mut sq = 0.0f32;
        for l in &self.layers {
            sq += l.gw.data().iter().map(|g| g * g).sum::<f32>();
            sq += l.gb.iter().map(|g| g * g).sum::<f32>();
        }
        let norm = sq.sqrt();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for l in &mut self.layers {
                for g in l.gw.data_mut() {
                    *g *= scale;
                }
                for g in &mut l.gb {
                    *g *= scale;
                }
            }
        }
        norm
    }

    /// Apply one optimizer step using the accumulated gradients.
    pub fn step<O: Optimizer>(&mut self, opt: &mut O) {
        let mut slot = 0;
        for l in &mut self.layers {
            opt.step(l.w.data_mut(), l.gw.data(), slot);
            slot += 1;
            opt.step(&mut l.b, &l.gb, slot);
            slot += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    fn forward(net: &Mlp, x: &Matrix) -> Matrix {
        net.forward_into(x, &mut MlpScratch::new()).clone()
    }

    /// Mean unweighted cross-entropy of `logits` and its logit gradient.
    fn cross_entropy(logits: &Matrix, targets: &[usize]) -> (f32, Matrix) {
        let mut dlogits = Matrix::default();
        let ce = loss::softmax_cross_entropy_into(logits, targets, None, &mut dlogits);
        (ce, dlogits)
    }

    /// Zero the gradients and backpropagate the cross-entropy of `x` against
    /// `targets` through the scratch path.
    fn backprop(net: &mut Mlp, x: &Matrix, targets: &[usize]) {
        let mut cache = TrainCache::new();
        cache.input_mut(x.rows(), x.cols()).data_mut().copy_from_slice(x.data());
        net.forward_train(&mut cache);
        let (_, dlogits) = cross_entropy(cache.logits(), targets);
        net.zero_grad();
        net.backward_into(&cache, &dlogits, &mut BackwardScratch::new());
    }

    /// An allocating backprop, the reference [`Mlp::backward_into`] must match
    /// bit for bit: every activation kept in a fresh matrix, then per layer
    /// from the top `gw += xᵀ·dy` summed from zero and then added,
    /// `gb += col_sums(dy)`, and `dx = dy·Wᵀ`.  Zeroes the gradients first;
    /// returns the loss and the logits.
    fn reference_backprop(net: &mut Mlp, x: &Matrix, targets: &[usize]) -> (f32, Matrix) {
        let (act, last) = (net.activation, net.layers.len() - 1);
        let mut acts = vec![x.clone()];
        for (i, layer) in net.layers.iter().enumerate() {
            let mut h = Matrix::default();
            acts[i].matmul_into(&layer.w, &mut h);
            h.add_row_broadcast(&layer.b);
            if i != last {
                h.map_inplace(|v| act.apply(v));
            }
            acts.push(h);
        }
        let (ce, mut grad) = cross_entropy(&acts[last + 1], targets);
        net.zero_grad();
        for (i, layer) in net.layers.iter_mut().enumerate().rev() {
            if i != last {
                for (g, &y) in grad.data_mut().iter_mut().zip(acts[i + 1].data()) {
                    *g *= act.derivative_from_output(y);
                }
            }
            let (mut xt, mut gw) = (Matrix::default(), Matrix::default());
            acts[i].transpose_into(&mut xt);
            xt.matmul_into(&grad, &mut gw);
            for (g, n) in layer.gw.data_mut().iter_mut().zip(gw.data()) {
                *g += n;
            }
            let mut gb = vec![0.0f32; grad.cols()];
            grad.col_sums_acc(&mut gb);
            for (g, n) in layer.gb.iter_mut().zip(gb) {
                *g += n;
            }
            let (mut wt, mut dx) = (Matrix::default(), Matrix::default());
            layer.w.transpose_into(&mut wt);
            grad.matmul_dense_into_with(Tier::detect(), &wt, &mut dx);
            grad = dx;
        }
        (ce, acts.pop().unwrap())
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn forward_shapes() {
        let net = Mlp::new(&[5, 8, 3], Activation::Relu, &mut rng());
        let x = Matrix::zeros(4, 5);
        let y = forward(&net, &x);
        assert_eq!((y.rows(), y.cols()), (4, 3));
    }

    #[test]
    fn identity_two_layer_is_linear() {
        let mut r = rng();
        let net = Mlp::new(&[3, 2], Activation::Identity, &mut r);
        let x1 = Matrix::from_vec(1, 3, vec![1.0, 0.0, 0.0]);
        let x2 = Matrix::from_vec(1, 3, vec![0.0, 1.0, 0.0]);
        let x12 = Matrix::from_vec(1, 3, vec![1.0, 1.0, 0.0]);
        // Linearity: f(x1 + x2) - f(0) == (f(x1) - f(0)) + (f(x2) - f(0)).
        let zero = Matrix::zeros(1, 3);
        let f0 = forward(&net, &zero);
        let f1 = forward(&net, &x1);
        let f2 = forward(&net, &x2);
        let f12 = forward(&net, &x12);
        for c in 0..2 {
            let lhs = f12.get(0, c) - f0.get(0, c);
            let rhs = (f1.get(0, c) - f0.get(0, c)) + (f2.get(0, c) - f0.get(0, c));
            assert!((lhs - rhs).abs() < 1e-5);
        }
    }

    /// Numerical gradient check: backprop must agree with finite differences.
    #[test]
    #[cfg_attr(miri, ignore = "finite-difference/SGD loops; minutes-long under Miri")]
    fn gradient_check_cross_entropy() {
        let mut r = rng();
        let mut net = Mlp::new(&[4, 6, 3], Activation::Tanh, &mut r);
        let x = Matrix::from_vec(2, 4, vec![0.5, -1.0, 0.25, 2.0, -0.5, 0.3, 1.5, -0.7]);
        let targets = [0usize, 2];
        backprop(&mut net, &x, &targets);

        // Analytic grads snapshot.
        let analytic: Vec<f32> = net
            .layers
            .iter()
            .flat_map(|l| l.gw.data().iter().chain(l.gb.iter()).copied().collect::<Vec<_>>())
            .collect();

        // Numeric grads via central differences on every 7th parameter
        // (checking all ~50 is also fine, this is just faster).
        let eps = 1e-3f32;
        let mut idx = 0usize;
        let mut checked = 0;
        for li in 0..net.layers.len() {
            let wlen = net.layers[li].w.data().len();
            let blen = net.layers[li].b.len();
            for k in 0..(wlen + blen) {
                if idx.is_multiple_of(3) {
                    let read = |net: &Mlp, k: usize| {
                        if k < wlen {
                            net.layers[li].w.data()[k]
                        } else {
                            net.layers[li].b[k - wlen]
                        }
                    };
                    let write = |net: &mut Mlp, k: usize, v: f32| {
                        if k < wlen {
                            net.layers[li].w.data_mut()[k] = v;
                        } else {
                            net.layers[li].b[k - wlen] = v;
                        }
                    };
                    let orig = read(&net, k);
                    write(&mut net, k, orig + eps);
                    let (lp, _) = cross_entropy(&forward(&net, &x), &targets);
                    write(&mut net, k, orig - eps);
                    let (lm, _) = cross_entropy(&forward(&net, &x), &targets);
                    write(&mut net, k, orig);
                    let numeric = (lp - lm) / (2.0 * eps);
                    let ana = analytic[idx];
                    assert!(
                        (numeric - ana).abs() < 2e-2 * (1.0 + numeric.abs().max(ana.abs())),
                        "param {idx}: numeric {numeric} vs analytic {ana}"
                    );
                    checked += 1;
                }
                idx += 1;
            }
        }
        assert!(checked > 10, "gradient check covered too few parameters");
    }

    #[test]
    fn grad_clipping_bounds_norm() {
        let mut r = rng();
        let mut net = Mlp::new(&[4, 8, 3], Activation::Relu, &mut r);
        let x = Matrix::from_vec(1, 4, vec![10.0, -10.0, 5.0, 3.0]);
        backprop(&mut net, &x, &[1]);
        net.clip_grad_norm(0.01);
        let mut sq = 0.0f32;
        for l in net.layers() {
            sq += l.gw.data().iter().map(|g| g * g).sum::<f32>();
            sq += l.gb.iter().map(|g| g * g).sum::<f32>();
        }
        assert!(sq.sqrt() <= 0.011);
    }

    #[test]
    fn forward_into_reuses_scratch_across_batch_sizes() {
        let mut r = rng();
        for dims in [&[5usize, 8, 3][..], &[4, 21][..], &[6, 16, 16, 7][..]] {
            let net = Mlp::new(dims, Activation::Relu, &mut r);
            let mut scratch = MlpScratch::new();
            // Reuse the same scratch across varying batch sizes: stale shapes
            // or contents must never leak into the output.
            for batch in [3usize, 1, 5] {
                let mut x = Matrix::zeros(batch, dims[0]);
                for (i, v) in x.data_mut().iter_mut().enumerate() {
                    *v = (i as f32 * 0.37).sin();
                }
                let reference = forward(&net, &x);
                let out = net.forward_into(&x, &mut scratch);
                assert_eq!(reference.data(), out.data());
                assert_eq!((out.rows(), out.cols()), (batch, *dims.last().unwrap()));
            }
        }
    }

    #[test]
    fn staged_shared_last_batch_is_bit_identical_to_materialized_forward() {
        // The batching contract: stacking several shared-prefix groups
        // (streams) into one staged matrix and finishing with a single tail
        // pass must reproduce `forward` on each group's materialized batch
        // bit-for-bit — including ragged group sizes, zeros in both the
        // prefix and the last column (the zero-skip), and a single-layer
        // (linear) net.
        let mut r = rng();
        for dims in [&[6usize, 8, 8, 4][..], &[5, 21][..], &[4, 16, 3][..]] {
            let net = Mlp::new(dims, Activation::Relu, &mut r);
            let f = dims[0];
            let groups: Vec<(Vec<f32>, Vec<f32>)> = (0..4)
                .map(|g| {
                    let shared: Vec<f32> =
                        (0..f - 1)
                            .map(|i| {
                                if (i + g) % 3 == 0 {
                                    0.0
                                } else {
                                    ((i + 7 * g) as f32 * 0.37).sin()
                                }
                            })
                            .collect();
                    let lasts: Vec<f32> = (0..=g)
                        .map(|i| if i == 2 { 0.0 } else { (i as f32 - 0.8) * 1.3 })
                        .collect();
                    (shared, lasts)
                })
                .collect();
            let total: usize = groups.iter().map(|(_, l)| l.len()).sum();

            let mut batch_scratch = MlpScratch::new();
            let mut partial = Vec::new();
            let staged = batch_scratch.staged_rows_mut(total, net.layers()[0].out_dim());
            let mut row0 = 0;
            for (shared, lasts) in &groups {
                net.first_layer_shared_last_rows(shared, lasts, &mut partial, staged, row0);
                row0 += lasts.len();
            }
            let out = net.forward_staged_into(&mut batch_scratch);
            assert_eq!((out.rows(), out.cols()), (total, *dims.last().unwrap()));
            let flat = out.data().to_vec();
            let cols = *dims.last().unwrap();

            let mut row0 = 0;
            for (shared, lasts) in &groups {
                let mut batch = Matrix::zeros(lasts.len(), f);
                for (i, &l) in lasts.iter().enumerate() {
                    batch.row_mut(i)[..f - 1].copy_from_slice(shared);
                    batch.row_mut(i)[f - 1] = l;
                }
                let reference = forward(&net, &batch);
                assert_eq!(
                    reference.data(),
                    &flat[row0 * cols..(row0 + lasts.len()) * cols],
                    "group at staged row {row0} diverged"
                );
                row0 += lasts.len();
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "finite-difference/SGD loops; minutes-long under Miri")]
    fn train_scratch_path_is_bit_identical_to_allocating_path() {
        let mut r = rng();
        for dims in [&[5usize, 8, 3][..], &[4, 21][..], &[6, 16, 16, 7][..]] {
            let mut net = Mlp::new(dims, Activation::Relu, &mut r);
            let mut reference = net.clone();
            let mut cache = TrainCache::new();
            let mut scratch = BackwardScratch::new();
            let mut dlogits_buf = Matrix::zeros(0, 0);
            // Reuse the same scratch across varying batch sizes: stale shapes
            // or contents must never leak into the gradients.
            for batch in [3usize, 1, 5] {
                let mut x = Matrix::zeros(batch, dims[0]);
                for (i, v) in x.data_mut().iter_mut().enumerate() {
                    *v = (i as f32 * 0.53).sin();
                }
                let targets: Vec<usize> = (0..batch).map(|i| i % dims.last().unwrap()).collect();

                let (ref_ce, ref_logits) = reference_backprop(&mut reference, &x, &targets);

                // Scratch path.
                cache.input_mut(batch, dims[0]).data_mut().copy_from_slice(x.data());
                net.forward_train(&mut cache);
                let ce = loss::softmax_cross_entropy_into(
                    cache.logits(),
                    &targets,
                    None,
                    &mut dlogits_buf,
                );
                net.zero_grad();
                net.backward_into(&cache, &dlogits_buf, &mut scratch);

                assert_eq!(ce.to_bits(), ref_ce.to_bits());
                assert_eq!(bits(cache.logits().data()), bits(ref_logits.data()));
                for (a, b) in net.layers().iter().zip(reference.layers()) {
                    assert_eq!(bits(a.gw.data()), bits(b.gw.data()));
                    assert_eq!(bits(&a.gb), bits(&b.gb));
                }
            }
        }
    }
}
