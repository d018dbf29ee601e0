//! Sequential models and the flat-parameter view used for FL weight
//! exchange.
//!
//! Federated learning moves *weights*, not layers: [`Sequential::flat_params`]
//! and [`Sequential::set_flat_params`] expose every trainable parameter as
//! one `Vec<f32>` in a stable order, which is exactly what gets serialized,
//! stored on IPFS and aggregated by the strategies.

use crate::arena::Arena;
use crate::layers::Layer;
use crate::loss::softmax_cross_entropy_into;
use crate::tensor::Tensor;

/// A feed-forward stack of layers.
///
/// The model owns a tensor [`Arena`] plus loss scratch buffers, so
/// [`Sequential::train_batch`] and [`Sequential::evaluate_batch`] stop
/// allocating once the pools have warmed up (first batch) — every
/// activation, gradient and softmax scratch vector is recycled batch to
/// batch.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    arena: Arena,
    scratch_predictions: Vec<usize>,
    scratch_exps: Vec<f32>,
}

impl Sequential {
    /// Creates an empty model.
    pub fn new() -> Self {
        Sequential {
            layers: Vec::new(),
            arena: Arena::new(),
            scratch_predictions: Vec::new(),
            scratch_exps: Vec::new(),
        }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Forward pass through all layers, on the model's arena: every
    /// intermediate activation is recycled, and the returned tensor is the
    /// caller's ([`Sequential::train_batch`] recycles it too).
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let Sequential { layers, arena, .. } = self;
        let mut x = arena.take_from(input);
        for layer in layers.iter_mut() {
            let next = layer.forward(&x, train, arena);
            arena.recycle(x);
            x = next;
        }
        x
    }

    /// Backward pass through all layers (after a training-mode forward).
    pub fn backward(&mut self, grad_out: &Tensor) {
        let Sequential { layers, arena, .. } = self;
        let grad = arena.take_from(grad_out);
        backpropagate(layers, arena, grad);
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// All parameters flattened into one vector (stable order).
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        self.flat_params_into(&mut out);
        out
    }

    /// [`Sequential::flat_params`] into a caller-owned buffer (cleared and
    /// refilled), so hot loops can reuse one allocation across batches.
    pub fn flat_params_into(&self, out: &mut Vec<f32>) {
        out.clear();
        for layer in &self.layers {
            layer.for_each_param(&mut |p| out.extend_from_slice(p));
        }
    }

    /// All gradients flattened into one vector (same order as
    /// [`Sequential::flat_params`]).
    pub fn flat_grads(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        self.flat_grads_into(&mut out);
        out
    }

    /// [`Sequential::flat_grads`] into a caller-owned buffer (cleared and
    /// refilled), matching [`Sequential::flat_params_into`].
    pub fn flat_grads_into(&self, out: &mut Vec<f32>) {
        out.clear();
        for layer in &self.layers {
            layer.for_each_grad(&mut |g| out.extend_from_slice(g));
        }
    }

    /// Overwrites all parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` does not equal [`Sequential::param_count`].
    pub fn set_flat_params(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.param_count(),
            "flat parameter vector length mismatch"
        );
        let mut offset = 0;
        for layer in &mut self.layers {
            layer.for_each_param_mut(&mut |p| {
                p.copy_from_slice(&flat[offset..offset + p.len()]);
                offset += p.len();
            });
        }
    }

    /// Visits every parameter slice mutably, paired with its gradient
    /// slice, in [`Sequential::flat_params`]' order — the in-place
    /// alternative to a flat-view round trip
    /// ([`Sgd::step_model`](crate::optim::Sgd::step_model)).
    pub(crate) fn for_each_param_grad(&mut self, f: &mut dyn FnMut(&mut [f32], &[f32])) {
        for layer in &mut self.layers {
            layer.for_each_param_grad(f);
        }
    }

    /// One SGD mini-batch step: forward, loss, backward. Gradients are left
    /// in the layers for an optimizer to consume; returns the mean batch
    /// loss.
    ///
    /// Runs entirely on the model's arena — after the first batch at a
    /// given shape, the whole step performs zero heap allocations.
    ///
    /// # Panics
    ///
    /// Panics on shape/label mismatches (see
    /// [`softmax_cross_entropy_into`]).
    pub fn train_batch(&mut self, x: &Tensor, labels: &[usize]) -> f32 {
        self.zero_grads();
        let logits = self.forward(x, true);
        let Sequential {
            layers,
            arena,
            scratch_predictions,
            scratch_exps,
        } = self;
        let mut grad = arena.take(&[0]);
        let loss = softmax_cross_entropy_into(
            &logits,
            labels,
            &mut grad,
            scratch_predictions,
            scratch_exps,
        );
        arena.recycle(logits);
        backpropagate(layers, arena, grad);
        loss
    }

    /// Evaluates mean loss and accuracy on a batch without training.
    ///
    /// Like [`Sequential::train_batch`], allocation-free once the arena has
    /// warmed up.
    pub fn evaluate_batch(&mut self, x: &Tensor, labels: &[usize]) -> (f32, f32) {
        let logits = self.forward(x, false);
        let Sequential {
            arena,
            scratch_predictions,
            scratch_exps,
            ..
        } = self;
        let mut grad = arena.take(&[0]);
        let loss = softmax_cross_entropy_into(
            &logits,
            labels,
            &mut grad,
            scratch_predictions,
            scratch_exps,
        );
        arena.recycle(logits);
        arena.recycle(grad);
        let correct = scratch_predictions
            .iter()
            .zip(labels)
            .filter(|(p, l)| p == l)
            .count();
        (loss, correct as f32 / labels.len().max(1) as f32)
    }
}

/// Runs `grad` back through `layers`, last to first, recycling each
/// gradient once the layer below has consumed it. Nothing consumes layer
/// 0's input gradient, so it is not asked for.
fn backpropagate(layers: &mut [Box<dyn Layer>], arena: &mut Arena, mut grad: Tensor) {
    for (i, layer) in layers.iter_mut().enumerate().rev() {
        if let Some(next) = layer.backward(&grad, i > 0, arena) {
            arena.recycle(std::mem::replace(&mut grad, next));
        }
    }
    arena.recycle(grad);
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("layers", &self.layers.len())
            .field("params", &self.param_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_mlp(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new()
            .push(Dense::new(4, 16, &mut rng))
            .push(Relu::new())
            .push(Dense::new(16, 3, &mut rng))
    }

    /// A linearly separable 3-class toy problem.
    fn toy_batch() -> (Tensor, Vec<usize>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..30 {
            let class = i % 3;
            let mut row = vec![0.1f32; 4];
            row[class] = 1.0 + (i as f32 * 0.01);
            xs.extend(row);
            ys.push(class);
        }
        (Tensor::from_vec(vec![30, 4], xs), ys)
    }

    #[test]
    fn flat_params_round_trip() {
        let mut m = tiny_mlp(1);
        let p = m.flat_params();
        assert_eq!(p.len(), m.param_count());
        let mut modified = p.clone();
        for v in modified.iter_mut() {
            *v += 1.0;
        }
        m.set_flat_params(&modified);
        assert_eq!(m.flat_params(), modified);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_flat_params_rejects_wrong_len() {
        let mut m = tiny_mlp(1);
        m.set_flat_params(&[0.0; 3]);
    }

    #[test]
    fn sgd_training_reduces_loss() {
        let mut m = tiny_mlp(2);
        let (x, y) = toy_batch();
        let lr = 0.5f32;
        let first = m.train_batch(&x, &y);
        for _ in 0..50 {
            let _ = m.train_batch(&x, &y);
            // Manual SGD over the flat views.
            let grads = m.flat_grads();
            let mut params = m.flat_params();
            for (p, g) in params.iter_mut().zip(&grads) {
                *p -= lr * g;
            }
            m.set_flat_params(&params);
        }
        let (final_loss, acc) = m.evaluate_batch(&x, &y);
        assert!(final_loss < first * 0.5, "loss {first} -> {final_loss}");
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn evaluate_does_not_mutate_params() {
        let mut m = tiny_mlp(3);
        let (x, y) = toy_batch();
        let before = m.flat_params();
        let _ = m.evaluate_batch(&x, &y);
        assert_eq!(m.flat_params(), before);
    }

    #[test]
    fn identical_seeds_build_identical_models() {
        let a = tiny_mlp(9).flat_params();
        let b = tiny_mlp(9).flat_params();
        assert_eq!(a, b);
    }

    #[test]
    fn train_batch_matches_unpooled_forward_backward_bitwise() {
        use crate::loss::softmax_cross_entropy;
        // Same seed → identical models; one trains through `train_batch`,
        // the other through the public forward / allocating loss /
        // backward. Losses and gradients must agree bit for bit across
        // repeated batches.
        let mut pooled = tiny_mlp(7);
        let mut plain = tiny_mlp(7);
        let (x, y) = toy_batch();
        for _ in 0..3 {
            let loss = pooled.train_batch(&x, &y);

            plain.zero_grads();
            let logits = plain.forward(&x, true);
            let out = softmax_cross_entropy(&logits, &y);
            plain.backward(&out.grad);

            assert_eq!(loss.to_bits(), out.loss.to_bits());
            let gp = pooled.flat_grads();
            let gq = plain.flat_grads();
            assert_eq!(gp.len(), gq.len());
            for (a, b) in gp.iter().zip(&gq) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn train_batch_on_empty_model_scores_the_input() {
        // No layers: logits are the input itself; the arena path must not
        // choke on the degenerate stack.
        let mut m = Sequential::new();
        let x = Tensor::from_vec(vec![2, 2], vec![5.0, 0.0, 0.0, 5.0]);
        let loss = m.train_batch(&x, &[0, 1]);
        assert!(loss.is_finite() && loss < 0.1);
        let (eval_loss, acc) = m.evaluate_batch(&x, &[0, 1]);
        assert_eq!(eval_loss.to_bits(), loss.to_bits());
        assert!((acc - 1.0).abs() < 1e-6);
    }

    #[test]
    fn flat_into_variants_match_allocating_views() {
        let mut m = tiny_mlp(5);
        let (x, y) = toy_batch();
        let _ = m.train_batch(&x, &y);
        let mut params = vec![99.0f32; 3]; // stale contents must be cleared
        let mut grads = Vec::new();
        m.flat_params_into(&mut params);
        m.flat_grads_into(&mut grads);
        assert_eq!(params, m.flat_params());
        assert_eq!(grads, m.flat_grads());
    }

    #[test]
    fn param_count_sums_layers() {
        let m = tiny_mlp(1);
        assert_eq!(m.param_count(), 4 * 16 + 16 + 16 * 3 + 3);
        assert_eq!(m.len(), 3);
    }
}
