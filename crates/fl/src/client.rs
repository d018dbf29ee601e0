//! FL clients, mirroring the `fit` half of Flower's `NumPyClient` contract.
//!
//! A client receives global weights, trains locally for a configured number
//! of epochs, and returns its updated weights together with its example
//! count (the FedAvg weight). Evaluation is not a client's: a run scores
//! weights on an [`EvalShell`] ([`evaluate_weights`] makes one pass). Clients never expose their raw data — only
//! weights and metrics cross the boundary, which is the privacy property
//! the whole system is built around.

use rand::rngs::StdRng;
use rand::SeedableRng;
use unifyfl_data::Dataset;
use unifyfl_tensor::zoo::ModelSpec;
use unifyfl_tensor::{Sequential, Tensor};

use crate::shell::{evaluate_chunks, EvalShell, Loaded, TrainShell};

/// Per-round training instructions sent by the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitConfig {
    /// Local epochs to run (Table 4: 2).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Global round number (for logging/seeding).
    pub round: u64,
}

/// Result of a local fit.
#[derive(Debug, Clone, PartialEq)]
pub struct FitResult {
    /// Updated local weights.
    pub weights: Vec<f32>,
    /// Number of local training examples (FedAvg weight).
    pub num_examples: usize,
    /// Mean training loss over the final epoch.
    pub train_loss: f64,
}

/// Result of a local evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResult {
    /// Mean loss on the client's data.
    pub loss: f64,
    /// Accuracy on the client's data.
    pub accuracy: f64,
    /// Number of examples evaluated.
    pub num_examples: usize,
}

/// A federated-learning client: Flower's `fit`, without its `evaluate`
/// (see the module doc).
pub trait FlClient: Send {
    /// Trains locally starting from `weights` and returns the update.
    fn fit(&mut self, weights: &[f32], config: &FitConfig) -> FitResult;

    /// [`FlClient::fit`] on buffers the caller owns and lends to one fit
    /// after another — what [`FlServer`](crate::FlServer) calls, with the
    /// shell of the lane the client was dealt to. The result is `fit`'s,
    /// bit for bit, whatever the shell ran before. Defaults to `fit` for
    /// clients that train no model of their own.
    fn fit_in(&mut self, shell: &mut TrainShell, weights: &[f32], config: &FitConfig) -> FitResult {
        let _ = shell;
        self.fit(weights, config)
    }

    /// Number of local training examples.
    fn num_examples(&self) -> usize;

    /// Applies a label-rotation domain drift to the client's local data
    /// (every label shifted by `shift` classes, modulo the class count).
    /// Defaults to a no-op for clients whose data cannot drift.
    fn rotate_labels(&mut self, shift: usize) {
        let _ = shift;
    }
}

/// A client holding its shard in memory and training a real model: the
/// shard, the shuffle stream over it, and the spec of the model to train.
/// The model itself is not the client's — every fit overwrites all of it —
/// but the [`TrainShell`] of whoever runs the fit.
pub struct InMemoryClient {
    spec: ModelSpec,
    data: Dataset,
    rng: StdRng,
}

/// Separates a client's batch-shuffle stream from the stream its seed
/// names elsewhere (a model built from the same seed).
const SHUFFLE_SALT: u64 = 0xC11E57;

impl InMemoryClient {
    /// Creates a client over a data shard.
    ///
    /// # Panics
    ///
    /// Panics if the shard is empty.
    pub fn new(spec: ModelSpec, data: Dataset, seed: u64) -> Self {
        assert!(!data.is_empty(), "client shard must not be empty");
        InMemoryClient {
            spec,
            data,
            rng: StdRng::seed_from_u64(seed ^ SHUFFLE_SALT),
        }
    }

    /// The model specification this client trains.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The client's local shard (test-only introspection).
    pub fn data(&self) -> &Dataset {
        &self.data
    }
}

impl FlClient for InMemoryClient {
    fn fit(&mut self, weights: &[f32], config: &FitConfig) -> FitResult {
        self.fit_in(&mut TrainShell::default(), weights, config)
    }

    fn fit_in(&mut self, shell: &mut TrainShell, weights: &[f32], config: &FitConfig) -> FitResult {
        let Loaded {
            model,
            opt,
            x,
            labels,
            ..
        } = shell.load(&self.spec, weights, config.learning_rate);
        let mut last_epoch_loss = 0.0f64;
        for _ in 0..config.epochs.max(1) {
            let mut epoch_loss = 0.0f64;
            let mut batches = 0usize;
            let mut epoch = self.data.batches(config.batch_size, &mut self.rng);
            while epoch.next_into(x, labels) {
                // The whole step runs on the shell's own buffers: the batch
                // gathered in place, the arena inside `train_batch`, the
                // parameters stepped where they live — no flat view, no
                // heap allocation (gated by the bench allocation probe,
                // which makes these two calls).
                let loss = model.train_batch(x, labels);
                opt.step_model(model);
                epoch_loss += loss as f64;
                batches += 1;
            }
            last_epoch_loss = epoch_loss / batches.max(1) as f64;
        }
        FitResult {
            weights: model.flat_params(),
            num_examples: self.data.len(),
            train_loss: last_epoch_loss,
        }
    }

    fn num_examples(&self) -> usize {
        self.data.len()
    }

    fn rotate_labels(&mut self, shift: usize) {
        self.data = self.data.rotate_labels(shift);
    }
}

/// Evaluates a model over a dataset in chunks (memory-bounded).
pub fn evaluate_model(model: &mut Sequential, data: &Dataset) -> EvalResult {
    evaluate_chunks(model, &mut Tensor::zeros(vec![]), data)
}

/// Convenience: build a model from `spec`, load `weights`, evaluate on
/// `data` — one pass on an [`EvalShell`] of its own. Callers with many
/// passes to make keep the shell.
///
/// # Panics
///
/// Panics if `weights` does not match the spec's parameter count.
pub fn evaluate_weights(spec: &ModelSpec, weights: &[f32], data: &Dataset) -> EvalResult {
    EvalShell::default().evaluate(spec, weights, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unifyfl_data::SyntheticConfig;
    use unifyfl_tensor::optim::Sgd;

    fn easy_shard(seed: u64) -> (ModelSpec, Dataset) {
        let mut cfg = SyntheticConfig::cifar10_like(300);
        cfg.input = unifyfl_tensor::zoo::InputKind::Flat(16);
        cfg.n_classes = 4;
        cfg.noise_scale = 0.3;
        cfg.label_noise = 0.0;
        let spec = ModelSpec::mlp(16, vec![32], 4);
        (spec, cfg.generate(seed))
    }

    fn config() -> FitConfig {
        FitConfig {
            epochs: 2,
            batch_size: 16,
            learning_rate: 0.05,
            round: 1,
        }
    }

    #[test]
    fn fit_improves_over_initial_weights() {
        let (spec, data) = easy_shard(1);
        let mut client = InMemoryClient::new(spec.clone(), data.clone(), 1);
        let init = spec.build(1).flat_params();
        let before = evaluate_weights(&spec, &init, &data);
        let mut w = init;
        for round in 0..5 {
            let mut c = config();
            c.round = round;
            w = client.fit(&w, &c).weights;
        }
        let after = evaluate_weights(&spec, &w, &data);
        assert!(
            after.accuracy > before.accuracy + 0.2,
            "accuracy {} -> {}",
            before.accuracy,
            after.accuracy
        );
        assert!(after.loss < before.loss);
    }

    #[test]
    fn fit_reports_example_count() {
        let (spec, data) = easy_shard(2);
        let n = data.len();
        let mut client = InMemoryClient::new(spec.clone(), data, 2);
        let w = spec.build(2).flat_params();
        let result = client.fit(&w, &config());
        assert_eq!(result.num_examples, n);
        assert_eq!(client.num_examples(), n);
        assert!(result.train_loss.is_finite());
    }

    #[test]
    fn fit_changes_weights() {
        let (spec, data) = easy_shard(3);
        let mut client = InMemoryClient::new(spec.clone(), data, 3);
        let w = spec.build(3).flat_params();
        let result = client.fit(&w, &config());
        assert_ne!(result.weights, w);
        assert_eq!(result.weights.len(), w.len());
    }

    #[test]
    fn fit_is_bitwise_the_flat_view_loop() {
        // `fit` against the same loop written through the public flat
        // views — gradients out, parameters out, `Sgd::step` on the two
        // vectors, parameters back in — on both architectures, two epochs
        // a fit, two fits in a row (the second starts from evolved weights,
        // a warm model and an advanced shuffle stream).
        let (mlp, flat) = easy_shard(6);
        let images = SyntheticConfig::cifar10_like(30).generate(6);
        for (spec, data, batch_size) in [(mlp, flat, 16), (ModelSpec::small_cnn(10), images, 5)] {
            let seed = 11;
            let config = FitConfig {
                batch_size,
                ..config()
            };
            let mut client = InMemoryClient::new(spec.clone(), data.clone(), seed);
            let mut model = spec.build(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ SHUFFLE_SALT);
            let mut weights = spec.build(3).flat_params();
            for _ in 0..2 {
                let got = client.fit(&weights, &config);

                model.set_flat_params(&weights);
                let mut opt = Sgd::new(config.learning_rate, 0.0);
                let (mut params, mut grads) = (Vec::new(), Vec::new());
                let mut last_epoch_loss = 0.0f64;
                for _ in 0..config.epochs {
                    let batches: Vec<_> = data
                        .batches(config.batch_size, &mut rng)
                        .into_iter()
                        .collect();
                    let mut epoch_loss = 0.0f64;
                    for (x, y) in &batches {
                        epoch_loss += model.train_batch(x, y) as f64;
                        model.flat_grads_into(&mut grads);
                        model.flat_params_into(&mut params);
                        opt.step(&mut params, &grads);
                        model.set_flat_params(&params);
                    }
                    last_epoch_loss = epoch_loss / batches.len() as f64;
                }

                assert_eq!(got.train_loss.to_bits(), last_epoch_loss.to_bits());
                assert_eq!(got.weights.len(), params.len());
                for (a, b) in got.weights.iter().zip(&params) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{}", spec.name);
                }
                weights = got.weights;
            }
        }
    }

    #[test]
    fn rotate_labels_permutes_the_local_task() {
        let (spec, data) = easy_shard(8);
        let before_hist = data.class_histogram();
        let mut client = InMemoryClient::new(spec, data, 8);
        client.rotate_labels(1);
        let after_hist = client.data().class_histogram();
        // The histogram rotates with the labels: class c's count moves to
        // (c + 1) mod n.
        for (c, &count) in before_hist.iter().enumerate() {
            assert_eq!(after_hist[(c + 1) % before_hist.len()], count);
        }
    }

    #[test]
    fn evaluate_weights_is_bitwise_the_seeded_build_with_weights_loaded() {
        // The zeroed shell must be indistinguishable from drawing an
        // initialization and overwriting all of it — on both architectures.
        let (mlp, flat) = easy_shard(5);
        let images = SyntheticConfig::cifar10_like(60).generate(5);
        for (spec, data) in [(mlp, flat), (ModelSpec::small_cnn(10), images)] {
            let w = spec.build(9).flat_params();
            let mut reference = spec.build(0);
            reference.set_flat_params(&w);
            let expected = evaluate_model(&mut reference, &data);
            let got = evaluate_weights(&spec, &w, &data);
            assert_eq!(got.loss.to_bits(), expected.loss.to_bits());
            assert_eq!(got.accuracy.to_bits(), expected.accuracy.to_bits());
            assert_eq!(got.num_examples, expected.num_examples);
        }
    }

    #[test]
    fn evaluate_empty_dataset_is_zero() {
        let spec = ModelSpec::mlp(4, vec![], 2);
        let mut model = spec.build(0);
        let empty = Dataset::new(unifyfl_tensor::zoo::InputKind::Flat(4), 2, vec![], vec![]);
        let r = evaluate_model(&mut model, &empty);
        assert_eq!(r.num_examples, 0);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_shard_rejected() {
        let spec = ModelSpec::mlp(4, vec![], 2);
        let empty = Dataset::new(unifyfl_tensor::zoo::InputKind::Flat(4), 2, vec![], vec![]);
        let _ = InMemoryClient::new(spec, empty, 0);
    }
}
