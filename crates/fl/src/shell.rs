//! Model shells: the buffers a fit or an evaluation runs on, owned by
//! whatever bounds concurrency rather than by whoever has data.
//!
//! A client is its shard and its shuffle stream. Everything else a fit
//! touches — parameters, gradients, the tensor arena, the layers' scratch,
//! the optimizer's velocity, the batch being gathered — is overwritten or
//! re-zeroed before it is read, so nothing in it belongs to one client:
//! it belongs to the lane the fit runs on. [`FlServer`](crate::FlServer)
//! keeps one [`TrainShell`] per fan-out lane and lends it to each client
//! the lane fits; `unifyfl-core` keeps one [`EvalShell`] per cluster lane
//! for every evaluation and scoring pass made on that lane. The two are kept
//! apart because they warm to different sizes: a training arena holds one
//! mini-batch of activations, an evaluation arena a 256-sample chunk (for
//! the paper's CNN a training shell is ≈ 0.84 MB, three quarters of it
//! parameters, gradients and velocity; an evaluation shell ≈ 2.8 MB, nine
//! tenths of it arena).
//!
//! **Neutrality** is the contract: a call through a shell returns the same
//! bits whatever the shell ran before — another client, another batch
//! size, weights that overflowed to NaN — because every buffer is written
//! whole before it is read (`set_flat_params`, `zero_grads`, the arena's
//! zero-filled `take`, [`Sgd::restart`]). The tests below poison a shell
//! and compare it with a fresh one.

use unifyfl_data::Dataset;
use unifyfl_tensor::optim::Sgd;
use unifyfl_tensor::zoo::ModelSpec;
use unifyfl_tensor::{Sequential, Tensor};

use crate::client::EvalResult;

/// A lane's training buffers. Starts empty; the first client fitted on it
/// builds the model for its spec (a client of another spec rebuilds it).
#[derive(Default)]
pub struct TrainShell {
    loaded: Option<Loaded>,
}

/// A built training shell, handed to a fit field by field.
pub(crate) struct Loaded {
    spec: ModelSpec,
    pub(crate) model: Sequential,
    pub(crate) opt: Sgd,
    /// The mini-batch being trained on.
    pub(crate) x: Tensor,
    pub(crate) labels: Vec<usize>,
}

impl TrainShell {
    /// The shell as a fit of `spec`'s model must find it: parameters
    /// loaded from `weights`, the optimizer restarted at `lr`.
    ///
    /// Plain SGD, per §4.1.3 of the paper. Momentum would let local
    /// models drift far enough apart that parameter averaging across NIID
    /// clusters collapses.
    ///
    /// # Panics
    ///
    /// Panics if `weights` does not match the spec's parameter count or
    /// `lr` is not positive.
    pub(crate) fn load(&mut self, spec: &ModelSpec, weights: &[f32], lr: f32) -> &mut Loaded {
        let kept = self.loaded.take().filter(|l| l.spec == *spec);
        let loaded = self.loaded.insert(kept.unwrap_or_else(|| Loaded {
            spec: spec.clone(),
            model: spec.build_zeroed(),
            opt: Sgd::new(lr, 0.0),
            x: Tensor::zeros(vec![]),
            labels: Vec::new(),
        }));
        loaded.model.set_flat_params(weights);
        loaded.opt.restart(lr);
        loaded
    }
}

/// A lane's evaluation buffers: a model to load weights into, built by
/// the first pass for its spec (a pass for another spec rebuilds it), and
/// the chunk of samples being scored. Warm from the second pass on.
pub struct EvalShell {
    model: Option<(ModelSpec, Sequential)>,
    x: Tensor,
}

impl Default for EvalShell {
    fn default() -> Self {
        EvalShell {
            model: None,
            x: Tensor::zeros(vec![]),
        }
    }
}

impl EvalShell {
    /// Loads `weights` into `spec`'s model and evaluates them on `data`.
    /// The model is built zeroed, with no random draw: every parameter is
    /// loaded before it is read.
    ///
    /// # Panics
    ///
    /// Panics if `weights` does not match the spec's parameter count.
    pub fn evaluate(&mut self, spec: &ModelSpec, weights: &[f32], data: &Dataset) -> EvalResult {
        let kept = self.model.take().filter(|(built, _)| built == spec);
        let (_, model) = self
            .model
            .insert(kept.unwrap_or_else(|| (spec.clone(), spec.build_zeroed())));
        model.set_flat_params(weights);
        evaluate_chunks(model, &mut self.x, data)
    }
}

/// Evaluates `model` over `data` in chunks gathered into `x`
/// (memory-bounded). The per-chunk `f32` means and their `f64`
/// recombination are part of the byte contract, so the chunk size is fixed.
pub(crate) fn evaluate_chunks(
    model: &mut Sequential,
    x: &mut Tensor,
    data: &Dataset,
) -> EvalResult {
    const EVAL_CHUNK: usize = 256;
    if data.is_empty() {
        return EvalResult {
            loss: 0.0,
            accuracy: 0.0,
            num_examples: 0,
        };
    }
    let mut loss_sum = 0.0f64;
    let mut correct = 0usize;
    for start in (0..data.len()).step_by(EVAL_CHUNK) {
        let end = (start + EVAL_CHUNK).min(data.len());
        let labels = data.range_into(start..end, x);
        let (loss, acc) = model.evaluate_batch(x, labels);
        loss_sum += loss as f64 * labels.len() as f64;
        correct += (acc as f64 * labels.len() as f64).round() as usize;
    }
    EvalResult {
        loss: loss_sum / data.len() as f64,
        accuracy: correct as f64 / data.len() as f64,
        num_examples: data.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{FitConfig, FitResult, FlClient, InMemoryClient};
    use unifyfl_data::SyntheticConfig;
    use unifyfl_tensor::zoo::InputKind;

    /// The two architectures with a shard each and the batch size the
    /// neutrality cases train at.
    fn cases() -> Vec<(ModelSpec, Dataset, usize)> {
        let mut flat = SyntheticConfig::cifar10_like(300);
        flat.input = InputKind::Flat(16);
        flat.n_classes = 4;
        vec![
            (ModelSpec::mlp(16, vec![32], 4), flat.generate(6), 16),
            (
                ModelSpec::small_cnn(10),
                SyntheticConfig::cifar10_like(60).generate(6),
                5,
            ),
        ]
    }

    fn assert_same_fit(got: &FitResult, want: &FitResult, what: &str) {
        assert_eq!(got.num_examples, want.num_examples, "{what}");
        assert_eq!(
            got.train_loss.to_bits(),
            want.train_loss.to_bits(),
            "{what}"
        );
        assert_eq!(got.weights.len(), want.weights.len(), "{what}");
        for (a, b) in got.weights.iter().zip(&want.weights) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}");
        }
    }

    #[test]
    fn a_poisoned_training_shell_fits_like_a_fresh_one() {
        for (spec, data, batch_size) in cases() {
            let config = FitConfig {
                epochs: 2,
                batch_size,
                learning_rate: 0.05,
                round: 1,
            };
            let init = spec.build(3).flat_params();
            let mut fresh = InMemoryClient::new(spec.clone(), data.clone(), 11);
            let mut reused = InMemoryClient::new(spec.clone(), data.clone(), 11);

            // Poison: another client's fit from all-NaN weights at another
            // batch size. Every parameter, every gradient and the whole
            // velocity end up NaN, the arena's pooled activations, the
            // convolution's scratch and the batch buffer are NaN-derived
            // garbage shaped for 7 samples, and the last backward left
            // `grad_w` un-zeroed.
            let mut shell = TrainShell::default();
            let poison = vec![f32::NAN; init.len()];
            let mut other =
                InMemoryClient::new(spec.clone(), data.subset(&[0, 1, 2, 3, 4, 5, 6, 7, 8]), 5);
            let poisoned = other.fit_in(
                &mut shell,
                &poison,
                &FitConfig {
                    batch_size: 7,
                    learning_rate: 0.5,
                    ..config
                },
            );
            assert!(poisoned.weights.iter().all(|w| w.is_nan()), "{}", spec.name);

            // Two fits in a row: the second starts from evolved weights and
            // an advanced shuffle stream, on the shell the first one left.
            let mut weights = init;
            for round in 0..2 {
                let want = fresh.fit(&weights, &config);
                let got = reused.fit_in(&mut shell, &weights, &config);
                assert_same_fit(&got, &want, &format!("{} fit {round}", spec.name));
                weights = want.weights;
            }
        }
    }

    #[test]
    fn a_shell_is_rebuilt_for_a_client_of_another_spec() {
        let config = FitConfig {
            epochs: 1,
            batch_size: 8,
            learning_rate: 0.05,
            round: 1,
        };
        let mut shell = TrainShell::default();
        for (spec, data, _) in cases().into_iter().chain(cases()) {
            let init = spec.build(3).flat_params();
            let want = InMemoryClient::new(spec.clone(), data.clone(), 2).fit(&init, &config);
            let got = InMemoryClient::new(spec.clone(), data, 2).fit_in(&mut shell, &init, &config);
            assert_same_fit(&got, &want, &spec.name);
        }
    }

    #[test]
    fn a_poisoned_evaluation_shell_scores_like_a_fresh_one() {
        // One shell through both architectures: the second finds the
        // first one's model and must rebuild, not reuse, it.
        let mut shell = EvalShell::default();
        for (spec, data, _) in cases() {
            let weights = spec.build(9).flat_params();
            // Poison: NaN weights over a 9-sample chunk — NaN parameters,
            // NaN activations pooled at another batch size.
            let poison = vec![f32::NAN; weights.len()];
            shell.evaluate(&spec, &poison, &data.subset(&[0, 1, 2, 3, 4, 5, 6, 7, 8]));

            // Twice: the second pass runs on the arena the first one warmed.
            for _ in 0..2 {
                let want = crate::client::evaluate_weights(&spec, &weights, &data);
                let got = shell.evaluate(&spec, &weights, &data);
                assert_eq!(got.loss.to_bits(), want.loss.to_bits(), "{}", spec.name);
                assert_eq!(got.accuracy.to_bits(), want.accuracy.to_bits());
                assert_eq!(got.num_examples, want.num_examples);
            }
        }
    }
}
