//! Model zoo: the architectures used in the paper's evaluation.
//!
//! Table 4 of the paper trains a 62 K-parameter CNN on CIFAR-10 (edge
//! cluster) and a 138 M-parameter VGG16 on Tiny ImageNet (GPU cluster). We
//! train real (small) networks for the learning dynamics and separately
//! track a **virtual parameter count** used by the cost model, so the
//! simulated compute/transfer time reflects the paper's model sizes even
//! where the trained proxy is smaller (the VGG16 substitution documented in
//! ARCHITECTURE.md).

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layers::{Conv2d, Dense, Flatten, Relu};
use crate::model::Sequential;

/// Shape of the model's input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputKind {
    /// Flat feature vector of the given dimension.
    Flat(usize),
    /// Image input `[channels, height, width]`.
    Image {
        /// Channels.
        c: usize,
        /// Height.
        h: usize,
        /// Width.
        w: usize,
    },
}

impl InputKind {
    /// Total features per sample.
    pub fn features(&self) -> usize {
        match *self {
            InputKind::Flat(d) => d,
            InputKind::Image { c, h, w } => c * h * w,
        }
    }
}

/// Architecture description, buildable into a [`Sequential`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Architecture {
    /// Multi-layer perceptron with ReLU activations.
    Mlp {
        /// Input feature dimension.
        input_dim: usize,
        /// Hidden layer widths.
        hidden: Vec<usize>,
        /// Output classes.
        classes: usize,
    },
    /// One same-padded conv layer + ReLU + flatten + two dense layers.
    SmallCnn {
        /// Input channels.
        in_c: usize,
        /// Input height.
        h: usize,
        /// Input width.
        w: usize,
        /// Convolution output channels.
        conv_channels: usize,
        /// Hidden dense width.
        hidden: usize,
        /// Output classes.
        classes: usize,
    },
}

/// A complete model specification: architecture + virtual size for the
/// cost model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSpec {
    /// Human-readable name (appears in reports).
    pub name: String,
    /// Buildable architecture.
    pub arch: Architecture,
    /// Parameter count used by the *cost model* (virtual time + wire
    /// bytes). `None` means "use the actual trained parameter count".
    pub virtual_params: Option<u64>,
}

impl ModelSpec {
    /// The paper's edge workload: a small CNN for (synthetic) CIFAR-10.
    /// Actual parameter count ≈ 62 K, matching Table 4 directly.
    pub fn small_cnn(classes: usize) -> Self {
        ModelSpec {
            name: format!("small-cnn-{classes}"),
            arch: Architecture::SmallCnn {
                in_c: 3,
                h: 8,
                w: 8,
                conv_channels: 16,
                hidden: 60,
                classes,
            },
            virtual_params: None,
        }
    }

    /// The paper's GPU workload: VGG16 (138 M params) on Tiny ImageNet. We
    /// train an MLP proxy but charge compute/transfer for 138 M parameters.
    pub fn proxy_vgg16(classes: usize) -> Self {
        ModelSpec {
            name: format!("proxy-vgg16-{classes}"),
            arch: Architecture::Mlp {
                input_dim: 64,
                hidden: vec![256, 128],
                classes,
            },
            virtual_params: Some(138_000_000),
        }
    }

    /// A plain MLP (for tests and custom experiments).
    pub fn mlp(input_dim: usize, hidden: Vec<usize>, classes: usize) -> Self {
        ModelSpec {
            name: format!("mlp-{input_dim}x{hidden:?}x{classes}"),
            arch: Architecture::Mlp {
                input_dim,
                hidden,
                classes,
            },
            virtual_params: None,
        }
    }

    /// Input shape expected by [`ModelSpec::build`].
    pub fn input(&self) -> InputKind {
        match &self.arch {
            Architecture::Mlp { input_dim, .. } => InputKind::Flat(*input_dim),
            Architecture::SmallCnn { in_c, h, w, .. } => InputKind::Image {
                c: *in_c,
                h: *h,
                w: *w,
            },
        }
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        match &self.arch {
            Architecture::Mlp { classes, .. } => *classes,
            Architecture::SmallCnn { classes, .. } => *classes,
        }
    }

    /// Builds the network with deterministic initialization from `seed`.
    pub fn build(&self, seed: u64) -> Sequential {
        self.assemble(Some(StdRng::seed_from_u64(seed)))
    }

    /// Builds the network with every parameter zero and no random draw:
    /// the shell for weights that are about to be loaded with
    /// [`Sequential::set_flat_params`] (evaluation, scoring), where an
    /// initialization would be overwritten before it is read.
    pub fn build_zeroed(&self) -> Sequential {
        self.assemble(None)
    }

    /// The one architecture walk behind [`ModelSpec::build`] (weights
    /// drawn from `rng`, layer by layer in stack order) and
    /// [`ModelSpec::build_zeroed`] (`None`).
    fn assemble(&self, mut rng: Option<StdRng>) -> Sequential {
        fn dense(in_dim: usize, out_dim: usize, rng: &mut Option<StdRng>) -> Dense {
            match rng {
                Some(rng) => Dense::new(in_dim, out_dim, rng),
                None => Dense::zeroed(in_dim, out_dim),
            }
        }
        match &self.arch {
            Architecture::Mlp {
                input_dim,
                hidden,
                classes,
            } => {
                let mut m = Sequential::new();
                let mut prev = *input_dim;
                for &h in hidden {
                    m = m.push(dense(prev, h, &mut rng)).push(Relu::new());
                    prev = h;
                }
                m.push(dense(prev, *classes, &mut rng))
            }
            Architecture::SmallCnn {
                in_c,
                h,
                w,
                conv_channels,
                hidden,
                classes,
            } => Sequential::new()
                .push(match &mut rng {
                    Some(rng) => Conv2d::new(*in_c, *conv_channels, 3, 1, rng),
                    None => Conv2d::zeroed(*in_c, *conv_channels, 3, 1),
                })
                .push(Relu::new())
                .push(Flatten::new())
                .push(dense(conv_channels * h * w, *hidden, &mut rng))
                .push(Relu::new())
                .push(dense(*hidden, *classes, &mut rng)),
        }
    }

    /// Actual trainable parameter count of the built network, in closed
    /// form over the architecture — the cost model asks on every priced
    /// duration, so this must not construct a model. A proptest pins it to
    /// `build(seed).param_count()`.
    pub fn actual_params(&self) -> usize {
        match &self.arch {
            Architecture::Mlp {
                input_dim,
                hidden,
                classes,
            } => {
                let mut prev = *input_dim;
                let mut count = 0;
                for &h in hidden {
                    count += prev * h + h;
                    prev = h;
                }
                count + prev * classes + classes
            }
            Architecture::SmallCnn {
                in_c,
                h,
                w,
                conv_channels,
                hidden,
                classes,
            } => {
                (in_c * conv_channels * 9 + conv_channels)
                    + (conv_channels * h * w * hidden + hidden)
                    + (hidden * classes + classes)
            }
        }
    }

    /// Parameter count the cost model charges for.
    pub fn cost_params(&self) -> u64 {
        self.virtual_params
            .unwrap_or_else(|| self.actual_params() as u64)
    }

    /// Bytes on the wire when the model is stored/transferred (the paper
    /// ships full float32 weights through IPFS).
    pub fn wire_bytes(&self) -> u64 {
        self.cost_params() * 4
    }

    /// Estimated flops for one training step on one sample
    /// (forward ≈ 2·params, backward ≈ 4·params).
    pub fn flops_per_train_sample(&self) -> f64 {
        6.0 * self.cost_params() as f64
    }

    /// Estimated flops for one inference on one sample.
    pub fn flops_per_eval_sample(&self) -> f64 {
        2.0 * self.cost_params() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_cnn_matches_paper_param_count() {
        let spec = ModelSpec::small_cnn(10);
        let actual = spec.actual_params();
        // Table 4 reports "62K" parameters; our CNN lands within 5%.
        assert!(
            (59_000..=65_000).contains(&actual),
            "small CNN has {actual} params, expected ≈62K"
        );
        assert_eq!(spec.cost_params(), actual as u64);
    }

    #[test]
    fn proxy_vgg_charges_virtual_params() {
        let spec = ModelSpec::proxy_vgg16(200);
        assert_eq!(spec.cost_params(), 138_000_000);
        assert_eq!(spec.wire_bytes(), 552_000_000);
        // The trained proxy is much smaller than the charged size.
        assert!(spec.actual_params() < 1_000_000);
        assert_eq!(spec.classes(), 200);
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let spec = ModelSpec::mlp(8, vec![16], 4);
        assert_eq!(spec.build(1).flat_params(), spec.build(1).flat_params());
        assert_ne!(spec.build(1).flat_params(), spec.build(2).flat_params());
    }

    #[test]
    fn zeroed_build_has_the_seeded_shape_and_no_weights() {
        for spec in [ModelSpec::mlp(8, vec![16, 4], 3), ModelSpec::small_cnn(10)] {
            let zeroed = spec.build_zeroed();
            assert_eq!(zeroed.len(), spec.build(1).len());
            assert_eq!(zeroed.flat_params(), vec![0.0; spec.actual_params()]);
        }
    }

    #[test]
    fn built_model_accepts_declared_input() {
        use crate::tensor::Tensor;
        let spec = ModelSpec::small_cnn(10);
        let mut m = spec.build(3);
        let InputKind::Image { c, h, w } = spec.input() else {
            panic!("cnn takes images")
        };
        let out = m.forward(&Tensor::zeros(vec![2, c, h, w]), false);
        assert_eq!(out.shape(), &[2, 10]);
    }

    #[test]
    fn mlp_layer_stack_shape() {
        let spec = ModelSpec::mlp(12, vec![32, 16], 5);
        let m = spec.build(0);
        // Dense+ReLU per hidden layer, plus the head.
        assert_eq!(m.len(), 5);
        assert_eq!(m.param_count(), 12 * 32 + 32 + 32 * 16 + 16 + 16 * 5 + 5);
    }

    #[test]
    fn flops_scale_with_cost_params() {
        let spec = ModelSpec::proxy_vgg16(200);
        assert_eq!(spec.flops_per_train_sample(), 6.0 * 138e6);
        assert_eq!(spec.flops_per_eval_sample(), 2.0 * 138e6);
    }
}
