//! Pure-Rust neural-network substrate for the UnifyFL reproduction.
//!
//! The paper trains real models (a 62 K-param CNN, VGG16) with
//! PyTorch/Flower; the reproduction rules require building the substrate
//! from scratch. This crate provides:
//!
//! - [`tensor`] — dense `f32` tensors (cache-blocked matmul kernels,
//!   transpose, reductions);
//! - [`arena`] — recycled tensor buffers backing the zero-allocation
//!   training hot path;
//! - [`layers`] — [`layers::Dense`], [`layers::Conv2d`], [`layers::Relu`],
//!   [`layers::Flatten`] with hand-written, finite-difference-tested
//!   backward passes;
//! - [`model`] — [`Sequential`] stacks with flat-parameter views for FL
//!   weight exchange;
//! - [`loss`] — fused softmax cross-entropy;
//! - [`optim`] — [`optim::Sgd`] (client optimizer) and [`optim::Yogi`]
//!   (FedYogi server optimizer);
//! - [`weights`] — wire serialization of weight vectors (the bytes stored
//!   on IPFS);
//! - [`delta`] — bit-exact delta encoding of a weight vector against a
//!   base model (the payload behind the storage layer's
//!   `(base_cid, delta_cid)` references);
//! - [`zoo`] — the paper's model specs, including the VGG16 cost proxy;
//! - [`metrics`] — accuracy and weighted-mean accumulators.
//!
//! # Example
//!
//! ```
//! use unifyfl_tensor::zoo::ModelSpec;
//! use unifyfl_tensor::Tensor;
//!
//! let spec = ModelSpec::mlp(4, vec![8], 3);
//! let mut model = spec.build(42);
//! let x = Tensor::zeros(vec![2, 4]);
//! let logits = model.forward(&x, false);
//! assert_eq!(logits.shape(), &[2, 3]);
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod delta;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod optim;
pub mod tensor;
pub mod weights;
pub mod zoo;

pub use delta::{apply_to_blob, delta_from_bytes, delta_to_bytes, DeltaDecodeError};
pub use model::Sequential;
pub use tensor::Tensor;
pub use weights::{weights_from_bytes, weights_to_bytes};
pub use zoo::ModelSpec;
