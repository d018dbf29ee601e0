//! Optimizers over flat parameter vectors.
//!
//! [`Sgd`] is the clients' local optimizer (paper §4.1.3: SGD, lr = 0.01).
//! [`Yogi`] is the server-side adaptive optimizer behind the FedYogi
//! strategy (Reddi et al., "Adaptive Federated Optimization"): it treats the
//! difference between the aggregated model and the current server model as
//! a pseudo-gradient and adapts per-coordinate step sizes with a
//! sign-corrected second-moment update.

use crate::model::Sequential;

/// Plain SGD with optional momentum.
///
/// One update rule, two ways to reach the parameters: [`Sgd::step`] over a
/// flat parameter vector (what weight exchange and the server side hold)
/// and [`Sgd::step_model`] over a model's own tensors (what a training loop
/// holds). The velocity buffer is laid out in the model's flat order either
/// way, so the two are interchangeable step by step, bit for bit.
///
/// The velocity is updated even at `momentum == 0.0`, where `v = 0·v + g`
/// looks like `v = g`: it is not once a gradient has overflowed (`0 · ∞`
/// is NaN, and the step after an `∞` gradient must keep saying so).
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive or `momentum` is outside `[0, 1)`.
    pub fn new(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }

    /// The learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Starts a new optimisation run at `lr` on the buffers of the last
    /// one: the velocity reads `+0.0` everywhere, exactly as [`Sgd::new`]
    /// leaves it, without being reallocated. (Zeroed rather than carried
    /// even at `momentum == 0.0`: `0 · v` is NaN where the last run left
    /// `∞` or NaN.)
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive.
    pub fn restart(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
        self.velocity.fill(0.0);
    }

    /// Applies one step: `params -= lr * v` with
    /// `v = momentum * v + grads`.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != grads.len()`.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        self.size_velocity(params.len());
        update(self.lr, self.momentum, params, grads, &mut self.velocity);
    }

    /// [`Sgd::step`] applied to `model`'s parameters where they live, from
    /// the gradients its last backward pass left in the layers — the same
    /// arithmetic on the same elements in the same order as extracting
    /// both flat views, stepping, and writing the parameters back, without
    /// the three model-sized copies.
    pub fn step_model(&mut self, model: &mut Sequential) {
        self.size_velocity(model.param_count());
        let Sgd {
            lr,
            momentum,
            velocity,
        } = self;
        let mut offset = 0;
        model.for_each_param_grad(&mut |params, grads| {
            let v = &mut velocity[offset..offset + params.len()];
            update(*lr, *momentum, params, grads, v);
            offset += params.len();
        });
    }

    /// Restarts the velocity at zero whenever the parameter count changes
    /// (the first step included).
    fn size_velocity(&mut self, n: usize) {
        if self.velocity.len() != n {
            self.velocity = vec![0.0; n];
        }
    }
}

/// The SGD update over one run of parameters and its velocity.
fn update(lr: f32, momentum: f32, params: &mut [f32], grads: &[f32], velocity: &mut [f32]) {
    for ((p, g), v) in params.iter_mut().zip(grads).zip(velocity) {
        *v = momentum * *v + g;
        *p -= lr * *v;
    }
}

/// Yogi server optimizer (FedYogi).
#[derive(Debug, Clone)]
pub struct Yogi {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Yogi {
    /// Creates a Yogi optimizer with the FedYogi paper defaults
    /// (β₁ = 0.9, β₂ = 0.99, τ = 1e-3).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive.
    pub fn new(lr: f32) -> Self {
        Self::with_params(lr, 0.9, 0.99, 1e-3)
    }

    /// Creates a Yogi optimizer with explicit hyper-parameters.
    ///
    /// # Panics
    ///
    /// Panics if `lr` or `eps` is not positive, or betas are outside `[0,1)`.
    pub fn with_params(lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!(eps > 0.0, "eps must be positive");
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2));
        Yogi {
            lr,
            beta1,
            beta2,
            eps,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one Yogi step along `pseudo_grad` (typically
    /// `current - aggregated` so the server moves *toward* the aggregate):
    ///
    /// ```text
    /// m ← β₁ m + (1-β₁) g
    /// v ← v - (1-β₂) sign(v - g²) g²
    /// θ ← θ - lr · m / (√v + ε)
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != pseudo_grad.len()`.
    pub fn step(&mut self, params: &mut [f32], pseudo_grad: &[f32]) {
        assert_eq!(
            params.len(),
            pseudo_grad.len(),
            "params/grad length mismatch"
        );
        if self.m.len() != params.len() {
            self.m = vec![0.0; params.len()];
            self.v = vec![self.eps * self.eps; params.len()];
        }
        for i in 0..params.len() {
            let g = pseudo_grad[i];
            let g2 = g * g;
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] -= (1.0 - self.beta2) * (self.v[i] - g2).signum() * g2;
            params[i] -= self.lr * self.m[i] / (self.v[i].max(0.0).sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = ||x||² with gradient 2x.
    fn quadratic_grad(x: &[f32]) -> Vec<f32> {
        x.iter().map(|v| 2.0 * v).collect()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1, 0.0);
        let mut x = vec![5.0f32, -3.0, 2.0];
        for _ in 0..100 {
            let g = quadratic_grad(&x);
            opt.step(&mut x, &g);
        }
        assert!(x.iter().all(|v| v.abs() < 1e-3), "{x:?}");
    }

    #[test]
    fn step_model_is_bitwise_the_flat_step() {
        use crate::zoo::ModelSpec;
        use crate::Tensor;
        // Same model twice, one stepped in place and one through the flat
        // views, with momentum so the velocity layout matters — and an
        // overflowed gradient on the way (the middle batch's input is
        // huge), after which both must agree that the weights are NaN.
        let spec = ModelSpec::mlp(6, vec![5], 3);
        let (mut in_place, mut flat) = (spec.build(4), spec.build(4));
        let (mut opt_a, mut opt_b) = (Sgd::new(0.05, 0.5), Sgd::new(0.05, 0.5));
        for scale in [1.0f32, 1.0, 3.0e38, 1.0] {
            let x = Tensor::from_vec(
                vec![2, 6],
                (0..12).map(|i| (i as f32 - 5.5) * 0.2 * scale).collect(),
            );
            let la = in_place.train_batch(&x, &[0, 2]);
            opt_a.step_model(&mut in_place);

            let lb = flat.train_batch(&x, &[0, 2]);
            let (grads, mut params) = (flat.flat_grads(), flat.flat_params());
            opt_b.step(&mut params, &grads);
            flat.set_flat_params(&params);

            assert!(la.to_bits() == lb.to_bits() || (la.is_nan() && lb.is_nan()));
            for (a, b) in in_place.flat_params().iter().zip(&params) {
                assert!(a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()));
            }
        }
        assert!(in_place.flat_params().iter().any(|p| p.is_nan()));
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let run = |momentum: f32| {
            let mut opt = Sgd::new(0.01, momentum);
            let mut x = vec![10.0f32];
            for _ in 0..50 {
                let g = quadratic_grad(&x);
                opt.step(&mut x, &g);
            }
            x[0].abs()
        };
        assert!(run(0.9) < run(0.0), "momentum should converge faster here");
    }

    #[test]
    fn yogi_converges_on_quadratic() {
        let mut opt = Yogi::new(0.5);
        let mut x = vec![5.0f32, -3.0];
        for _ in 0..300 {
            let g = quadratic_grad(&x);
            opt.step(&mut x, &g);
        }
        assert!(x.iter().all(|v| v.abs() < 0.1), "{x:?}");
    }

    #[test]
    fn yogi_step_is_bounded_by_lr_scale() {
        // Adaptive normalization keeps per-step movement on the order of lr.
        let mut opt = Yogi::new(0.1);
        let mut x = vec![100.0f32];
        let g = vec![1000.0f32];
        let before = x[0];
        opt.step(&mut x, &g);
        assert!((before - x[0]).abs() < 10.0, "step was {}", before - x[0]);
    }

    #[test]
    fn zero_gradient_is_fixed_point_for_sgd() {
        let mut opt = Sgd::new(0.1, 0.0);
        let mut x = vec![1.0f32, 2.0];
        opt.step(&mut x, &[0.0, 0.0]);
        assert_eq!(x, vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn sgd_length_mismatch_panics() {
        let mut opt = Sgd::new(0.1, 0.0);
        let mut x = vec![1.0f32];
        opt.step(&mut x, &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn invalid_lr_panics() {
        let _ = Sgd::new(0.0, 0.0);
    }
}
