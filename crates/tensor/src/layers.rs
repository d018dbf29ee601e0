//! Neural-network layers with explicit forward/backward passes.
//!
//! Each [`Layer`] caches whatever it needs during `forward(train=true)` and
//! accumulates parameter gradients during `backward`. The [`Dense`] and
//! [`Conv2d`] layers cover the paper's two model classes (the 62 K-param
//! CNN for CIFAR-10 and the MLP proxy for VGG16).

use rand::rngs::StdRng;
use rand::Rng;

use crate::arena::Arena;
use crate::tensor::Tensor;

/// A differentiable layer.
///
/// Every tensor a layer hands back comes from the caller's [`Arena`]: a
/// cold (empty) arena allocates exactly what a fresh tensor would, a warm
/// one serves the same take from a recycled buffer, and the results are
/// bit-identical either way — `take` zero-fills and `take_from` overwrites
/// every element, so stale pooled contents never leak.
pub trait Layer: Send {
    /// Forward pass, with the output taken from `arena`. When `train` is
    /// true the layer caches activations needed by [`Layer::backward`].
    fn forward(&mut self, input: &Tensor, train: bool, arena: &mut Arena) -> Tensor;

    /// Backward pass: consumes the gradient w.r.t. this layer's output,
    /// accumulates parameter gradients, and — when `need_input_grad` —
    /// returns the gradient w.r.t. the input, taken from `arena`. A model's
    /// first layer has no one to hand that gradient to, so
    /// [`Sequential`](crate::Sequential) asks for `None` there and the
    /// layer skips the work; parameter gradients are the same either way.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before a training-mode forward.
    fn backward(
        &mut self,
        grad_out: &Tensor,
        need_input_grad: bool,
        arena: &mut Arena,
    ) -> Option<Tensor>;

    /// Resets accumulated gradients to zero.
    fn zero_grads(&mut self);

    /// Visits every parameter slice, in a stable order, without
    /// allocating — flat-view extraction stays heap-silent. Required, not
    /// defaulted: a parameterised layer that forgot it would silently drop
    /// out of [`Sequential::flat_params`](crate::Sequential::flat_params).
    fn for_each_param(&self, f: &mut dyn FnMut(&[f32]));

    /// Visits every parameter slice mutably, paired with its gradient
    /// slice, in [`Layer::for_each_param`]'s order — what an optimizer
    /// needs to step the parameters where they live
    /// ([`Sgd::step_model`](crate::optim::Sgd::step_model)).
    fn for_each_param_grad(&mut self, f: &mut dyn FnMut(&mut [f32], &[f32]));

    /// Mutable counterpart of [`Layer::for_each_param`], same order.
    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        self.for_each_param_grad(&mut |p, _| f(p));
    }

    /// Gradient counterpart of [`Layer::for_each_param`], same order.
    fn for_each_grad(&self, f: &mut dyn FnMut(&[f32]));

    /// Total trainable parameter count.
    fn param_count(&self) -> usize {
        let mut count = 0;
        self.for_each_param(&mut |p| count += p.len());
        count
    }
}

/// Fills `w` from a uniform(-limit, limit) He/Glorot-style initialization.
fn init_uniform(rng: &mut StdRng, w: &mut [f32], limit: f32) {
    for v in w {
        *v = rng.gen_range(-limit..limit);
    }
}

/// Refreshes a layer's training-mode input cache, reusing its buffers
/// after the first batch.
fn cache_input(cache: &mut Option<Tensor>, input: &Tensor) {
    match cache {
        Some(c) => c.copy_from(input),
        None => *cache = Some(input.clone()),
    }
}

/// The input a training-mode forward cached for `backward`.
fn cached(cache: &Option<Tensor>) -> &Tensor {
    cache
        .as_ref()
        .expect("backward requires a training-mode forward")
}

/// Fully connected layer: `y = x·W + b` with `x: [batch, in]`,
/// `W: [in, out]`.
///
/// The reference formulation of the weight gradient is `grad_w += xᵀ · g`
/// with the product summed on its own (ascending batch index) before it is
/// added. The first backward after [`Layer::zero_grads`] — every backward
/// of a training loop — multiplies **straight into `grad_w`** instead:
/// there `grad_w` is `+0.0` everywhere, an accumulator started at `+0.0`
/// can never hold `-0.0` (round-to-nearest gives `-0.0` only for
/// `-0.0 + -0.0`), and `+0.0 + s` is `s` bit for bit for every other `s`,
/// NaN and `±∞` included — so summing the product in place *is* the
/// reference, minus one pass over the weights and a weights-sized buffer.
/// A second backward onto live gradients cannot do that (`(g + a) + b` is
/// not `g + (a + b)`); it sums the product in a scratch tensor first.
pub struct Dense {
    w: Tensor,
    b: Vec<f32>,
    grad_w: Tensor,
    grad_b: Vec<f32>,
    /// True while `grad_w` is known to be `+0.0` in every element: from
    /// construction or `zero_grads` until the next `backward`. Nothing
    /// outside the layer can write the gradients, so the flag cannot go
    /// stale.
    grad_w_zeroed: bool,
    cached_input: Option<Tensor>,
    /// The `xᵀ · g` product of a backward onto live gradients; allocated
    /// by the first such call, so a `zero_grads` → `backward` training
    /// loop never holds it.
    scratch_gw: Option<Tensor>,
    in_dim: usize,
    out_dim: usize,
}

impl Dense {
    /// Creates a dense layer with Glorot-uniform initialization.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        let limit = (6.0 / (in_dim + out_dim) as f32).sqrt();
        let mut layer = Dense::zeroed(in_dim, out_dim);
        init_uniform(rng, layer.w.data_mut(), limit);
        layer
    }

    /// Creates a dense layer with every parameter zero and no random draw,
    /// for weights that are loaded before they are read.
    pub fn zeroed(in_dim: usize, out_dim: usize) -> Self {
        Dense {
            w: Tensor::zeros(vec![in_dim, out_dim]),
            b: vec![0.0; out_dim],
            grad_w: Tensor::zeros(vec![in_dim, out_dim]),
            grad_b: vec![0.0; out_dim],
            grad_w_zeroed: true,
            cached_input: None,
            scratch_gw: None,
            in_dim,
            out_dim,
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

impl Dense {
    /// Adds the bias row to every batch row of `out`.
    fn add_bias(&self, out: &mut Tensor) {
        let batch = out.shape()[0];
        let data = out.data_mut();
        for i in 0..batch {
            for (j, bias) in self.b.iter().enumerate() {
                data[i * self.out_dim + j] += bias;
            }
        }
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, train: bool, arena: &mut Arena) -> Tensor {
        assert_eq!(input.shape().len(), 2, "dense expects [batch, features]");
        assert_eq!(input.shape()[1], self.in_dim, "input dim mismatch");
        let mut out = arena.take(&[input.shape()[0], self.out_dim]);
        input.matmul_into(&self.w, &mut out);
        self.add_bias(&mut out);
        if train {
            cache_input(&mut self.cached_input, input);
        }
        out
    }

    fn backward(
        &mut self,
        grad_out: &Tensor,
        need_input_grad: bool,
        arena: &mut Arena,
    ) -> Option<Tensor> {
        let input = cached(&self.cached_input);
        // grad_w += xᵀ · g ; grad_b += Σ_batch g ; grad_in = g · Wᵀ
        // Both matmuls read their transposed operand in place (matmul_tn /
        // matmul_nt), so no `[in, batch]` or `[out, in]` copy is
        // materialized per batch.
        if std::mem::take(&mut self.grad_w_zeroed) {
            input.matmul_tn_onto(grad_out, &mut self.grad_w);
        } else {
            let scratch = self
                .scratch_gw
                .get_or_insert_with(|| Tensor::zeros(vec![self.in_dim, self.out_dim]));
            input.matmul_tn_into(grad_out, scratch);
            self.grad_w.add_assign(scratch);
        }
        let batch = grad_out.shape()[0];
        for i in 0..batch {
            for j in 0..self.out_dim {
                self.grad_b[j] += grad_out.data()[i * self.out_dim + j];
            }
        }
        need_input_grad.then(|| {
            let mut gin = arena.take(&[batch, self.in_dim]);
            grad_out.matmul_nt_into(&self.w, &mut gin);
            gin
        })
    }

    fn for_each_param(&self, f: &mut dyn FnMut(&[f32])) {
        f(self.w.data());
        f(&self.b);
    }

    fn for_each_param_grad(&mut self, f: &mut dyn FnMut(&mut [f32], &[f32])) {
        f(self.w.data_mut(), self.grad_w.data());
        f(&mut self.b, &self.grad_b);
    }

    fn for_each_grad(&self, f: &mut dyn FnMut(&[f32])) {
        f(self.grad_w.data());
        f(&self.grad_b);
    }

    fn zero_grads(&mut self) {
        self.grad_w.data_mut().fill(0.0);
        self.grad_w_zeroed = true;
        self.grad_b.fill(0.0);
    }
}

/// Rectified linear unit.
///
/// Both passes are **selects, not branches**: `if *x < 0.0 { *x = 0.0 }`
/// compiles to a conditional store, and on real activations — half of them
/// negative, at positions that change with every batch — the predictor
/// misses about every other element (≈ 12 cycles each). Assigning
/// `if c { a } else { b }` to every element compiles to a compare and a
/// mask, vectorises, and costs the same wherever the zeros fall. Written
/// so that exactly the elements the branch left alone keep their bits:
/// `-0.0` and NaN are not `< 0.0` and pass through forward unchanged; a
/// gradient is kept where the input was `> 0.0` and replaced by `+0.0`
/// elsewhere, whatever it held.
#[derive(Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Relu {
    /// Clamps negatives in place, refreshing the training mask (reusing
    /// its buffer) when asked.
    fn clamp(&mut self, out: &mut Tensor, train: bool) {
        if train {
            self.mask.clear();
            self.mask.extend(out.data().iter().map(|&x| x > 0.0));
        }
        for x in out.data_mut() {
            *x = if *x < 0.0 { 0.0 } else { *x };
        }
    }

    /// Zeroes gradient entries the forward pass clamped.
    fn apply_mask(&self, g: &mut Tensor) {
        for (x, &keep) in g.data_mut().iter_mut().zip(&self.mask) {
            *x = if keep { *x } else { 0.0 };
        }
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, train: bool, arena: &mut Arena) -> Tensor {
        let mut out = arena.take_from(input);
        self.clamp(&mut out, train);
        out
    }

    fn backward(
        &mut self,
        grad_out: &Tensor,
        need_input_grad: bool,
        arena: &mut Arena,
    ) -> Option<Tensor> {
        assert_eq!(
            grad_out.len(),
            self.mask.len(),
            "backward requires a training-mode forward"
        );
        need_input_grad.then(|| {
            let mut g = arena.take_from(grad_out);
            self.apply_mask(&mut g);
            g
        })
    }

    fn zero_grads(&mut self) {}
    fn for_each_param(&self, _: &mut dyn FnMut(&[f32])) {}
    fn for_each_param_grad(&mut self, _: &mut dyn FnMut(&mut [f32], &[f32])) {}
    fn for_each_grad(&self, _: &mut dyn FnMut(&[f32])) {}
}

/// Flattens `[batch, c, h, w]` (or any rank ≥ 2) to `[batch, rest]`.
#[derive(Default)]
pub struct Flatten {
    cached_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, train: bool, arena: &mut Arena) -> Tensor {
        assert!(input.shape().len() >= 2, "flatten expects rank >= 2");
        let batch = input.shape()[0];
        let rest: usize = input.shape()[1..].iter().product();
        if train {
            self.cached_shape.clear();
            self.cached_shape.extend_from_slice(input.shape());
        }
        let mut out = arena.take_from(input);
        out.reshape_to(&[batch, rest]);
        out
    }

    fn backward(
        &mut self,
        grad_out: &Tensor,
        need_input_grad: bool,
        arena: &mut Arena,
    ) -> Option<Tensor> {
        need_input_grad.then(|| {
            let mut g = arena.take_from(grad_out);
            g.reshape_to(&self.cached_shape);
            g
        })
    }

    fn zero_grads(&mut self) {}
    fn for_each_param(&self, _: &mut dyn FnMut(&[f32])) {}
    fn for_each_param_grad(&mut self, _: &mut dyn FnMut(&mut [f32], &[f32])) {}
    fn for_each_grad(&self, _: &mut dyn FnMut(&[f32])) {}
}

/// Output channels the convolution kernels accumulate side by side (four
/// 128-bit registers of `f32`).
const OCB: usize = 16;

/// One value per output channel of a block, side by side.
type Lanes = [f32; OCB];

/// 2-D convolution, stride 1, zero "same" padding optional.
///
/// Input `[batch, in_c, h, w]`, kernel `[out_c, in_c, kh, kw]`, output
/// `[batch, out_c, h', w']` with `h' = h - kh + 1 + 2·pad`.
///
/// The kernels are direct convolutions rearranged so the compiler can
/// vectorise them, and **bit-identical** to the scalar loops they replaced
/// ([`Conv2d::forward_naive`] / [`Conv2d::backward_naive`], proptest-pinned)
/// because every output keeps its exact f32 add sequence — only *which*
/// independent outputs are computed side by side changes:
///
/// - **forward** packs the weights to `[tap = (ic, ky, kx)][oc]` and gives
///   each pixel a register-resident block of output channels: `bias`, then
///   the in-bounds taps in ascending `(ic, ky, kx)`, one broadcast input
///   value times one contiguous weight row per tap. Padding taps are
///   skipped, not multiplied by zero (`-0.0 + 0.0` and `0 · ∞` would both
///   show);
/// - the **weight gradient** accumulates in the same `[tap][oc]` layout:
///   a tap's row stays in registers while the pixels that reach the tap in
///   bounds go by in ascending `(b, oy, ox)` — the order each `grad_w`
///   element meets its addends in the scalar loops — and an exact-zero
///   output gradient adds nothing, by select rather than branch;
/// - the **input gradient** accumulates in whole zero-padded input planes:
///   one long shifted axpy per `(b, oc, ky↓, kx↓, ic)`, so each element
///   still meets its addends in ascending `(oc, oy, ox)`, and the padding
///   ring soaks up the out-of-bounds taps the scalar loops skip.
pub struct Conv2d {
    w: Tensor,
    b: Vec<f32>,
    grad_w: Tensor,
    grad_b: Vec<f32>,
    cached_input: Option<Tensor>,
    in_c: usize,
    out_c: usize,
    k: usize,
    pad: usize,
    /// `[oc block][1 + tap]` rows of lanes: forward packs `b` and `w` into
    /// it, backward accumulates `grad_b` and `grad_w` in it. Like the three
    /// below it grows on first use and is reused, so steady-state batches
    /// allocate nothing.
    pack: Vec<Lanes>,
    /// One `[pixel][lane]` block of output (forward) or output-gradient
    /// (backward) planes.
    tile: Vec<Lanes>,
    /// Backward's `[in_c, h + 2·pad, w + 2·pad]` input-gradient planes.
    planes: Vec<f32>,
    /// Backward's copy of one output-gradient plane at the padded row
    /// stride `w + 2·pad`, zeros in the gaps.
    gpad: Vec<f32>,
}

/// One convolution call's geometry.
#[derive(Clone, Copy)]
struct ConvDims {
    batch: usize,
    in_c: usize,
    h: usize,
    w: usize,
    out_c: usize,
    oh: usize,
    ow: usize,
    k: usize,
    pad: usize,
}

impl ConvDims {
    /// Kernel taps per output channel.
    fn taps(&self) -> usize {
        self.in_c * self.k * self.k
    }

    /// Where batch element `b`'s output planes for channel block `blk` sit
    /// in a `[batch, out_c, oh, ow]` buffer — only the block's live
    /// channels, so the last block may be short.
    fn block_planes(&self, b: usize, blk: usize) -> std::ops::Range<usize> {
        let plane = self.oh * self.ow;
        let live = OCB.min(self.out_c - blk * OCB);
        let start = (b * self.out_c + blk * OCB) * plane;
        start..start + live * plane
    }
}

impl Conv2d {
    /// Creates a `k×k` convolution with He-uniform initialization.
    ///
    /// `pad = k/2` gives "same" output size for odd `k`.
    ///
    /// # Panics
    ///
    /// Panics if `in_c` or `k` is zero.
    pub fn new(in_c: usize, out_c: usize, k: usize, pad: usize, rng: &mut StdRng) -> Self {
        let mut layer = Conv2d::zeroed(in_c, out_c, k, pad);
        let fan_in = (in_c * k * k) as f32;
        let limit = (6.0 / fan_in).sqrt();
        init_uniform(rng, layer.w.data_mut(), limit);
        layer
    }

    /// Creates a `k×k` convolution with every parameter zero and no random
    /// draw, for weights that are loaded before they are read.
    ///
    /// # Panics
    ///
    /// Panics if `in_c` or `k` is zero.
    pub fn zeroed(in_c: usize, out_c: usize, k: usize, pad: usize) -> Self {
        assert!(
            in_c > 0 && k > 0,
            "conv needs an input channel and a kernel"
        );
        Conv2d {
            w: Tensor::zeros(vec![out_c, in_c, k, k]),
            b: vec![0.0; out_c],
            grad_w: Tensor::zeros(vec![out_c, in_c, k, k]),
            grad_b: vec![0.0; out_c],
            cached_input: None,
            in_c,
            out_c,
            k,
            pad,
            pack: Vec::new(),
            tile: Vec::new(),
            planes: Vec::new(),
            gpad: Vec::new(),
        }
    }

    /// The geometry of a call on an input of shape `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not `[batch, in_c, h, w]`, or if the padded input is
    /// smaller than the kernel (the output size would wrap below zero).
    fn dims(&self, s: &[usize]) -> ConvDims {
        assert_eq!(s.len(), 4, "conv expects [batch, c, h, w]");
        assert_eq!(s[1], self.in_c, "channel mismatch");
        let (h, w, k, pad) = (s[2], s[3], self.k, self.pad);
        assert!(
            h + 2 * pad + 1 > k && w + 2 * pad + 1 > k,
            "conv input {h}x{w} with padding {pad} is smaller than the {k}x{k} kernel"
        );
        ConvDims {
            batch: s[0],
            in_c: self.in_c,
            h,
            w,
            out_c: self.out_c,
            oh: h + 2 * pad + 1 - k,
            ow: w + 2 * pad + 1 - k,
            k,
            pad,
        }
    }

    /// The geometry of the cached training-mode forward, checked against
    /// `grad_out`.
    fn backward_dims(&self, grad_out: &Tensor) -> ConvDims {
        let d = self.dims(cached(&self.cached_input).shape());
        assert_eq!(grad_out.shape(), &[d.batch, d.out_c, d.oh, d.ow]);
        d
    }

    /// Forward pass through the scalar reference loops the production
    /// kernels are proven bit-identical to (kept for the proptests and the
    /// conv-speedup microbench).
    ///
    /// # Panics
    ///
    /// Panics on the same shape mismatches as [`Layer::forward`].
    pub fn forward_naive(&self, input: &Tensor) -> Tensor {
        let d = self.dims(input.shape());
        let mut out = Tensor::zeros(vec![d.batch, d.out_c, d.oh, d.ow]);
        conv_forward_loops(input.data(), self.w.data(), &self.b, out.data_mut(), d);
        out
    }

    /// Backward pass through the scalar reference loops: accumulates into
    /// the layer's gradients and returns the input gradient, as
    /// [`Layer::backward`] does when asked for it.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward.
    pub fn backward_naive(&mut self, grad_out: &Tensor) -> Tensor {
        let d = self.backward_dims(grad_out);
        let input = cached(&self.cached_input);
        let mut grad_in = Tensor::zeros(input.shape().to_vec());
        conv_backward_loops(
            input.data(),
            grad_out.data(),
            self.w.data(),
            self.grad_w.data_mut(),
            &mut self.grad_b,
            grad_in.data_mut(),
            d,
        );
        grad_in
    }
}

/// The reference forward loops: `out[b, oc, oy, ox] = b[oc] + Σ x·w` over
/// the valid receptive field, one scalar at a time. Writes every output
/// element. Frozen — [`conv_forward`] is pinned to it bit for bit.
fn conv_forward_loops(x: &[f32], wdat: &[f32], bias: &[f32], odat: &mut [f32], d: ConvDims) {
    let ConvDims {
        batch,
        in_c,
        h,
        w,
        out_c,
        oh,
        ow,
        k,
        pad,
    } = d;
    let pad = pad as isize;
    for b in 0..batch {
        for oc in 0..out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias[oc];
                    for ic in 0..in_c {
                        for ky in 0..k {
                            let iy = oy as isize + ky as isize - pad;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = ox as isize + kx as isize - pad;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let xi = ((b * in_c + ic) * h + iy as usize) * w + ix as usize;
                                let wi = ((oc * in_c + ic) * k + ky) * k + kx;
                                acc += x[xi] * wdat[wi];
                            }
                        }
                    }
                    odat[((b * out_c + oc) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
}

/// The reference backward loops. Accumulates into `gw`/`gb` and the
/// zero-initialized `gi`. Frozen — [`conv_grad_params`] and
/// [`conv_grad_input`] are pinned to it bit for bit.
fn conv_backward_loops(
    x: &[f32],
    g: &[f32],
    wdat: &[f32],
    gw: &mut [f32],
    gb: &mut [f32],
    gi: &mut [f32],
    d: ConvDims,
) {
    let ConvDims {
        batch,
        in_c,
        h,
        w,
        out_c,
        oh,
        ow,
        k,
        pad,
    } = d;
    let pad = pad as isize;
    for b in 0..batch {
        for oc in 0..out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let go = g[((b * out_c + oc) * oh + oy) * ow + ox];
                    if go == 0.0 {
                        continue;
                    }
                    gb[oc] += go;
                    for ic in 0..in_c {
                        for ky in 0..k {
                            let iy = oy as isize + ky as isize - pad;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = ox as isize + kx as isize - pad;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let xi = ((b * in_c + ic) * h + iy as usize) * w + ix as usize;
                                let wi = ((oc * in_c + ic) * k + ky) * k + kx;
                                gw[wi] += x[xi] * go;
                                gi[xi] += wdat[wi] * go;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The `v` in `0..limit` whose input coordinate `fixed + v - pad` lies
/// inside `0..n`: for an output coordinate, the kernel offsets the
/// reference loops do not `continue` past; for a kernel offset, the output
/// coordinates that reach it.
fn in_bounds(fixed: usize, n: usize, limit: usize, pad: usize) -> std::ops::Range<usize> {
    pad.saturating_sub(fixed)..(n + pad).saturating_sub(fixed).min(limit)
}

/// Repacks per-channel rows `[oc][tap]` and one more value per channel as
/// `[oc block][1 + tap]` rows of [`Lanes`] — the extra value in row 0 — so
/// what a block of output channels needs for one tap is one contiguous
/// row. Lanes past the last channel are zero.
fn pack_taps(rows: &[f32], extra: &[f32], taps: usize, pack: &mut Vec<Lanes>) {
    pack.clear();
    pack.resize(extra.len().div_ceil(OCB) * (taps + 1), [0.0; OCB]);
    for (oc, (row, &e)) in rows.chunks_exact(taps).zip(extra).enumerate() {
        let (block, lane) = (&mut pack[oc / OCB * (taps + 1)..], oc % OCB);
        block[0][lane] = e;
        for (packed, &v) in block[1..].iter_mut().zip(row) {
            packed[lane] = v;
        }
    }
}

/// Inverse of [`pack_taps`]: writes the live lanes back.
fn unpack_taps(pack: &[Lanes], taps: usize, rows: &mut [f32], extra: &mut [f32]) {
    for (oc, (row, e)) in rows.chunks_exact_mut(taps).zip(extra).enumerate() {
        let (block, lane) = (&pack[oc / OCB * (taps + 1)..], oc % OCB);
        *e = block[0][lane];
        for (packed, v) in block[1..].iter().zip(row) {
            *v = packed[lane];
        }
    }
}

/// `acc[i] += s · v[i]` wherever `v[i]` is not exactly zero — the
/// reference backward's `if go == 0.0 { continue }` as a select, so the
/// loop has no branch and vectorises. (Adding the product anyway would
/// not be the same: `∞ · 0` is NaN.)
#[inline(always)]
fn axpy_nonzero(acc: &mut [f32], s: f32, v: &[f32]) {
    for (a, &vi) in acc.iter_mut().zip(v) {
        *a = if vi == 0.0 { *a } else { *a + s * vi };
    }
}

/// Forward kernel over [`pack_taps`]-packed weights and biases: per pixel
/// and block of output channels, `acc = bias`, then `acc += x · w_row` over
/// the in-bounds taps in ascending `(ic, ky, kx)` — each lane runs exactly
/// [`conv_forward_loops`]' add sequence for its own output element. `tile`
/// stages one `[pixel][lane]` block of output planes, so the kernel stores
/// whole rows and the transposition into `out`'s planes is a pass of its
/// own.
fn conv_forward(x: &[f32], wpack: &[Lanes], tile: &mut Vec<Lanes>, out: &mut [f32], d: ConvDims) {
    let (taps, plane) = (d.taps(), d.oh * d.ow);
    tile.clear();
    tile.resize(plane, [0.0; OCB]);
    for b in 0..d.batch {
        for (blk, wblk) in wpack.chunks_exact(taps + 1).enumerate() {
            for oy in 0..d.oh {
                let kys = in_bounds(oy, d.h, d.k, d.pad);
                for ox in 0..d.ow {
                    let kxs = in_bounds(ox, d.w, d.k, d.pad);
                    let mut acc = wblk[0];
                    for ic in 0..d.in_c {
                        for ky in kys.clone() {
                            let row = ((b * d.in_c + ic) * d.h + oy + ky - d.pad) * d.w;
                            for kx in kxs.clone() {
                                let xv = x[row + ox + kx - d.pad];
                                let wrow = &wblk[1 + (ic * d.k + ky) * d.k + kx];
                                for (a, &wv) in acc.iter_mut().zip(wrow) {
                                    *a += xv * wv;
                                }
                            }
                        }
                    }
                    tile[oy * d.ow + ox] = acc;
                }
            }
            let planes = &mut out[d.block_planes(b, blk)];
            for (lane, dst) in planes.chunks_exact_mut(plane).enumerate() {
                for (o, staged) in dst.iter_mut().zip(tile.iter()) {
                    *o = staged[lane];
                }
            }
        }
    }
}

/// Weight- and bias-gradient kernel over [`pack_taps`]-packed accumulators,
/// the forward kernel's mirror: per tap and block of output channels the
/// accumulator row sits in registers while the pixels that reach the tap
/// in bounds go by in ascending `(b, oy, ox)`, each adding `x · go` (`go`
/// itself for the bias row) on the lanes where `go` is not exactly zero —
/// so every `grad_w` / `grad_b` element runs [`conv_backward_loops`]' add
/// sequence. `tile` stages one block of `g`'s planes as `[pixel][lane]`.
fn conv_grad_params(x: &[f32], g: &[f32], gpack: &mut [Lanes], tile: &mut Vec<Lanes>, d: ConvDims) {
    let (taps, plane) = (d.taps(), d.oh * d.ow);
    tile.clear();
    tile.resize(plane, [0.0; OCB]);
    for b in 0..d.batch {
        for (blk, gblk) in gpack.chunks_exact_mut(taps + 1).enumerate() {
            let planes = &g[d.block_planes(b, blk)];
            for (lane, src) in planes.chunks_exact(plane).enumerate() {
                for (staged, &go) in tile.iter_mut().zip(src) {
                    staged[lane] = go;
                }
            }
            let mut acc = gblk[0];
            for go in tile.iter() {
                // 1 · go is go exactly: this is `gb[oc] += go`.
                axpy_nonzero(&mut acc, 1.0, go);
            }
            gblk[0] = acc;
            for ic in 0..d.in_c {
                for ky in 0..d.k {
                    let oys = in_bounds(ky, d.h, d.oh, d.pad);
                    for kx in 0..d.k {
                        let oxs = in_bounds(kx, d.w, d.ow, d.pad);
                        let t = 1 + (ic * d.k + ky) * d.k + kx;
                        let mut acc = gblk[t];
                        for oy in oys.clone() {
                            let row = ((b * d.in_c + ic) * d.h + oy + ky - d.pad) * d.w;
                            for ox in oxs.clone() {
                                let xv = x[row + ox + kx - d.pad];
                                axpy_nonzero(&mut acc, xv, &tile[oy * d.ow + ox]);
                            }
                        }
                        gblk[t] = acc;
                    }
                }
            }
        }
    }
}

/// Input-gradient kernel. Per batch element the gradient accumulates in
/// `planes` — the `in_c` input planes with their zero-padding ring, row
/// stride `wp = w + 2·pad` — and `gpad` holds one output-gradient plane
/// re-laid at that same stride, so tap `(ky, kx)` of the whole plane is a
/// single contiguous axpy shifted by `ky·wp + kx`. Walking `oc` up and
/// `(ky, kx)` down hands each element its addends in ascending
/// `(oc, oy, ox)`, [`conv_backward_loops`]' order; exact-zero gradients
/// (the gap columns among them) add nothing, and what lands in the ring —
/// the taps the reference skips — is dropped when the interior is copied
/// out. `ic` is innermost so that back-to-back axpys touch different
/// planes: a read-after-write on one plane shifted by four bytes stalls on
/// store forwarding.
fn conv_grad_input(
    g: &[f32],
    wdat: &[f32],
    planes: &mut Vec<f32>,
    gpad: &mut Vec<f32>,
    gi: &mut [f32],
    d: ConvDims,
) {
    let (hp, wp) = (d.h + 2 * d.pad, d.w + 2 * d.pad);
    let span = (d.oh - 1) * wp + d.ow;
    planes.resize(d.in_c * hp * wp, 0.0);
    gpad.clear();
    gpad.resize(span, 0.0);
    for b in 0..d.batch {
        planes.fill(0.0);
        for oc in 0..d.out_c {
            let gplane = &g[(b * d.out_c + oc) * d.oh * d.ow..][..d.oh * d.ow];
            for (dst, src) in gpad.chunks_mut(wp).zip(gplane.chunks_exact(d.ow)) {
                dst[..d.ow].copy_from_slice(src);
            }
            for ky in (0..d.k).rev() {
                for kx in (0..d.k).rev() {
                    for ic in 0..d.in_c {
                        let wv = wdat[((oc * d.in_c + ic) * d.k + ky) * d.k + kx];
                        let acc = &mut planes[ic * hp * wp + ky * wp + kx..][..span];
                        axpy_nonzero(acc, wv, gpad);
                    }
                }
            }
        }
        for ic in 0..d.in_c {
            for iy in 0..d.h {
                let src = &planes[(ic * hp + iy + d.pad) * wp + d.pad..][..d.w];
                gi[((b * d.in_c + ic) * d.h + iy) * d.w..][..d.w].copy_from_slice(src);
            }
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, train: bool, arena: &mut Arena) -> Tensor {
        let d = self.dims(input.shape());
        let mut out = arena.take(&[d.batch, d.out_c, d.oh, d.ow]);
        pack_taps(self.w.data(), &self.b, d.taps(), &mut self.pack);
        conv_forward(input.data(), &self.pack, &mut self.tile, out.data_mut(), d);
        if train {
            cache_input(&mut self.cached_input, input);
        }
        out
    }

    fn backward(
        &mut self,
        grad_out: &Tensor,
        need_input_grad: bool,
        arena: &mut Arena,
    ) -> Option<Tensor> {
        let d = self.backward_dims(grad_out);
        let input = cached(&self.cached_input);
        pack_taps(self.grad_w.data(), &self.grad_b, d.taps(), &mut self.pack);
        conv_grad_params(
            input.data(),
            grad_out.data(),
            &mut self.pack,
            &mut self.tile,
            d,
        );
        unpack_taps(
            &self.pack,
            d.taps(),
            self.grad_w.data_mut(),
            &mut self.grad_b,
        );
        need_input_grad.then(|| {
            let mut grad_in = arena.take(input.shape());
            conv_grad_input(
                grad_out.data(),
                self.w.data(),
                &mut self.planes,
                &mut self.gpad,
                grad_in.data_mut(),
                d,
            );
            grad_in
        })
    }

    fn for_each_param(&self, f: &mut dyn FnMut(&[f32])) {
        f(self.w.data());
        f(&self.b);
    }

    fn for_each_param_grad(&mut self, f: &mut dyn FnMut(&mut [f32], &[f32])) {
        f(self.w.data_mut(), self.grad_w.data());
        f(&mut self.b, &self.grad_b);
    }

    fn for_each_grad(&self, f: &mut dyn FnMut(&[f32])) {
        f(self.grad_w.data());
        f(&self.grad_b);
    }

    fn zero_grads(&mut self) {
        self.grad_w.data_mut().fill(0.0);
        self.grad_b.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    /// A copy of the layer's first gradient slice, read through the visitor.
    fn first_grad<L: Layer>(layer: &L) -> Vec<f32> {
        let mut first = None;
        layer.for_each_grad(&mut |g| {
            first.get_or_insert_with(|| g.to_vec());
        });
        first.expect("layer has parameters")
    }

    /// Runs `f` on the layer's `slot`-th parameter slice.
    fn with_param<L: Layer, R>(layer: &mut L, slot: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
        let (mut f, mut out, mut i) = (Some(f), None, 0);
        layer.for_each_param_mut(&mut |p| {
            if i == slot {
                out = f.take().map(|f| f(p));
            }
            i += 1;
        });
        out.expect("layer has that parameter slot")
    }

    /// Finite-difference check of a layer's backward pass w.r.t. both its
    /// input and parameters.
    fn grad_check<L: Layer>(layer: &mut L, input: Tensor) {
        let eps = 1e-3f32;
        // Loss = sum of outputs (so dL/dout = 1 everywhere).
        let arena = &mut Arena::new();
        let out = layer.forward(&input, true, arena);
        let ones = Tensor::from_vec(out.shape().to_vec(), vec![1.0; out.len()]);
        layer.zero_grads();
        let grad_in = layer
            .backward(&ones, true, arena)
            .expect("asked for the input gradient");

        // Check input gradient at a few positions.
        for idx in [0, input.len() / 2, input.len() - 1] {
            let mut plus = input.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = input.clone();
            minus.data_mut()[idx] -= eps;
            let f_plus: f32 = layer.forward(&plus, false, arena).data().iter().sum();
            let f_minus: f32 = layer.forward(&minus, false, arena).data().iter().sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let analytic = grad_in.data()[idx];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "input grad mismatch at {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }

        // Check first parameter tensor gradient at a few positions.
        if layer.param_count() > 0 {
            let grads0 = first_grad(layer);
            let plen = grads0.len();
            for idx in [0, plen / 2, plen - 1] {
                let orig = with_param(layer, 0, |p| p[idx]);
                with_param(layer, 0, |p| p[idx] = orig + eps);
                let f_plus: f32 = layer.forward(&input, false, arena).data().iter().sum();
                with_param(layer, 0, |p| p[idx] = orig - eps);
                let f_minus: f32 = layer.forward(&input, false, arena).data().iter().sum();
                with_param(layer, 0, |p| p[idx] = orig);
                let numeric = (f_plus - f_minus) / (2.0 * eps);
                assert!(
                    (numeric - grads0[idx]).abs() < 2e-2,
                    "param grad mismatch at {idx}: numeric {numeric} vs analytic {}",
                    grads0[idx]
                );
            }
        }
    }

    #[test]
    fn dense_gradients_match_finite_differences() {
        let mut rng = rng();
        let mut layer = Dense::new(4, 3, &mut rng);
        let input = Tensor::from_vec(vec![2, 4], (0..8).map(|i| i as f32 * 0.1 - 0.3).collect());
        grad_check(&mut layer, input);
    }

    #[test]
    fn relu_gradients_match_finite_differences() {
        let mut layer = Relu::new();
        // Keep values away from the kink at 0.
        let input = Tensor::from_vec(vec![2, 3], vec![0.5, -0.7, 1.2, -0.1, 0.9, -2.0]);
        grad_check(&mut layer, input);
    }

    #[test]
    fn conv_gradients_match_finite_differences() {
        let mut rng = rng();
        let mut layer = Conv2d::new(2, 3, 3, 1, &mut rng);
        let n = 2 * 2 * 5 * 5;
        let input = Tensor::from_vec(
            vec![2, 2, 5, 5],
            (0..n).map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.1).collect(),
        );
        grad_check(&mut layer, input);
    }

    #[test]
    fn dense_backward_matches_reference_formulation_bitwise() {
        // The matmul_tn / matmul_nt fast path must reproduce the naive
        // transpose-then-matmul gradients bit for bit (weight releases are
        // content-addressed, so any drift would change CIDs).
        let mut rng = rng();
        let mut layer = Dense::new(5, 4, &mut rng);
        let input = Tensor::from_vec(
            vec![3, 5],
            (0..15)
                .map(|i| ((i * 11 % 7) as f32 - 3.0) * 0.25)
                .collect(),
        );
        let arena = &mut Arena::new();
        let fwd = layer.forward(&input, true, arena);
        let grad_out = Tensor::from_vec(
            fwd.shape().to_vec(),
            (0..fwd.len()).map(|i| (i as f32 - 5.0) * 0.1).collect(),
        );
        layer.zero_grads();
        let grad_in = layer
            .backward(&grad_out, true, arena)
            .expect("asked for the input gradient");

        let ref_gw = input.transpose().matmul(&grad_out);
        let ref_gin = grad_out.matmul(&layer.w.transpose());
        for (a, b) in first_grad(&layer).iter().zip(ref_gw.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in grad_in.data().iter().zip(ref_gin.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Every gradient slice of the layer, in visitor order.
    fn all_grads<L: Layer>(layer: &L) -> Vec<Vec<f32>> {
        let mut all = Vec::new();
        layer.for_each_grad(&mut |g| all.push(g.to_vec()));
        all
    }

    #[test]
    fn dense_zero_grads_reads_positive_zero() {
        // Whatever `zero_grads` does internally, a reader of the gradients
        // sees `+0.0` in every slot right after it — never a stale value.
        let mut layer = Dense::new(6, 4, &mut rng());
        let input = Tensor::from_vec(vec![2, 6], (0..12).map(|i| i as f32 * 0.3 - 1.5).collect());
        let arena = &mut Arena::new();
        let out = layer.forward(&input, true, arena);
        let g = Tensor::from_vec(out.shape().to_vec(), vec![-0.75; out.len()]);
        for _ in 0..2 {
            layer.backward(&g, false, arena);
            assert!(all_grads(&layer)[0].iter().any(|g| *g != 0.0));
            layer.zero_grads();
            for slice in all_grads(&layer) {
                assert!(slice.iter().all(|g| g.to_bits() == 0.0f32.to_bits()));
            }
        }
    }

    #[test]
    fn dense_backward_twice_accumulates_like_the_reference_bitwise() {
        // `grad_w = (0 + xᵀ₁·g₁) + xᵀ₂·g₂`, each product summed on its own
        // in ascending batch order before it is added: the first backward
        // after `zero_grads` and a second one onto live gradients must both
        // reproduce that, zeros of either sign in `x` (what a ReLU feeds a
        // hidden layer) and in `g` included.
        let (batch, in_dim, out_dim) = (5, 70, 9);
        let fill = |n: usize, salt: u32| -> Vec<f32> {
            (0..n as u32)
                .map(|i| {
                    let h = i.wrapping_mul(2654435761).wrapping_add(salt) >> 7;
                    match h % 5 {
                        0 => 0.0,
                        1 => -0.0,
                        _ => (h % 1000) as f32 * 0.013 - 6.5,
                    }
                })
                .collect()
        };
        let mut layer = Dense::new(in_dim, out_dim, &mut rng());
        let arena = &mut Arena::new();
        let mut ref_gw = Tensor::zeros(vec![in_dim, out_dim]);
        let mut ref_gb = vec![0.0f32; out_dim];
        layer.zero_grads();
        for round in 0..3 {
            let x = Tensor::from_vec(vec![batch, in_dim], fill(batch * in_dim, round));
            let g = Tensor::from_vec(vec![batch, out_dim], fill(batch * out_dim, 100 + round));
            layer.forward(&x, true, arena);
            layer.backward(&g, round % 2 == 0, arena);

            ref_gw.add_assign(&x.transpose().matmul_naive(&g));
            for row in g.data().chunks_exact(out_dim) {
                for (acc, v) in ref_gb.iter_mut().zip(row) {
                    *acc += v;
                }
            }
            let grads = all_grads(&layer);
            for (got, want) in [(&grads[0][..], ref_gw.data()), (&grads[1][..], &ref_gb[..])] {
                assert_eq!(got.len(), want.len());
                for (a, b) in got.iter().zip(want) {
                    assert_eq!(a.to_bits(), b.to_bits(), "backward #{round}");
                }
            }
        }
    }

    #[test]
    fn relu_is_bit_exact_on_the_edge_values() {
        // Forward keeps everything that is not `< 0.0` exactly as it came —
        // `-0.0`, NaN (payload and sign included) and subnormals — and
        // writes `+0.0` over the rest; backward passes the gradient where
        // the input was `> 0.0` and writes `+0.0` elsewhere, whatever the
        // gradient held there.
        let tiny = f32::from_bits(1); // smallest positive subnormal
        let nan = f32::from_bits(0x7FC0_1234);
        let neg_nan = f32::from_bits(0xFFC0_4321);
        #[rustfmt::skip]
        let cases: [(f32, f32, bool); 12] = [
            // input, forward output, gradient kept
            (0.0, 0.0, false),
            (-0.0, -0.0, false),
            (f32::INFINITY, f32::INFINITY, true),
            (f32::NEG_INFINITY, 0.0, false),
            (nan, nan, false),
            (neg_nan, neg_nan, false),
            (tiny, tiny, true),
            (-tiny, 0.0, false),
            (f32::MIN_POSITIVE, f32::MIN_POSITIVE, true),
            (-f32::MIN_POSITIVE, 0.0, false),
            (1.5, 1.5, true),
            (-1.5, 0.0, false),
        ];
        let grads = [2.5, -0.0, f32::NAN, f32::NEG_INFINITY, -tiny, 0.0];
        let input = Tensor::from_vec(vec![1, 12], cases.iter().map(|c| c.0).collect());
        let arena = &mut Arena::new();
        for train in [false, true] {
            let out = Relu::new().forward(&input, train, arena);
            for (got, case) in out.data().iter().zip(&cases) {
                assert_eq!(got.to_bits(), case.1.to_bits(), "relu({})", case.0);
            }
        }
        let mut layer = Relu::new();
        layer.forward(&input, true, arena);
        for g in grads {
            let gin = layer
                .backward(&Tensor::from_vec(vec![1, 12], vec![g; 12]), true, arena)
                .expect("asked for the input gradient");
            for (got, case) in gin.data().iter().zip(&cases) {
                let want = if case.2 { g } else { 0.0 };
                assert_eq!(got.to_bits(), want.to_bits(), "relu'({}) · {g}", case.0);
            }
        }
    }

    /// A warm arena must reproduce a cold one bit for bit — stale pooled
    /// buffers never leak into results. Two identically seeded layers run
    /// side by side for several batches: `plain` gets a fresh arena per
    /// call (every take allocates), `pooled` one arena recycled across the
    /// batches, so its second and later batches exercise reused buffers.
    fn arena_matches_allocating<L: Layer>(mut plain: L, mut pooled: L, input: Tensor) {
        let mut arena = Arena::new();
        for _ in 0..3 {
            let out_p = plain.forward(&input, true, &mut Arena::new());
            let out_a = pooled.forward(&input, true, &mut arena);
            assert_eq!(out_p.shape(), out_a.shape());
            for (x, y) in out_p.data().iter().zip(out_a.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "forward drifted");
            }
            let ones = Tensor::from_vec(out_p.shape().to_vec(), vec![1.0; out_p.len()]);
            let gin_p = plain.backward(&ones, true, &mut Arena::new()).unwrap();
            let gin_a = pooled.backward(&ones, true, &mut arena).unwrap();
            assert_eq!(gin_p.shape(), gin_a.shape());
            for (x, y) in gin_p.data().iter().zip(gin_a.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "backward drifted");
            }
            let (mut gp, mut ga) = (Vec::new(), Vec::new());
            plain.for_each_grad(&mut |g| gp.extend_from_slice(g));
            pooled.for_each_grad(&mut |g| ga.extend_from_slice(g));
            assert_eq!(gp.len(), ga.len());
            for (x, y) in gp.iter().zip(&ga) {
                assert_eq!(x.to_bits(), y.to_bits(), "param grads drifted");
            }
            arena.recycle(gin_a);
            arena.recycle(out_a);
        }
    }

    #[test]
    fn dense_arena_path_is_bit_identical() {
        let input = Tensor::from_vec(vec![3, 4], (0..12).map(|i| i as f32 * 0.3 - 1.7).collect());
        arena_matches_allocating(
            Dense::new(4, 5, &mut rng()),
            Dense::new(4, 5, &mut rng()),
            input,
        );
    }

    #[test]
    fn relu_and_flatten_arena_paths_are_bit_identical() {
        let input = Tensor::from_vec(vec![2, 6], (0..12).map(|i| i as f32 * 0.4 - 2.1).collect());
        arena_matches_allocating(Relu::new(), Relu::new(), input.clone());
        let boxed = input.reshape(vec![2, 2, 3]);
        arena_matches_allocating(Flatten::new(), Flatten::new(), boxed);
    }

    #[test]
    fn conv_arena_path_is_bit_identical() {
        let n = 2 * 2 * 5 * 5;
        let input = Tensor::from_vec(
            vec![2, 2, 5, 5],
            (0..n).map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.1).collect(),
        );
        arena_matches_allocating(
            Conv2d::new(2, 3, 3, 1, &mut rng()),
            Conv2d::new(2, 3, 3, 1, &mut rng()),
            input,
        );
    }

    #[test]
    fn dense_forward_applies_bias() {
        let mut rng = rng();
        let mut layer = Dense::new(2, 2, &mut rng);
        with_param(&mut layer, 0, |w| w.copy_from_slice(&[1.0, 0.0, 0.0, 1.0])); // identity W
        with_param(&mut layer, 1, |b| b.copy_from_slice(&[10.0, 20.0]));
        let input = Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]);
        let out = layer.forward(&input, false, &mut Arena::new());
        assert_eq!(out.data(), &[11.0, 22.0]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut layer = Relu::new();
        let input = Tensor::from_vec(vec![1, 3], vec![-1.0, 0.0, 2.0]);
        let out = layer.forward(&input, false, &mut Arena::new());
        assert_eq!(out.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn conv_same_padding_preserves_hw() {
        let mut rng = rng();
        let mut layer = Conv2d::new(3, 8, 3, 1, &mut rng);
        let out = layer.forward(&Tensor::zeros(vec![2, 3, 8, 8]), false, &mut Arena::new());
        assert_eq!(out.shape(), &[2, 8, 8, 8]);
    }

    #[test]
    fn conv_valid_padding_shrinks_hw() {
        let mut rng = rng();
        let mut layer = Conv2d::new(1, 1, 3, 0, &mut rng);
        let out = layer.forward(&Tensor::zeros(vec![1, 1, 8, 8]), false, &mut Arena::new());
        assert_eq!(out.shape(), &[1, 1, 6, 6]);
    }

    #[test]
    #[should_panic(expected = "conv input 2x6 with padding 0 is smaller than the 3x3 kernel")]
    fn conv_rejects_an_input_smaller_than_the_kernel() {
        // The output height `2 + 0 + 1 - 3` would wrap around `usize` in a
        // release build and abort on the arena's capacity overflow.
        let mut layer = Conv2d::new(1, 1, 3, 0, &mut rng());
        layer.forward(&Tensor::zeros(vec![1, 1, 2, 6]), false, &mut Arena::new());
    }

    #[test]
    fn flatten_round_trips_shape() {
        let mut layer = Flatten::new();
        let input = Tensor::zeros(vec![2, 3, 4, 5]);
        let arena = &mut Arena::new();
        let out = layer.forward(&input, true, arena);
        assert_eq!(out.shape(), &[2, 60]);
        let back = layer.backward(&out, true, arena).unwrap();
        assert_eq!(back.shape(), &[2, 3, 4, 5]);
    }

    #[test]
    fn param_counts() {
        let mut rng = rng();
        let dense = Dense::new(10, 5, &mut rng);
        assert_eq!(dense.param_count(), 10 * 5 + 5);
        let conv = Conv2d::new(3, 8, 3, 1, &mut rng);
        assert_eq!(conv.param_count(), 8 * 3 * 3 * 3 + 8);
        assert_eq!(Relu::new().param_count(), 0);
    }

    #[test]
    fn zero_grads_resets_accumulation() {
        let mut rng = rng();
        let mut layer = Dense::new(2, 2, &mut rng);
        let input = Tensor::from_vec(vec![1, 2], vec![1.0, 1.0]);
        let arena = &mut Arena::new();
        let out = layer.forward(&input, true, arena);
        let ones = Tensor::from_vec(vec![1, 2], vec![1.0; out.len()]);
        layer.backward(&ones, false, arena);
        assert!(first_grad(&layer).iter().any(|g| *g != 0.0));
        layer.zero_grads();
        assert!(first_grad(&layer).iter().all(|g| *g == 0.0));
    }
}
