//! Dense `f32` tensors with the operations the NN layers need.
//!
//! This is deliberately a small, allocation-explicit tensor — no autograd,
//! no broadcasting zoo. Layers implement their own backward passes, which
//! keeps the substrate auditable and the FL weight-exchange path (flat
//! `Vec<f32>` views) trivial.

/// Cache-blocking tile sizes for the matmul kernels. The `matmul` /
/// `matmul_tn` kernels slab the inner dimension in `KB` steps so each
/// slab's rhs panel is read from memory once per multiply instead of once
/// per output row; `matmul_nt` additionally packs transposed `KB × NB`
/// rhs tiles (16 KiB — comfortably L1-resident) because its naive walk
/// strides by `k` on every inner step, the worst pattern of the three.
const KB: usize = 64;
const NB: usize = 64;

/// The kernels' zero-skip, as **index compaction**: writes the positions of
/// the entries of `vals` (at most `KB` of them) that are not exactly zero
/// into `nz`, ascending, and returns how many there are.
///
/// The reference loops `continue` past a left-hand entry that compares
/// equal to zero. In training that branch is a coin toss — the left operands
/// of the three `Dense(1024 → 60)` products are a ReLU's output, that
/// output again, and a ReLU-masked gradient: about half exact zeros each
/// (measured 49–50 %, 49–50 % and 41–55 %, by seed), at positions that
/// change with every batch — so the branch runs
/// some 15,000 times a batch and the predictor misses about every other
/// one. Here every position is stored and the cursor advances by a
/// comparison *result* (`n += (l != 0.0) as usize`): no branch depends on
/// the data, and the caller's axpy loop runs over the list — the same
/// terms in the same ascending order as the reference, the skipped half
/// still skipped. `l != 0.0` is false for `±0.0` and true for NaN: it
/// keeps exactly the entries the reference's test does not skip.
/// (Multiplying the zeros instead would not do: `0 · ∞` and `0 · NaN` are
/// NaN.)
#[inline(always)]
fn nonzero_positions(vals: &[f32], nz: &mut [usize; KB]) -> usize {
    let mut n = 0;
    for (pp, &l) in vals.iter().enumerate() {
        nz[n] = pp;
        n += (l != 0.0) as usize;
    }
    n
}

/// The `matmul_nt` micro-kernel: `acc[j] += lvals[p] * panel[p * stride +
/// j]` over ascending `p`, skipping exact-zero left-hand entries (by
/// [`nonzero_positions`], not by branch). This is the naive kernels' exact
/// f32 add sequence (ascending inner dimension, zero-skip, no FMA
/// contraction), so the blocked kernel built on it is bit-identical to its
/// reference triple loop.
#[inline(always)]
fn tile_kernel(lvals: &[f32], panel: &[f32], stride: usize, acc: &mut [f32], nz: &mut [usize; KB]) {
    let w = acc.len();
    let n = nonzero_positions(lvals, nz);
    for &pp in &nz[..n] {
        let l = lvals[pp];
        let prow = &panel[pp * stride..pp * stride + w];
        for (a, &r) in acc.iter_mut().zip(prow) {
            *a += l * r;
        }
    }
}

/// A dense row-major tensor of `f32`.
///
/// ```
/// use unifyfl_tensor::Tensor;
/// let t = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
/// assert_eq!(t.get(&[1, 2]), 6.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Wraps existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            n,
            data.len(),
            "shape {shape:?} needs {n} elements, got {}",
            data.len()
        );
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access by multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or is out of bounds.
    pub fn get(&self, idx: &[usize]) -> f32 {
        self.data[self.offset(idx)]
    }

    /// Mutable element access by multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or is out of bounds.
    pub fn set(&mut self, idx: &[usize], v: f32) {
        let off = self.offset(idx);
        self.data[off] = v;
    }

    fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.shape.len(), "rank mismatch");
        let mut off = 0;
        for (i, (&x, &dim)) in idx.iter().zip(&self.shape).enumerate() {
            assert!(x < dim, "index {x} out of bounds for dim {i} of size {dim}");
            off = off * dim + x;
        }
        off
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: Vec<usize>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            n,
            self.data.len(),
            "reshape to {shape:?} changes element count"
        );
        self.shape = shape;
        self
    }

    /// Matrix multiplication: `self` is `[m, k]`, `rhs` is `[k, n]`, result
    /// `[m, n]`. Cache-blocked with stack-resident accumulator rows —
    /// bit-identical to [`Tensor::matmul_naive`] (proptest-pinned).
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank-2 or the inner dims differ.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "lhs must be rank-2");
        assert_eq!(rhs.shape.len(), 2, "rhs must be rank-2");
        let (m, _) = (self.shape[0], self.shape[1]);
        let n = rhs.shape[1];
        let mut out = Tensor::zeros(vec![m, n]);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`Tensor::matmul`] writing into a caller-owned output tensor (e.g.
    /// an arena buffer), avoiding the result allocation. The output is
    /// overwritten, not accumulated into.
    ///
    /// Cache-blocked over the inner dimension: for each `KB`-slab of `k`,
    /// every output row accumulates that slab's contribution before the
    /// next slab starts, so the slab's `KB × n` rhs panel is read from
    /// memory once and served from cache for all `m` rows — the naive walk
    /// re-streams the entire `k × n` rhs per output row. Slabs ascend, the
    /// full-width inner loop is the naive kernel's, and the naive kernel's
    /// zero-skip branch is a branch-free index list per row and slab
    /// (`nonzero_positions`), so each output element sees the exact same
    /// p-ascending f32 add sequence (proptest-pinned).
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatch, including `out` not being `[m, n]`.
    pub fn matmul_into(&self, rhs: &Tensor, out: &mut Tensor) {
        assert_eq!(self.shape.len(), 2, "lhs must be rank-2");
        assert_eq!(rhs.shape.len(), 2, "rhs must be rank-2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "inner dimensions must agree: {k} vs {k2}");
        assert_eq!(out.shape, [m, n], "output must be [{m}, {n}]");
        out.data.fill(0.0);
        let mut nz = [0usize; KB];
        let mut pb = 0;
        while pb < k {
            let kb = KB.min(k - pb);
            for i in 0..m {
                let lhs_vals = &self.data[i * k + pb..i * k + pb + kb];
                let out_row = &mut out.data[i * n..(i + 1) * n];
                let live = nonzero_positions(lhs_vals, &mut nz);
                for &pp in &nz[..live] {
                    let (l, p) = (lhs_vals[pp], pb + pp);
                    let rhs_row = &rhs.data[p * n..(p + 1) * n];
                    for (o, &r) in out_row.iter_mut().zip(rhs_row) {
                        *o += l * r;
                    }
                }
            }
            pb += kb;
        }
    }

    /// The reference triple-loop `[m, k] · [k, n]` kernel the blocked
    /// [`Tensor::matmul`] is proven bit-identical to (kept for the
    /// proptests and the kernel-speedup microbench).
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank-2 or the inner dims differ.
    pub fn matmul_naive(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "lhs must be rank-2");
        assert_eq!(rhs.shape.len(), 2, "rhs must be rank-2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "inner dimensions must agree: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let lhs_row = &self.data[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (p, &l) in lhs_row.iter().enumerate() {
                if l == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[p * n..(p + 1) * n];
                for (o, &r) in out_row.iter_mut().zip(rhs_row) {
                    *o += l * r;
                }
            }
        }
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// Transposed-packed matrix multiplication: `selfᵀ · rhs` with `self`
    /// stored as `[k, m]` and `rhs` as `[k, n]`, result `[m, n]`.
    ///
    /// Bit-identical to `self.transpose().matmul(rhs)` — the loops walk the
    /// same accumulation order — but reads `self` in place instead of
    /// materializing the transposed copy. This is the dense-layer backward
    /// hot path (`grad_w = xᵀ · g`), where the per-batch `transpose()`
    /// allocation used to dominate.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank-2 or the shared `k` dims differ.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Tensor {
        let (_, m) = self.rank2_dims("matmul_tn lhs");
        let (_, n) = rhs.rank2_dims("matmul_tn rhs");
        let mut out = Tensor::zeros(vec![m, n]);
        self.matmul_tn_into(rhs, &mut out);
        out
    }

    /// [`Tensor::matmul_tn`] writing into a caller-owned output tensor
    /// (e.g. a per-layer scratch buffer), avoiding the result allocation.
    /// The output is overwritten, not accumulated into.
    ///
    /// Cache-blocked over the inner dimension like [`Tensor::matmul_into`],
    /// and over the output rows as well (`matmul_tn_onto`, which does the
    /// accumulating, says why). Slabs and the `p` inside them ascend, so
    /// the per-element f32 add sequence is exactly
    /// [`Tensor::matmul_tn_naive`]'s (proptest-pinned).
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatch, including `out` not being `[m, n]`.
    pub fn matmul_tn_into(&self, rhs: &Tensor, out: &mut Tensor) {
        out.data.fill(0.0);
        self.matmul_tn_onto(rhs, out);
    }

    /// The accumulation of [`Tensor::matmul_tn_into`] without its opening
    /// zero-fill: `out[i, ·] += self[p, i] · rhs[p, ·]` in ascending `p`.
    /// Only onto an `out` that is `+0.0` in every element is this the
    /// product (and bit-identical to the `_into` form, which is then a
    /// second fill of the same zeros) — [`Dense`](crate::layers::Dense)
    /// calls it on freshly zeroed weight gradients; onto anything else it
    /// would add term by term, not add the finished product.
    ///
    /// Per `KB`-slab of `k` the output is walked in blocks of `KB` rows
    /// with `p` outermost inside the block: the lhs entries one `p`
    /// contributes to a block are contiguous (`self[p, ib..]`), so one
    /// [`nonzero_positions`] pass serves the block, its `KB × n` outputs
    /// stay cache-resident across the slab, and every output element still
    /// meets its terms in ascending `p`.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatch, including `out` not being `[m, n]`.
    pub(crate) fn matmul_tn_onto(&self, rhs: &Tensor, out: &mut Tensor) {
        let (k, m) = self.rank2_dims("matmul_tn lhs");
        let (k2, n) = rhs.rank2_dims("matmul_tn rhs");
        assert_eq!(k, k2, "shared dimensions must agree: {k} vs {k2}");
        assert_eq!(out.shape, [m, n], "output must be [{m}, {n}]");
        let mut nz = [0usize; KB];
        let mut pb = 0;
        while pb < k {
            let kb = KB.min(k - pb);
            let mut ib = 0;
            while ib < m {
                let rb = KB.min(m - ib);
                let out_rows = &mut out.data[ib * n..(ib + rb) * n];
                for p in pb..pb + kb {
                    let lhs_vals = &self.data[p * m + ib..p * m + ib + rb];
                    let rhs_row = &rhs.data[p * n..(p + 1) * n];
                    let live = nonzero_positions(lhs_vals, &mut nz);
                    for &ii in &nz[..live] {
                        let l = lhs_vals[ii];
                        let out_row = &mut out_rows[ii * n..(ii + 1) * n];
                        for (o, &r) in out_row.iter_mut().zip(rhs_row) {
                            *o += l * r;
                        }
                    }
                }
                ib += rb;
            }
            pb += kb;
        }
    }

    /// The reference column-strided `selfᵀ · rhs` kernel the blocked
    /// [`Tensor::matmul_tn`] is proven bit-identical to (kept for the
    /// proptests and the kernel-speedup microbench).
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank-2 or the shared `k` dims differ.
    pub fn matmul_tn_naive(&self, rhs: &Tensor) -> Tensor {
        let (k, m) = self.rank2_dims("matmul_tn lhs");
        let (k2, n) = rhs.rank2_dims("matmul_tn rhs");
        assert_eq!(k, k2, "shared dimensions must agree: {k} vs {k2}");
        let mut out = Tensor::zeros(vec![m, n]);
        for i in 0..m {
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for p in 0..k {
                let l = self.data[p * m + i];
                if l == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[p * n..(p + 1) * n];
                for (o, &r) in out_row.iter_mut().zip(rhs_row) {
                    *o += l * r;
                }
            }
        }
        out
    }

    /// Matrix multiplication against a transposed-packed right-hand side:
    /// `self · rhsᵀ` with `self` as `[m, k]` and `rhs` as `[n, k]`, result
    /// `[m, n]`.
    ///
    /// Bit-identical to `self.matmul(&rhs.transpose())` — same accumulation
    /// order — but reads `rhs` in place instead of materializing the
    /// transposed copy. This is the other dense-layer backward hot path
    /// (`grad_in = g · Wᵀ`).
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank-2 or the shared `k` dims differ.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Tensor {
        let (m, _) = self.rank2_dims("matmul_nt lhs");
        let (n, _) = rhs.rank2_dims("matmul_nt rhs");
        let mut out = Tensor::zeros(vec![m, n]);
        self.matmul_nt_into(rhs, &mut out);
        out
    }

    /// [`Tensor::matmul_nt`] writing into a caller-owned output tensor
    /// (e.g. an arena buffer), avoiding the result allocation. The output
    /// is overwritten, not accumulated into.
    ///
    /// The rhs is stored `[n, k]`, so the naive walk strides by `k` along
    /// the output axis — the worst access pattern of the three kernels. The
    /// blocked kernel transposes each `KB × NB` rhs tile into a stack
    /// buffer once (reading contiguous rhs row segments), then accumulates
    /// `[i, jb]` block rows in an `NB`-wide stack row per `KB`-slab, slabs
    /// ascending — the per-element f32 add sequence is exactly
    /// [`Tensor::matmul_nt_naive`]'s (proptest-pinned).
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatch, including `out` not being `[m, n]`.
    pub fn matmul_nt_into(&self, rhs: &Tensor, out: &mut Tensor) {
        let (m, k) = self.rank2_dims("matmul_nt lhs");
        let (n, k2) = rhs.rank2_dims("matmul_nt rhs");
        assert_eq!(k, k2, "shared dimensions must agree: {k} vs {k2}");
        assert_eq!(out.shape, [m, n], "output must be [{m}, {n}]");
        out.data.fill(0.0);
        let mut rpack = [0.0f32; KB * NB];
        let mut nz = [0usize; KB];
        let mut jb = 0;
        while jb < n {
            let nb = NB.min(n - jb);
            let mut pb = 0;
            while pb < k {
                let kb = KB.min(k - pb);
                // Transpose the [nb, kb] rhs tile into [kb, nb]: contiguous
                // reads, and the stride-k walk is paid once per tile.
                for jj in 0..nb {
                    let src = &rhs.data[(jb + jj) * k + pb..(jb + jj) * k + pb + kb];
                    for (pp, &v) in src.iter().enumerate() {
                        rpack[pp * nb + jj] = v;
                    }
                }
                for i in 0..m {
                    let lvals = &self.data[i * k + pb..i * k + pb + kb];
                    let out_row = &mut out.data[i * n + jb..i * n + jb + nb];
                    let mut acc = [0.0f32; NB];
                    acc[..nb].copy_from_slice(out_row);
                    tile_kernel(lvals, &rpack, nb, &mut acc[..nb], &mut nz);
                    out_row.copy_from_slice(&acc[..nb]);
                }
                pb += kb;
            }
            jb += nb;
        }
    }

    /// The reference column-strided `self · rhsᵀ` kernel the blocked
    /// [`Tensor::matmul_nt`] is proven bit-identical to (kept for the
    /// proptests and the kernel-speedup microbench).
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank-2 or the shared `k` dims differ.
    pub fn matmul_nt_naive(&self, rhs: &Tensor) -> Tensor {
        let (m, k) = self.rank2_dims("matmul_nt lhs");
        let (n, k2) = rhs.rank2_dims("matmul_nt rhs");
        assert_eq!(k, k2, "shared dimensions must agree: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let lhs_row = &self.data[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (p, &l) in lhs_row.iter().enumerate() {
                if l == 0.0 {
                    continue;
                }
                for (o, out_v) in out_row.iter_mut().enumerate() {
                    *out_v += l * rhs.data[o * k + p];
                }
            }
        }
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// The `(rows, cols)` of a rank-2 tensor; panics with `what` otherwise.
    fn rank2_dims(&self, what: &str) -> (usize, usize) {
        assert_eq!(self.shape.len(), 2, "{what} must be rank-2");
        (self.shape[0], self.shape[1])
    }

    /// Transposed matrix: `[m, n]` → `[n, m]`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose needs rank-2");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor {
            shape: vec![n, m],
            data: out,
        }
    }

    /// Elementwise in-place addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Tensor) {
        assert_eq!(self.shape, rhs.shape, "shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// In-place multiplication by a scalar.
    pub fn scale(&mut self, s: f32) {
        for a in self.data.iter_mut() {
            *a *= s;
        }
    }

    /// Overwrites `self` with `src`'s shape and contents, reusing the
    /// existing buffers — the zero-allocation alternative to `clone()` once
    /// both buffers have grown to their steady-state capacity.
    pub fn copy_from(&mut self, src: &Tensor) {
        self.shape.clear();
        self.shape.extend_from_slice(&src.shape);
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Overwrites `self` with shape `dims` and the concatenation of `rows`,
    /// reusing the existing buffers — how a batch is gathered from a
    /// dataset's feature slab without an intermediate copy.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not add up to `dims`' element count.
    pub fn assign_rows<'a>(&mut self, dims: &[usize], rows: impl IntoIterator<Item = &'a [f32]>) {
        self.shape.clear();
        self.shape.extend_from_slice(dims);
        self.data.clear();
        for row in rows {
            self.data.extend_from_slice(row);
        }
        assert_eq!(
            self.data.len(),
            dims.iter().product::<usize>(),
            "rows do not fill shape {dims:?}"
        );
    }

    /// Reshapes `self` in place to `dims` and zero-fills the data, reusing
    /// the existing buffers — the [`Arena`](crate::arena::Arena) take path.
    pub fn reset_to(&mut self, dims: &[usize]) {
        self.shape.clear();
        self.shape.extend_from_slice(dims);
        let n: usize = dims.iter().product();
        self.data.clear();
        self.data.resize(n, 0.0);
    }

    /// [`Tensor::reshape`] in place, without allocating a new shape vector.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape_to(&mut self, dims: &[usize]) {
        let n: usize = dims.iter().product();
        assert_eq!(
            n,
            self.data.len(),
            "reshape to {dims:?} changes element count"
        );
        self.shape.clear();
        self.shape.extend_from_slice(dims);
    }
}

/// Squared Euclidean distance between two flat weight vectors (used by
/// MultiKRUM scoring).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn sq_dist_slice(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = (*x - *y) as f64;
            d * d
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small_known_values() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
        let i = Tensor::from_vec(vec![2, 2], vec![1., 0., 0., 1.]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    #[should_panic(expected = "inner dimensions must agree")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![2, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_tn_matches_transpose_then_matmul() {
        // Values chosen to exercise the zero-skip branch too.
        let a = Tensor::from_vec(vec![3, 2], vec![1., 0., -2.5, 3., 0., 4.]);
        let b = Tensor::from_vec(vec![3, 4], (0..12).map(|i| i as f32 * 0.5 - 2.0).collect());
        let fused = a.matmul_tn(&b);
        let naive = a.transpose().matmul(&b);
        assert_eq!(fused.shape(), naive.shape());
        for (x, y) in fused.data().iter().zip(naive.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "bit-exact match required");
        }
    }

    #[test]
    fn matmul_nt_matches_matmul_of_transpose() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 0., 3., -4., 5., 0.]);
        let b = Tensor::from_vec(
            vec![4, 3],
            (0..12).map(|i| (i as f32 - 6.0) * 0.3).collect(),
        );
        let fused = a.matmul_nt(&b);
        let naive = a.matmul(&b.transpose());
        assert_eq!(fused.shape(), naive.shape());
        for (x, y) in fused.data().iter().zip(naive.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "bit-exact match required");
        }
    }

    #[test]
    fn matmul_tn_into_reuses_scratch() {
        let a = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec(vec![2, 2], vec![5., 6., 7., 8.]);
        let mut scratch = Tensor::from_vec(vec![2, 2], vec![9.0; 4]); // stale data
        a.matmul_tn_into(&b, &mut scratch);
        assert_eq!(scratch, a.transpose().matmul(&b), "scratch is overwritten");
    }

    #[test]
    #[should_panic(expected = "shared dimensions must agree")]
    fn matmul_tn_shape_mismatch_panics() {
        let a = Tensor::zeros(vec![3, 2]);
        let b = Tensor::zeros(vec![2, 4]);
        let _ = a.matmul_tn(&b);
    }

    #[test]
    #[should_panic(expected = "shared dimensions must agree")]
    fn matmul_nt_shape_mismatch_panics() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![4, 2]);
        let _ = a.matmul_nt(&b);
    }

    /// Deterministic pseudo-random fill with exact zeros sprinkled in, so
    /// the kernels' zero-skip branch is exercised.
    fn fill(shape: Vec<usize>, salt: u32) -> Tensor {
        let n: usize = shape.iter().product();
        let data = (0..n)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                if h.is_multiple_of(7) {
                    0.0
                } else {
                    (h % 1000) as f32 * 0.013 - 6.5
                }
            })
            .collect();
        Tensor::from_vec(shape, data)
    }

    #[test]
    fn blocked_kernels_match_naive_bitwise_across_tile_boundaries() {
        // Shapes straddling the 64-wide tiles: single-tile, exact-tile,
        // one-past-tile, and ragged multiples.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (64, 64, 64),
            (65, 64, 63),
            (17, 130, 65),
            (130, 65, 129),
        ] {
            let a = fill(vec![m, k], 1);
            let b = fill(vec![k, n], 2);
            let at = fill(vec![k, m], 3);
            let bt = fill(vec![n, k], 4);
            for (blocked, naive) in [
                (a.matmul(&b), a.matmul_naive(&b)),
                (at.matmul_tn(&b), at.matmul_tn_naive(&b)),
                (a.matmul_nt(&bt), a.matmul_nt_naive(&bt)),
            ] {
                assert_eq!(blocked.shape(), naive.shape());
                for (x, y) in blocked.data().iter().zip(naive.data()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "bit-exact at {m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn matmul_into_overwrites_stale_scratch() {
        let a = fill(vec![5, 70], 9);
        let b = fill(vec![70, 66], 10);
        let bt = fill(vec![66, 70], 11);
        let mut scratch = Tensor::from_vec(vec![5, 66], vec![3.5; 5 * 66]);
        a.matmul_into(&b, &mut scratch);
        assert_eq!(scratch, a.matmul_naive(&b), "scratch is overwritten");
        scratch.data_mut().fill(-1.0);
        a.matmul_nt_into(&bt, &mut scratch);
        assert_eq!(scratch, a.matmul_nt_naive(&bt), "scratch is overwritten");
    }

    #[test]
    fn copy_from_and_reset_to_reuse_buffers() {
        let src = fill(vec![3, 4], 5);
        let mut dst = Tensor::zeros(vec![100]);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        dst.set(&[1, 1], 42.0);
        assert_ne!(dst, src, "copy is detached from the source");
        dst.reset_to(&[2, 5]);
        assert_eq!(dst.shape(), &[2, 5]);
        assert!(dst.data().iter().all(|&v| v == 0.0), "reset zero-fills");
        dst.assign_rows(&[2, 1, 2], [&src.data()[4..6], &src.data()[0..2]]);
        assert_eq!(dst.shape(), &[2, 1, 2]);
        assert_eq!(dst.data(), [&src.data()[4..6], &src.data()[0..2]].concat());
    }

    #[test]
    #[should_panic(expected = "rows do not fill shape")]
    fn assign_rows_rejects_a_short_gather() {
        Tensor::zeros(vec![]).assign_rows(&[2, 2], [&[1.0f32, 2.0][..]]);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let t = a.transpose();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.get(&[2, 1]), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor::zeros(vec![2, 2, 2]);
        t.set(&[1, 0, 1], 9.0);
        assert_eq!(t.get(&[1, 0, 1]), 9.0);
        assert_eq!(t.get(&[0, 0, 0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let t = Tensor::zeros(vec![2, 2]);
        let _ = t.get(&[2, 0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let r = t.reshape(vec![3, 2]);
        assert_eq!(r.get(&[2, 1]), 6.0);
    }

    #[test]
    fn norms_and_distances() {
        let a = Tensor::from_vec(vec![3], vec![3., 0., 4.]);
        let b = Tensor::from_vec(vec![3], vec![0., 0., 0.]);
        assert!((sq_dist_slice(a.data(), b.data()) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn scale_and_add_assign() {
        let mut a = Tensor::from_vec(vec![2], vec![1., 2.]);
        let b = Tensor::from_vec(vec![2], vec![3., 4.]);
        a.add_assign(&b);
        a.scale(2.0);
        assert_eq!(a.data(), &[8., 12.]);
    }
}
