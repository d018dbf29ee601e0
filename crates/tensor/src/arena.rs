//! A per-model tensor arena: recycled buffers for the training hot path.
//!
//! Every [`Layer`](crate::layers::Layer) forward/backward takes the
//! tensors it returns (activations, gradients) from an arena — a LIFO
//! free-list of whole tensors: [`Arena::take`] pops a recycled tensor and
//! reshapes it in place, [`Arena::recycle`] returns it. A **cold** arena
//! (empty pool) allocates exactly what a fresh tensor would; a **warm**
//! one serves the same take from a recycled buffer, zero-filled or fully
//! overwritten first, so results never depend on the pool's history.
//! Because a training step takes and recycles in the same sequence every
//! batch, each pooled buffer is reused at the same size it was freed at —
//! after the first batch every `take` is served from capacity and the
//! steady state allocates nothing (gated at zero by the `bench::speed`
//! allocation probe).
//!
//! Pooling whole tensors (not just their data buffers) matters: a
//! `Tensor`'s shape is itself a heap `Vec<usize>`, so handing out raw
//! `Vec<f32>`s would still allocate a shape per take.

use crate::Tensor;

/// A LIFO pool of recycled tensors.
///
/// ```
/// use unifyfl_tensor::arena::Arena;
///
/// let mut arena = Arena::new();
/// let t = arena.take(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// arena.recycle(t); // its buffers serve the next take
/// ```
#[derive(Debug, Default, Clone)]
pub struct Arena {
    free: Vec<Tensor>,
}

impl Arena {
    /// An empty arena.
    pub fn new() -> Arena {
        Arena { free: Vec::new() }
    }

    /// A zero-filled tensor of shape `dims`, reusing a recycled buffer when
    /// one is pooled (LIFO — the most recently recycled tensor, whose
    /// capacity most likely already fits).
    pub fn take(&mut self, dims: &[usize]) -> Tensor {
        let mut t = self.free.pop().unwrap_or_else(|| Tensor::zeros(vec![]));
        t.reset_to(dims);
        t
    }

    /// A copy of `src` built on recycled buffers — [`Arena::take`] plus
    /// [`Tensor::copy_from`] without the intermediate zero-fill pass.
    pub fn take_from(&mut self, src: &Tensor) -> Tensor {
        let mut t = self.free.pop().unwrap_or_else(|| Tensor::zeros(vec![]));
        t.copy_from(src);
        t
    }

    /// Returns a tensor's buffers to the pool.
    pub fn recycle(&mut self, t: Tensor) {
        self.free.push(t);
    }

    /// Number of tensors currently pooled.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zero_filled_and_shaped() {
        let mut arena = Arena::new();
        let mut t = arena.take(&[2, 2]);
        t.data_mut().fill(7.0);
        arena.recycle(t);
        let t = arena.take(&[4]);
        assert_eq!(t.shape(), &[4]);
        assert!(t.data().iter().all(|&v| v == 0.0), "stale data is cleared");
        assert_eq!(arena.pooled(), 0);
    }

    #[test]
    fn recycle_take_is_lifo() {
        let mut arena = Arena::new();
        let a = arena.take(&[8]);
        let b = arena.take(&[2]);
        arena.recycle(a);
        arena.recycle(b); // b on top: next take reuses its buffers
        assert_eq!(arena.pooled(), 2);
        let _ = arena.take(&[2]);
        assert_eq!(arena.pooled(), 1);
    }
}
