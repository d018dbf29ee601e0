//! Aggregation strategies, mirroring Flower's `Strategy` abstraction.
//!
//! The paper's flexibility claim (§4.2.2) rests on clusters freely choosing
//! their aggregation algorithm; Runs 3–5 of Table 5 mix [`FedAvg`] and
//! [`FedYogi`] within one federation. Both are implemented here against a
//! common [`Strategy`] trait so cluster nodes can be configured per-run.

use unifyfl_tensor::optim::Yogi;

/// A weighted model update: `(weights, num_examples)`.
pub type WeightedUpdate = (Vec<f32>, usize);

/// Server-side aggregation strategy.
pub trait Strategy: Send {
    /// Strategy name for reports (e.g. `"FedAvg"`).
    fn name(&self) -> &str;

    /// Combines client updates into new global weights, starting from the
    /// server's `current` weights.
    ///
    /// # Panics
    ///
    /// Implementations may panic if updates have inconsistent lengths.
    fn aggregate(&mut self, current: &[f32], updates: &[WeightedUpdate]) -> Vec<f32>;
}

/// Example-weighted parameter mean (McMahan et al.).
#[derive(Debug, Clone, Copy, Default)]
pub struct FedAvg;

impl FedAvg {
    /// Creates a FedAvg strategy.
    pub fn new() -> Self {
        FedAvg
    }
}

/// Weighted mean of updates; `current` is returned unchanged when no
/// updates arrive.
pub fn weighted_mean(current: &[f32], updates: &[WeightedUpdate]) -> Vec<f32> {
    if updates.is_empty() {
        return current.to_vec();
    }
    let total: f64 = updates.iter().map(|(_, n)| *n as f64).sum();
    assert!(total > 0.0, "updates must carry positive example counts");
    blend(
        updates
            .iter()
            .map(|(w, n)| (w.as_slice(), *n as f64 / total)),
    )
}

/// `Σₖ coefₖ · updateₖ`, coordinate by coordinate in `f64`: each
/// coordinate starts at `+0.0` and meets its addends in update order —
/// that sequence is the byte contract. It is kept a cache-resident block
/// of coordinates at a time, so an aggregation holds its result and no
/// model-sized `f64` accumulator beside it.
///
/// # Panics
///
/// Panics if the updates differ in length.
fn blend<'a>(terms: impl Iterator<Item = (&'a [f32], f64)> + Clone) -> Vec<f32> {
    const BLOCK: usize = 1024;
    let dim = terms.clone().next().map_or(0, |(w, _)| w.len());
    let mut out = Vec::with_capacity(dim);
    let mut acc = [0.0f64; BLOCK];
    for start in (0..dim).step_by(BLOCK) {
        let acc = &mut acc[..BLOCK.min(dim - start)];
        acc.fill(0.0);
        for (w, coef) in terms.clone() {
            assert_eq!(w.len(), dim, "update length mismatch");
            for (a, &x) in acc.iter_mut().zip(&w[start..]) {
                *a += coef * x as f64;
            }
        }
        out.extend(acc.iter().map(|&a| a as f32));
    }
    out
}

/// Precision-weighted parameter mean: each update carries a non-negative
/// precision (an inverse-variance confidence, e.g. `1 / (variance + ε)`
/// from on-chain scorer disagreement) and contributes proportionally to
/// it. Falls back to an equal-weight mean when every precision is zero
/// (or non-finite sums), so a degenerate round can never zero out the
/// model.
///
/// `current` is returned unchanged when no updates arrive.
///
/// # Panics
///
/// Panics if updates have inconsistent lengths or a precision is
/// negative.
pub fn precision_weighted_mean(current: &[f32], updates: &[(Vec<f32>, f64)]) -> Vec<f32> {
    if updates.is_empty() {
        return current.to_vec();
    }
    assert!(
        updates.iter().all(|(_, p)| *p >= 0.0),
        "precisions must be non-negative"
    );
    let total: f64 = updates.iter().map(|(_, p)| *p).sum();
    let degenerate = !total.is_finite() || total <= 0.0;
    let equal = 1.0 / updates.len() as f64;
    blend(updates.iter().map(|(w, p)| {
        let coef = if degenerate { equal } else { p / total };
        (w.as_slice(), coef)
    }))
}

impl Strategy for FedAvg {
    fn name(&self) -> &str {
        "FedAvg"
    }

    fn aggregate(&mut self, current: &[f32], updates: &[WeightedUpdate]) -> Vec<f32> {
        weighted_mean(current, updates)
    }
}

/// FedYogi (Reddi et al.): the weighted mean becomes a pseudo-gradient for
/// a server-side Yogi optimizer, giving adaptive per-coordinate server
/// steps that tolerate heterogeneous client drift.
pub struct FedYogi {
    yogi: Yogi,
}

impl FedYogi {
    /// Creates FedYogi with a conservative default server learning rate
    /// (0.03; the paper does not report theirs). Larger server steps let
    /// the Yogi model drift off the clients' consensus manifold, which
    /// destabilizes subsequent high-lr local training.
    pub fn new() -> Self {
        FedYogi {
            yogi: Yogi::new(0.03),
        }
    }
}

impl Default for FedYogi {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for FedYogi {
    fn name(&self) -> &str {
        "FedYogi"
    }

    fn aggregate(&mut self, current: &[f32], updates: &[WeightedUpdate]) -> Vec<f32> {
        if updates.is_empty() {
            return current.to_vec();
        }
        let mean = weighted_mean(current, updates);
        // Pseudo-gradient points from the aggregate back to the server
        // model; stepping against it moves the server toward the aggregate
        // with adaptive coordinates.
        let pseudo_grad: Vec<f32> = current.iter().zip(&mean).map(|(c, m)| c - m).collect();
        let mut params = current.to_vec();
        self.yogi.step(&mut params, &pseudo_grad);
        params
    }
}

impl std::fmt::Debug for FedYogi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FedYogi").finish()
    }
}

/// Strategy selector used in experiment configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Example-weighted mean.
    FedAvg,
    /// Adaptive server optimizer.
    FedYogi,
}

impl StrategyKind {
    /// Instantiates the strategy.
    pub fn build(self) -> Box<dyn Strategy> {
        match self {
            StrategyKind::FedAvg => Box::new(FedAvg::new()),
            StrategyKind::FedYogi => Box::new(FedYogi::new()),
        }
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategyKind::FedAvg => write!(f, "FedAvg"),
            StrategyKind::FedYogi => write!(f, "FedYogi"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fedavg_weights_by_example_count() {
        let mut s = FedAvg::new();
        let updates = vec![(vec![0.0f32, 0.0], 1), (vec![4.0f32, 8.0], 3)];
        let out = s.aggregate(&[9.0, 9.0], &updates);
        assert_eq!(out, vec![3.0, 6.0]);
    }

    #[test]
    fn blocked_means_are_bitwise_the_whole_vector_accumulation() {
        // The reference formulation: one model-sized f64 accumulator,
        // every update added onto it whole, in order. 2,500 coordinates
        // span two full blocks and a short one; the edge values make the
        // order of additions visible (`-0.0`, `∞ − ∞`, a NaN update).
        let dim = 2_500;
        let updates: Vec<(Vec<f32>, f64)> = (0..5u32)
            .map(|k| {
                let mut w: Vec<f32> = (0..dim as u32)
                    .map(|i| {
                        (i.wrapping_mul(2_654_435_761).wrapping_add(k) % 2_000) as f32 * 1e-3 - 1.0
                    })
                    .collect();
                w[k as usize] = -0.0;
                w[1_030] = [f32::INFINITY, f32::NEG_INFINITY][k as usize % 2];
                w[2_499] = if k == 3 { f32::NAN } else { w[2_499] };
                (w, f64::from(k + 1))
            })
            .collect();
        let reference = |coefs: Vec<f64>| -> Vec<f32> {
            let mut out = vec![0.0f64; dim];
            for ((w, _), coef) in updates.iter().zip(coefs) {
                for (o, &x) in out.iter_mut().zip(w) {
                    *o += coef * x as f64;
                }
            }
            out.into_iter().map(|x| x as f32).collect()
        };
        let same = |got: Vec<f32>, want: Vec<f32>| {
            assert_eq!(got.len(), want.len());
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                    "{i}"
                );
            }
        };
        let counted: Vec<WeightedUpdate> = updates
            .iter()
            .map(|(w, p)| (w.clone(), *p as usize))
            .collect();
        same(
            weighted_mean(&[], &counted),
            reference((1..=5).map(|n| f64::from(n) / 15.0).collect()),
        );
        same(
            precision_weighted_mean(&[], &updates),
            reference((1..=5).map(|p| f64::from(p) / 15.0).collect()),
        );
        let zeroed: Vec<(Vec<f32>, f64)> = updates.iter().map(|(w, _)| (w.clone(), 0.0)).collect();
        same(
            precision_weighted_mean(&[], &zeroed),
            reference(vec![1.0 / 5.0; 5]),
        );
    }

    #[test]
    fn fedavg_equal_weights_is_plain_mean() {
        let mut s = FedAvg::new();
        let updates = vec![(vec![1.0f32], 5), (vec![3.0f32], 5)];
        assert_eq!(s.aggregate(&[0.0], &updates), vec![2.0]);
    }

    #[test]
    fn empty_updates_keep_current() {
        let mut avg = FedAvg::new();
        let mut yogi = FedYogi::new();
        assert_eq!(avg.aggregate(&[1.0, 2.0], &[]), vec![1.0, 2.0]);
        assert_eq!(yogi.aggregate(&[1.0, 2.0], &[]), vec![1.0, 2.0]);
    }

    #[test]
    fn fedyogi_moves_toward_aggregate() {
        let mut s = FedYogi::new();
        let current = vec![0.0f32; 4];
        let updates = vec![(vec![1.0f32; 4], 10)];
        let mut params = current;
        for _ in 0..200 {
            params = s.aggregate(&params, &updates);
        }
        // Repeated steps should approach the client consensus at 1.0.
        assert!(params.iter().all(|p| (*p - 1.0).abs() < 0.3), "{params:?}");
    }

    #[test]
    fn fedyogi_single_step_is_bounded() {
        let mut s = FedYogi::new();
        let current = vec![0.0f32; 4];
        let updates = vec![(vec![100.0f32; 4], 10)];
        let out = s.aggregate(&current, &updates);
        // Adaptive normalization bounds the step magnitude near the lr.
        assert!(out.iter().all(|p| p.abs() < 1.0), "{out:?}");
    }

    #[test]
    fn precision_mean_favors_high_precision_updates() {
        // 3:1 precision ratio → 0.75·a + 0.25·b.
        let out = precision_weighted_mean(&[0.0], &[(vec![4.0], 3.0), (vec![8.0], 1.0)]);
        assert!((out[0] - 5.0).abs() < 1e-6, "{out:?}");
        // Equal precisions collapse to the plain mean.
        let out = precision_weighted_mean(&[0.0], &[(vec![1.0], 2.0), (vec![3.0], 2.0)]);
        assert!((out[0] - 2.0).abs() < 1e-6, "{out:?}");
    }

    #[test]
    fn precision_mean_degenerate_cases() {
        // No updates: current survives.
        assert_eq!(precision_weighted_mean(&[7.0], &[]), vec![7.0]);
        // All-zero precisions: equal-weight fallback, not a zeroed model.
        let out = precision_weighted_mean(&[0.0], &[(vec![1.0], 0.0), (vec![3.0], 0.0)]);
        assert!((out[0] - 2.0).abs() < 1e-6, "{out:?}");
    }

    #[test]
    #[should_panic(expected = "precisions must be non-negative")]
    fn precision_mean_rejects_negative_precision() {
        let _ = precision_weighted_mean(&[0.0], &[(vec![1.0], -1.0)]);
    }

    #[test]
    #[should_panic(expected = "update length mismatch")]
    fn mismatched_update_lengths_panic() {
        let mut s = FedAvg::new();
        let _ = s.aggregate(&[0.0], &[(vec![1.0], 1), (vec![1.0, 2.0], 1)]);
    }

    #[test]
    fn kind_builds_named_strategies() {
        assert_eq!(StrategyKind::FedAvg.build().name(), "FedAvg");
        assert_eq!(StrategyKind::FedYogi.build().name(), "FedYogi");
        assert_eq!(StrategyKind::FedAvg.to_string(), "FedAvg");
    }
}
