//! Byzantine attacker models (§5 Q2 / Figure 7 of the paper) and the
//! differential-privacy publishing hook (§5 Q3 future work).
//!
//! A malicious organization participates in the full protocol — it trains,
//! publishes to IPFS, registers CIDs on-chain — but corrupts the weights it
//! publishes. The defense is *policy-side*: accuracy scorers give poisoned
//! models low scores, and a "smart" policy (e.g. Above-Average) filters
//! them, while a "naive" policy (e.g. Top-3 among 3 models) ingests them.
//!
//! [`DpConfig`] implements the paper's first suggested privacy extension:
//! Gaussian-mechanism noise on *published* weights, so peers (and scorers)
//! only ever see a privatized model while local training stays exact.

use rand::rngs::StdRng;
use rand::SeedableRng;

use unifyfl_data::synthetic::standard_normal;

/// How a malicious aggregator corrupts its published model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackKind {
    /// Publish the negated weights (classic sign-flip / model-poisoning).
    SignFlip,
    /// Add Gaussian noise of the given standard deviation to every weight.
    GaussianNoise {
        /// Noise standard deviation.
        sigma: f64,
    },
    /// Publish weights scaled by a large factor (gradient-boost attack).
    ScaleUp {
        /// Multiplicative factor.
        factor: f64,
    },
}

impl AttackKind {
    /// Applies the attack to a weight vector, deterministically under
    /// `seed`.
    pub fn corrupt(&self, weights: &[f32], seed: u64) -> Vec<f32> {
        match *self {
            AttackKind::SignFlip => weights.iter().map(|w| -w).collect(),
            AttackKind::GaussianNoise { sigma } => {
                let mut rng = StdRng::seed_from_u64(seed);
                weights
                    .iter()
                    .map(|w| w + (standard_normal(&mut rng) * sigma) as f32)
                    .collect()
            }
            AttackKind::ScaleUp { factor } => weights
                .iter()
                .map(|w| (*w as f64 * factor) as f32)
                .collect(),
        }
    }
}

impl std::fmt::Display for AttackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttackKind::SignFlip => write!(f, "sign-flip"),
            AttackKind::GaussianNoise { sigma } => write!(f, "gaussian-noise σ={sigma}"),
            AttackKind::ScaleUp { factor } => write!(f, "scale-up ×{factor}"),
        }
    }
}

/// Differential-privacy release mechanism for published weights (§5 Q3):
/// clip the weight vector to an L2 ball and add Gaussian noise calibrated
/// to `noise_multiplier × clip_norm`.
///
/// This is the standard Gaussian mechanism applied at the *model release*
/// boundary — the only place UnifyFL exposes anything beyond the local
/// cluster — leaving client training untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpConfig {
    /// Maximum L2 norm of the released weight vector.
    pub clip_norm: f64,
    /// Noise standard deviation as a multiple of `clip_norm`.
    pub noise_multiplier: f64,
}

impl DpConfig {
    /// Creates a DP release config.
    ///
    /// # Panics
    ///
    /// Panics if `clip_norm` is not positive or `noise_multiplier` is
    /// negative.
    pub fn new(clip_norm: f64, noise_multiplier: f64) -> Self {
        assert!(clip_norm > 0.0, "clip_norm must be positive");
        assert!(
            noise_multiplier >= 0.0,
            "noise_multiplier must be non-negative"
        );
        DpConfig {
            clip_norm,
            noise_multiplier,
        }
    }

    /// Applies clip-and-noise to a weight vector, deterministically under
    /// `seed`.
    pub fn privatize(&self, weights: &[f32], seed: u64) -> Vec<f32> {
        let norm: f64 = weights
            .iter()
            .map(|w| (*w as f64).powi(2))
            .sum::<f64>()
            .sqrt();
        let scale = if norm > self.clip_norm {
            self.clip_norm / norm
        } else {
            1.0
        };
        let sigma = self.noise_multiplier * self.clip_norm / (weights.len().max(1) as f64).sqrt();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
        weights
            .iter()
            .map(|w| ((*w as f64) * scale + standard_normal(&mut rng) * sigma) as f32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_flip_negates() {
        let w = vec![1.0f32, -2.0, 0.0];
        assert_eq!(AttackKind::SignFlip.corrupt(&w, 0), vec![-1.0, 2.0, 0.0]);
    }

    #[test]
    fn gaussian_noise_is_seeded_and_perturbs() {
        let w = vec![0.5f32; 100];
        let a = AttackKind::GaussianNoise { sigma: 1.0 }.corrupt(&w, 7);
        let b = AttackKind::GaussianNoise { sigma: 1.0 }.corrupt(&w, 7);
        let c = AttackKind::GaussianNoise { sigma: 1.0 }.corrupt(&w, 8);
        assert_eq!(a, b, "same seed, same corruption");
        assert_ne!(a, c, "different seed, different corruption");
        let moved = a
            .iter()
            .zip(&w)
            .filter(|(x, y)| (*x - *y).abs() > 1e-6)
            .count();
        assert!(moved > 90);
    }

    #[test]
    fn scale_up_multiplies() {
        let w = vec![1.0f32, -1.0];
        assert_eq!(
            AttackKind::ScaleUp { factor: 10.0 }.corrupt(&w, 0),
            vec![10.0, -10.0]
        );
    }

    #[test]
    fn corrupted_model_is_far_from_original() {
        let w: Vec<f32> = (0..64).map(|i| (i as f32) * 0.01).collect();
        for attack in [
            AttackKind::SignFlip,
            AttackKind::GaussianNoise { sigma: 2.0 },
            AttackKind::ScaleUp { factor: 25.0 },
        ] {
            let bad = attack.corrupt(&w, 3);
            let dist = unifyfl_tensor::tensor::sq_dist_slice(&w, &bad);
            assert!(dist > 1.0, "{attack} moved only {dist}");
        }
    }

    fn l2(v: &[f32]) -> f64 {
        v.iter().map(|w| (*w as f64).powi(2)).sum::<f64>().sqrt()
    }

    #[test]
    fn dp_clips_to_the_norm_bound() {
        let w = vec![3.0f32; 100]; // norm = 30
        let dp = DpConfig::new(5.0, 0.0); // noiseless: pure clipping
        let out = dp.privatize(&w, 1);
        assert!((l2(&out) - 5.0).abs() < 1e-3, "norm {}", l2(&out));
        // Direction preserved under clipping.
        assert!(out.iter().all(|x| *x > 0.0));
    }

    #[test]
    fn dp_leaves_small_vectors_unclipped() {
        let w = vec![0.01f32; 10];
        let dp = DpConfig::new(5.0, 0.0);
        assert_eq!(dp.privatize(&w, 1), w);
    }

    #[test]
    fn dp_noise_is_seeded_and_scales_with_multiplier() {
        let w = vec![0.1f32; 1000];
        let quiet = DpConfig::new(10.0, 0.01);
        let loud = DpConfig::new(10.0, 1.0);
        let a = quiet.privatize(&w, 7);
        let b = quiet.privatize(&w, 7);
        assert_eq!(a, b, "deterministic under the seed");
        let d_quiet = unifyfl_tensor::tensor::sq_dist_slice(&w, &a);
        let d_loud = unifyfl_tensor::tensor::sq_dist_slice(&w, &loud.privatize(&w, 7));
        assert!(d_loud > d_quiet * 100.0, "{d_quiet} vs {d_loud}");
    }

    #[test]
    #[should_panic(expected = "clip_norm must be positive")]
    fn dp_rejects_invalid_clip() {
        let _ = DpConfig::new(0.0, 1.0);
    }
}
