//! Synthetic Gaussian-prototype classification data.
//!
//! Substitutes for CIFAR-10 / Tiny ImageNet (see ARCHITECTURE.md): each class `k`
//! gets a prototype vector `μ_k ~ N(0, I)`; samples are
//! `x = μ_k + N(0, σ_n² I)`. The noise scale `σ_n` controls class overlap
//! (task difficulty) and a label-noise fraction caps the attainable
//! accuracy, which is how we match the paper's moderate absolute accuracy
//! levels (30–60 %) while preserving every *relative* effect the evaluation
//! measures (collab > no-collab, IID > NIID, poisoned < filtered).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unifyfl_tensor::zoo::InputKind;

use crate::dataset::Dataset;

/// Configuration of a synthetic dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Input shape (flat vector or image).
    pub input: InputKind,
    /// Number of classes.
    pub n_classes: usize,
    /// Total samples to generate.
    pub n_samples: usize,
    /// Per-sample noise scale σ_n.
    pub noise_scale: f64,
    /// Fraction of labels replaced by a uniformly random class.
    pub label_noise: f64,
}

impl SyntheticConfig {
    /// A CIFAR-10-like task: 10 classes, 8×8×3 images, overlap tuned so a
    /// small CNN converges to the paper's edge-cluster accuracy band.
    pub fn cifar10_like(n_samples: usize) -> Self {
        SyntheticConfig {
            input: InputKind::Image { c: 3, h: 8, w: 8 },
            n_classes: 10,
            n_samples,
            noise_scale: 4.0,
            label_noise: 0.10,
        }
    }

    /// A Tiny-ImageNet-like task: 200 classes, 64-d features, heavy overlap
    /// (the paper's VGG16 runs top out near 37 % accuracy).
    pub fn tiny_imagenet_like(n_samples: usize) -> Self {
        SyntheticConfig {
            input: InputKind::Flat(64),
            n_classes: 200,
            n_samples,
            noise_scale: 1.9,
            label_noise: 0.10,
        }
    }

    /// Generates the dataset deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no classes/samples, or
    /// `label_noise` outside `[0, 1]`).
    pub fn generate(&self, seed: u64) -> Dataset {
        assert!(self.n_classes > 0, "need at least one class");
        assert!(self.n_samples > 0, "need at least one sample");
        assert!(
            (0.0..=1.0).contains(&self.label_noise),
            "label_noise must be in [0, 1]"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = self.input.features();

        // Class prototypes.
        let prototypes: Vec<Vec<f32>> = (0..self.n_classes)
            .map(|_| (0..dim).map(|_| standard_normal(&mut rng) as f32).collect())
            .collect();

        // Standardize features to unit variance (1 + σn² total), the way
        // real image pipelines normalize inputs — this keeps gradient
        // magnitudes independent of the difficulty setting.
        let norm = ((1.0 + self.noise_scale.powi(2)).sqrt()) as f32;
        let mut features = Vec::with_capacity(self.n_samples * dim);
        let mut labels = Vec::with_capacity(self.n_samples);
        for i in 0..self.n_samples {
            let true_class = i % self.n_classes; // balanced classes
            let proto = &prototypes[true_class];
            for &p in proto {
                features.push((p + (standard_normal(&mut rng) * self.noise_scale) as f32) / norm);
            }
            let label = if rng.gen::<f64>() < self.label_noise {
                rng.gen_range(0..self.n_classes)
            } else {
                true_class
            };
            labels.push(label);
        }
        Dataset::new(self.input, self.n_classes, features, labels)
    }
}

/// Standard normal via Box–Muller.
pub fn standard_normal(rng: &mut StdRng) -> f64 {
    // Avoid ln(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SyntheticConfig::cifar10_like(100);
        assert_eq!(cfg.generate(5), cfg.generate(5));
        assert_ne!(cfg.generate(5), cfg.generate(6));
    }

    #[test]
    fn classes_are_balanced_before_label_noise() {
        let mut cfg = SyntheticConfig::cifar10_like(1000);
        cfg.label_noise = 0.0;
        let d = cfg.generate(1);
        let hist = d.class_histogram();
        assert!(hist.iter().all(|&c| c == 100), "{hist:?}");
    }

    #[test]
    fn label_noise_perturbs_some_labels() {
        let mut clean_cfg = SyntheticConfig::cifar10_like(1000);
        clean_cfg.label_noise = 0.0;
        let clean = clean_cfg.generate(3);

        let mut noisy_cfg = clean_cfg.clone();
        noisy_cfg.label_noise = 0.5;
        let noisy = noisy_cfg.generate(3);

        let differing = clean
            .labels()
            .iter()
            .zip(noisy.labels())
            .filter(|(a, b)| a != b)
            .count();
        // ~50% noise, of which 1/10 randomly re-draws the same label.
        assert!(
            differing > 300 && differing < 600,
            "differing = {differing}"
        );
    }

    #[test]
    fn classes_are_separable_by_prototype_distance() {
        let mut cfg = SyntheticConfig::cifar10_like(500);
        cfg.label_noise = 0.0;
        cfg.noise_scale = 0.1; // nearly noiseless ⇒ nearest prototype wins
        let d = cfg.generate(7);
        // Nearest-centroid classification on the generated data itself
        // should be nearly perfect at this noise level.
        let dim = d.input().features();
        let mut centroids = vec![vec![0.0f64; dim]; 10];
        let mut counts = vec![0usize; 10];
        for i in 0..d.len() {
            let l = d.labels()[i];
            counts[l] += 1;
            for (c, &x) in centroids[l].iter_mut().zip(d.sample(i)) {
                *c += x as f64;
            }
        }
        for (c, n) in centroids.iter_mut().zip(&counts) {
            for v in c.iter_mut() {
                *v /= *n as f64;
            }
        }
        let mut correct = 0;
        for i in 0..d.len() {
            let x = d.sample(i);
            let best = (0..10)
                .min_by(|&a, &b| {
                    let da: f64 = centroids[a]
                        .iter()
                        .zip(x)
                        .map(|(c, &v)| (c - v as f64).powi(2))
                        .sum();
                    let db: f64 = centroids[b]
                        .iter()
                        .zip(x)
                        .map(|(c, &v)| (c - v as f64).powi(2))
                        .sum();
                    da.total_cmp(&db)
                })
                .unwrap();
            if best == d.labels()[i] {
                correct += 1;
            }
        }
        assert!(correct as f64 / d.len() as f64 > 0.95);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    #[should_panic(expected = "label_noise")]
    fn invalid_label_noise_panics() {
        let mut cfg = SyntheticConfig::cifar10_like(10);
        cfg.label_noise = 1.5;
        let _ = cfg.generate(0);
    }
}
