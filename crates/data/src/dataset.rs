//! In-memory classification datasets and batching.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use unifyfl_tensor::zoo::InputKind;
use unifyfl_tensor::Tensor;

/// A labelled classification dataset.
///
/// Features are stored flat (`len × features_per_sample`); the
/// [`InputKind`] records how models should view each sample (flat vector or
/// image).
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    input: InputKind,
    n_classes: usize,
    features: Vec<f32>,
    labels: Vec<usize>,
}

impl Dataset {
    /// Creates a dataset from flat features.
    ///
    /// # Panics
    ///
    /// Panics if the feature buffer is not a multiple of the per-sample
    /// feature count, the label count mismatches, or a label is out of
    /// range.
    pub fn new(input: InputKind, n_classes: usize, features: Vec<f32>, labels: Vec<usize>) -> Self {
        let per = input.features();
        assert!(per > 0, "input must have at least one feature");
        assert_eq!(
            features.len() % per,
            0,
            "feature buffer not a multiple of {per}"
        );
        assert_eq!(
            features.len() / per,
            labels.len(),
            "feature/label count mismatch"
        );
        assert!(
            labels.iter().all(|l| *l < n_classes),
            "label out of range for {n_classes} classes"
        );
        Dataset {
            input,
            n_classes,
            features,
            labels,
        }
    }

    /// How each sample is shaped.
    pub fn input(&self) -> InputKind {
        self.input
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Features of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn sample(&self, i: usize) -> &[f32] {
        let per = self.input.features();
        &self.features[i * per..(i + 1) * per]
    }

    /// A new dataset containing the samples at `indices` (in that order).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let per = self.input.features();
        let mut features = Vec::with_capacity(indices.len() * per);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            features.extend_from_slice(self.sample(i));
            labels.push(self.labels[i]);
        }
        Dataset {
            input: self.input,
            n_classes: self.n_classes,
            features,
            labels,
        }
    }

    /// Splits into `(train, test)` with `test_fraction` of samples held out,
    /// after a deterministic shuffle.
    ///
    /// # Panics
    ///
    /// Panics if `test_fraction` is outside `(0, 1)`.
    pub fn split(&self, test_fraction: f64, rng: &mut StdRng) -> (Dataset, Dataset) {
        assert!(
            test_fraction > 0.0 && test_fraction < 1.0,
            "test_fraction must be in (0, 1)"
        );
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        let n_test = ((self.len() as f64) * test_fraction).round() as usize;
        let (test_idx, train_idx) = idx.split_at(n_test.min(self.len()));
        (self.subset(train_idx), self.subset(test_idx))
    }

    /// Materializes all samples as a batch tensor shaped for the input kind
    /// (`[n, d]` for flat, `[n, c, h, w]` for images).
    pub fn as_tensor(&self) -> Tensor {
        let shape = match self.input {
            InputKind::Flat(d) => vec![self.len(), d],
            InputKind::Image { c, h, w } => vec![self.len(), c, h, w],
        };
        Tensor::from_vec(shape, self.features.clone())
    }

    /// Iterates over shuffled mini-batches as `(tensor, labels)` pairs.
    pub fn batches(&self, batch_size: usize, rng: &mut StdRng) -> Vec<(Tensor, Vec<usize>)> {
        assert!(batch_size > 0, "batch_size must be positive");
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        idx.chunks(batch_size)
            .map(|chunk| {
                let sub = self.subset(chunk);
                (sub.as_tensor(), sub.labels.clone())
            })
            .collect()
    }

    /// A copy with every label shifted by `shift` classes (modulo the
    /// class count) — a label-permutation domain drift: the feature→label
    /// map changes everywhere at once while the feature marginals stay
    /// intact, so a model trained on the old task is suddenly wrong on the
    /// new one.
    pub fn rotate_labels(&self, shift: usize) -> Dataset {
        let labels = self
            .labels
            .iter()
            .map(|l| (l + shift) % self.n_classes)
            .collect();
        Dataset {
            labels,
            ..self.clone()
        }
    }

    /// Per-class sample counts (length `n_classes`).
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.n_classes];
        for &l in &self.labels {
            hist[l] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn toy() -> Dataset {
        // 6 samples, 2 features, 3 classes.
        let features = (0..12).map(|i| i as f32).collect();
        let labels = vec![0, 1, 2, 0, 1, 2];
        Dataset::new(InputKind::Flat(2), 3, features, labels)
    }

    #[test]
    fn construction_validates() {
        let d = toy();
        assert_eq!(d.len(), 6);
        assert_eq!(d.sample(1), &[2.0, 3.0]);
        assert_eq!(d.class_histogram(), vec![2, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn out_of_range_label_rejected() {
        let _ = Dataset::new(InputKind::Flat(1), 2, vec![0.0], vec![5]);
    }

    #[test]
    #[should_panic(expected = "feature/label count mismatch")]
    fn mismatched_lengths_rejected() {
        let _ = Dataset::new(InputKind::Flat(2), 2, vec![0.0, 1.0], vec![0, 1]);
    }

    #[test]
    fn subset_preserves_order_and_content() {
        let d = toy();
        let s = d.subset(&[4, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.labels(), &[1, 0]);
        assert_eq!(s.sample(0), &[8.0, 9.0]);
    }

    #[test]
    fn rotate_labels_shifts_modulo_classes() {
        let d = toy();
        let r = d.rotate_labels(2);
        assert_eq!(r.labels(), &[2, 0, 1, 2, 0, 1]);
        // Features are untouched; a full rotation is the identity.
        assert_eq!(r.sample(0), d.sample(0));
        assert_eq!(d.rotate_labels(3).labels(), d.labels());
    }

    #[test]
    fn split_partitions_all_samples() {
        let d = toy();
        let mut rng = StdRng::seed_from_u64(1);
        let (train, test) = d.split(0.33, &mut rng);
        assert_eq!(train.len() + test.len(), d.len());
        assert_eq!(test.len(), 2);
    }

    #[test]
    fn split_is_deterministic() {
        let d = toy();
        let (a, _) = d.split(0.33, &mut StdRng::seed_from_u64(7));
        let (b, _) = d.split(0.33, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn batches_cover_every_sample_once() {
        let d = toy();
        let mut rng = StdRng::seed_from_u64(2);
        let batches = d.batches(4, &mut rng);
        assert_eq!(batches.len(), 2);
        let total: usize = batches.iter().map(|(_, l)| l.len()).sum();
        assert_eq!(total, 6);
        assert_eq!(batches[0].0.shape(), &[4, 2]);
        assert_eq!(batches[1].0.shape(), &[2, 2]);
    }

    #[test]
    fn image_dataset_tensor_shape() {
        let n = 2 * 3 * 4 * 4;
        let d = Dataset::new(
            InputKind::Image { c: 3, h: 4, w: 4 },
            2,
            vec![0.0; n],
            vec![0, 1],
        );
        assert_eq!(d.as_tensor().shape(), &[2, 3, 4, 4]);
    }
}
