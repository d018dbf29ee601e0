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
        let mut x = Tensor::zeros(vec![]);
        self.range_into(0..self.len(), &mut x);
        x
    }

    /// Writes the samples of `range` into `x` as one batch shaped for the
    /// input kind, read straight from the feature slab into `x`'s own
    /// buffers, and returns their labels.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past the last sample.
    pub fn range_into(&self, range: std::ops::Range<usize>, x: &mut Tensor) -> &[usize] {
        let per = self.input.features();
        let rows = &self.features[range.start * per..range.end * per];
        self.gather_into(range.len(), [rows], x);
        &self.labels[range]
    }

    /// Fills `x` with `n` samples' worth of `rows`, shaped for the input
    /// kind.
    fn gather_into<'a>(&self, n: usize, rows: impl IntoIterator<Item = &'a [f32]>, x: &mut Tensor) {
        match self.input {
            InputKind::Flat(d) => x.assign_rows(&[n, d], rows),
            InputKind::Image { c, h, w } => x.assign_rows(&[n, c, h, w], rows),
        }
    }

    /// One epoch of shuffled mini-batches. The shuffle is drawn from `rng`
    /// here, whole; the batches are gathered one at a time as they are
    /// asked for — owned `(tensor, labels)` pairs by iterating the epoch,
    /// or into the caller's buffers through [`Batches::next_into`].
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn batches(&self, batch_size: usize, rng: &mut StdRng) -> Batches<'_> {
        assert!(batch_size > 0, "batch_size must be positive");
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(rng);
        Batches {
            data: self,
            order,
            batch_size,
            next: 0,
        }
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

/// The mini-batches of one shuffled epoch over a [`Dataset`], in order
/// (see [`Dataset::batches`]): gathered one at a time into the caller's
/// buffers ([`Batches::next_into`]), or handed out owned by iterating it.
#[derive(Debug, Clone)]
pub struct Batches<'a> {
    data: &'a Dataset,
    order: Vec<usize>,
    batch_size: usize,
    /// Position in `order` of the next batch's first sample.
    next: usize,
}

impl Batches<'_> {
    /// Gathers the next batch into `x` and `labels`, whatever they held,
    /// reusing their buffers; `false` (both untouched) once the epoch is
    /// spent.
    pub fn next_into(&mut self, x: &mut Tensor, labels: &mut Vec<usize>) -> bool {
        let end = (self.next + self.batch_size).min(self.order.len());
        let chunk = &self.order[self.next..end];
        if chunk.is_empty() {
            return false;
        }
        let data = self.data;
        data.gather_into(chunk.len(), chunk.iter().map(|&i| data.sample(i)), x);
        labels.clear();
        labels.extend(chunk.iter().map(|&i| data.labels[i]));
        self.next = end;
        true
    }
}

impl<'a> IntoIterator for Batches<'a> {
    type Item = (Tensor, Vec<usize>);
    type IntoIter = OwnedBatches<'a>;

    fn into_iter(self) -> OwnedBatches<'a> {
        OwnedBatches(self)
    }
}

/// [`Batches`] as an iterator of owned `(tensor, labels)` pairs: a fresh
/// pair of buffers per batch.
#[derive(Debug, Clone)]
pub struct OwnedBatches<'a>(Batches<'a>);

impl Iterator for OwnedBatches<'_> {
    type Item = (Tensor, Vec<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        let (mut x, mut labels) = (Tensor::zeros(vec![]), Vec::new());
        self.0.next_into(&mut x, &mut labels).then_some((x, labels))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.0.order.len() - self.0.next).div_ceil(self.0.batch_size);
        (left, Some(left))
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
        let epoch = d.batches(4, &mut rng).into_iter();
        assert_eq!(epoch.size_hint(), (2, Some(2)));
        let batches: Vec<_> = epoch.collect();
        assert_eq!(batches.len(), 2);
        let total: usize = batches.iter().map(|(_, l)| l.len()).sum();
        assert_eq!(total, 6);
        assert_eq!(batches[0].0.shape(), &[4, 2]);
        assert_eq!(batches[1].0.shape(), &[2, 2]);
    }

    #[test]
    fn batches_are_the_shuffled_subsets_whichever_way_they_are_read() {
        // The definition: shuffle the indices once, cut them into chunks,
        // each batch is that chunk's subset as a tensor. Owned batches and
        // batches gathered into one dirty, reused buffer must both be
        // exactly that — and leave the generator where the shuffle left it.
        use rand::Rng;
        let image = InputKind::Image { c: 2, h: 1, w: 3 };
        let d = Dataset::new(
            image,
            3,
            (0..7 * 6).map(|i| i as f32 * 0.5).collect(),
            vec![0, 1, 2, 0, 1, 2, 0],
        );
        let (mut a, mut b, mut c) = (
            StdRng::seed_from_u64(9),
            StdRng::seed_from_u64(9),
            StdRng::seed_from_u64(9),
        );
        let mut order: Vec<usize> = (0..d.len()).collect();
        order.shuffle(&mut a);
        let expected: Vec<(Tensor, Vec<usize>)> = order
            .chunks(3)
            .map(|chunk| {
                let sub = d.subset(chunk);
                (sub.as_tensor(), sub.labels().to_vec())
            })
            .collect();
        assert_eq!(expected[2].0.shape(), &[1, 2, 1, 3]);

        let owned: Vec<_> = d.batches(3, &mut b).into_iter().collect();
        assert_eq!(owned, expected);

        let (mut x, mut labels) = (Tensor::from_vec(vec![2], vec![f32::NAN; 2]), vec![9; 40]);
        let mut epoch = d.batches(3, &mut c);
        for want in &expected {
            assert!(epoch.next_into(&mut x, &mut labels));
            assert_eq!((&x, &labels), (&want.0, &want.1));
        }
        assert!(!epoch.next_into(&mut x, &mut labels));
        assert_eq!(x, expected[2].0, "a spent epoch leaves the buffers alone");
        let draws = [a.gen::<u64>(), b.gen::<u64>(), c.gen::<u64>()];
        assert_eq!(draws, [draws[0]; 3]);
    }

    #[test]
    fn range_into_reads_the_slab_in_place() {
        let d = toy();
        let mut x = Tensor::zeros(vec![5]);
        assert_eq!(d.range_into(1..3, &mut x), &[1, 2]);
        assert_eq!(x, d.subset(&[1, 2]).as_tensor());
        assert_eq!(d.range_into(6..6, &mut x), &[] as &[usize]);
        assert_eq!(x.shape(), &[0, 2]);
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
