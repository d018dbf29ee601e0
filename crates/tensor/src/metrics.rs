//! Classification metrics.

/// Fraction of predictions equal to their labels.
///
/// Returns 0 for empty inputs.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f64 {
    assert_eq!(predictions.len(), labels.len(), "length mismatch");
    if labels.is_empty() {
        return 0.0;
    }
    let correct = predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    correct as f64 / labels.len() as f64
}

/// Running mean over streaming batch metrics, weighted by batch size.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WeightedMean {
    sum: f64,
    weight: f64,
}

impl WeightedMean {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation `value` with weight `w` (e.g. batch size).
    pub fn add(&mut self, value: f64, w: f64) {
        if w > 0.0 && value.is_finite() {
            self.sum += value * w;
            self.weight += w;
        }
    }

    /// The weighted mean, or 0 if nothing was added.
    pub fn mean(&self) -> f64 {
        if self.weight > 0.0 {
            self.sum / self.weight
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_matches() {
        assert_eq!(accuracy(&[1, 2, 3], &[1, 0, 3]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
        assert_eq!(accuracy(&[5], &[5]), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accuracy_length_mismatch_panics() {
        let _ = accuracy(&[1], &[1, 2]);
    }

    #[test]
    fn weighted_mean_weights_batches() {
        let mut m = WeightedMean::new();
        m.add(1.0, 1.0);
        m.add(0.0, 3.0);
        assert!((m.mean() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn weighted_mean_ignores_degenerate_input() {
        let mut m = WeightedMean::new();
        m.add(f64::NAN, 1.0);
        m.add(1.0, 0.0);
        m.add(1.0, -2.0);
        assert_eq!(m.mean(), 0.0);
    }
}
