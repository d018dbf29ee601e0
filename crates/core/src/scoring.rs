//! Model scoring algorithms (§2.6 of the paper).
//!
//! Two scorers are implemented, matching the paper's evaluation:
//!
//! - **Accuracy scoring**
//!   ([`ClusterNode::score_weights`](crate::cluster::ClusterNode::score_weights)):
//!   the scorer evaluates the model on its own held-out test shard. Works
//!   in both Sync and Async modes, but is computationally heavy (a full
//!   inference pass).
//! - **MultiKRUM** ([`multikrum_scores`], Blanchard et al. / as used in
//!   Biscotti): a similarity score over *all* models submitted in a round —
//!   each model is scored by the (negated) sum of squared distances to its
//!   closest neighbours. Cheap, but only defined when the full round's
//!   submissions are available, which is why the paper restricts it to the
//!   Sync mode (Table 3). The same restriction is enforced here.

use unifyfl_tensor::tensor::sq_dist_slice;

/// Which scoring algorithm a federation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScorerKind {
    /// Holdout-accuracy scoring (Sync + Async).
    Accuracy,
    /// MultiKRUM similarity scoring (Sync only).
    MultiKrum,
}

impl std::fmt::Display for ScorerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScorerKind::Accuracy => write!(f, "Accuracy"),
            ScorerKind::MultiKrum => write!(f, "MultiKRUM"),
        }
    }
}

impl ScorerKind {
    /// True if the scorer requires all of a round's submissions at once
    /// (and therefore cannot run in Async mode — Table 3).
    pub fn requires_full_round(&self) -> bool {
        matches!(self, ScorerKind::MultiKrum)
    }
}

/// The Byzantine count the engines assume when running MultiKRUM over a
/// round of `n` submissions: the largest `f` that is at most `n / 4`
/// *and* respects Krum's `n ≥ 2f + 3` requirement (Blanchard et al.).
///
/// The naive `n / 4` rule quietly violates that requirement at small
/// federations (`n = 4` gives `f = 1` but needs `n ≥ 5`), which used to
/// surface as [`multikrum_scores`] silently clamping its neighbour count;
/// capping `f` here keeps the assumption sound for every `n ≥ 3`. For
/// `n < 3` no admissible `f` exists —
/// [`ExperimentConfig::validate`](crate::experiment::ExperimentConfig::validate)
/// rejects such configurations up front.
pub fn krum_assumed_byzantine(n: usize) -> usize {
    (n / 4).min(n.saturating_sub(3) / 2)
}

/// MultiKRUM scores for a set of weight vectors.
///
/// For each model `i`, sums the squared distances to its `n - f - 2`
/// nearest neighbours (`f` = assumed Byzantine count); the score is mapped
/// through `1 / (1 + dist / scale)` so that **higher means better** (the
/// paper's policies always prefer higher scores). `scale` is the median
/// neighbour-sum, making the score self-normalizing.
///
/// Models far from the majority cluster — e.g. sign-flipped or noisy
/// poisoned updates — receive scores near 0.
///
/// **Clamp for direct callers:** Krum assumes `n ≥ 2f + 3`, which makes
/// the neighbour count `n - f - 2` at least `f + 1`. When a caller passes
/// an inadmissible `f` (i.e. `n ≤ f + 2`, where the formula yields zero
/// neighbours), the count is clamped to one nearest neighbour so the
/// function still returns well-defined scores in `(0, 1]` — but such
/// scores carry no Byzantine-tolerance guarantee. The engines never hit
/// this clamp: they derive `f` via [`krum_assumed_byzantine`], and
/// experiment validation rejects MultiKRUM federations smaller than 3
/// clusters.
///
/// # Panics
///
/// Panics if weight vectors have inconsistent lengths.
pub fn multikrum_scores(models: &[Vec<f32>], f: usize) -> Vec<f64> {
    let n = models.len();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![1.0];
    }
    for m in models {
        assert_eq!(m.len(), models[0].len(), "weight vector length mismatch");
    }

    // Pairwise squared distances.
    let mut dist = vec![vec![0.0f64; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = sq_dist_slice(&models[i], &models[j]);
            dist[i][j] = d;
            dist[j][i] = d;
        }
    }

    // Sum over the n - f - 2 closest neighbours — clamped to at least one
    // for inadmissible `f` (see the doc comment's clamp contract).
    let keep = n.saturating_sub(f + 2).max(1).min(n - 1);
    let sums: Vec<f64> = (0..n)
        .map(|i| {
            let mut row: Vec<f64> = (0..n).filter(|&j| j != i).map(|j| dist[i][j]).collect();
            row.sort_by(f64::total_cmp);
            row.into_iter().take(keep).sum()
        })
        .collect();

    // Normalize: median neighbour-sum maps to score 0.5.
    let mut sorted = sums.clone();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[n / 2].max(1e-12);
    sums.into_iter().map(|s| 1.0 / (1.0 + s / median)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multikrum_penalizes_outlier() {
        // Four similar models and one far-away poisoned model.
        let honest: Vec<Vec<f32>> = (0..4)
            .map(|i| (0..32).map(|j| ((i + j) % 5) as f32 * 0.01).collect())
            .collect();
        let mut models = honest;
        models.push(vec![50.0; 32]); // sign-flip-scale outlier
        let scores = multikrum_scores(&models, 1);
        let outlier = scores[4];
        for (i, &s) in scores[..4].iter().enumerate() {
            assert!(
                s > outlier * 5.0,
                "honest model {i} score {s} vs outlier {outlier}"
            );
        }
    }

    #[test]
    fn multikrum_identical_models_score_equally() {
        let models = vec![vec![1.0f32; 8]; 4];
        let scores = multikrum_scores(&models, 0);
        assert!(scores.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12));
        // Zero distance ⇒ maximal score.
        assert!(scores.iter().all(|&s| s > 0.99));
    }

    #[test]
    fn multikrum_edge_cases() {
        assert!(multikrum_scores(&[], 0).is_empty());
        assert_eq!(multikrum_scores(&[vec![1.0, 2.0]], 0), vec![1.0]);
        // Two models: each has exactly one neighbour.
        let scores = multikrum_scores(&[vec![0.0; 4], vec![1.0; 4]], 0);
        assert_eq!(scores.len(), 2);
        assert!(scores.iter().all(|s| (0.0..=1.0).contains(s)));
    }

    #[test]
    fn krum_assumed_byzantine_respects_assumption() {
        // f ≤ n/4 and n ≥ 2f + 3 for every n where an admissible f exists.
        for n in 3..64 {
            let f = krum_assumed_byzantine(n);
            assert!(f <= n / 4, "n={n}: f={f} exceeds n/4");
            assert!(n >= 2 * f + 3, "n={n}: f={f} violates n >= 2f + 3");
        }
        // The naive n/4 rule would pick f=1 at n=4 (needs n ≥ 5); the cap
        // repairs exactly that case.
        assert_eq!(krum_assumed_byzantine(4), 0);
        assert_eq!(krum_assumed_byzantine(5), 1);
        assert_eq!(krum_assumed_byzantine(12), 3);
        // No admissible f below 3 clusters.
        assert_eq!(krum_assumed_byzantine(2), 0);
        assert_eq!(krum_assumed_byzantine(0), 0);
    }

    #[test]
    fn inadmissible_f_clamps_to_one_neighbour() {
        // n = 3 models with f = 5: n ≤ f + 2, so the documented clamp
        // keeps one nearest neighbour instead of none.
        let models = vec![vec![0.0f32; 8], vec![0.1; 8], vec![10.0; 8]];
        let clamped = multikrum_scores(&models, 5);
        assert_eq!(clamped.len(), 3);
        assert!(clamped.iter().all(|s| (0.0..=1.0).contains(s) && *s > 0.0));
        // With one neighbour kept, the clamped result equals the
        // admissible single-neighbour computation (f such that keep = 1).
        let one_neighbour = multikrum_scores(&models, 0);
        // keep for f=0 at n=3 is n-2 = 1 as well — identical by design.
        assert_eq!(clamped, one_neighbour);
        // The outlier still scores worst.
        assert!(clamped[2] < clamped[0] && clamped[2] < clamped[1]);
    }

    #[test]
    fn multikrum_scores_bounded() {
        let models: Vec<Vec<f32>> = (0..6)
            .map(|i| (0..16).map(|j| (i * j) as f32 * 0.1).collect())
            .collect();
        for f in 0..3 {
            let scores = multikrum_scores(&models, f);
            assert!(scores.iter().all(|s| (0.0..=1.0).contains(s)), "f={f}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn multikrum_rejects_ragged_input() {
        let _ = multikrum_scores(&[vec![1.0], vec![1.0, 2.0]], 0);
    }

    #[test]
    fn scorer_kind_properties() {
        assert!(!ScorerKind::Accuracy.requires_full_round());
        assert!(ScorerKind::MultiKrum.requires_full_round());
        assert_eq!(ScorerKind::MultiKrum.to_string(), "MultiKRUM");
    }
}
