//! Aggregation and scoring policies (§3.4.4 of the paper).
//!
//! After the smart contract hands an aggregator the latest peer models with
//! their score lists, two decisions remain local to the organization:
//!
//! 1. a **scoring policy** ([`ScorePolicy`]) reduces each model's list of
//!    scorer-reported scores to a single number (mean/median/min/max — the
//!    median and min variants defend against dishonest scorers), and
//! 2. an **aggregation policy** ([`AggregationPolicy`]) selects which peer
//!    models join the aggregator's own model in the next aggregation
//!    (sampling-based: All / Self / Random-k; performance-based: Top-k /
//!    Above-Average / Above-Median / Above-Self).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// A candidate peer model as seen by a policy: its reduced score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredCandidate {
    /// Index into the caller's candidate list.
    pub index: usize,
    /// Reduced score (higher = better).
    pub score: f64,
}

/// Reduces the per-scorer score list of one model to a single value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScorePolicy {
    /// Arithmetic mean of all scores.
    Mean,
    /// Median (robust to a minority of dishonest scorers).
    Median,
    /// Minimum (most pessimistic).
    Min,
    /// Maximum (most optimistic).
    Max,
}

impl ScorePolicy {
    /// Reduces `scores`; `None` when the list is empty.
    pub fn reduce(&self, scores: &[f64]) -> Option<f64> {
        if scores.is_empty() {
            return None;
        }
        Some(match self {
            ScorePolicy::Mean => scores.iter().sum::<f64>() / scores.len() as f64,
            ScorePolicy::Median => {
                let mut sorted = scores.to_vec();
                sorted.sort_by(f64::total_cmp);
                let mid = sorted.len() / 2;
                if sorted.len() % 2 == 1 {
                    sorted[mid]
                } else {
                    (sorted[mid - 1] + sorted[mid]) / 2.0
                }
            }
            ScorePolicy::Min => scores.iter().copied().fold(f64::INFINITY, f64::min),
            ScorePolicy::Max => scores.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        })
    }
}

impl std::fmt::Display for ScorePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScorePolicy::Mean => write!(f, "Mean"),
            ScorePolicy::Median => write!(f, "Median"),
            ScorePolicy::Min => write!(f, "Min"),
            ScorePolicy::Max => write!(f, "Max"),
        }
    }
}

/// Selects which peer models to aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggregationPolicy {
    /// Aggregate every available peer model.
    All,
    /// Use only the local model (no collaboration).
    SelfOnly,
    /// Aggregate `k` peers sampled uniformly at random.
    RandomK(usize),
    /// Aggregate the `k` best-scored peers.
    TopK(usize),
    /// Aggregate peers scoring above the mean of the candidate scores.
    AboveAverage,
    /// Aggregate peers scoring above the median of the candidate scores.
    AboveMedian,
    /// Aggregate peers scoring above the aggregator's own score.
    AboveSelf,
}

impl AggregationPolicy {
    /// Selects candidate indices to aggregate.
    ///
    /// `self_score` is the (reduced) score of the aggregator's own latest
    /// model, required by [`AggregationPolicy::AboveSelf`]; when absent that
    /// policy selects nothing (conservative).
    ///
    /// The returned indices are in ascending order and refer to
    /// `candidates`.
    pub fn select(
        &self,
        candidates: &[ScoredCandidate],
        self_score: Option<f64>,
        rng: &mut StdRng,
    ) -> Vec<usize> {
        let mut picked: Vec<usize> = match *self {
            AggregationPolicy::All => candidates.iter().map(|c| c.index).collect(),
            AggregationPolicy::SelfOnly => Vec::new(),
            AggregationPolicy::RandomK(k) => {
                let mut idx: Vec<usize> = candidates.iter().map(|c| c.index).collect();
                idx.shuffle(rng);
                idx.truncate(k);
                idx
            }
            AggregationPolicy::TopK(k) => {
                let mut sorted: Vec<&ScoredCandidate> = candidates.iter().collect();
                sorted.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.index.cmp(&b.index)));
                sorted.into_iter().take(k).map(|c| c.index).collect()
            }
            AggregationPolicy::AboveAverage => {
                if candidates.is_empty() {
                    Vec::new()
                } else {
                    let mean =
                        candidates.iter().map(|c| c.score).sum::<f64>() / candidates.len() as f64;
                    candidates
                        .iter()
                        .filter(|c| c.score > mean)
                        .map(|c| c.index)
                        .collect()
                }
            }
            AggregationPolicy::AboveMedian => {
                let scores: Vec<f64> = candidates.iter().map(|c| c.score).collect();
                match ScorePolicy::Median.reduce(&scores) {
                    Some(median) => candidates
                        .iter()
                        .filter(|c| c.score > median)
                        .map(|c| c.index)
                        .collect(),
                    None => Vec::new(),
                }
            }
            AggregationPolicy::AboveSelf => match self_score {
                Some(own) => candidates
                    .iter()
                    .filter(|c| c.score > own)
                    .map(|c| c.index)
                    .collect(),
                None => Vec::new(),
            },
        };
        picked.sort_unstable();
        picked
    }
}

impl std::fmt::Display for AggregationPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggregationPolicy::All => write!(f, "All"),
            AggregationPolicy::SelfOnly => write!(f, "Self"),
            AggregationPolicy::RandomK(k) => write!(f, "Random{k}"),
            AggregationPolicy::TopK(k) => write!(f, "Top{k}"),
            AggregationPolicy::AboveAverage => write!(f, "AboveAvg"),
            AggregationPolicy::AboveMedian => write!(f, "AboveMedian"),
            AggregationPolicy::AboveSelf => write!(f, "AboveSelf"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn candidates(scores: &[f64]) -> Vec<ScoredCandidate> {
        scores
            .iter()
            .enumerate()
            .map(|(index, &score)| ScoredCandidate { index, score })
            .collect()
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn score_policies_reduce_correctly() {
        let scores = [0.2, 0.8, 0.5];
        assert!((ScorePolicy::Mean.reduce(&scores).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(ScorePolicy::Median.reduce(&scores), Some(0.5));
        assert_eq!(ScorePolicy::Min.reduce(&scores), Some(0.2));
        assert_eq!(ScorePolicy::Max.reduce(&scores), Some(0.8));
    }

    #[test]
    fn median_of_even_list_averages_middles() {
        assert_eq!(ScorePolicy::Median.reduce(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
    }

    #[test]
    fn empty_scores_reduce_to_none() {
        for p in [
            ScorePolicy::Mean,
            ScorePolicy::Median,
            ScorePolicy::Min,
            ScorePolicy::Max,
        ] {
            assert_eq!(p.reduce(&[]), None);
        }
    }

    #[test]
    fn median_resists_outlier_scorer() {
        // A malicious scorer reporting 0 barely moves the median.
        let honest = [0.72, 0.70, 0.74];
        let with_attacker = [0.72, 0.70, 0.74, 0.0];
        let m1 = ScorePolicy::Median.reduce(&honest).unwrap();
        let m2 = ScorePolicy::Median.reduce(&with_attacker).unwrap();
        assert!((m1 - m2).abs() < 0.03);
        // The mean moves much more.
        let a1 = ScorePolicy::Mean.reduce(&honest).unwrap();
        let a2 = ScorePolicy::Mean.reduce(&with_attacker).unwrap();
        assert!((a1 - a2).abs() > 0.15);
    }

    #[test]
    fn all_selects_everything_self_selects_nothing() {
        let c = candidates(&[0.1, 0.9, 0.5]);
        assert_eq!(
            AggregationPolicy::All.select(&c, None, &mut rng()),
            vec![0, 1, 2]
        );
        assert!(AggregationPolicy::SelfOnly
            .select(&c, None, &mut rng())
            .is_empty());
    }

    #[test]
    fn top_k_picks_best_scores() {
        let c = candidates(&[0.1, 0.9, 0.5, 0.7]);
        assert_eq!(
            AggregationPolicy::TopK(2).select(&c, None, &mut rng()),
            vec![1, 3]
        );
        // k larger than the pool selects everything.
        assert_eq!(
            AggregationPolicy::TopK(10).select(&c, None, &mut rng()),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn top_k_ties_break_deterministically() {
        let c = candidates(&[0.5, 0.5, 0.5]);
        assert_eq!(
            AggregationPolicy::TopK(2).select(&c, None, &mut rng()),
            vec![0, 1]
        );
    }

    #[test]
    fn random_k_is_seed_deterministic_and_bounded() {
        let c = candidates(&[0.1, 0.2, 0.3, 0.4, 0.5]);
        let a = AggregationPolicy::RandomK(2).select(&c, None, &mut StdRng::seed_from_u64(7));
        let b = AggregationPolicy::RandomK(2).select(&c, None, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert!(a.iter().all(|i| *i < 5));
    }

    #[test]
    fn above_average_filters_low_scores() {
        let c = candidates(&[0.9, 0.8, 0.1]); // mean = 0.6
        assert_eq!(
            AggregationPolicy::AboveAverage.select(&c, None, &mut rng()),
            vec![0, 1]
        );
    }

    #[test]
    fn above_average_excludes_poisoned_model() {
        // The Figure 7 scenario: two honest models and one near-zero
        // poisoned model. Above-average keeps the honest pair.
        let c = candidates(&[0.45, 0.43, 0.02]);
        let selected = AggregationPolicy::AboveAverage.select(&c, None, &mut rng());
        assert_eq!(selected, vec![0, 1]);
        // Naive Top-3 would include the attacker.
        let naive = AggregationPolicy::TopK(3).select(&c, None, &mut rng());
        assert!(naive.contains(&2));
    }

    #[test]
    fn above_median_selects_strict_upper_half() {
        let c = candidates(&[0.1, 0.5, 0.9]);
        assert_eq!(
            AggregationPolicy::AboveMedian.select(&c, None, &mut rng()),
            vec![2]
        );
    }

    #[test]
    fn above_self_needs_own_score() {
        let c = candidates(&[0.3, 0.6, 0.9]);
        assert_eq!(
            AggregationPolicy::AboveSelf.select(&c, Some(0.5), &mut rng()),
            vec![1, 2]
        );
        assert!(AggregationPolicy::AboveSelf
            .select(&c, None, &mut rng())
            .is_empty());
    }

    #[test]
    fn empty_candidates_yield_empty_selection() {
        for p in [
            AggregationPolicy::All,
            AggregationPolicy::TopK(2),
            AggregationPolicy::AboveAverage,
            AggregationPolicy::AboveMedian,
            AggregationPolicy::RandomK(3),
        ] {
            assert!(p.select(&[], Some(0.5), &mut rng()).is_empty(), "{p}");
        }
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(AggregationPolicy::TopK(2).to_string(), "Top2");
        assert_eq!(AggregationPolicy::SelfOnly.to_string(), "Self");
        assert_eq!(AggregationPolicy::All.to_string(), "All");
        assert_eq!(ScorePolicy::Mean.to_string(), "Mean");
    }
}
