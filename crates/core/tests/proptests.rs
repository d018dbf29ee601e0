//! Property-based tests of policy and scoring invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use unifyfl_core::policy::{AggregationPolicy, ScorePolicy, ScoredCandidate};
use unifyfl_core::scoring::multikrum_scores;

fn candidates(scores: &[f64]) -> Vec<ScoredCandidate> {
    scores
        .iter()
        .enumerate()
        .map(|(index, &score)| ScoredCandidate { index, score })
        .collect()
}

proptest! {
    /// Every policy returns a sorted, duplicate-free subset of the
    /// candidate indices.
    #[test]
    fn selections_are_valid_subsets(
        scores in proptest::collection::vec(0.0f64..1.0, 0..12),
        k in 0usize..8,
        self_score in proptest::option::of(0.0f64..1.0),
        seed in any::<u64>(),
    ) {
        let cands = candidates(&scores);
        let mut rng = StdRng::seed_from_u64(seed);
        for policy in [
            AggregationPolicy::All,
            AggregationPolicy::SelfOnly,
            AggregationPolicy::RandomK(k),
            AggregationPolicy::TopK(k),
            AggregationPolicy::AboveAverage,
            AggregationPolicy::AboveMedian,
            AggregationPolicy::AboveSelf,
        ] {
            let sel = policy.select(&cands, self_score, &mut rng);
            prop_assert!(sel.windows(2).all(|w| w[0] < w[1]), "{policy}: not sorted/deduped");
            prop_assert!(sel.iter().all(|i| *i < scores.len()), "{policy}: out of range");
        }
    }

    /// Top-k respects k and picks maximal scores.
    #[test]
    fn top_k_is_maximal(
        scores in proptest::collection::vec(0.0f64..1.0, 1..12),
        k in 1usize..6,
    ) {
        let cands = candidates(&scores);
        let mut rng = StdRng::seed_from_u64(1);
        let sel = AggregationPolicy::TopK(k).select(&cands, None, &mut rng);
        prop_assert_eq!(sel.len(), k.min(scores.len()));
        let worst_selected = sel
            .iter()
            .map(|&i| scores[i])
            .fold(f64::INFINITY, f64::min);
        for (i, &s) in scores.iter().enumerate() {
            if !sel.contains(&i) {
                prop_assert!(s <= worst_selected + 1e-12);
            }
        }
    }

    /// Score reductions lie within the score range.
    #[test]
    fn reductions_are_bounded(scores in proptest::collection::vec(0.0f64..1.0, 1..16)) {
        let lo = scores.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for policy in [ScorePolicy::Mean, ScorePolicy::Median, ScorePolicy::Min, ScorePolicy::Max] {
            let r = policy.reduce(&scores).unwrap();
            prop_assert!(r >= lo - 1e-12 && r <= hi + 1e-12, "{policy}: {r} outside [{lo}, {hi}]");
        }
    }

    /// MultiKRUM scores are bounded and permutation-consistent: permuting
    /// the model list permutes the scores.
    #[test]
    fn multikrum_is_permutation_equivariant(
        seeds in proptest::collection::vec(any::<u32>(), 3..6),
        f in 0usize..2,
    ) {
        let models: Vec<Vec<f32>> = seeds
            .iter()
            .map(|s| (0..16).map(|j| ((s.wrapping_mul(j + 1)) % 97) as f32 * 0.01).collect())
            .collect();
        let base = multikrum_scores(&models, f);
        prop_assert!(base.iter().all(|s| (0.0..=1.0).contains(s)));
        // Rotate the list by one and compare.
        let mut rotated = models.clone();
        rotated.rotate_left(1);
        let rot_scores = multikrum_scores(&rotated, f);
        for (i, b) in base.iter().enumerate() {
            let j = (i + models.len() - 1) % models.len();
            prop_assert!((b - rot_scores[j]).abs() < 1e-9);
        }
    }
}

// ---------------------------------------------------------------------
// ROADMAP 4(d), the numeric-knob slice: validate-ok ⇒ the run completes.
// ---------------------------------------------------------------------

/// One numeric knob of an experiment: how to set it on the quickstart,
/// which values a deployment may legitimately write, and the grid to try.
struct Knob {
    name: &'static str,
    set: fn(&mut unifyfl_core::ExperimentConfig, f64),
    valid: fn(f64) -> bool,
    grid: Vec<f64>,
}

/// *{NaN, ±∞, -1, 0, tiny, nominal, huge}* around a float knob's own
/// "tiny" and "huge": the smallest and largest values a deployment could
/// plausibly mean.
fn float_grid(tiny: f64, nominal: f64, huge: f64) -> Vec<f64> {
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    vec![nan, inf, -inf, -1.0, 0.0, tiny, nominal, huge]
}

/// [`float_grid`] for a knob that scales virtual time, plus the point
/// *beyond huge*: finite, inside the knob's own domain, and a run that
/// would (practically) never end — `validate()` must refuse it on the
/// run's nominal horizon.
fn time_scaling_grid(tiny: f64, nominal: f64, huge: f64, beyond: f64) -> Vec<f64> {
    let mut grid = float_grid(tiny, nominal, huge);
    grid.push(beyond);
    grid
}

fn finite_positive(v: f64) -> bool {
    v.is_finite() && v > 0.0
}

fn numeric_knobs() -> Vec<Knob> {
    use unifyfl_core::{AttackKind, DpConfig};
    use unifyfl_sim::SimDuration;
    use unifyfl_storage::LinkProfile;
    fn dp(c: &mut unifyfl_core::ExperimentConfig) -> &mut DpConfig {
        c.clusters[0].dp.get_or_insert(DpConfig::new(50.0, 0.05))
    }
    vec![
        Knob {
            name: "window_margin",
            set: |c, v| c.window_margin = v,
            valid: |v| v.is_finite() && (1.0..1.0e300).contains(&v),
            grid: time_scaling_grid(1.0, 1.15, 1.0e3, 1.0e300),
        },
        Knob {
            name: "straggle_factor",
            set: |c, v| c.clusters[1].straggle_factor = v,
            valid: |v| finite_positive(v) && v < 1.0e300,
            grid: time_scaling_grid(1.0e-3, 1.0, 1.0e3, 1.0e300),
        },
        Knob {
            name: "learning_rate",
            set: |c, v| c.workload.learning_rate = v as f32,
            valid: |v| finite_positive(f64::from(v as f32)),
            grid: float_grid(1.0e-6, 0.05, 10.0),
        },
        Knob {
            name: "label_noise",
            set: |c, v| c.workload.dataset.label_noise = v,
            valid: |v| (0.0..=1.0).contains(&v),
            grid: float_grid(1.0e-9, 0.05, 1.0),
        },
        Knob {
            name: "link.bandwidth_bps",
            set: |c, v| {
                c.clusters[2].link = Some(LinkProfile {
                    bandwidth_bps: v,
                    ..LinkProfile::wan()
                });
            },
            valid: |v| finite_positive(v) && v > 1.0e-300,
            grid: time_scaling_grid(64.0, 1.0e6, 1.0e18, 1.0e-300),
        },
        Knob {
            name: "dp.clip_norm",
            set: |c, v| dp(c).clip_norm = v,
            valid: finite_positive,
            grid: float_grid(1.0e-9, 50.0, 1.0e12),
        },
        Knob {
            name: "dp.noise_multiplier",
            set: |c, v| dp(c).noise_multiplier = v,
            valid: |v| v.is_finite() && v >= 0.0,
            grid: float_grid(1.0e-9, 0.05, 1.0e3),
        },
        Knob {
            name: "attack.sigma",
            set: |c, v| c.clusters[0].attack = Some(AttackKind::GaussianNoise { sigma: v }),
            valid: finite_positive,
            grid: float_grid(1.0e-9, 1.0, 1.0e3),
        },
        // A factor of one is the inert point inside the finite range.
        Knob {
            name: "attack.factor",
            set: |c, v| c.clusters[0].attack = Some(AttackKind::ScaleUp { factor: v }),
            valid: |v| v.is_finite() && v != 1.0,
            grid: [float_grid(1.0e-9, 25.0, 1.0e3), vec![1.0]].concat(),
        },
        // The two integer knobs have no NaN, infinity or -1 to write: both
        // edges of the domain, and one step past each.
        Knob {
            name: "release_mantissa_bits",
            set: |c, v| c.clusters[0].release_mantissa_bits = v as u32,
            valid: |v| (1.0..=23.0).contains(&v),
            grid: vec![0.0, 1.0, 23.0, 24.0],
        },
        Knob {
            name: "joins_at (ms)",
            set: |c, v| {
                let mut late = c.clusters[0].clone();
                late.name = "agg-late".into();
                late.joins_at = Some(SimDuration::from_millis(v as u64));
                c.clusters.push(late);
            },
            valid: |v| v > 0.0 && v < 1.0e300,
            grid: vec![0.0, 1.0, 28.0e3, 1.0e7, 1.0e300],
        },
    ]
}

/// The slice of ROADMAP 4(d) sized to the knobs PRs 23 and 25 audited:
/// over the grid *knob × value* (85 cases; every other knob at the
/// quickstart's value; link models alternating), `validate()` accepts
/// exactly the values in the knob's domain — which for the four
/// time-scaling knobs ends below the point where the run would never end —
/// and a configuration it accepts runs one quickstart round to completion
/// without panicking, with a finite clock and finite results. A plain loop
/// rather than `proptest!`: the grid is small enough to enumerate, so
/// nothing is left to the draw.
#[test]
fn validate_accepts_exactly_each_numeric_knobs_domain_and_what_it_accepts_runs() {
    use unifyfl_core::experiment::{ExperimentBuilder, LinkModel};
    use unifyfl_core::RunState;
    let (mut cases, mut ran) = (0, 0);
    for knob in numeric_knobs() {
        for &value in &knob.grid {
            let link_model = [LinkModel::Nominal, LinkModel::Physical][cases % 2];
            cases += 1;
            let mut config = ExperimentBuilder::quickstart()
                .rounds(1)
                .link_model(link_model)
                .config()
                .clone();
            (knob.set)(&mut config, value);
            let case = format!("{} = {value} ({link_model})", knob.name);
            assert_eq!(
                config.validate().is_ok(),
                (knob.valid)(value),
                "{case}: validate() and the knob's domain disagree: {:?}",
                config.validate()
            );
            let Ok(state) = RunState::new(&config) else {
                continue;
            };
            let report = state.run_to_completion();
            ran += 1;
            assert!(report.wall_secs.is_finite(), "{case}: wall_secs");
            for agg in &report.aggregators {
                assert!(agg.time_secs.is_finite(), "{case}: {} time", agg.name);
                assert!(
                    agg.global_accuracy_pct.is_finite() && agg.local_accuracy_pct.is_finite(),
                    "{case}: {} accuracy",
                    agg.name
                );
            }
        }
    }
    assert_eq!(cases, 85);
    // Tiny, nominal and huge of every float knob, zero where zero is in the
    // domain (label noise, noise multiplier, attack factor), the in-domain
    // edges of the integer knobs, and a negative attack factor.
    assert_eq!(ran, 9 * 3 + 3 + 2 + 3 + 1, "grid points accepted and run");
}
