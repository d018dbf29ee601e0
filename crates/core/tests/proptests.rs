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
// ROADMAP 4(d) and 11: every `KNOBS` row probed at its edges, where
// validate-ok ⇒ the run completes; and no numeric knob without a row.
// ---------------------------------------------------------------------

use std::collections::BTreeSet;

use unifyfl_core::experiment::{Domain, ExperimentBuilder, Knob, LinkModel};
use unifyfl_core::{ExperimentConfig, ExperimentError, RunState, KNOBS};

/// How the grid writes one `KNOBS` row on the quickstart: the row's name,
/// the cluster the setter puts it on, the row's own tiny / nominal / huge,
/// and the setter itself.
type Setter = (&'static str, Option<&'static str>, [f64; 3], Set);
type Set = fn(&mut ExperimentConfig, f64);

#[rustfmt::skip]
fn setters() -> Vec<Setter> {
    use unifyfl_core::{AttackKind, ChaosConfig, DpConfig, FaultEvent, FaultKind, ShardConfig};
    use unifyfl_data::SyntheticConfig;
    use unifyfl_sim::SimDuration;
    use unifyfl_storage::{GossipConfig, LinkProfile};
    type C = ExperimentConfig;
    fn chaos(c: &mut C) -> &mut ChaosConfig { c.chaos.get_or_insert_with(ChaosConfig::default) }
    fn shards(c: &mut C) -> &mut ShardConfig { c.sharding.get_or_insert(ShardConfig::new(1)) }
    fn gossip(c: &mut C) -> &mut GossipConfig { c.gossip.get_or_insert(GossipConfig::new(2)) }
    fn dp(c: &mut C) -> &mut DpConfig { c.clusters[0].dp.get_or_insert(DpConfig::new(50.0, 0.05)) }
    fn data(c: &mut C) -> &mut SyntheticConfig { &mut c.workload.dataset }
    fn fault(c: &mut C, kind: FaultKind) {
        chaos(c).events.push(FaultEvent { cluster: 1, round: 1, kind });
    }
    let (probability, count) = ([1.0e-9, 0.1, 0.9], [1.0, 2.0, 100.0]);
    vec![
        ("window_margin", None, [1.0, 1.15, 1.0e3], |c, v| c.window_margin = v),
        ("learning_rate", None, [1.0e-6, 0.05, 10.0], |c, v| c.workload.learning_rate = v as f32),
        ("batch_size", None, [1.0, 16.0, 1.0e4], |c, v| c.workload.batch_size = v as usize),
        ("local_epochs", None, [1.0, 2.0, 20.0], |c, v| c.workload.local_epochs = v as usize),
        ("dataset.n_classes", None, [1.0, 2.0, 4.0], |c, v| data(c).n_classes = v as usize),
        ("dataset.n_samples", None, [60.0, 450.0, 2.0e3], |c, v| data(c).n_samples = v as usize),
        ("dataset.label_noise", None, [1.0e-9, 0.05, 1.0], |c, v| data(c).label_noise = v),
        ("dataset.noise_scale", None, [1.0e-9, 0.6, 1.0e3], |c, v| data(c).noise_scale = v),
        ("sharding.shards", None, [1.0, 2.0, 3.0], |c, v| shards(c).shards = v as usize),
        ("sharding.scorers_per_release", None, count, |c, v| {
            shards(c).scorers_per_release = Some(v as usize);
        }),
        ("sharding.exchange_every", None, count, |c, v| shards(c).exchange_every = v as u64),
        ("sharding.regroup", None, count, |c, v| shards(c).regroup = Some(v as u64)),
        ("gossip.degree", None, count, |c, v| gossip(c).degree = v as usize),
        ("gossip.swarm", None, count, |c, v| gossip(c).swarm = v as usize),
        ("chaos.crash_prob", None, probability, |c, v| chaos(c).crash_prob = v),
        ("chaos.crash_down_rounds", None, count, |c, v| chaos(c).crash_down_rounds = v as u64),
        ("chaos.leave_prob", None, probability, |c, v| chaos(c).leave_prob = v),
        ("chaos.spike_prob", None, probability, |c, v| chaos(c).spike_prob = v),
        ("chaos.spike_factor", None, [1.0 + 1.0e-9, 4.0, 1.0e3], |c, v| chaos(c).spike_factor = v),
        ("chaos.fetch_failure_prob", None, probability, |c, v| chaos(c).fetch_failure_prob = v),
        ("chaos.chunk_loss_prob", None, probability, |c, v| chaos(c).chunk_loss_prob = v),
        ("chaos.missed_seal_prob", None, probability, |c, v| chaos(c).missed_seal_prob = v),
        ("chaos.dropped_tx_prob", None, probability, |c, v| chaos(c).dropped_tx_prob = v),
        ("chaos.events.down_rounds", Some("agg-2"), count, |c, v| {
            fault(c, FaultKind::Crash { down_rounds: v as u64 });
        }),
        ("chaos.events.factor", Some("agg-2"), [1.0 + 1.0e-9, 4.0, 1.0e3], |c, v| {
            fault(c, FaultKind::LatencySpike { factor: v });
        }),
        ("chaos.events.skew", Some("agg-2"), [1.0, 3.0e4, 1.0e7], |c, v| {
            fault(c, FaultKind::ClockSkew { skew: SimDuration::from_millis(v as u64) });
        }),
        ("n_clients", Some("agg-3"), [1.0, 3.0, 10.0], |c, v| c.clusters[2].n_clients = v as usize),
        ("straggle_factor", Some("agg-2"), [1.0e-3, 1.0, 1.0e3], |c, v| {
            c.clusters[1].straggle_factor = v;
        }),
        ("release_mantissa_bits", Some("agg-1"), [1.0, 7.0, 23.0], |c, v| {
            c.clusters[0].release_mantissa_bits = v as u32;
        }),
        ("joins_at", Some("agg-late"), [1.0, 2.8e4, 1.0e7], |c, v| {
            let mut late = c.clusters[0].clone();
            late.name = "agg-late".into();
            late.joins_at = Some(SimDuration::from_millis(v as u64));
            c.clusters.push(late);
        }),
        ("link.bandwidth_bps", Some("agg-3"), [64.0, 1.0e6, 1.0e18], |c, v| {
            c.clusters[2].link = Some(LinkProfile { bandwidth_bps: v, ..LinkProfile::wan() });
        }),
        ("dp.clip_norm", Some("agg-1"), [1.0e-9, 50.0, 1.0e12], |c, v| dp(c).clip_norm = v),
        ("dp.noise_multiplier", Some("agg-1"), [1.0e-9, 0.05, 1.0e3], |c, v| {
            dp(c).noise_multiplier = v;
        }),
        ("attack.sigma", Some("agg-1"), [1.0e-9, 1.0, 1.0e3], |c, v| {
            c.clusters[0].attack = Some(AttackKind::GaussianNoise { sigma: v });
        }),
        ("attack.factor", Some("agg-2"), [1.0e-9, 25.0, 1.0e3], |c, v| {
            c.clusters[1].attack = Some(AttackKind::ScaleUp { factor: v });
        }),
    ]
}

/// The four time-scaling rows' point *beyond huge*: inside the row's
/// domain, and a run that would (practically) never end, which
/// `validate()` must refuse on the run's nominal horizon.
#[rustfmt::skip]
const BEYOND: [(&str, f64); 4] = [
    ("window_margin", 1.0e300), ("straggle_factor", 1.0e300),
    ("joins_at", 1.0e300), ("link.bandwidth_bps", 1.0e-300),
];

/// NaN, ±∞, −1 and 0 for a float row; each edge of `domain` and one step
/// past it; then the row's own tiny, nominal and huge.
fn probes(domain: Domain, own: [f64; 3]) -> Vec<f64> {
    const STEP: f64 = 1.0e-9;
    let mut probes = match domain {
        Domain::Count | Domain::Range(..) => vec![],
        _ => vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0],
    };
    probes.extend(match domain {
        Domain::Positive | Domain::NonNegative => vec![-STEP],
        Domain::AtLeastOne | Domain::AboveOne => vec![1.0, 1.0 - STEP],
        Domain::NotOne => vec![1.0, 1.0 + STEP],
        Domain::Probability | Domain::BelowCertain => vec![-STEP, 1.0, 1.0 + STEP],
        Domain::Count => vec![0.0, 1.0],
        Domain::Range(lo, hi) => [lo - 1, lo, hi, hi + 1].map(f64::from).to_vec(),
    });
    probes.extend(own);
    probes
}

/// Over every `KNOBS` row × its probes × both link models (other knobs at
/// the quickstart's values), `validate()` refuses a value outside the
/// row's domain as `InvalidKnob` naming that row and cluster, refuses a
/// beyond-huge point on the horizon, and accepts the rest — every one of
/// which runs one round to completion with a finite clock and finite
/// results, except the one point assembly refuses with a typed error:
/// a single sample cannot give each of the quickstart's three clusters
/// one (the partition's cross-knob rule, checked before any draw).
#[test]
fn validate_accepts_exactly_each_numeric_knobs_domain_and_what_it_accepts_runs() {
    let setters = setters();
    let names: BTreeSet<&str> = setters.iter().map(|s| s.0).collect();
    let rows: BTreeSet<&str> = KNOBS.iter().map(|k| k.name).collect();
    assert_eq!(names, rows, "one setter per KNOBS row, and no other");
    let (mut cases, mut ran) = (0, 0);
    for &Knob { name, domain, .. } in KNOBS {
        let &(_, cluster, own, set) = setters.iter().find(|s| s.0 == name).unwrap();
        let cluster = cluster.map(str::to_owned);
        let beyond = BEYOND.iter().filter(|b| b.0 == name).map(|b| b.1);
        let (mut accepted, mut refused) = (0, 0);
        let values = probes(domain, own).into_iter().chain(beyond.clone());
        let models = [LinkModel::Nominal, LinkModel::Physical];
        for (value, link_model) in values.flat_map(|v| models.map(|m| (v, m))) {
            cases += 1;
            let builder = ExperimentBuilder::quickstart().rounds(1);
            let mut config = builder.link_model(link_model).config().clone();
            set(&mut config, value);
            let case = format!("{name} = {value} ({link_model})");
            let (knob, cluster) = (name, cluster.clone());
            let expected = if !domain.contains(value) {
                Err(ExperimentError::InvalidKnob { knob, cluster })
            } else if beyond.clone().any(|b| b == value) {
                Err(ExperimentError::HorizonTooLong { knob, cluster })
            } else {
                Ok(())
            };
            assert_eq!(config.validate(), expected, "{case}");
            if expected.is_err() {
                refused += 1;
                continue;
            }
            accepted += 1;
            let assembled = RunState::new(&config);
            if (name, value) == ("dataset.n_samples", 1.0) {
                let (samples, clusters) = (1, 3);
                let refusal = ExperimentError::TooFewSamples { samples, clusters };
                assert_eq!(assembled.err(), Some(refusal), "{case}");
                continue;
            }
            let report = assembled.expect(&case).run_to_completion();
            ran += 1;
            let aggs = report.aggregators.iter();
            let mut clock_and_results =
                aggs.flat_map(|a| [a.time_secs, a.global_accuracy_pct, a.local_accuracy_pct]);
            assert!(
                clock_and_results.all(f64::is_finite) && report.wall_secs.is_finite(),
                "{case}"
            );
        }
        assert!(accepted * refused > 0, "{name} accepts and refuses");
    }
    assert_eq!((cases, ran), (554, 288), "grid points probed and run");
}

/// Numeric leaves of a configuration that are not knobs with a domain,
/// each matching every leaf under it.
#[rustfmt::skip]
const NOT_KNOBS: [&str; 12] = [
    // Every u64 is a seed; any length is a run (zero is an empty one),
    // and the horizon bounds it.
    "seed", "workload.rounds",
    // The architecture and the input shape: the cross-knob shape rule
    // checks one against the other, and the horizon bounds the cost.
    "model", "dataset.input",
    // Private fields set only by presets; `DeviceProfile::new` asserts
    // them (ROADMAP 4(d): a proven invariant, not input-reachable).
    "client_device",
    // Any latency, warm-up, drift, cache budget or retry budget means
    // what it says (zero: none, off or no retries).
    "link.latency", "warmup_self_rounds", "drift", "transfer.cache_bytes", "chaos.chunk_retries",
    // A scripted event's target: the cross-knob event rule checks both.
    "chaos.events.cluster", "chaos.events.round",
];

/// Dotted paths of the numeric leaves in a `{:#?}` rendering: a field
/// path per number, through every struct, `Some`, variant and list.
fn numeric_leaves(debug: &str) -> Vec<Vec<&str>> {
    let (mut path, mut leaves) = (Vec::new(), Vec::new());
    for line in debug.lines().map(str::trim) {
        let (field, value) = line.split_once(": ").unwrap_or(("", line));
        if value.ends_with(['{', '(', '[']) {
            path.push(field);
        } else if value.starts_with(['}', ')', ']']) {
            path.pop();
        } else if value.trim_end_matches(',').parse::<f64>().is_ok() {
            let leaf = path.iter().chain([&field]).filter(|s| !s.is_empty());
            leaves.push(leaf.copied().collect());
        }
    }
    leaves
}

/// Whether `name`'s dotted segments appear, in order, along `path`.
fn along(name: &str, path: &[&str]) -> bool {
    let mut rest = path.iter();
    name.split('.').all(|segment| rest.any(|p| *p == segment))
}

/// A knob cannot be added without a domain: every numeric leaf of a
/// configuration with every `Option` armed (every grid setter at its
/// nominal value, plus a drift and a cost-model size) is a `KNOBS` row
/// ending in that leaf or lies under a `NOT_KNOBS` entry, and every row
/// is found.
#[test]
fn every_numeric_knob_has_a_domain() {
    use unifyfl_core::cluster::DriftSpec;
    let mut config = ExperimentBuilder::quickstart().config().clone();
    for (_, _, [_, nominal, _], set) in setters() {
        set(&mut config, nominal);
    }
    config.workload.model.virtual_params = Some(1_000);
    config.clusters[0].drift = Some(DriftSpec {
        at_round: 2,
        class_shift: 1,
    });
    let rendering = format!("{config:#?}");
    let leaves = numeric_leaves(&rendering);
    let is_row = |path: &[&str], row: &str| along(row, path) && row.ends_with(path[path.len() - 1]);
    for path in &leaves {
        let covered = KNOBS.iter().any(|k| is_row(path, k.name))
            || NOT_KNOBS.iter().any(|name| along(name, path));
        assert!(
            covered,
            "{} is neither a KNOBS row nor exempt",
            path.join(".")
        );
    }
    for Knob { name, .. } in KNOBS {
        assert!(
            leaves.iter().any(|path| is_row(path, name)),
            "{name} not found"
        );
    }
}
