use unifyfl_data::WorkloadConfig;
use unifyfl_sim::fault::ChaosConfig;

use super::*;
use crate::scoring::ScorerKind;

#[test]
fn quickstart_runs_and_reports() {
    let report = ExperimentBuilder::quickstart()
        .seed(7)
        .rounds(2)
        .run()
        .expect("quickstart runs");
    assert_eq!(report.aggregators.len(), 3);
    assert_eq!(report.mode, "Async");
    for agg in &report.aggregators {
        assert_eq!(agg.rounds, 2);
        assert!(agg.time_secs > 0.0);
        assert!(agg.global_accuracy_pct >= 0.0 && agg.global_accuracy_pct <= 100.0);
        assert_eq!(agg.curve.len(), 2);
    }
    assert!(report.chain.blocks > 0);
    assert!(report.chain.txs > 0);
    assert!(report.storage_bytes > 0);
    assert!(report.resources.contains_key("client"));
    assert!(report.resources.contains_key("geth"));
}

#[test]
fn validation_rejects_async_multikrum() {
    let err = ExperimentBuilder::quickstart()
        .mode(Mode::Async)
        .scorer(ScorerKind::MultiKrum)
        .run()
        .unwrap_err();
    assert_eq!(err, ExperimentError::MultiKrumRequiresSync);
}

#[test]
fn validation_rejects_multikrum_below_three_clusters() {
    // Krum assumes n ≥ 2f + 3; no f ≥ 0 satisfies that at n = 2, so a
    // 2-cluster MultiKRUM federation must be rejected up front instead
    // of silently relying on the scoring clamp.
    let mut builder = ExperimentBuilder::quickstart()
        .mode(Mode::Sync)
        .scorer(ScorerKind::MultiKrum);
    builder.config.clusters.truncate(2);
    assert_eq!(
        builder.run().unwrap_err(),
        ExperimentError::MultiKrumTooFewClusters(2)
    );
    // Three clusters (f = 0) in sync mode are admissible.
    let ok = ExperimentBuilder::quickstart()
        .mode(Mode::Sync)
        .scorer(ScorerKind::MultiKrum)
        .rounds(2)
        .run();
    assert!(ok.is_ok());
}

#[test]
fn validation_rejects_out_of_range_sharding() {
    // Each sharding knob's own domain is a `KNOBS` row (the grid runs
    // every shard count up to the quickstart's 3 clusters); these are the
    // cross-knob rules. MultiKRUM's distance matrix needs ≥ 3 clusters
    // per shard.
    use crate::sharding::ShardConfig;
    let validate = |shards, scorer| {
        let builder = ExperimentBuilder::quickstart().mode(Mode::Sync);
        let builder = builder.scorer(scorer).sharding(ShardConfig::new(shards));
        builder.config().validate()
    };
    let invalid = |knob| {
        Err(ExperimentError::InvalidKnob {
            knob,
            cluster: None,
        })
    };
    assert_eq!(
        validate(4, ScorerKind::Accuracy),
        invalid("sharding.shards (more shards than clusters)")
    );
    assert_eq!(
        validate(3, ScorerKind::MultiKrum),
        invalid("sharding.shards (multikrum needs 3 per shard)")
    );
}

#[test]
fn validation_rejects_single_cluster() {
    let mut builder = ExperimentBuilder::quickstart();
    builder.config.clusters.truncate(1);
    assert_eq!(
        builder.run().unwrap_err(),
        ExperimentError::TooFewClusters(1)
    );
}

#[test]
fn validation_rejects_a_run_that_would_never_end() {
    // Each time-scaling knob alone is a `KNOBS` grid input (its point
    // beyond huge). Here no single knob: a million rounds of a
    // billion-parameter cost model.
    let mut config = ExperimentBuilder::quickstart().config().clone();
    config.workload.rounds = 1_000_000;
    config.workload.model.virtual_params = Some(1_000_000_000);
    let expected = ExperimentError::HorizonTooLong {
        knob: "workload",
        cluster: None,
    };
    assert_eq!(config.validate(), Err(expected.clone()));
    assert!(expected.to_string().starts_with("workload"), "{expected}");
    // Two offenders at once: the one still too long with the other
    // neutral is named (the other is next, once this one is fixed).
    let mut config = ExperimentBuilder::quickstart().config().clone();
    config.window_margin = 1.0e300;
    config.clusters[0].straggle_factor = 1.0e300;
    let named = config.validate().unwrap_err();
    assert!(named.to_string().starts_with("straggle_factor"), "{named}");
    // And nothing the presets can express comes within an order of
    // magnitude of the ceiling: the costliest workload in the tree on
    // the quickstart's edge CPUs.
    let config = ExperimentBuilder::quickstart()
        .workload(WorkloadConfig::tiny_imagenet())
        .config()
        .clone();
    assert!(config.validate().is_ok());
    let slowest = config.nominal_round_secs(&config.clusters[0], 1.0, true);
    let nominal = config.workload.rounds as f64 * config.window_margin * slowest;
    assert!(
        (7.0e6..1.0e7).contains(&nominal) && 10.0 * nominal < MAX_NOMINAL_HORIZON.as_secs_f64(),
        "{nominal} s"
    );
}

#[test]
fn validation_refuses_a_dp_release_past_f32_range() {
    // Each knob finite and positive, and `privatize` used to publish every
    // weight as ±∞. The largest clip the rule admits at σ = 1 releases
    // finite weights, even from a weight vector far past the clip.
    use crate::byzantine::DpConfig;
    let edge = f64::from(f32::MAX) / 39.5;
    let refused = Err(ExperimentError::InvalidKnob {
        knob: "dp (release past f32 range)",
        cluster: Some("agg-3".into()),
    });
    let mut builder = ExperimentBuilder::quickstart();
    for (clip, noise, ok) in [
        (1.0e300, 1.0, false),
        (50.0, 1.0e300, false),
        (edge, 1.0, true),
    ] {
        builder.config.clusters[2].dp = Some(DpConfig::new(clip, noise));
        assert_eq!(builder.config.validate() != refused, ok, "{clip} {noise}");
    }
    let release = DpConfig::new(edge, 1.0).privatize(&[f32::MAX; 500], 7);
    assert!(release.iter().all(|w| w.is_finite()));
}

#[test]
fn validation_rejects_knobs_that_would_panic_mid_run() {
    // Each knob in its own domain (the `KNOBS` grid covers those), and a
    // model that does not fit the data used to validate and then abort
    // inside the first client fit.
    use unifyfl_tensor::zoo::InputKind;
    let invalid = |knob| ExperimentError::InvalidKnob {
        knob,
        cluster: None,
    };
    let mut more_classes = ExperimentBuilder::quickstart();
    more_classes.config.workload.dataset.n_classes = 5;
    let mut other_shape = ExperimentBuilder::quickstart();
    other_shape.config.workload.dataset.input = InputKind::Flat(8);
    assert_eq!(
        more_classes.run().unwrap_err(),
        invalid("model (fewer outputs than the dataset has classes)")
    );
    assert_eq!(
        other_shape.run().unwrap_err(),
        invalid("model (input shape differs from the dataset's)")
    );
}

#[test]
fn undersized_data_is_a_typed_assembly_error() {
    // Shard sizes are the partition's draw, so these surface from
    // assembly (`RunState::new`), not from `validate()` — as errors,
    // where the partition used to assert.
    let mut starved = ExperimentBuilder::quickstart();
    starved.config.workload.dataset.n_samples = 10;
    assert!(starved.config.validate().is_ok());
    assert_eq!(
        starved.run().unwrap_err(),
        // 8 pooled samples deal 3 / 3 / 2; the last shard cannot
        // cover its three clients.
        ExperimentError::ShardTooSmall {
            cluster: "agg-3".into(),
            samples: 2,
            clients: 3,
        }
    );
    let mut crowded = ExperimentBuilder::quickstart();
    crowded.config.clusters[0].n_clients = 1_000;
    assert!(matches!(
        crowded.run().unwrap_err(),
        ExperimentError::ShardTooSmall { cluster, clients: 1_000, .. } if cluster == "agg-1"
    ));
    let mut empty = ExperimentBuilder::quickstart();
    empty.config.workload.dataset.n_samples = 2;
    assert_eq!(
        empty.run().unwrap_err(),
        ExperimentError::TooFewSamples {
            samples: 2,
            clusters: 3,
        }
    );
}

#[test]
fn validation_rejects_bad_chaos() {
    // A scripted event aimed past the schedule, or at a cluster that does
    // not exist, would silently never fire; it must be rejected instead.
    use unifyfl_sim::fault::{FaultEvent, FaultKind};
    let validate = |cluster, round| {
        let kind = FaultKind::Leave;
        let event = FaultEvent {
            cluster,
            round,
            kind,
        };
        let builder = ExperimentBuilder::quickstart().rounds(3);
        builder
            .chaos(ChaosConfig::scripted(vec![event]))
            .config()
            .validate()
    };
    let invalid = |knob, cluster: Option<&str>| {
        let cluster = cluster.map(str::to_owned);
        Err(ExperimentError::InvalidKnob { knob, cluster })
    };
    let round = "chaos.events.round (outside the run's rounds)";
    assert_eq!(validate(0, 9), invalid(round, Some("agg-1")));
    assert_eq!(validate(1, 0), invalid(round, Some("agg-2")));
    let no_cluster = "chaos.events.cluster (no such cluster)";
    assert_eq!(validate(7, 1), invalid(no_cluster, None));
    assert!(validate(2, 3).is_ok());
}

#[test]
fn identical_seeds_reproduce_identical_reports() {
    let run = |seed| {
        ExperimentBuilder::quickstart()
            .seed(seed)
            .rounds(2)
            .run()
            .unwrap()
    };
    let a = run(11);
    let b = run(11);
    let c = run(12);
    for (x, y) in a.aggregators.iter().zip(&b.aggregators) {
        assert_eq!(x.global_accuracy_pct, y.global_accuracy_pct);
        assert_eq!(x.time_secs, y.time_secs);
    }
    // A different seed almost surely changes the result.
    assert_ne!(
        a.aggregators[0].global_accuracy_pct,
        c.aggregators[0].global_accuracy_pct
    );
}

#[test]
fn sync_mode_reports_shared_time() {
    let report = ExperimentBuilder::quickstart()
        .mode(Mode::Sync)
        .rounds(2)
        .run()
        .unwrap();
    let t0 = report.aggregators[0].time_secs;
    assert!(report.aggregators.iter().all(|a| a.time_secs == t0));
    assert_eq!(report.mode, "Sync");
}

#[test]
fn quickstart_aggregators_report_fedavg() {
    let report = ExperimentBuilder::quickstart().rounds(2).run().unwrap();
    let strategies: Vec<&str> = report
        .aggregators
        .iter()
        .map(|a| a.strategy.as_str())
        .collect();
    assert!(strategies.iter().all(|s| *s == "FedAvg"));
}

#[test]
fn round_means_average_each_round_over_the_selected_recorders() {
    let mut report = ExperimentBuilder::quickstart().rounds(2).run().unwrap();
    // (round, time, global accuracy) per aggregator: 0 joined late (no
    // round 1), 1 crashed through round 2, 2 is outside the subset.
    let curves = [
        vec![(2, 20.0, 50.0), (3, 30.0, 70.0)],
        vec![(1, 12.0, 60.0), (3, 35.0, 90.0)],
        vec![(1, 99.0, 0.0), (2, 99.0, 0.0), (3, 99.0, 0.0)],
    ];
    for (i, curve) in curves.into_iter().enumerate() {
        let a = &mut report.aggregators[i];
        a.curve = curve
            .into_iter()
            .map(|(round, time_secs, global_accuracy_pct)| CurvePoint {
                round,
                time_secs,
                global_accuracy_pct,
                local_accuracy_pct: 0.0,
            })
            .collect();
        a.global_accuracy_pct = a.curve.last().unwrap().global_accuracy_pct;
    }
    let subset = |i: usize| i != 2;
    let means: Vec<_> = report
        .round_means(subset)
        .into_iter()
        .map(|m| (m.round, m.recorded, m.global_accuracy_pct, m.time_secs))
        .collect();
    assert_eq!(
        means,
        [(1, 1, 60.0, 12.0), (2, 1, 50.0, 20.0), (3, 2, 80.0, 35.0)]
    );
    assert_eq!(report.mean_global_accuracy_pct(subset), 80.0);
    assert_eq!(report.mean_global_accuracy_pct(|_| true), 160.0 / 3.0);

    // The transfer-neutral view zeroes the transfer section and nothing else.
    assert_ne!(report.transfer, TransferReport::default(), "bytes moved");
    let mut view = report.without_transfer();
    assert_eq!(view.transfer, TransferReport::default());
    view.transfer = report.transfer;
    assert_eq!(format!("{view:?}"), format!("{report:?}"));
}
