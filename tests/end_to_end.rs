//! End-to-end integration tests through the `unifyfl` facade: the full
//! stack (chain + storage + FL + simulation) driven by the experiment API.

use unifyfl::core::experiment::{ExperimentBuilder, Mode};
use unifyfl::core::policy::AggregationPolicy;
use unifyfl::core::scoring::ScorerKind;
use unifyfl::data::Partition;

#[test]
fn quickstart_experiment_completes_with_consistent_report() {
    let report = ExperimentBuilder::quickstart()
        .seed(1)
        .rounds(3)
        .run()
        .expect("runs");
    assert_eq!(report.aggregators.len(), 3);
    for agg in &report.aggregators {
        assert_eq!(agg.rounds, 3);
        assert_eq!(agg.curve.len(), 3);
        assert!(agg.time_secs > 0.0);
        assert!((0.0..=100.0).contains(&agg.global_accuracy_pct));
        assert!((0.0..=100.0).contains(&agg.local_accuracy_pct));
        assert!(agg.global_loss.is_finite() && agg.local_loss.is_finite());
        // Curves are time-monotone.
        assert!(agg
            .curve
            .windows(2)
            .all(|w| w[0].time_secs <= w[1].time_secs));
    }
    // The chain really ran: registration + per-round submissions + scores.
    assert!(report.chain.txs >= 3 + 3 * 3);
    assert!(report.chain.gas_used > 0);
    // Every published model lives on the storage fabric.
    assert!(report.storage_bytes > 0);
}

#[test]
fn experiments_are_bit_reproducible() {
    let run = |mode| {
        ExperimentBuilder::quickstart()
            .seed(77)
            .rounds(3)
            .mode(mode)
            .run()
            .unwrap()
    };
    for mode in [Mode::Sync, Mode::Async] {
        let a = run(mode);
        let b = run(mode);
        for (x, y) in a.aggregators.iter().zip(&b.aggregators) {
            assert_eq!(x.global_accuracy_pct, y.global_accuracy_pct, "{mode}");
            assert_eq!(x.local_accuracy_pct, y.local_accuracy_pct, "{mode}");
            assert_eq!(x.time_secs, y.time_secs, "{mode}");
            assert_eq!(x.curve.len(), y.curve.len(), "{mode}");
        }
        assert_eq!(a.chain.blocks, b.chain.blocks, "{mode}");
        assert_eq!(a.chain.gas_used, b.chain.gas_used, "{mode}");
    }
}

#[test]
fn collaboration_beats_isolation_under_niid() {
    let collab = ExperimentBuilder::quickstart()
        .seed(5)
        .rounds(6)
        .partition(Partition::Dirichlet { alpha: 0.3 })
        .policy_all(AggregationPolicy::All)
        .run()
        .unwrap();
    let solo = ExperimentBuilder::quickstart()
        .seed(5)
        .rounds(6)
        .partition(Partition::Dirichlet { alpha: 0.3 })
        .policy_all(AggregationPolicy::SelfOnly)
        .run()
        .unwrap();
    let mean = |r: &unifyfl::core::ExperimentReport| r.mean_global_accuracy_pct(|_| true);
    assert!(
        mean(&collab) > mean(&solo),
        "collaboration ({:.1}%) must beat isolation ({:.1}%) under NIID",
        mean(&collab),
        mean(&solo)
    );
}

#[test]
fn all_aggregation_policies_run_to_completion() {
    for policy in [
        AggregationPolicy::All,
        AggregationPolicy::SelfOnly,
        AggregationPolicy::RandomK(1),
        AggregationPolicy::TopK(2),
        AggregationPolicy::AboveAverage,
        AggregationPolicy::AboveMedian,
        AggregationPolicy::AboveSelf,
    ] {
        let report = ExperimentBuilder::quickstart()
            .seed(3)
            .rounds(2)
            .policy_all(policy)
            .run()
            .unwrap_or_else(|e| panic!("{policy}: {e}"));
        assert_eq!(report.aggregators[0].policy, policy.to_string());
    }
}

#[test]
fn both_scorers_run_in_sync_mode() {
    for scorer in [ScorerKind::Accuracy, ScorerKind::MultiKrum] {
        let report = ExperimentBuilder::quickstart()
            .seed(9)
            .rounds(2)
            .mode(Mode::Sync)
            .scorer(scorer)
            .run()
            .unwrap_or_else(|e| panic!("{scorer}: {e}"));
        assert_eq!(report.scorer, scorer.to_string());
    }
}

#[test]
fn facade_reexports_compose() {
    // The facade exposes every layer; spot-check one type from each.
    let _: unifyfl::sim::SimTime = unifyfl::sim::SimTime::ZERO;
    let _ = unifyfl::chain::types::Address::from_label("x");
    let _ = unifyfl::storage::Cid::for_data(b"x");
    let _ = unifyfl::tensor::ModelSpec::mlp(2, vec![], 2);
    let _ = unifyfl::data::SyntheticConfig::cifar10_like(10);
    let _ = unifyfl::fl::StrategyKind::FedAvg;
    let _ = unifyfl::core::AggregationPolicy::All;
}
