//! Table 3 of the paper as executable assertions: the property matrix
//! distinguishing Sync from Async orchestration.
//!
//! | Property | Sync | Async |
//! |---|---|---|
//! | Training phase start | together | independent |
//! | Scoring phase start | together | independent |
//! | Awaiting submission of all weights | yes | no |
//! | Impact due to stragglers | high | low |
//! | Access to weights from all clients | necessarily | not necessarily |
//! | Idle time | high | low |
//! | Weight-similarity scoring | supported | not supported |

use proptest::prelude::*;
use unifyfl::core::cluster::ClusterConfig;
use unifyfl::core::experiment::{
    run_experiment, ExperimentBuilder, ExperimentConfig, ExperimentError, Mode,
};
use unifyfl::core::policy::AggregationPolicy;
use unifyfl::core::scoring::ScorerKind;
use unifyfl::core::{ChaosConfig, FaultPlan};
use unifyfl::data::{Partition, SyntheticConfig, WorkloadConfig};
use unifyfl::sim::DeviceProfile;
use unifyfl::tensor::ModelSpec;

fn workload(rounds: usize) -> WorkloadConfig {
    let mut dataset = SyntheticConfig::cifar10_like(420);
    dataset.input = unifyfl::tensor::zoo::InputKind::Flat(16);
    dataset.n_classes = 4;
    dataset.noise_scale = 0.8;
    WorkloadConfig {
        name: "table3-props".into(),
        model: ModelSpec::mlp(16, vec![16], 4),
        dataset,
        rounds,
        local_epochs: 1,
        batch_size: 16,
        learning_rate: 0.05,
    }
}

fn heterogeneous_clusters() -> Vec<ClusterConfig> {
    vec![
        ClusterConfig::edge("slowest", DeviceProfile::docker_container()),
        ClusterConfig::edge("middle", DeviceProfile::raspberry_pi_400()),
        ClusterConfig::edge("fastest", DeviceProfile::jetson_nano()),
    ]
    .into_iter()
    .map(|c| c.with_policy(AggregationPolicy::All))
    .collect()
}

fn config(mode: Mode) -> ExperimentConfig {
    ExperimentBuilder::quickstart()
        .seed(42)
        .label(format!("{mode}"))
        .workload(workload(4))
        .partition(Partition::Iid)
        .mode(mode)
        .scorer(ScorerKind::Accuracy)
        .clusters(heterogeneous_clusters())
        .config()
        .clone()
}

#[test]
fn sync_phases_start_together_async_independent() {
    let sync = run_experiment(&config(Mode::Sync)).unwrap();
    let async_ = run_experiment(&config(Mode::Async)).unwrap();

    // Sync: one shared barrier ⇒ identical completion times.
    let t0 = sync.aggregators[0].time_secs;
    assert!(sync.aggregators.iter().all(|a| a.time_secs == t0));

    // Async: free-running ⇒ distinct per-cluster times, ordered by speed.
    let times: Vec<f64> = async_.aggregators.iter().map(|a| a.time_secs).collect();
    let distinct: std::collections::HashSet<u64> =
        times.iter().map(|t| (t * 1000.0) as u64).collect();
    assert!(
        distinct.len() > 1,
        "async clusters must finish at different times: {times:?}"
    );
}

#[test]
fn straggler_impact_high_in_sync_low_in_async() {
    let straggly = |mode| {
        let mut cfg = config(mode);
        cfg.clusters[0].straggle_factor = 30.0;
        run_experiment(&cfg).unwrap()
    };
    let sync = straggly(Mode::Sync);
    let async_ = straggly(Mode::Async);

    // Sync: the contract's fixed windows reject the straggler's late
    // submissions — it loses rounds, which is the paper's "high impact"
    // (delayed submission timeline, §3.2).
    assert!(
        sync.aggregators[0].straggler_rounds > 0,
        "the slow cluster must miss at least one sync window"
    );
    // Async: nobody straggles — the slow cluster completes every round,
    // merely later, and the fast clusters are unaffected.
    assert!(async_.aggregators.iter().all(|a| a.straggler_rounds == 0));
    assert!(async_.aggregators.iter().all(|a| a.rounds == 4));
    let slow = async_.aggregators[0].time_secs;
    let fast = async_
        .aggregators
        .iter()
        .skip(1)
        .map(|a| a.time_secs)
        .fold(f64::INFINITY, f64::min);
    assert!(
        slow > fast,
        "async straggler ({slow}s) pays alone; fast clusters finish earlier ({fast}s)"
    );
}

#[test]
fn sync_has_higher_idle_time_than_async() {
    let sync = run_experiment(&config(Mode::Sync)).unwrap();
    let async_ = run_experiment(&config(Mode::Async)).unwrap();
    // Idle fraction shows up as depressed client CPU means (clients wait
    // for the phase windows in sync mode).
    let client_cpu = |r: &unifyfl::core::ExperimentReport| r.resources["client"].cpu_mean;
    assert!(
        client_cpu(&sync) < client_cpu(&async_),
        "sync client CPU ({:.1}%) should reflect more idle time than async ({:.1}%)",
        client_cpu(&sync),
        client_cpu(&async_)
    );
}

#[test]
fn weight_similarity_scoring_only_in_sync() {
    // Sync + MultiKRUM is accepted.
    let mut ok = config(Mode::Sync);
    ok.scorer = ScorerKind::MultiKrum;
    assert!(run_experiment(&ok).is_ok());

    // Async + MultiKRUM is rejected at validation (Table 3's "not
    // supported" row).
    let mut bad = config(Mode::Async);
    bad.scorer = ScorerKind::MultiKrum;
    assert_eq!(
        run_experiment(&bad).unwrap_err(),
        ExperimentError::MultiKrumRequiresSync
    );
}

proptest! {
    /// FaultPlan expansion is a pure function of its inputs: the same
    /// `(config, seed)` pair yields a byte-identical fault sequence, while
    /// the layer sub-seeds stay stable and distinct.
    #[test]
    fn fault_plans_expand_identically_per_seed(
        seed in any::<u64>(),
        crash in 0.0f64..0.6,
        leave in 0.0f64..0.3,
        spike in 0.0f64..0.6,
        clusters in 2usize..6,
        rounds in 1u64..12,
    ) {
        let cfg = ChaosConfig {
            crash_prob: crash,
            crash_down_rounds: 2,
            leave_prob: leave,
            spike_prob: spike,
            ..ChaosConfig::default()
        };
        let a = FaultPlan::expand(&cfg, seed, clusters, rounds);
        let b = FaultPlan::expand(&cfg, seed, clusters, rounds);
        prop_assert_eq!(
            format!("{:?}", a.events()),
            format!("{:?}", b.events()),
            "same seed must yield a byte-identical fault sequence"
        );
        prop_assert_eq!(a.storage_seed(), b.storage_seed());
        prop_assert_eq!(a.chain_seed(), b.chain_seed());
        prop_assert_ne!(a.storage_seed(), a.chain_seed());
        // Every sampled event targets a real cluster-round.
        for e in a.events() {
            prop_assert!(e.cluster < clusters);
            prop_assert!(e.round >= 1 && e.round <= rounds);
        }
    }
}

#[test]
fn chaos_experiments_are_reproducible_bit_for_bit() {
    // A fault-heavy run, executed twice with the same seed, must produce
    // identical `ExperimentReport`s — fault records, injector counters,
    // accuracies, timings, everything the serialized form carries.
    let run = |mode| {
        let mut cfg = config(mode);
        cfg.workload.rounds = 3;
        cfg.chaos = Some(ChaosConfig {
            crash_prob: 0.15,
            fetch_failure_prob: 0.2,
            chunk_loss_prob: 0.2,
            missed_seal_prob: 0.1,
            dropped_tx_prob: 0.2,
            ..ChaosConfig::default()
        });
        run_experiment(&cfg).unwrap()
    };
    for mode in [Mode::Sync, Mode::Async] {
        let a = run(mode);
        let b = run(mode);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{mode}: same seed, same chaos, same report"
        );
    }
}

#[test]
fn async_merges_do_not_require_all_peers() {
    // In async mode the earliest rounds run before any peer has a *scored*
    // model available, so some rounds legitimately merge fewer than n-1
    // peers — the "access to weights: not necessarily" row.
    let mut cfg = config(Mode::Async);
    cfg.workload.rounds = 5;
    let report = run_experiment(&cfg).unwrap();
    // Round 1 never has peers (nothing published yet).
    for agg in &report.aggregators {
        assert!(agg.curve.len() == 5);
    }
}
