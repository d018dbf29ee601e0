//! End-to-end cases over the blocking entry points: every one drives a
//! whole federation through [`run_sync`] / [`run_async`], so they sit with
//! the entry points rather than with any one policy or handler file.

use super::*;
use crate::cluster::ClusterConfig;
use crate::events::Event;
use crate::policy::AggregationPolicy;
use crate::sharding::ShardTopology;
use unifyfl_data::{Partition, SyntheticConfig};
use unifyfl_sim::{DeviceProfile, SimDuration};
use unifyfl_tensor::zoo::ModelSpec;

fn tiny_workload(rounds: usize) -> WorkloadConfig {
    let mut dataset = SyntheticConfig::cifar10_like(360);
    dataset.input = unifyfl_tensor::zoo::InputKind::Flat(16);
    dataset.n_classes = 4;
    dataset.noise_scale = 0.5;
    dataset.label_noise = 0.0;
    WorkloadConfig {
        name: "tiny-test".into(),
        model: ModelSpec::mlp(16, vec![16], 4),
        dataset,
        rounds,
        local_epochs: 1,
        batch_size: 16,
        learning_rate: 0.05,
    }
}

fn configs(n: usize) -> Vec<ClusterConfig> {
    (0..n)
        .map(|i| {
            ClusterConfig::edge(format!("agg-{i}"), DeviceProfile::edge_cpu())
                .with_policy(AggregationPolicy::All)
        })
        .collect()
}

fn build(mode: Mode, n: usize, rounds: usize) -> (Federation, WorkloadConfig) {
    let w = tiny_workload(rounds);
    let fed = Federation::new(7, &w, Partition::Iid, mode.to_chain(), configs(n));
    (fed, w)
}

#[test]
fn sync_runs_all_rounds_and_learns() {
    let (mut fed, w) = build(Mode::Sync, 3, 3);
    let out = run_sync(&mut fed, &w, ScorerKind::Accuracy, 1.15, Engine::default());
    assert_eq!(fed.clusters[0].records.len(), 3);
    // All clusters share the same completion time in sync mode.
    assert!(out.per_cluster_time.windows(2).all(|w| w[0] == w[1]));
    // The chain really carried the protocol.
    let entries = fed.contract().entries();
    assert_eq!(entries.len(), 9, "3 clusters × 3 rounds submitted");
    assert!(entries.iter().all(|e| !e.scorers.is_empty()));
    assert!(entries.iter().all(|e| e.scoring_closed));
    // Scores were recorded (majority of 3 = 2 scorers per model).
    assert!(entries.iter().all(|e| e.scores.len() == 2));
    fed.chain.verify().unwrap();
    // Learning happened: final global beats round-1 global.
    let first = fed.clusters[0].records[0].global_accuracy;
    let (final_acc, _) = out.final_global[0];
    assert!(final_acc > first, "{first} -> {final_acc}");
}

#[test]
fn sync_event_trace_follows_the_barrier_cycle() {
    let (mut fed, w) = build(Mode::Sync, 3, 2);
    let out = run_sync(&mut fed, &w, ScorerKind::Accuracy, 1.15, Engine::default());
    // Per round: OpenTraining, TrainingDone×3, StartScoring,
    // ScoresDue×3, RoundBarrier = 9 events; no async/membership events.
    assert_eq!(out.events.len(), 18);
    let labels: Vec<&str> = out.events.iter().map(|r| r.event.label()).collect();
    assert_eq!(
        &labels[..9],
        &[
            "open_training",
            "training_done",
            "training_done",
            "training_done",
            "start_scoring",
            "scores_due",
            "scores_due",
            "scores_due",
            "round_barrier",
        ]
    );
    // Barrier policy: the per-cluster commits fire at the window close,
    // in cluster-index order.
    assert_eq!(out.events[1].event.cluster(), Some(0));
    assert_eq!(out.events[2].event.cluster(), Some(1));
    assert_eq!(out.events[3].event.cluster(), Some(2));
    assert_eq!(out.events[1].at, out.events[4].at);
    // Time never goes backwards in the sync cycle.
    assert!(out.events.windows(2).all(|p| p[0].at <= p[1].at));
}

#[test]
fn async_runs_all_rounds_and_scores() {
    let (mut fed, w) = build(Mode::Async, 3, 3);
    let out = run_async(&mut fed, &w, ScorerKind::Accuracy, Engine::default());
    for c in &fed.clusters {
        assert_eq!(c.records.len(), 3);
    }
    let entries = fed.contract().entries();
    assert_eq!(entries.len(), 9);
    // Every model eventually received at least one score.
    assert!(entries.iter().all(|e| !e.scores.is_empty()));
    assert!(out.end_time > fed.setup_done);
    fed.chain.verify().unwrap();
    // The no-barrier policy ends with the SealSlot drain.
    assert_eq!(out.events.last().unwrap().event, Event::SealSlot);
    assert!(out
        .events
        .iter()
        .all(|r| matches!(r.event, Event::ClusterWake { .. } | Event::SealSlot)));
}

#[test]
fn async_is_faster_than_sync_with_heterogeneous_clusters() {
    let hetero = || {
        vec![
            ClusterConfig::edge("agg-pi", DeviceProfile::raspberry_pi_400()),
            ClusterConfig::edge("agg-jetson", DeviceProfile::jetson_nano()),
            ClusterConfig::edge("agg-docker", DeviceProfile::docker_container()),
        ]
    };
    let w = tiny_workload(3);
    let mut fed_s = Federation::new(7, &w, Partition::Iid, OrchestrationMode::Sync, hetero());
    let sync = run_sync(
        &mut fed_s,
        &w,
        ScorerKind::Accuracy,
        1.15,
        Engine::default(),
    );
    let mut fed_a = Federation::new(7, &w, Partition::Iid, OrchestrationMode::Async, hetero());
    let async_ = run_async(&mut fed_a, &w, ScorerKind::Accuracy, Engine::default());
    // The fastest async cluster finishes well before the sync barrier.
    let fastest_async = async_.per_cluster_time.iter().min().unwrap();
    assert!(
        *fastest_async < sync.end_time,
        "async {fastest_async:?} vs sync {:?}",
        sync.end_time
    );
    // Async per-cluster times differ (free-running), sync's do not.
    assert!(
        async_
            .per_cluster_time
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len()
            > 1
    );
}

#[test]
fn sync_straggler_misses_round_and_recovers() {
    let mut cfgs = configs(3);
    // The tiny test model's fetch cost dominates its training cost, so
    // the factor must be large to push past the 1.15-margin window.
    cfgs[2].straggle_factor = 50.0;
    let w = tiny_workload(4);
    let mut fed = Federation::new(7, &w, Partition::Iid, OrchestrationMode::Sync, cfgs);
    let out = run_sync(&mut fed, &w, ScorerKind::Accuracy, 1.15, Engine::default());
    assert!(out.straggler_rounds[2] > 0, "slow cluster must straggle");
    assert_eq!(out.straggler_rounds[0], 0);
    assert_eq!(out.straggler_rounds[1], 0);
    // The straggler still submitted *some* models (next-round rule).
    let from_straggler = fed
        .contract()
        .entries()
        .iter()
        .filter(|e| e.submitter == fed.clusters[2].address())
        .count();
    assert!(from_straggler >= 1);
}

#[test]
fn sync_straggler_model_is_accepted_only_next_round() {
    let mut cfgs = configs(3);
    cfgs[2].straggle_factor = 50.0;
    let w = tiny_workload(4);
    let mut fed = Federation::new(7, &w, Partition::Iid, OrchestrationMode::Sync, cfgs);
    let out = run_sync(&mut fed, &w, ScorerKind::Accuracy, 1.15, Engine::default());
    assert!(out.straggler_rounds[2] > 0);

    let straggler = fed.clusters[2].address();
    let mut rounds_submitted: Vec<u64> = fed
        .contract()
        .entries()
        .iter()
        .filter(|e| e.submitter == straggler)
        .map(|e| e.round)
        .collect();
    rounds_submitted.sort_unstable();
    // Round 1 has no peers to pull, so even the straggler fits; from
    // round 2 on its 50× training overruns the window. The round-2
    // model is accepted only as a *round-3* submission (next-round
    // rule), and the round-4 overrun never lands at all.
    assert_eq!(rounds_submitted, vec![1, 3], "next-round acceptance");
    assert_eq!(
        rounds_submitted.len() as u64,
        w.rounds as u64 - out.straggler_rounds[2],
        "every miss costs exactly one landed submission"
    );
    // The landed round-3 entry is the *held* model: the carryover
    // branch submits without pulling or training that round.
    let r3 = fed.clusters[2]
        .records
        .iter()
        .find(|r| r.round == 3)
        .expect("round 3 recorded");
    assert_eq!(r3.peers_merged, 0, "stale model, no pull this round");
    // The engine never submits into a closed window, so every
    // submitModel transaction from the straggler succeeded on-chain.
    let mut any_tx = false;
    for b in 0..=fed.chain.height() {
        for r in fed.chain.receipts(b).unwrap_or(&[]) {
            if fed
                .chain
                .block(b)
                .and_then(|blk| blk.transactions.get(r.tx_index as usize))
                .is_some_and(|tx| tx.from == straggler)
            {
                any_tx = true;
                assert!(r.success, "straggler tx reverted: {:?}", r.error);
            }
        }
    }
    assert!(any_tx);
}

#[test]
fn clock_skew_is_recorded_and_delays_submissions() {
    use unifyfl_sim::fault::{ChaosConfig, FaultEvent, FaultKind, FaultPlan};
    let (mut fed, w) = build(Mode::Sync, 3, 2);
    let cfg = ChaosConfig::scripted(vec![FaultEvent {
        cluster: 1,
        round: 1,
        kind: FaultKind::ClockSkew {
            skew: SimDuration::from_secs(30),
        },
    }]);
    fed.install_chaos(FaultPlan::expand(&cfg, 99, 3, 2));
    let out = run_sync(&mut fed, &w, ScorerKind::Accuracy, 1.15, Engine::default());
    // The skew's application is observable in the fault log even if
    // nothing else goes wrong...
    assert!(fed
        .chaos_records()
        .iter()
        .any(|r| r.kind == "clock_skew" && r.outcome.contains("behind")));
    // ...and a 30 s offset dwarfs the tiny workload's window slack, so
    // the skewed cluster's submissions miss the training window.
    assert!(out.straggler_rounds[1] > 0, "skewed cluster must straggle");
    assert_eq!(out.straggler_rounds[0], 0);
    assert_eq!(out.straggler_rounds[2], 0);
}

#[test]
fn late_score_is_rejected_by_the_contract() {
    let (mut fed, _) = build(Mode::Sync, 3, 1);
    let orch = fed.orchestrator;
    let t0 = fed.setup_done;

    // Drive one full phase cycle by hand: open training, submit one
    // model, open scoring, close scoring — then score late.
    let tx = fed.phase_tx(unifyfl_chain::orchestrator::calls::start_training());
    fed.submit_tx_at(t0, tx);
    let t1 = fed.flush_chain_at(t0);

    let cid = fed.clusters[1].store_model(1);
    let tx = fed.clusters[1].submit_model_tx(orch, &cid);
    fed.submit_tx_at(t1, tx);
    let t2 = fed.flush_chain_at(t1);

    let tx = fed.phase_tx(unifyfl_chain::orchestrator::calls::start_scoring());
    fed.submit_tx_at(t2, tx);
    let t3 = fed.flush_chain_at(t2);

    let tx = fed.phase_tx(unifyfl_chain::orchestrator::calls::end_scoring());
    fed.submit_tx_at(t3, tx);
    let t4 = fed.flush_chain_at(t3);

    // An *assigned* scorer arrives after the window closed (§3.2:
    // "the blockchain will no longer accept scores").
    let entry = fed.contract().entry(&cid.to_string()).expect("recorded");
    assert!(!entry.scorers.is_empty());
    let scorer_addr = entry.scorers[0];
    let scorer_idx = fed
        .clusters
        .iter()
        .position(|c| c.address() == scorer_addr)
        .expect("scorer is a cluster");
    let tx = fed.clusters[scorer_idx].score_tx(orch, &cid, 0.75);
    fed.submit_tx_at(t4, tx);
    fed.flush_chain_at(t4);

    // The transaction reverted and no score was recorded.
    let entry = fed.contract().entry(&cid.to_string()).unwrap();
    assert!(entry.scores.is_empty(), "late score must not be recorded");
    let head = fed.chain.height();
    let rejected = (0..=head)
        .flat_map(|b| fed.chain.receipts(b).unwrap_or(&[]).iter())
        .any(|r| {
            !r.success
                && r.error
                    .as_deref()
                    .is_some_and(|e| e.contains("scoring window closed"))
        });
    assert!(rejected, "the revert must appear in a receipt");
}

#[test]
fn sync_multikrum_scores_all_models() {
    let (mut fed, w) = build(Mode::Sync, 4, 2);
    run_sync(&mut fed, &w, ScorerKind::MultiKrum, 1.15, Engine::default());
    let entries = fed.contract().entries();
    assert!(!entries.is_empty());
    // Scores exist and sit in (0, 1].
    for e in entries {
        for (_, s) in &e.scores {
            let v = s.to_f64();
            assert!((0.0..=1.0).contains(&v), "score {v}");
        }
    }
}

#[test]
#[should_panic(expected = "does not support weight-similarity")]
fn async_rejects_multikrum() {
    let (mut fed, w) = build(Mode::Async, 3, 1);
    let _ = run_async(&mut fed, &w, ScorerKind::MultiKrum, Engine::default());
}

#[test]
fn self_only_policy_never_merges() {
    let mut cfgs = configs(3);
    for c in &mut cfgs {
        c.policy = AggregationPolicy::SelfOnly;
    }
    let w = tiny_workload(3);
    let mut fed = Federation::new(7, &w, Partition::Iid, OrchestrationMode::Sync, cfgs);
    run_sync(&mut fed, &w, ScorerKind::Accuracy, 1.15, Engine::default());
    for c in &fed.clusters {
        assert!(c.records.iter().all(|r| r.peers_merged == 0));
    }
}

#[test]
fn collaborative_policies_do_merge() {
    let (mut fed, w) = build(Mode::Sync, 3, 3);
    run_sync(&mut fed, &w, ScorerKind::Accuracy, 1.15, Engine::default());
    // From round 2 on, candidates exist and the All policy merges them.
    let merged_after_round1: usize = fed
        .clusters
        .iter()
        .flat_map(|c| c.records.iter().filter(|r| r.round > 1))
        .map(|r| r.peers_merged)
        .sum();
    assert!(merged_after_round1 > 0);
}

// ---- two-tier sharding -------------------------------------------

fn build_sharded(
    mode: Mode,
    n: usize,
    rounds: usize,
    shards: usize,
    k: Option<usize>,
) -> (Federation, WorkloadConfig) {
    use crate::sharding::ShardConfig;
    let w = tiny_workload(rounds);
    let mut cfg = ShardConfig::new(shards);
    cfg.scorers_per_release = k;
    let topology = ShardTopology::derive(&cfg, 7, n);
    let fed = Federation::new_sharded(
        7,
        &w,
        Partition::Iid,
        mode.to_chain(),
        configs(n),
        Some(topology),
    )
    .expect("the tiny workload partitions");
    (fed, w)
}

#[test]
fn sync_sharded_run_seals_and_exchanges() {
    let (mut fed, w) = build_sharded(Mode::Sync, 6, 4, 2, Some(2));
    let out = run_sync(&mut fed, &w, ScorerKind::Accuracy, 1.15, Engine::default());
    for c in &fed.clusters {
        assert_eq!(c.records.len(), 4);
    }
    // exchange_every = 2 over 4 rounds: the seal/exchange pair fires
    // after round 2 only (never after the final round).
    let count = |pred: fn(&Event) -> bool| out.events.iter().filter(|r| pred(&r.event)).count();
    assert_eq!(count(|e| matches!(e, Event::ShardSealDue { .. })), 1);
    assert_eq!(count(|e| matches!(e, Event::ShardExchange { .. })), 1);
    // One sealed release per shard landed on-chain.
    let releases = fed.contract().shard_releases();
    assert_eq!(releases.len(), 2);
    assert!(releases.iter().any(|r| r.shard == 0));
    assert!(releases.iter().any(|r| r.shard == 1));
    // Scorer sampling stayed intra-shard and within the k cap.
    for e in fed.contract().entries() {
        assert!(e.scorers.len() <= 2, "k = 2 cap violated");
        assert!(!e.scorers.is_empty());
        let sub_shard = fed.contract().shard_of(e.submitter);
        for s in &e.scorers {
            assert_eq!(fed.contract().shard_of(*s), sub_shard);
        }
    }
    fed.chain.verify().unwrap();
}

#[test]
fn async_sharded_run_seals_on_cadence() {
    let (mut fed, w) = build_sharded(Mode::Async, 6, 3, 2, Some(2));
    let out = run_async(&mut fed, &w, ScorerKind::Accuracy, Engine::default());
    for c in &fed.clusters {
        assert_eq!(c.records.len(), 3);
    }
    assert!(out
        .events
        .iter()
        .any(|r| matches!(r.event, Event::ShardSealDue { .. })));
    assert!(!fed.contract().shard_releases().is_empty());
    // The cadence chain ends before the end-of-run drain.
    assert_eq!(out.events.last().unwrap().event, Event::SealSlot);
    fed.chain.verify().unwrap();
}

#[test]
fn sharded_runs_are_seed_deterministic() {
    let run = || {
        let (mut fed, w) = build_sharded(Mode::Sync, 6, 4, 3, Some(1));
        let out = run_sync(&mut fed, &w, ScorerKind::Accuracy, 1.15, Engine::default());
        (
            format!("{:?}", out.events),
            format!("{:?}", out.final_global),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn sync_sharded_multikrum_scores_per_shard() {
    let (mut fed, w) = build_sharded(Mode::Sync, 6, 2, 2, None);
    run_sync(&mut fed, &w, ScorerKind::MultiKrum, 1.15, Engine::default());
    let entries = fed.contract().entries();
    assert!(!entries.is_empty());
    for e in entries {
        for (_, s) in &e.scores {
            let v = s.to_f64();
            assert!((0.0..=1.0).contains(&v), "score {v}");
        }
    }
    fed.chain.verify().unwrap();
}

// ---- elastic membership ------------------------------------------

fn joiner_configs(n: usize, joins_at: SimDuration) -> Vec<ClusterConfig> {
    let mut cfgs = configs(n + 1);
    cfgs[n].name = "agg-late".into();
    cfgs[n].joins_at = Some(joins_at);
    cfgs
}

#[test]
fn sync_joiner_registers_bootstraps_and_participates() {
    let w = tiny_workload(4);
    // Join mid-run: the tiny workload's rounds open at t = 5, 20, 35
    // and 50 s, so a 28 s offset (join time 33 s) lands the join on
    // round 3's phase boundary.
    let mut fed = Federation::new(
        7,
        &w,
        Partition::Iid,
        OrchestrationMode::Sync,
        joiner_configs(3, SimDuration::from_secs(28)),
    );
    let out = run_sync(&mut fed, &w, ScorerKind::Accuracy, 1.15, Engine::default());
    // The join fired exactly once and was recorded.
    let joins = fed.membership_records();
    assert_eq!(joins.len(), 1);
    assert_eq!(joins[0].cluster, "agg-late");
    assert_eq!(joins[0].change, "join");
    assert!(out
        .events
        .iter()
        .any(|r| r.event == Event::MembershipChange { cluster: 3 }));
    // Before the join the cluster is absent from the ledger; afterwards
    // it trains and submits like any founder.
    let late = fed.clusters[3].address();
    let late_rounds: Vec<u64> = fed
        .contract()
        .entries()
        .iter()
        .filter(|e| e.submitter == late)
        .map(|e| e.round)
        .collect();
    assert!(!late_rounds.is_empty(), "joiner must submit after joining");
    assert!(
        late_rounds.iter().all(|&r| r > 1),
        "joiner cannot have submitted in round 1: {late_rounds:?}"
    );
    // The joiner recorded fewer rounds than the founders.
    assert!(fed.clusters[3].records.len() < fed.clusters[0].records.len());
    assert!(!fed.clusters[3].records.is_empty());
    fed.chain.verify().unwrap();
}

#[test]
fn async_joiner_bootstraps_and_runs_its_rounds() {
    let w = tiny_workload(3);
    let mut fed = Federation::new(
        7,
        &w,
        Partition::Iid,
        OrchestrationMode::Async,
        joiner_configs(3, SimDuration::from_secs(120)),
    );
    let out = run_async(&mut fed, &w, ScorerKind::Accuracy, Engine::default());
    assert_eq!(fed.membership_records().len(), 1);
    // Bootstrap seeded from at least one already-scored release (the
    // founders have been publishing for 120 virtual seconds).
    let detail = &fed.membership_records()[0].detail;
    assert!(detail.contains("bootstrapped"), "{detail}");
    assert!(!detail.contains("from 0 "), "bootstrap found no releases");
    // The joiner free-runs its full round budget after joining.
    assert_eq!(fed.clusters[3].records.len(), w.rounds);
    assert!(
        fed.clusters[3].records[0].completed_at_secs > 120.0,
        "joiner rounds start after the join"
    );
    // The join event appears in the trace before any of its wakes.
    let first_wake = out
        .events
        .iter()
        .position(|r| r.event == Event::ClusterWake { cluster: 3 })
        .expect("joiner woke");
    let join_pos = out
        .events
        .iter()
        .position(|r| r.event == Event::MembershipChange { cluster: 3 })
        .expect("join fired");
    assert!(join_pos < first_wake);
    fed.chain.verify().unwrap();
}

#[test]
fn membership_runs_are_seed_deterministic() {
    let run = || {
        let w = tiny_workload(3);
        let mut fed = Federation::new(
            11,
            &w,
            Partition::Iid,
            OrchestrationMode::Async,
            joiner_configs(3, SimDuration::from_secs(90)),
        );
        let out = run_async(&mut fed, &w, ScorerKind::Accuracy, Engine::default());
        (
            format!("{:?}", out.events),
            format!("{:?}", out.final_global),
        )
    };
    assert_eq!(run(), run());
}

// ---- shared arithmetic ---------------------------------------------

#[test]
fn mean_f64_initial_value_decides_the_sign_of_zero() {
    // A joiner's bootstrap starts from zeros: `0.0 + -0.0` is `+0.0`.
    let from_zeros = mean_f64(vec![0.0], &[vec![-0.0]], 1);
    assert_eq!(from_zeros[0].to_bits(), 0.0f32.to_bits());
    // A shard seal starts from the representative's own weights:
    // `-0.0 + -0.0` stays `-0.0`. Same peers, different bytes.
    let from_own = mean_f64(vec![-0.0], &[vec![-0.0]], 2);
    assert_eq!(from_own[0].to_bits(), (-0.0f32).to_bits());
    // Otherwise it is the plain equal-weight mean, peers added in order.
    assert_eq!(
        mean_f64(vec![1.0, 2.0], &[vec![3.0, 4.0], vec![5.0, 9.0]], 3),
        vec![3.0, 5.0]
    );
}
