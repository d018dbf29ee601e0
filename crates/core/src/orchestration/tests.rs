//! End-to-end cases over both policies: every one drives a whole
//! federation through the one route ([`RunState`]), so they sit with the
//! policies' shared module rather than with any one policy or handler file.

use super::*;
use crate::cluster::ClusterConfig;
use crate::events::{Event, EventRecord};
use crate::experiment::{ExperimentConfig, ExperimentError, ExperimentReport};
use crate::policy::AggregationPolicy;
use crate::scoring::ScorerKind;
use crate::service::RunState;
use crate::sharding::ShardConfig;
use unifyfl_data::{SyntheticConfig, WorkloadConfig};
use unifyfl_fl::fanout::Lanes;
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

/// The tiny workload over `clusters`, seed 7, every other knob at its
/// default (IID, accuracy scoring, 1.15 window margin).
fn config(mode: Mode, clusters: Vec<ClusterConfig>, rounds: usize) -> ExperimentConfig {
    ExperimentConfig {
        seed: 7,
        workload: tiny_workload(rounds),
        mode,
        clusters,
        ..ExperimentConfig::default()
    }
}

/// What a finished run leaves: the report, the fired events, and the
/// federation as the final merge left it.
struct Run {
    report: ExperimentReport,
    events: Vec<EventRecord>,
    fed: Federation,
}

fn run(config: &ExperimentConfig) -> Run {
    let mut state = RunState::new(config).expect("the tiny configurations are valid");
    while state.step().is_some() {}
    let events = state.trace().to_vec();
    let (report, fed) = state.finish();
    Run {
        report,
        events,
        fed,
    }
}

fn straggler_rounds(run: &Run, cluster: usize) -> u64 {
    run.report.aggregators[cluster].straggler_rounds
}

#[test]
fn sync_runs_all_rounds_and_learns() {
    let Run { report, fed, .. } = run(&config(Mode::Sync, configs(3), 3));
    assert_eq!(fed.clusters[0].records.len(), 3);
    // All clusters share the same completion time in sync mode.
    let times = report.aggregators.iter().map(|a| a.time_secs);
    assert!(times.collect::<Vec<_>>().windows(2).all(|w| w[0] == w[1]));
    // The chain really carried the protocol.
    let entries = fed.contract().entries();
    assert_eq!(entries.len(), 9, "3 clusters × 3 rounds submitted");
    assert!(entries.iter().all(|e| !e.scorers.is_empty()));
    assert!(entries.iter().all(|e| e.scoring_closed));
    // Scores were recorded (majority of 3 = 2 scorers per model).
    assert!(entries.iter().all(|e| e.scores.len() == 2));
    fed.chain.verify().unwrap();
    // Learning happened: final global beats round-1 global.
    let first = fed.clusters[0].records[0].global_accuracy * 100.0;
    let final_acc = report.aggregators[0].global_accuracy_pct;
    assert!(final_acc > first, "{first} -> {final_acc}");
}

#[test]
fn sync_event_trace_follows_the_barrier_cycle() {
    let out = run(&config(Mode::Sync, configs(3), 2));
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
    let out = run(&config(Mode::Async, configs(3), 3));
    let fed = &out.fed;
    for c in &fed.clusters {
        assert_eq!(c.records.len(), 3);
    }
    let entries = fed.contract().entries();
    assert_eq!(entries.len(), 9);
    // Every model eventually received at least one score.
    assert!(entries.iter().all(|e| !e.scores.is_empty()));
    assert!(out.report.wall_secs > fed.setup_done.as_secs_f64());
    fed.chain.verify().unwrap();
    // The no-barrier policy ends with the SealSlot drain.
    assert_eq!(out.events.last().unwrap().event, Event::SealSlot);
    assert!(out
        .events
        .iter()
        .all(|r| matches!(r.event, Event::ClusterWake { .. } | Event::SealSlot)));
}

/// At `Lanes::One` a whole run stays on the stepping thread in either
/// mode, on a configuration whose cluster phases, client fits and
/// evaluations all reach the fan-out grain: the federation ends with the
/// one lane it was assembled with, that lane with one training shell (a
/// fan-out grows its states to the chunks it ran, each past the first on a
/// thread of its own), and no evaluation handed off. Under `Host` the same
/// runs fork on a second core, and report the same bytes.
#[test]
fn one_lane_keeps_every_fan_out_of_a_run_on_the_stepping_thread() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for mode in [Mode::Sync, Mode::Async] {
        let mut config = config(mode, configs(3), 2);
        config.workload.model = ModelSpec::mlp(16, vec![256, 128], 4);
        config.workload.dataset.n_samples = 600;
        config.lanes = Lanes::One;
        let one = run(&config);
        assert_eq!(one.fed.lanes.len(), 1, "{mode}: cluster phases");
        assert_eq!(one.fed.lanes[0].train.len(), 1, "{mode}: client fits");
        assert_eq!(one.fed.deferred_evals(), 0, "{mode}: evaluations");
        config.lanes = Lanes::Host;
        let host = run(&config);
        assert_eq!(format!("{:?}", one.report), format!("{:?}", host.report));
        let forks = cores > 1;
        assert_eq!(host.fed.lanes.len() > 1, forks, "{mode}: {cores} cores");
        assert_eq!(host.fed.lanes[0].train.len() > 1, forks, "{mode}");
        let handed_off = forks && mode == Mode::Async;
        assert_eq!(host.fed.deferred_evals() > 0, handed_off, "{mode}");
    }
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
    let sync = run(&config(Mode::Sync, hetero(), 3)).report;
    let async_ = run(&config(Mode::Async, hetero(), 3)).report;
    // The fastest async cluster finishes well before the sync barrier.
    let async_times: Vec<f64> = async_.aggregators.iter().map(|a| a.time_secs).collect();
    let fastest_async = async_times.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(
        fastest_async < sync.wall_secs,
        "async {fastest_async:?} vs sync {:?}",
        sync.wall_secs
    );
    // Async per-cluster times differ (free-running), sync's do not.
    assert!(async_times.windows(2).any(|w| w[0] != w[1]));
}

#[test]
fn sync_straggler_misses_round_and_recovers() {
    let mut cfgs = configs(3);
    // The tiny test model's fetch cost dominates its training cost, so
    // the factor must be large to push past the 1.15-margin window.
    cfgs[2].straggle_factor = 50.0;
    let out = run(&config(Mode::Sync, cfgs, 4));
    assert!(straggler_rounds(&out, 2) > 0, "slow cluster must straggle");
    assert_eq!(straggler_rounds(&out, 0), 0);
    assert_eq!(straggler_rounds(&out, 1), 0);
    // The straggler still submitted *some* models (next-round rule).
    let fed = &out.fed;
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
    let rounds = 4;
    let out = run(&config(Mode::Sync, cfgs, rounds));
    assert!(straggler_rounds(&out, 2) > 0);

    let fed = &out.fed;
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
        rounds as u64 - straggler_rounds(&out, 2),
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
    use unifyfl_sim::fault::{ChaosConfig, FaultEvent, FaultKind};
    let mut cfg = config(Mode::Sync, configs(3), 2);
    cfg.chaos = Some(ChaosConfig::scripted(vec![FaultEvent {
        cluster: 1,
        round: 1,
        kind: FaultKind::ClockSkew {
            skew: SimDuration::from_secs(30),
        },
    }]));
    let out = run(&cfg);
    // The skew's application is observable in the fault log even if
    // nothing else goes wrong...
    assert!(out
        .fed
        .chaos_records()
        .iter()
        .any(|r| r.kind == "clock_skew" && r.outcome.contains("behind")));
    // ...and a 30 s offset dwarfs the tiny workload's window slack, so
    // the skewed cluster's submissions miss the training window.
    assert!(
        straggler_rounds(&out, 1) > 0,
        "skewed cluster must straggle"
    );
    assert_eq!(straggler_rounds(&out, 0), 0);
    assert_eq!(straggler_rounds(&out, 2), 0);
}

#[test]
fn late_score_is_rejected_by_the_contract() {
    let mut fed = Federation::assemble(&config(Mode::Sync, configs(3), 1)).unwrap();
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
    let mut cfg = config(Mode::Sync, configs(4), 2);
    cfg.scorer = ScorerKind::MultiKrum;
    let fed = run(&cfg).fed;
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
fn async_rejects_multikrum() {
    // Table 3 forbids the pairing, and validation answers before a policy
    // (whose constructor asserts the same) is ever built.
    let mut cfg = config(Mode::Async, configs(3), 1);
    cfg.scorer = ScorerKind::MultiKrum;
    assert_eq!(
        RunState::new(&cfg).unwrap_err(),
        ExperimentError::MultiKrumRequiresSync
    );
}

#[test]
fn self_only_policy_never_merges() {
    let mut cfgs = configs(3);
    for c in &mut cfgs {
        c.policy = AggregationPolicy::SelfOnly;
    }
    let fed = run(&config(Mode::Sync, cfgs, 3)).fed;
    for c in &fed.clusters {
        assert!(c.records.iter().all(|r| r.peers_merged == 0));
    }
}

#[test]
fn collaborative_policies_do_merge() {
    let fed = run(&config(Mode::Sync, configs(3), 3)).fed;
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

fn sharded(
    mode: Mode,
    n: usize,
    rounds: usize,
    shards: usize,
    k: Option<usize>,
) -> ExperimentConfig {
    let mut sharding = ShardConfig::new(shards);
    sharding.scorers_per_release = k;
    ExperimentConfig {
        sharding: Some(sharding),
        ..config(mode, configs(n), rounds)
    }
}

#[test]
fn sync_sharded_run_seals_and_exchanges() {
    let out = run(&sharded(Mode::Sync, 6, 4, 2, Some(2)));
    let fed = &out.fed;
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
    let out = run(&sharded(Mode::Async, 6, 3, 2, Some(2)));
    let fed = &out.fed;
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
    let fingerprint = || {
        let out = run(&sharded(Mode::Sync, 6, 4, 3, Some(1)));
        (format!("{:?}", out.events), format!("{:?}", out.report))
    };
    assert_eq!(fingerprint(), fingerprint());
}

#[test]
fn the_final_merge_in_waves_is_the_final_merge_all_at_once() {
    // Seven clusters in three shards over the gossip overlay, storage
    // faults drawing from the injector's stream on every fetch, cluster 2
    // gone for good after round 1 (a non-participant between two waves)
    // and cluster 5 crashing on the way: the final pass prepared one
    // cluster at a time, two at a time, all seven at once (what the parent
    // did) and at its own sizing must leave the same report to the byte —
    // and the same chain, stores and weights behind it.
    use unifyfl_sim::fault::{ChaosConfig, FaultEvent, FaultKind};
    for mode in [Mode::Sync, Mode::Async] {
        let mut cfg = sharded(mode, 7, 3, 3, Some(2));
        cfg.gossip = Some(crate::GossipConfig::default());
        cfg.chaos = Some(ChaosConfig {
            fetch_failure_prob: 0.1,
            chunk_loss_prob: 0.1,
            ..ChaosConfig::scripted(vec![
                FaultEvent {
                    cluster: 2,
                    round: 2,
                    kind: FaultKind::Leave,
                },
                FaultEvent {
                    cluster: 5,
                    round: 2,
                    kind: FaultKind::Crash { down_rounds: 1 },
                },
            ])
        });
        let finish = |wave: Option<usize>| {
            let state = RunState::new(&cfg).expect("the composed configuration is valid");
            let (report, fed) = state.finish_in_waves(wave);
            let weights: Vec<Vec<u32>> = fed
                .clusters
                .iter()
                .map(|c| c.weights().iter().map(|w| w.to_bits()).collect())
                .collect();
            let transfers = format!("{:?}", fed.ipfs.transfer_stats());
            let chaos = &report.chaos;
            assert!(chaos.leaves_fired == 1 && chaos.fetch_failures + chaos.chunk_losses > 0);
            (
                format!("{report:?}"),
                fed.chain.head().hash(),
                transfers,
                weights,
            )
        };
        let all_at_once = finish(Some(7));
        for wave in [Some(1), Some(2), None] {
            assert_eq!(finish(wave), all_at_once, "{mode}, wave {wave:?}");
        }
    }
}

#[test]
fn sync_sharded_multikrum_scores_per_shard() {
    let mut cfg = sharded(Mode::Sync, 6, 2, 2, None);
    cfg.scorer = ScorerKind::MultiKrum;
    let fed = run(&cfg).fed;
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
    // Join mid-run: the tiny workload's rounds open at t = 5, 20, 35
    // and 50 s, so a 28 s offset (join time 33 s) lands the join on
    // round 3's phase boundary.
    let clusters = joiner_configs(3, SimDuration::from_secs(28));
    let out = run(&config(Mode::Sync, clusters, 4));
    let fed = &out.fed;
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
    let rounds = 3;
    let clusters = joiner_configs(3, SimDuration::from_secs(120));
    let out = run(&config(Mode::Async, clusters, rounds));
    let fed = &out.fed;
    assert_eq!(fed.membership_records().len(), 1);
    // Bootstrap seeded from at least one already-scored release (the
    // founders have been publishing for 120 virtual seconds).
    let detail = &fed.membership_records()[0].detail;
    assert!(detail.contains("bootstrapped"), "{detail}");
    assert!(!detail.contains("from 0 "), "bootstrap found no releases");
    // The joiner free-runs its full round budget after joining.
    assert_eq!(fed.clusters[3].records.len(), rounds);
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
    let fingerprint = || {
        let clusters = joiner_configs(3, SimDuration::from_secs(90));
        let out = run(&ExperimentConfig {
            seed: 11,
            ..config(Mode::Async, clusters, 3)
        });
        (format!("{:?}", out.events), format!("{:?}", out.report))
    };
    assert_eq!(fingerprint(), fingerprint());
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
