//! The discrete-event kernel's correctness contract, on top of what
//! `tests/engine_parallel.rs` already pins:
//!
//! 1. **Lane identity extends to every new kernel surface** — elastic
//!    membership and the physical link time model produce byte-identical
//!    [`ExperimentReport`]s on one lane (`Lanes::One`) and on the
//!    host's lanes, on the happy path and under chaos.
//! 2. **Trace determinism** — the kernel's fired-event trace (interleaved
//!    event timestamps included) replays bit-for-bit across runs of the
//!    same configuration, and is *lane-independent*: the lane setting
//!    changes wall-clock only, never the event schedule.
//! 3. **Barrier semantics** — sync commits are released at the window
//!    close in cluster-index order; async wakes interleave free-running.

use unifyfl::core::cluster::ClusterConfig;
use unifyfl::core::events::{Event, EventRecord};
use unifyfl::core::experiment::{
    run_experiment, ExperimentBuilder, ExperimentConfig, ExperimentReport, Lanes, LinkModel, Mode,
};
use unifyfl::core::scoring::ScorerKind;
use unifyfl::core::{ChaosConfig, FaultEvent, FaultKind, RunState};
use unifyfl::sim::SimDuration;

/// Runs `config` at `Lanes::One` and at `Lanes::Host`, asserts the
/// two reports equal via the Debug serialization (every field, every
/// counter — the same check `quickstart_smoke` uses for seed determinism)
/// and returns the one-lane reference's.
fn host_matches_one_lane(label: &str, mut config: ExperimentConfig) -> ExperimentReport {
    config.lanes = Lanes::One;
    let sequential = run_experiment(&config).expect("one-lane run");
    config.lanes = Lanes::Host;
    let parallel = run_experiment(&config).expect("host-lane run");
    assert_eq!(
        format!("{sequential:?}"),
        format!("{parallel:?}"),
        "{label}: the host's lanes diverged from the one-lane reference"
    );
    sequential
}

/// Quickstart plus a fourth cluster joining 28 s in (round 3 of the sync
/// schedule; mid-run for async).
fn elastic_config(seed: u64, mode: Mode) -> ExperimentConfig {
    let mut config = ExperimentBuilder::quickstart()
        .seed(seed)
        .rounds(4)
        .mode(mode)
        .config()
        .clone();
    config.clusters.push(
        ClusterConfig::edge("agg-late", config.clusters[0].client_device.clone())
            .joining_at(SimDuration::from_secs(28)),
    );
    config
}

#[test]
fn elastic_membership_reports_are_byte_identical_across_engines() {
    for mode in [Mode::Sync, Mode::Async] {
        let s = host_matches_one_lane(&format!("elastic {mode}"), elastic_config(73, mode));
        assert_eq!(s.membership.len(), 1, "{mode}: the join fired");
        assert_eq!(s.membership[0].cluster, "agg-late");
    }
}

#[test]
fn physical_link_model_reports_are_byte_identical_across_engines() {
    let mut config = ExperimentBuilder::quickstart()
        .seed(79)
        .rounds(3)
        .mode(Mode::Sync)
        .link_model(LinkModel::Physical)
        .config()
        .clone();
    let s = host_matches_one_lane("sync physical", config.clone());
    assert_eq!(s.link_model, "Physical");

    config.mode = Mode::Async;
    host_matches_one_lane("async physical", config);
}

#[test]
fn physical_link_model_with_chaos_spikes_routes_through_links() {
    // A latency spike under the physical link model stretches the round's
    // transfers instead of its training — and stays lane-identical.
    let chaos = ChaosConfig::scripted(vec![FaultEvent {
        cluster: 1,
        round: 2,
        kind: FaultKind::LatencySpike { factor: 50.0 },
    }]);
    let config = ExperimentBuilder::quickstart()
        .seed(83)
        .rounds(3)
        .mode(Mode::Async)
        .link_model(LinkModel::Physical)
        .chaos(chaos)
        .config()
        .clone();
    let s = host_matches_one_lane("async physical chaos", config);
    assert!(s.chaos.spikes_fired > 0, "the spike fired");
    assert!(
        s.chaos
            .records
            .iter()
            .any(|r| r.kind == "latency_spike" && r.outcome.contains("transfers")),
        "physical link model routes the spike through the links: {:?}",
        s.chaos.records
    );
}

// ---------------------------------------------------------------------
// Trace determinism: the kernel's interleaved event timestamps replay
// bit for bit. The report does not carry the trace, so these step a
// `RunState` and read it there.
// ---------------------------------------------------------------------

/// The fired events of one run, in firing order.
fn run_traced(seed: u64, mode: Mode, lanes: Lanes, chaos: bool) -> Vec<EventRecord> {
    let mut builder = ExperimentBuilder::quickstart()
        .seed(seed)
        .rounds(3)
        .mode(mode)
        .lanes(lanes);
    if chaos {
        builder = builder.chaos(ChaosConfig {
            fetch_failure_prob: 0.2,
            dropped_tx_prob: 0.15,
            ..ChaosConfig::scripted(vec![FaultEvent {
                cluster: 1,
                round: 2,
                kind: FaultKind::Crash { down_rounds: 1 },
            }])
        });
    }
    let mut state = RunState::new(builder.config()).expect("valid config");
    while state.step().is_some() {}
    state.trace().to_vec()
}

#[test]
fn event_traces_replay_bit_for_bit_across_runs() {
    for mode in [Mode::Sync, Mode::Async] {
        for chaos in [false, true] {
            let a = run_traced(89, mode, Lanes::Host, chaos);
            let b = run_traced(89, mode, Lanes::Host, chaos);
            assert!(!a.is_empty());
            assert_eq!(
                format!("{:?}", a),
                format!("{:?}", b),
                "{mode} chaos={chaos}: trace must replay identically"
            );
            // The trace carries real interleaved timestamps, not a single
            // instant.
            let distinct: std::collections::HashSet<_> = a.iter().map(|r| r.at).collect();
            assert!(distinct.len() > 1, "{mode}: timestamps interleave");
        }
    }
}

#[test]
fn event_traces_are_engine_independent() {
    // The lane setting parallelizes compute only — the event schedule
    // (kinds, clusters, timestamps, order) is identical.
    for mode in [Mode::Sync, Mode::Async] {
        let seq = run_traced(97, mode, Lanes::One, false);
        let par = run_traced(97, mode, Lanes::Host, false);
        assert_eq!(
            format!("{:?}", seq),
            format!("{:?}", par),
            "{mode}: every lane setting must drain the same schedule"
        );
    }
}

#[test]
fn sync_barrier_releases_commits_at_window_close_in_index_order() {
    let out = run_traced(101, Mode::Sync, Lanes::Host, false);
    // Find round 1's TrainingDone events: all at one instant (the
    // barrier), in cluster-index order, before round 1's StartScoring.
    let done: Vec<_> = out
        .iter()
        .filter(|r| matches!(r.event, Event::TrainingDone { round: 1, .. }))
        .collect();
    assert_eq!(done.len(), 3);
    assert!(done.windows(2).all(|w| w[0].at == w[1].at), "one barrier");
    let order: Vec<usize> = done.iter().filter_map(|r| r.event.cluster()).collect();
    assert_eq!(order, vec![0, 1, 2], "index-order commits");
    let scoring_pos = out
        .iter()
        .position(|r| r.event == Event::StartScoring { round: 1 })
        .unwrap();
    let last_done_pos = out
        .iter()
        .rposition(|r| matches!(r.event, Event::TrainingDone { round: 1, .. }))
        .unwrap();
    assert!(last_done_pos < scoring_pos);
}

#[test]
fn async_wakes_interleave_across_clusters() {
    let out = run_traced(103, Mode::Async, Lanes::Host, false);
    let wakes: Vec<usize> = out
        .iter()
        .filter_map(|r| match r.event {
            Event::ClusterWake { cluster } => Some(cluster),
            _ => None,
        })
        .collect();
    // Free-running: no cluster runs its whole schedule in one
    // uninterrupted block (scoring duties interleave).
    let mut switches = 0;
    for w in wakes.windows(2) {
        if w[0] != w[1] {
            switches += 1;
        }
    }
    assert!(
        switches >= wakes.len() / 3,
        "wakes must interleave, got {wakes:?}"
    );
    assert_eq!(out.last().unwrap().event, Event::SealSlot);
}

#[test]
fn membership_with_chaos_stays_deterministic_and_engine_identical() {
    // A joiner and a founder crash in the same run: the kernel's two
    // extra event sources compose without breaking identity.
    let mut config = elastic_config(107, Mode::Async);
    config.chaos = Some(ChaosConfig::scripted(vec![FaultEvent {
        cluster: 0,
        round: 2,
        kind: FaultKind::Crash { down_rounds: 1 },
    }]));
    let s = host_matches_one_lane("elastic chaos", config);
    assert_eq!(s.membership.len(), 1);
    assert!(s.chaos.crashes_fired > 0);
}

#[test]
fn joiner_clock_skew_is_applied_and_recorded() {
    // A clock-skew fault aimed at an elastic joiner must take effect when
    // the cluster joins — and be recorded, so the report explains any
    // skew-caused delays (the founders' skews are logged at seed time).
    for mode in [Mode::Sync, Mode::Async] {
        let mut config = elastic_config(113, mode);
        config.chaos = Some(ChaosConfig::scripted(vec![FaultEvent {
            cluster: 3,
            round: 4,
            kind: FaultKind::ClockSkew {
                skew: SimDuration::from_secs(30),
            },
        }]));
        let s = host_matches_one_lane(&format!("joiner skew {mode}"), config);
        assert_eq!(s.membership.len(), 1, "{mode}: the join fired");
        assert!(
            s.chaos
                .records
                .iter()
                .any(|r| r.cluster == "agg-late" && r.kind == "clock_skew"),
            "{mode}: the joiner's skew must be recorded: {:?}",
            s.chaos.records
        );
        if mode == Mode::Async {
            // The skew really shifted the joiner's free-running timeline:
            // its first round completes at least 30 s after the join.
            let joiner = s.aggregators.iter().find(|a| a.name == "agg-late").unwrap();
            let join_at = s.membership[0].at_secs;
            assert!(
                joiner.curve[0].time_secs >= join_at + 30.0,
                "join at {join_at}, first round at {}",
                joiner.curve[0].time_secs
            );
        }
    }
}

#[test]
fn pre_join_faults_are_skipped_in_sync_and_recorded() {
    // `FaultPlan::expand` samples faults for all clusters with no
    // knowledge of `joins_at`, so a crash window can be aimed at rounds
    // before a joiner exists. The quickstart joiner enters at round 3; a
    // round-1 crash with a 4-round window would previously leak through
    // `is_down` into rounds 3–4 and knock the joiner out right after its
    // bootstrap. The sync engine must skip it (recorded as such) and let
    // the joiner train its post-join rounds — lane-identically.
    let mut config = elastic_config(131, Mode::Sync);
    config.chaos = Some(ChaosConfig::scripted(vec![FaultEvent {
        cluster: 3,
        round: 1,
        kind: FaultKind::Crash { down_rounds: 4 },
    }]));
    let s = host_matches_one_lane("sync pre-join crash", config);
    assert_eq!(s.membership.len(), 1, "the join fired");
    let crashes: Vec<_> = s
        .chaos
        .records
        .iter()
        .filter(|r| r.kind == "crash")
        .collect();
    assert_eq!(crashes.len(), 1, "exactly the scripted crash: {crashes:?}");
    assert_eq!(crashes[0].cluster, "agg-late");
    assert_eq!(
        crashes[0].outcome, "skipped: not yet joined",
        "the pre-join crash must be recorded as skipped, not applied"
    );
    let joiner = s.aggregators.iter().find(|a| a.name == "agg-late").unwrap();
    assert_eq!(joiner.rounds, 2, "the joiner trains rounds 3 and 4");
}

#[test]
fn pre_join_faults_are_deferred_in_async() {
    // The async engine numbers rounds per cluster from its join, so a
    // "round 1" fault aimed at a joiner fires on its first post-join round
    // — deferred rather than lost, and the run stays lane-identical.
    let mut config = elastic_config(137, Mode::Async);
    config.chaos = Some(ChaosConfig::scripted(vec![FaultEvent {
        cluster: 3,
        round: 1,
        kind: FaultKind::Crash { down_rounds: 1 },
    }]));
    let s = host_matches_one_lane("async pre-join crash", config);
    assert_eq!(s.membership.len(), 1, "the join fired");
    assert!(
        s.chaos
            .records
            .iter()
            .any(|r| r.cluster == "agg-late" && r.kind == "crash"),
        "the deferred crash fired after the join: {:?}",
        s.chaos.records
    );
    let joiner = s.aggregators.iter().find(|a| a.name == "agg-late").unwrap();
    assert_eq!(joiner.rounds, 4, "async churn costs time, not rounds");
    let join_at = s.membership[0].at_secs;
    assert!(
        joiner.curve[0].time_secs > join_at,
        "the crash was charged after the join, not before"
    );
}

#[test]
fn sharded_run_with_joiner_and_chaos_stays_engine_identical() {
    // The tentpole's composition claim: the two-tier topology rides the
    // same kernel as chaos and elastic membership without breaking the
    // lane-identity discipline.
    use unifyfl::core::ShardConfig;
    for mode in [Mode::Sync, Mode::Async] {
        let mut config = elastic_config(139, mode);
        config.sharding = Some(ShardConfig::new(2));
        config.chaos = Some(ChaosConfig::scripted(vec![FaultEvent {
            cluster: 0,
            round: 2,
            kind: FaultKind::Crash { down_rounds: 1 },
        }]));
        let s = host_matches_one_lane(&format!("sharded elastic chaos {mode}"), config);
        assert_eq!(s.membership.len(), 1, "{mode}: the join fired");
        assert!(s.chaos.crashes_fired > 0, "{mode}: the crash fired");
    }
}

#[test]
fn joiner_lands_in_its_seeded_shard() {
    // The shard assignment is a pure function of (config, seed, n) that
    // covers not-yet-joined clusters, so a mid-run joiner scores — and is
    // scored — inside the shard the seed dealt it.
    use unifyfl::core::{ShardConfig, ShardTopology};
    let mut config = elastic_config(31, Mode::Sync);
    let shard_cfg = ShardConfig::new(2);
    let topology = ShardTopology::derive(&shard_cfg, config.seed, config.clusters.len());
    config.sharding = Some(shard_cfg);
    config.lanes = Lanes::One;
    let (_, fed) = RunState::new(&config)
        .expect("the config partitions")
        .finish();
    let joiner = fed.clusters[3].address();
    let expected = topology.shard_of(3) as u32;
    assert_eq!(fed.contract().shard_of(joiner), expected);
    let mut submitted = 0;
    for e in fed
        .contract()
        .entries()
        .iter()
        .filter(|e| e.submitter == joiner)
    {
        submitted += 1;
        for s in &e.scorers {
            assert_eq!(
                fed.contract().shard_of(*s),
                expected,
                "the joiner's releases are scored intra-shard"
            );
        }
    }
    assert!(submitted > 0, "the joiner submitted after joining");
}

#[test]
fn multikrum_with_straggler_and_joiner_stays_engine_identical() {
    // The widest sync composition: MultiKRUM scoring, a 50x straggler
    // exercising carryover, and a mid-run join shifting the scorer pool.
    let mut config = elastic_config(109, Mode::Sync);
    config.scorer = ScorerKind::MultiKrum;
    config.clusters[2].straggle_factor = 50.0;
    let s = host_matches_one_lane("sync multikrum straggler joiner", config);
    assert!(
        s.aggregators[2].straggler_rounds > 0,
        "the straggler straggled"
    );
    assert_eq!(s.membership.len(), 1, "the join fired");
}
