//! PR 9 equivalence discipline: topology epochs are invisible until a
//! regroup actually fires.
//!
//! The static shard assignment became the epoch-0 entry of a topology
//! timeline, and the engines grew a `RegroupDue` event. Three properties
//! keep that refactor honest:
//!
//! 1. **Baseline identity** — with `regroup: None` a pinned grid of
//!    *pre-refactor* report fingerprints (seeds × modes × shards on/off ×
//!    gossip) reproduces bit for bit, on one lane and on the host's. The
//!    fingerprints below were captured on the tree before the
//!    topology-epoch refactor landed; they are the refactor's ground truth. A second, *composed*
//!    grid (sharding × regroup × gossip prefetch × fetch-ahead × both link
//!    models × an elastic joiner × scripted chaos) pins report and trace
//!    fingerprints captured before the orchestration handlers were merged,
//!    and must between its rows fire every event kind the kernel has. A
//!    third grid pins the paper's edge CNN (`small_cnn`, Table 4) the same
//!    way — every other golden trains an MLP, so it is the only run-level
//!    fence on the convolution kernels' bits.
//! 2. **Dormant cadence** — in Sync mode a regroup cadence longer than the
//!    run's horizon never fires, and must be byte-identical to
//!    `regroup: None` for any seed.
//! 3. **Composition** — an *active* cadence is deterministic (same seed →
//!    byte-identical report) and commutes with the rest of the middleware:
//!    chaos injection, elastic membership, domain drift, and
//!    checkpoint/resume at arbitrary event boundaries.

use std::collections::BTreeSet;

use proptest::prelude::*;
use unifyfl::core::cluster::{ClusterConfig, DriftSpec};
use unifyfl::core::events::encode_trace;
use unifyfl::core::experiment::{
    ExperimentBuilder, ExperimentConfig, ExperimentReport, LinkModel, Mode,
};
use unifyfl::core::service::RunState;
use unifyfl::core::{ChaosConfig, FaultEvent, FaultKind, GossipConfig, Lanes, ShardConfig};
use unifyfl::data::WorkloadConfig;
use unifyfl::sim::{DeviceProfile, SimDuration};
use unifyfl::storage::IpfsNode;

fn fnv(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for byte in text.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

fn fingerprint(report: &ExperimentReport) -> u64 {
    fnv(&format!("{report:?}"))
}

fn builder(seed: u64, mode: Mode, n: usize, sharding: Option<ShardConfig>) -> ExperimentBuilder {
    let clusters = (0..n)
        .map(|i| ClusterConfig::edge(format!("agg-{}", i + 1), DeviceProfile::edge_cpu()))
        .collect();
    let mut builder = ExperimentBuilder::quickstart()
        .seed(seed)
        .rounds(2)
        .mode(mode)
        .clusters(clusters);
    if let Some(s) = sharding {
        builder = builder.sharding(s);
    }
    builder
}

fn run(seed: u64, mode: Mode, n: usize, sharding: Option<ShardConfig>) -> ExperimentReport {
    builder(seed, mode, n, sharding)
        .run()
        .expect("valid configuration")
}

/// Pre-refactor fingerprints: `(seed, mode, shards, gossip degree)` →
/// FNV-1a 64 of the full-Debug report at n = 4 clusters, 2 rounds,
/// quickstart task. `shards = 0` means unsharded, `degree = 0` no overlay.
const GOLDENS: &[(u64, Mode, usize, usize, u64)] = &[
    (11, Mode::Sync, 0, 0, 0x83c5beb20aead2f0),
    (11, Mode::Sync, 2, 0, 0x8d6cce36f90d620d),
    (11, Mode::Async, 0, 0, 0xb0fdb47f72a82ef7),
    (11, Mode::Async, 2, 0, 0x56c93c0c196d5423),
    (42, Mode::Sync, 0, 0, 0xd182169359c2e58a),
    (42, Mode::Sync, 2, 0, 0xd4c4f96339b1de65),
    (42, Mode::Async, 0, 0, 0xcf22041f88bb39cc),
    (42, Mode::Async, 2, 0, 0xaf86425ca3b93da8),
    (1337, Mode::Sync, 0, 0, 0xbc237745e1a70ff8),
    (1337, Mode::Sync, 2, 0, 0xff4cbc7684c849ad),
    (1337, Mode::Async, 0, 0, 0x9f0a70c18d5ced83),
    (1337, Mode::Async, 2, 0, 0xc7a7e2fcb1a9fbb7),
    (42, Mode::Sync, 2, 2, 0x6cb6e0ebbce510c5),
    (42, Mode::Async, 2, 2, 0x2cc7d5d5309a4d98),
];

/// The composed fence: every topology and membership handler fires in a
/// pinned run. Six founders plus one elastic joiner (arriving mid-run on
/// each mode's own timescale) over 4 rounds, two shards exchanging every
/// round and regrouping every second, gossip prefetch, fetch-ahead, and a
/// scripted crash, leave, latency spike and clock skew. The joiner's
/// round-1 crash predates its Sync join (pruned as skipped) and hits its
/// own first round in Async.
fn composed_golden(seed: u64, mode: Mode, link_model: LinkModel) -> ExperimentBuilder {
    let mut clusters: Vec<ClusterConfig> = (0..6)
        .map(|i| ClusterConfig::edge(format!("agg-{}", i + 1), DeviceProfile::edge_cpu()))
        .collect();
    clusters.push(
        ClusterConfig::edge("agg-late", DeviceProfile::edge_cpu()).joining_at(match mode {
            Mode::Sync => SimDuration::from_secs(30),
            Mode::Async => SimDuration::from_millis(120),
        }),
    );
    let fault = |cluster, round, kind| FaultEvent {
        cluster,
        round,
        kind,
    };
    ExperimentBuilder::quickstart()
        .seed(seed)
        .rounds(4)
        .mode(mode)
        .clusters(clusters)
        .sharding(
            ShardConfig::new(2)
                .with_exchange_every(1)
                .with_regroup_every(2),
        )
        .gossip(GossipConfig::new(2))
        .fetch_ahead(true)
        .link_model(link_model)
        .chaos(ChaosConfig::scripted(vec![
            fault(1, 2, FaultKind::Crash { down_rounds: 1 }),
            fault(3, 3, FaultKind::Leave),
            fault(4, 2, FaultKind::LatencySpike { factor: 1.5 }),
            fault(
                2,
                1,
                FaultKind::ClockSkew {
                    skew: SimDuration::from_millis(50),
                },
            ),
            fault(6, 1, FaultKind::Crash { down_rounds: 1 }),
        ]))
}

/// Pre-collapse fingerprints of [`composed_golden`], captured on the tree
/// before the orchestration handlers were merged: `(seed, mode, link
/// model)` → FNV-1a 64 of the full-Debug report and of the encoded
/// fired-event trace; the next column is the per-node wire fingerprint,
/// captured before the storage layer memoised its overlay routes. The last
/// is the report with its transfer section stripped
/// ([`ExperimentReport::without_transfer`]): a change to how bytes move
/// may re-pin the report and wire columns, never this one or the trace.
/// Those two were re-pinned once, when warm-ups began taking the delta
/// path: every row's trace and transfer-neutral report stayed put.
#[rustfmt::skip]
const COMPOSED_GOLDENS: &[(u64, Mode, LinkModel, u64, u64, u64, u64)] = &[
    (11, Mode::Sync, LinkModel::Nominal, 0x2f7fb71c8c34f111, 0x8e238f14a7707532, 0x08c04fc0bddf1ab5, 0x0acd250db9d5c9c2),
    (11, Mode::Sync, LinkModel::Physical, 0xa76232018fb59fda, 0x8e238f14a7707532, 0x5d84964a594c6c1f, 0x600c7489c7a21534),
    (11, Mode::Async, LinkModel::Nominal, 0x661e94eb7d17a053, 0x16aca187037b2d3f, 0x0b5c037a01ea6d32, 0x143a8266d4c28d61),
    (11, Mode::Async, LinkModel::Physical, 0x2904467885aa4181, 0x076c6dc7d74b272a, 0x65ec362934e188d4, 0x5413636111597b1e),
    (1337, Mode::Sync, LinkModel::Nominal, 0x74c774cc0f787ee1, 0x65178dbf5202fbf8, 0x1dd2c85e19637765, 0x9dd4d2e44885d1e9),
    (1337, Mode::Sync, LinkModel::Physical, 0x7c322c662ee58d3b, 0x65178dbf5202fbf8, 0xd5e0566b13e4d627, 0xbe25a5dca69bbd21),
    (1337, Mode::Async, LinkModel::Nominal, 0xc9fd30561929959b, 0x9be958e3faded7f8, 0x1a01c3f5e8b4e4ea, 0xeb10fcda8e3d890b),
    (1337, Mode::Async, LinkModel::Physical, 0xa33d4271c39abb18, 0xc5ce794033a87bbb, 0x77e5cdc0de996b4b, 0xdb278102d4b38443),
];

/// The paper's edge workload in miniature: the Table 4 CNN (`small_cnn`,
/// batch size 5, two local epochs) on 3 clusters × 2 clients for 2 rounds.
fn cnn_golden(seed: u64, mode: Mode) -> ExperimentBuilder {
    let mut workload = WorkloadConfig::cifar10();
    workload.dataset.n_samples = 180;
    let clusters = (0..3)
        .map(|i| {
            let mut c = ClusterConfig::edge(format!("agg-{}", i + 1), DeviceProfile::edge_cpu());
            c.n_clients = 2;
            c
        })
        .collect();
    ExperimentBuilder::quickstart()
        .seed(seed)
        .workload(workload)
        .rounds(2)
        .mode(mode)
        .clusters(clusters)
}

/// Fingerprints of [`cnn_golden`], captured on the tree whose `Conv2d` ran
/// the direct scalar loops: `(seed, mode)` → FNV-1a 64 of the full-Debug
/// report and of the encoded fired-event trace.
#[rustfmt::skip]
const CNN_GOLDENS: &[(u64, Mode, u64, u64)] = &[
    (11, Mode::Sync, 0x437ebeadffcc0b7b, 0xebb1e55043d6eae3),
    (11, Mode::Async, 0x4d5fd54bb2f0cfe9, 0x6a019bca5f2982a1),
    (1337, Mode::Sync, 0x132de9366b9db115, 0xebb1e55043d6eae3),
    (1337, Mode::Async, 0xbd92eaaae713fc2c, 0x6a019bca5f2982a1),
];

/// Runs `config` to completion event by event: the report, trace,
/// per-node wire and transfer-neutral report fingerprints, plus the label
/// of every event kind that fired. The wire fingerprint is FNV-1a 64 over every node's
/// `(bytes_fetched, bytes_served, bytes_relayed)` once the final merge is
/// done: a route tie-break that moves bytes *between relays* moves no total
/// the report carries, so only this pins it. Also audits the blockstore
/// invariant over every node once the run is done.
fn traced_fingerprints(
    config: &ExperimentConfig,
) -> ((u64, u64, u64, u64), BTreeSet<&'static str>) {
    let mut state = RunState::new(config).expect("valid configuration");
    let fabric = state.federation().ipfs.clone();
    let nodes: Vec<IpfsNode> = state
        .federation()
        .clusters
        .iter()
        .map(|c| c.ipfs().clone())
        .collect();
    while state.step().is_some() {}
    let fired = state.trace().iter().map(|r| r.event.label()).collect();
    let trace = encode_trace(state.trace());
    let report = state.run_to_completion();
    assert_eq!(
        fabric.first_corrupt_block(),
        None,
        "every blockstore key must still hash its value: local reads rely on it"
    );
    let wire: Vec<(u64, u64, u64)> = nodes
        .iter()
        .map(|n| (n.bytes_fetched(), n.bytes_served(), n.bytes_relayed()))
        .collect();
    (
        (
            fingerprint(&report),
            fnv(&trace),
            fnv(&format!("{wire:?}")),
            fingerprint(&report.without_transfer()),
        ),
        fired,
    )
}

/// Every [`Event::label`](unifyfl::core::events::Event::label) the kernel
/// can fire; the composed grid must fire each at least once.
const ALL_LABELS: [&str; 13] = [
    "membership_change",
    "open_training",
    "training_done",
    "start_scoring",
    "scores_due",
    "round_barrier",
    "cluster_wake",
    "seal_slot",
    "shard_seal_due",
    "shard_exchange",
    "prefetch_due",
    "fetch_ahead",
    "regroup_due",
];

#[test]
fn pre_refactor_fingerprints_reproduce_under_both_engines() {
    let mut fired: BTreeSet<&'static str> = BTreeSet::new();
    for &(seed, mode, link_model, report_fnv, trace_fnv, wire_fnv, neutral_fnv) in COMPOSED_GOLDENS
    {
        for lanes in [Lanes::One, Lanes::Host] {
            let config = composed_golden(seed, mode, link_model)
                .lanes(lanes)
                .config()
                .clone();
            let (fingerprints, labels) = traced_fingerprints(&config);
            fired.extend(labels);
            assert_eq!(
                fingerprints,
                (report_fnv, trace_fnv, wire_fnv, neutral_fnv),
                "the composed run must reproduce its pre-collapse report, \
                 trace, per-node wire bytes and transfer-neutral report \
                 (seed {seed}, {mode}, {link_model}, {lanes:?})"
            );
        }
    }
    assert_eq!(
        fired,
        BTreeSet::from(ALL_LABELS),
        "the composed grid must fire every event kind"
    );
    for &(seed, mode, shards, degree, expected) in GOLDENS {
        for lanes in [Lanes::One, Lanes::Host] {
            let sharding = (shards > 0).then(|| ShardConfig::new(shards));
            let mut builder = builder(seed, mode, 4, sharding).lanes(lanes);
            if degree > 0 {
                builder = builder.gossip(GossipConfig {
                    degree,
                    ..GossipConfig::default()
                });
            }
            let report = builder.run().expect("valid configuration");
            assert_eq!(
                fingerprint(&report),
                expected,
                "regroup: None must reproduce the pre-refactor report \
                 (seed {seed}, {mode}, shards {shards}, gossip {degree}, {lanes:?})"
            );
        }
    }
}

#[test]
fn cnn_fingerprints_reproduce_under_both_engines() {
    for &(seed, mode, report_fnv, trace_fnv) in CNN_GOLDENS {
        for lanes in [Lanes::One, Lanes::Host] {
            let config = cnn_golden(seed, mode).lanes(lanes).config().clone();
            let ((report, trace, ..), _) = traced_fingerprints(&config);
            assert_eq!(
                (report, trace),
                (report_fnv, trace_fnv),
                "the CNN run must reproduce its direct-loop report and trace \
                 (seed {seed}, {mode}, {lanes:?})"
            );
        }
    }
}

proptest! {
    /// A Sync regroup cadence beyond the run's horizon never fires — and a
    /// cadence that never fires must be a complete no-op.
    #[test]
    fn dormant_sync_cadence_is_byte_identical(
        seed in any::<u64>(),
        every in 3u64..100,
    ) {
        let without = run(seed, Mode::Sync, 4, Some(ShardConfig::new(2)));
        let dormant = run(
            seed,
            Mode::Sync,
            4,
            Some(ShardConfig::new(2).with_regroup_every(every)),
        );
        prop_assert_eq!(
            format!("{without:?}"),
            format!("{dormant:?}"),
            "a cadence of {} over a 2-round horizon never fires (seed {})",
            every,
            seed
        );
    }

    /// An active cadence is deterministic: the regroup's distance ranking
    /// and seeded tie-breaks are pure functions of `(config, seed)`, so a
    /// same-seed rerun is byte-identical in either mode.
    #[test]
    fn active_regroup_is_same_seed_deterministic(
        seed in any::<u64>(),
        mode_idx in 0usize..2,
    ) {
        let mode = [Mode::Sync, Mode::Async][mode_idx];
        let sharding = Some(ShardConfig::new(2).with_regroup_every(1));
        let a = run(seed, mode, 4, sharding.clone());
        let b = run(seed, mode, 4, sharding);
        prop_assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "same-seed regroup runs must agree (seed {}, {})",
            seed,
            mode
        );
    }
}

/// The full composition: chaos, a mid-run elastic joiner, domain drift on
/// two founders, adaptive weighting, and an every-round regroup cadence.
fn composed(seed: u64, mode: Mode) -> ExperimentBuilder {
    let drift = DriftSpec {
        at_round: 2,
        class_shift: 2,
    };
    let clusters = vec![
        ClusterConfig::edge("agg-1", DeviceProfile::edge_cpu()).with_drift(drift),
        ClusterConfig::edge("agg-2", DeviceProfile::edge_cpu()),
        ClusterConfig::edge("agg-3", DeviceProfile::edge_cpu()).with_drift(drift),
        ClusterConfig::edge("agg-4", DeviceProfile::edge_cpu()),
        ClusterConfig::edge("agg-5", DeviceProfile::edge_cpu())
            .joining_at(SimDuration::from_secs_f64(30.0)),
    ];
    ExperimentBuilder::quickstart()
        .seed(seed)
        .rounds(3)
        .mode(mode)
        .clusters(clusters)
        .sharding(
            ShardConfig::new(2)
                .with_regroup_every(1)
                .with_adaptive_weighting(),
        )
        .chaos(ChaosConfig {
            crash_prob: 0.2,
            spike_prob: 0.2,
            spike_factor: 1.5,
            fetch_failure_prob: 0.2,
            missed_seal_prob: 0.1,
            ..ChaosConfig::default()
        })
}

#[test]
fn regroup_composes_with_chaos_churn_and_drift() {
    for mode in [Mode::Sync, Mode::Async] {
        for seed in [7u64, 42, 1337] {
            let a = composed(seed, mode).run().expect("valid configuration");
            let b = composed(seed, mode).run().expect("valid configuration");
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "chaos + join + drift + regroup must stay deterministic \
                 (seed {seed}, {mode})"
            );
        }
    }
}

#[test]
fn regroup_survives_checkpoint_resume_at_any_cut() {
    // RegroupDue fires through the same trace the checkpoint records, so
    // resuming from any event boundary must complete to the same report —
    // including mid-epoch cuts where the topology has already moved.
    for mode in [Mode::Sync, Mode::Async] {
        let config = composed(42, mode).config().clone();
        let uninterrupted = {
            let state = RunState::new(&config).expect("valid config");
            format!("{:?}", state.run_to_completion())
        };
        let total = {
            let mut state = RunState::new(&config).expect("valid config");
            let mut n = 0;
            while state.step().is_some() {
                n += 1;
            }
            n
        };
        for cut in [1, total / 3, total / 2, total - 1] {
            let mut state = RunState::new(&config).expect("valid config");
            for _ in 0..cut {
                state.step();
            }
            let checkpoint = state.checkpoint();
            drop(state);
            let resumed = RunState::resume(&checkpoint).expect("replay verifies");
            assert_eq!(
                format!("{:?}", resumed.run_to_completion()),
                uninterrupted,
                "resume at cut {cut}/{total} must be invisible ({mode})"
            );
        }
    }
}
