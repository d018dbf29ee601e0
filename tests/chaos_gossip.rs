//! Chaos × gossip tier — fault injection on the PR 7 overlay-routed
//! storage fabric.
//!
//! On a routed fetch the injector rolls the fetch-failure probability once
//! at provider resolution and once **per intermediate relay** on the
//! primary route, so fault exposure compounds with hop distance: a
//! neighbour's fetch is one roll, a fetch across the ring is many. These
//! tests pin that partition-by-distance behaviour — near fetchers get
//! served, far fetchers starve, and the fault counters land on exact
//! values drawn from the seeded stream — plus chunk-loss exhaustion over a
//! routed path and the determinism of full experiment runs with gossip
//! and chaos armed together.

use unifyfl::core::cluster::ClusterConfig;
use unifyfl::core::experiment::{ExperimentBuilder, Mode};
use unifyfl::core::{ChaosConfig, ShardConfig};
use unifyfl::sim::DeviceProfile;
use unifyfl::storage::{
    Cid, GossipConfig, GossipTopology, IpfsNetwork, IpfsNode, LinkProfile, StorageFaults,
    TransferConfig,
};

/// A pure ring of `n` LAN nodes (degree 1, one neighborhood derives
/// 0-1-…-(n−1)-0) with `blob` provided by node 0 and the seeded fault
/// injector armed with `fetch_failure_prob` only.
fn faulty_ring(
    n: usize,
    seed: u64,
    fetch_failure_prob: f64,
    blob: &[u8],
) -> (IpfsNetwork, Vec<IpfsNode>, Cid) {
    let net = IpfsNetwork::new();
    net.configure_transfer(TransferConfig::disabled(), seed);
    let nodes: Vec<IpfsNode> = (0..n).map(|_| net.add_node(LinkProfile::lan())).collect();
    let config = GossipConfig::new(1).with_swarm(1);
    net.install_topology(config, GossipTopology::derive(&config, 0, &vec![0; n]));
    let cid = nodes[0].add(blob).cid;
    net.install_faults(StorageFaults::new(seed, fetch_failure_prob, 0.0, 0));
    (net, nodes, cid)
}

/// Partition by distance, pinned: under one seeded fault stream the
/// 5-relay route across the ring never completes a fetch while the
/// 0-relay neighbour route gets served, and every counter lands exactly.
#[test]
fn distance_partitions_the_ring_under_fetch_faults() {
    const ATTEMPTS: usize = 12;
    let blob = vec![7u8; 64 * 1024];
    let (net, nodes, cid) = faulty_ring(12, 9, 0.6, &blob);

    // Node 6 sits across the ring: route 0→…→6 crosses five relays, so
    // each attempt survives six rolls at p = 0.6 only with probability
    // 0.4⁶ ≈ 0.4%.
    let far_successes = (0..ATTEMPTS).filter(|_| nodes[6].get(cid).is_ok()).count();
    assert_eq!(far_successes, 0, "the far side of the partition starves");
    assert!(!nodes[6].has_local(cid));

    // Node 1 is adjacent: one roll per attempt, survival 0.4. The first
    // success retains the content locally, so later attempts are
    // fault-free cache hits.
    let mut near_first_success = None;
    for attempt in 0..ATTEMPTS {
        if nodes[1].get(cid).is_ok() && near_first_success.is_none() {
            near_first_success = Some(attempt);
        }
    }
    assert_eq!(
        near_first_success,
        Some(1),
        "the seeded stream fails the neighbour's first attempt and serves \
         the second"
    );
    assert!(nodes[1].has_local(cid), "a served fetch retains");

    // No far fetch ever completed, and the near route has no relays, so
    // not a single byte was relayed anywhere on the ring.
    let relayed: u64 = nodes.iter().map(|n| n.bytes_relayed()).sum();
    assert_eq!(relayed, 0, "a starved route moves no bytes");
    let served = nodes[0].bytes_served();
    assert!(
        served >= blob.len() as u64 && served < 2 * blob.len() as u64,
        "the provider served one transfer (blob + framing), got {served}"
    );
    nodes[1].get(cid).expect("retained content is a local hit");
    assert_eq!(
        nodes[0].bytes_served(),
        served,
        "the retained copy absorbs repeat fetches — no new wire traffic"
    );

    // 12 starved far attempts plus the neighbour's one failed attempt
    // burned exactly 13 fault rolls that came up heads.
    let stats = net.fault_stats().expect("injector installed");
    assert_eq!(stats.fetch_failures, 13, "counters pin the fault stream");
    assert_eq!(stats.chunk_losses, 0, "no chunk-level faults were armed");
}

/// Fault exposure compounds with hop distance: sweeping the fetcher from
/// one hop to five hops away (fresh seeded ring per attempt, one genuine
/// routed fetch each) the per-distance success counts fall monotonically
/// from the near side to the far side, on exact pinned values.
#[test]
fn hop_distance_compounds_fault_exposure() {
    const TRIALS: u64 = 30;
    let blob = vec![3u8; 1024];
    let successes: Vec<usize> = (1..=5usize)
        .map(|distance| {
            (0..TRIALS)
                .filter(|trial| {
                    let (_net, nodes, cid) = faulty_ring(12, 100 + trial, 0.4, &blob);
                    nodes[distance].get(cid).is_ok()
                })
                .count()
        })
        .collect();
    // Expected survival per attempt is 0.6^rolls = 0.6, 0.36, 0.22, 0.13,
    // 0.08 — and the seeded trials land exactly here.
    assert_eq!(
        successes,
        vec![19, 9, 2, 1, 0],
        "per-distance success counts are pinned by the seeds"
    );
    for pair in successes.windows(2) {
        assert!(
            pair[0] >= pair[1],
            "success must not grow with distance: {successes:?}"
        );
    }
}

/// Chunk loss over a routed path: with every chunk transfer lost and no
/// retry budget the fetch exhausts (typed failure, exact counters); after
/// `clear_faults` the same route delivers the bytes intact.
#[test]
fn chunk_loss_exhausts_a_routed_fetch_until_faults_clear() {
    let blob: Vec<u8> = (0..400_000u32).map(|i| (i % 251) as u8).collect();
    let net = IpfsNetwork::new();
    net.configure_transfer(TransferConfig::disabled(), 5);
    let nodes: Vec<IpfsNode> = (0..6).map(|_| net.add_node(LinkProfile::lan())).collect();
    let config = GossipConfig::new(1).with_swarm(1);
    net.install_topology(config, GossipTopology::derive(&config, 0, &[0; 6]));
    let cid = nodes[0].add(&blob).cid;

    // Certain chunk loss, zero retries: the first chunk transfer already
    // exhausts the budget.
    net.install_faults(StorageFaults::new(5, 0.0, 1.0, 0));
    assert!(
        nodes[3].get(cid).is_err(),
        "certain chunk loss with no retries must fail the fetch"
    );
    let stats = net.fault_stats().expect("injector installed");
    assert_eq!(stats.exhausted_fetches, 1);
    assert_eq!(
        stats.chunk_losses, 1,
        "the very first chunk loss exhausts a zero-retry budget"
    );
    assert_eq!(stats.chunk_retries, 0, "no retries were available to burn");
    assert_eq!(stats.fetch_failures, 0, "no DHT-level faults were armed");

    net.clear_faults();
    assert!(net.fault_stats().is_none(), "clearing removes the injector");
    let got = nodes[3].get(cid).expect("quiescent fabric serves");
    assert_eq!(
        got.data[..],
        blob[..],
        "routing and recovery never change bytes"
    );
}

/// Experiment level: a sharded, gossip-routed run with storage chaos armed
/// is a pure function of its seed — byte-identical full-`Debug` reports on
/// repeat, different bytes under a different seed.
#[test]
fn gossip_chaos_experiment_is_seed_deterministic() {
    let run = |seed: u64| {
        let clusters = (0..4)
            .map(|i| ClusterConfig::edge(format!("agg-{}", i + 1), DeviceProfile::edge_cpu()))
            .collect();
        let report = ExperimentBuilder::quickstart()
            .seed(seed)
            .rounds(3)
            .mode(Mode::Async)
            .clusters(clusters)
            .sharding(ShardConfig::new(2))
            .gossip(GossipConfig::new(2).with_swarm(2))
            .chaos(ChaosConfig {
                crash_prob: 0.2,
                fetch_failure_prob: 0.3,
                chunk_loss_prob: 0.25,
                chunk_retries: 4,
                ..ChaosConfig::default()
            })
            .run()
            .expect("valid configuration");
        format!("{report:?}")
    };
    assert_eq!(run(13), run(13), "same seed, same bytes");
    assert_ne!(run(13), run(14), "chaos must actually depend on the seed");
}
