//! PR 7 routing-neutrality discipline: topology-aware gossip dissemination
//! changes *how* bytes move — hop-by-hop relays, chunk swarming, prefetch
//! along the overlay — never *what* the experiment computes.
//!
//! Under the `Nominal` link mode the engines charge fixed per-fetch
//! durations regardless of the storage layer's virtual transfer receipts,
//! so a gossip-routed run must produce a report **byte-identical** to the
//! flat run outside the transfer section (which legitimately differs:
//! routed fetches accrue hop and relay counters, and overlay prefetch
//! turns exchange fetches into cache hits). The tests strip the transfer
//! section and compare the full `Debug` rendering of everything else —
//! curves, chain stats, fault accounting, storage bytes, membership.

use proptest::prelude::*;
use unifyfl::core::cluster::ClusterConfig;
use unifyfl::core::experiment::{ExperimentBuilder, ExperimentReport, Mode};
use unifyfl::core::{GossipConfig, ShardConfig};
use unifyfl::sim::DeviceProfile;

fn run(
    seed: u64,
    mode: Mode,
    n: usize,
    sharding: Option<ShardConfig>,
    gossip: Option<GossipConfig>,
) -> ExperimentReport {
    let clusters = (0..n)
        .map(|i| ClusterConfig::edge(format!("agg-{}", i + 1), DeviceProfile::edge_cpu()))
        .collect();
    // Three rounds so the sharded runs cross the `exchange_every = 2`
    // cadence: the seal/exchange pair (and the gossip prefetch ahead of
    // it) fires after round 2 — it never fires on the final round.
    let mut builder = ExperimentBuilder::quickstart()
        .seed(seed)
        .rounds(3)
        .mode(mode)
        .clusters(clusters);
    if let Some(s) = sharding {
        builder = builder.sharding(s);
    }
    if let Some(g) = gossip {
        builder = builder.gossip(g);
    }
    builder.run().expect("valid configuration")
}

proptest! {
    /// Gossip routing is a report-level no-op under `Nominal`, across
    /// seeds, both modes, shards on and off.
    #[test]
    fn gossip_routing_is_byte_identical_outside_transfer(
        seed in any::<u64>(),
        mode_idx in 0usize..2,
        sharded in any::<bool>(),
    ) {
        let mode = [Mode::Sync, Mode::Async][mode_idx];
        let n = 4;
        let sharding = sharded.then(|| ShardConfig::new(2));
        let flat = run(seed, mode, n, sharding.clone(), None);
        let routed = run(seed, mode, n, sharding, Some(GossipConfig::new(2)));
        prop_assert_eq!(
            format!("{:?}", flat.without_transfer()),
            format!("{:?}", routed.without_transfer()),
            "gossip must be result-neutral (seed {}, {}, sharded {})",
            seed,
            mode,
            sharded
        );
    }
}

#[test]
fn gossip_routing_is_neutral_at_pinned_seeds_and_actually_routes() {
    for mode in [Mode::Sync, Mode::Async] {
        for seed in [7u64, 42, 1234] {
            for shards in [None, Some(ShardConfig::new(2))] {
                let flat = run(seed, mode, 4, shards.clone(), None);
                let routed = run(seed, mode, 4, shards.clone(), Some(GossipConfig::default()));
                // Routing genuinely engaged: every remote fetch went over
                // the overlay, so the counter the flat run can never touch
                // is live.
                assert!(
                    routed.transfer.routed_fetches > 0,
                    "overlay must serve remote fetches (seed {seed}, {mode})"
                );
                assert_eq!(flat.transfer.routed_fetches, 0);
                assert_eq!(
                    format!("{:?}", flat.without_transfer()),
                    format!("{:?}", routed.without_transfer()),
                    "gossip must be result-neutral (seed {seed}, {mode}, shards {:?})",
                    shards.is_some()
                );
            }
        }
    }
}

#[test]
fn prefetch_turns_shard_exchange_fetches_into_cache_hits() {
    // With shards on, the overlay prefetch runs strictly before each
    // epoch's exchange, so the exchange's fetches hit the local store.
    // Prefetch retains exactly what the exchange would have retained —
    // visible as extra cache hits, identical results.
    let seed = 7;
    let plain = run(seed, Mode::Sync, 4, Some(ShardConfig::new(2)), None);
    let routed = run(
        seed,
        Mode::Sync,
        4,
        Some(ShardConfig::new(2)),
        Some(GossipConfig::default()),
    );
    assert!(
        routed.transfer.cache_hits > plain.transfer.cache_hits,
        "prefetch must convert exchange fetches into hits ({} vs {})",
        routed.transfer.cache_hits,
        plain.transfer.cache_hits
    );
    assert_eq!(
        format!("{:?}", plain.without_transfer()),
        format!("{:?}", routed.without_transfer())
    );
}

#[test]
fn gossip_validation_rejects_degenerate_knobs() {
    let degenerate = [
        (GossipConfig::new(0), "gossip.degree"),
        (GossipConfig::new(2).with_swarm(0), "gossip.swarm"),
    ];
    for (bad, knob) in degenerate {
        let err = ExperimentBuilder::quickstart()
            .gossip(bad)
            .run()
            .expect_err("degenerate gossip knobs must be rejected");
        let cluster = None;
        assert_eq!(
            err,
            unifyfl::core::ExperimentError::InvalidKnob { knob, cluster }
        );
        assert_eq!(err.to_string(), format!("{knob} must be an integer >= 1"));
    }
}
