//! Gossip trajectory: topology-aware dissemination vs. flat fetch.
//!
//! Flat provider selection concentrates serving: with one publisher and
//! `n` fetchers, the publisher's wire counter grows as O(n) — every fetch
//! is served from the same best-ranked node. The gossip overlay
//! ([`unifyfl_storage::topology`]) bounds it: fetchers pull from their
//! *nearest* provider hop by hop, retained copies re-provide, and chunk
//! swarming splits a DAG across close-by holders, so the busiest node's
//! wire bytes (fetched + served + relayed) flatten toward the per-node
//! degree instead of the fleet size. This bench measures the busiest-node
//! byte curve at two fleet sizes per arm and asserts **sub-√ growth under
//! gossip**: the log-log exponent of `max_node_wire_bytes` between the two
//! sizes stays below [`GOSSIP_EXPONENT_BAR`]; the flat arm's exponent is
//! reported alongside (it measures ≈ 1.0).
//!
//! (Routing neutrality — overlay runs report byte-identically to flat
//! fetch outside the transfer section under the `Nominal` link model — is
//! proven over random seeds by `tests/gossip_routing.rs`.)
//!
//! Quick scale runs 60/240 fetchers so the gate rides in tier-1 tests;
//! `--full` runs 500/1,000. `unifyfl-bench gossip` writes
//! `BENCH_gossip.json` (schema in `docs/BENCH.md`);
//! `docs/baselines/gossip.json` pins it at quick scale.

use unifyfl_core::{GossipConfig, ShardConfig, ShardTopology};
use unifyfl_storage::topology::GossipTopology;
use unifyfl_storage::{IpfsNetwork, LinkProfile, TransferConfig};

use crate::{fixed, int, Json, Scale};

/// Sub-√ bar on the log-log busiest-node byte exponent between the two
/// measured fleet sizes under gossip routing (flat measures ≈ 1.0).
pub const GOSSIP_EXPONENT_BAR: f64 = 0.5;

/// Target neighborhood population; the neighborhood count is
/// `ceil(nodes / NEIGHBORHOOD_SIZE)` (composes with the shard topology:
/// shard = neighborhood).
pub const NEIGHBORHOOD_SIZE: usize = 40;

/// Published blob size: 2.5 chunks of the 256 KiB chunker, so swarming
/// has a multi-block DAG to split.
pub const BLOB_BYTES: usize = 640 * 1024;

/// The two measured fetcher counts at a given scale.
pub fn fleet_sizes(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Quick => (60, 240),
        Scale::Full => (500, 1000),
    }
}

/// One dissemination run: a single publisher adds [`BLOB_BYTES`] of
/// content, `n` fetchers pull it in a seeded-stride order.
pub struct DisseminationArm {
    /// Fetchers in the fleet (nodes = fetchers + 1 publisher).
    pub fetchers: usize,
    /// Busiest node's wire bytes (fetched + served + relayed).
    pub max_wire_bytes: u64,
    /// Total physical bytes moved on the wire.
    pub total_wire_bytes: u64,
    /// Fetches that went over the overlay (0 in the flat arm).
    pub routed_fetches: u64,
    /// Route edges charged across all routed fetches.
    pub route_hops: u64,
    /// Bytes carried by intermediate relay nodes.
    pub relayed_bytes: u64,
}

/// The neighborhood assignment for `nodes` participants: fixed-population
/// neighborhoods drawn from the same seeded shard topology the federation
/// uses (shard = neighborhood).
fn neighborhoods(nodes: usize, seed: u64) -> Vec<usize> {
    let shards = nodes.div_ceil(NEIGHBORHOOD_SIZE);
    let topology = ShardTopology::derive(&ShardConfig::new(shards), seed, nodes);
    (0..nodes).map(|i| topology.shard_of(i)).collect()
}

/// Runs one dissemination arm: flat when `gossip` is `None`, routed over
/// the derived overlay otherwise. The transfer optimizations are off so
/// the counters measure raw dissemination, not dedup/cache artifacts.
pub fn run_arm(n: usize, seed: u64, gossip: Option<GossipConfig>) -> DisseminationArm {
    let net = IpfsNetwork::new();
    net.configure_transfer(TransferConfig::disabled(), seed);
    let publisher = net.add_node(LinkProfile::lan());
    let fetchers: Vec<_> = (0..n).map(|_| net.add_node(LinkProfile::edge())).collect();
    if let Some(config) = gossip {
        let hoods = neighborhoods(n + 1, seed);
        let topology = GossipTopology::derive(&config, seed, &hoods);
        net.install_topology(config, topology);
    }
    let blob: Vec<u8> = (0..BLOB_BYTES)
        .map(|i| (i as u64).wrapping_mul(31).wrapping_add(seed) as u8)
        .collect();
    let cid = publisher.add(&blob).cid;
    for idx in visit_order(n, seed) {
        fetchers[idx]
            .get(cid)
            .expect("fault-free dissemination fetch succeeds");
    }
    let stats = net.transfer_stats();
    DisseminationArm {
        fetchers: n,
        max_wire_bytes: net.max_node_wire_bytes(),
        total_wire_bytes: stats.physical_bytes,
        routed_fetches: stats.routed_fetches,
        route_hops: stats.route_hops,
        relayed_bytes: stats.relayed_bytes,
    }
}

/// The order `n` fetchers pull in: a seeded odd stride, bumped until it is
/// coprime to `n`, walks every fetcher exactly once and scatters
/// consecutive fetches across the neighborhoods instead of draining them
/// in index order.
fn visit_order(n: usize, seed: u64) -> impl Iterator<Item = usize> {
    let mut stride = (seed as usize % n) | 1;
    while gcd(stride, n) != 1 {
        stride += 2;
    }
    (0..n).map(move |i| (i * stride) % n)
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// One fleet size measured under both routing disciplines.
pub struct SizePoint {
    /// The flat-fetch arm.
    pub flat: DisseminationArm,
    /// The overlay-routed arm.
    pub gossip: DisseminationArm,
}

/// The complete benchmark result.
pub struct GossipBench {
    /// The smaller measured fleet.
    pub small: SizePoint,
    /// The larger measured fleet.
    pub large: SizePoint,
}

impl GossipBench {
    /// Log-log growth exponent of the busiest node's wire bytes between
    /// the two fleet sizes under flat routing (≈ 1.0: one provider
    /// serves everyone).
    pub fn flat_exponent(&self) -> f64 {
        exponent(&self.small.flat, &self.large.flat)
    }

    /// The same exponent under gossip routing (the gated curve).
    pub fn gossip_exponent(&self) -> f64 {
        exponent(&self.small.gossip, &self.large.gossip)
    }

    /// True if the gossip curve stays below [`GOSSIP_EXPONENT_BAR`].
    pub fn sub_sqrt(&self) -> bool {
        self.gossip_exponent() < GOSSIP_EXPONENT_BAR
    }

    /// Asserts the gossip gate.
    ///
    /// # Panics
    ///
    /// Panics if the busiest-node exponent breaches its bar.
    pub fn assert_gates(&self) {
        assert!(
            self.sub_sqrt(),
            "gossip exponent {:.3} breached the {GOSSIP_EXPONENT_BAR} bar ({} -> {} bytes)",
            self.gossip_exponent(),
            self.small.gossip.max_wire_bytes,
            self.large.gossip.max_wire_bytes,
        );
    }
}

fn exponent(small: &DisseminationArm, large: &DisseminationArm) -> f64 {
    (large.max_wire_bytes as f64 / small.max_wire_bytes as f64).ln()
        / (large.fetchers as f64 / small.fetchers as f64).ln()
}

/// Runs both fleet sizes under both disciplines.
pub fn run(scale: Scale, seed: u64) -> GossipBench {
    let (small_n, large_n) = fleet_sizes(scale);
    let point = |n: usize| SizePoint {
        flat: run_arm(n, seed, None),
        gossip: run_arm(n, seed, Some(GossipConfig::default())),
    };
    GossipBench {
        small: point(small_n),
        large: point(large_n),
    }
}

/// Renders the machine-readable `BENCH_gossip.json` body.
pub fn render_json(bench: &GossipBench, seed: u64, scale: Scale) -> Json {
    let arms = [&bench.small, &bench.large]
        .into_iter()
        .flat_map(|point| [("flat", &point.flat), ("gossip", &point.gossip)])
        .map(|(routing, arm)| {
            Json::obj([
                ("routing", Json::str(routing)),
                ("fetchers", int(arm.fetchers)),
                ("max_node_wire_bytes", int(arm.max_wire_bytes)),
                ("total_wire_bytes", int(arm.total_wire_bytes)),
                ("routed_fetches", int(arm.routed_fetches)),
                ("route_hops", int(arm.route_hops)),
                ("relayed_bytes", int(arm.relayed_bytes)),
            ])
        });
    Json::obj([
        ("bench", Json::str("gossip")),
        ("seed", int(seed)),
        ("scale", Json::str(scale.label())),
        ("blob_bytes", int(BLOB_BYTES)),
        ("flat_exponent", fixed(bench.flat_exponent(), 3)),
        ("gossip_exponent", fixed(bench.gossip_exponent(), 3)),
        ("gossip_exponent_bar", Json::Num(GOSSIP_EXPONENT_BAR)),
        ("sub_sqrt", Json::Bool(bench.sub_sqrt())),
        ("arms", Json::Arr(arms.collect())),
    ])
}

/// Renders the human-readable summary.
pub fn render(bench: &GossipBench) -> String {
    let mut out = String::new();
    out.push_str("Gossip bench: topology-aware dissemination vs. flat fetch\n\n");
    out.push_str(&format!(
        "{:>8} {:>8} {:>16} {:>16} {:>10} {:>14}\n",
        "routing", "fetchers", "max_node_bytes", "total_bytes", "hops", "relayed"
    ));
    for point in [&bench.small, &bench.large] {
        for (routing, arm) in [("flat", &point.flat), ("gossip", &point.gossip)] {
            out.push_str(&format!(
                "{:>8} {:>8} {:>16} {:>16} {:>10} {:>14}\n",
                routing,
                arm.fetchers,
                arm.max_wire_bytes,
                arm.total_wire_bytes,
                arm.route_hops,
                arm.relayed_bytes,
            ));
        }
    }
    out.push_str(&format!(
        "\nbusiest-node exponent: flat {:.3}, gossip {:.3} (bar {GOSSIP_EXPONENT_BAR}) — sub-sqrt: {}\n",
        bench.flat_exponent(),
        bench.gossip_exponent(),
        bench.sub_sqrt(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick-scale seed-42 run both tests read.
    fn quick() -> &'static GossipBench {
        static RUN: std::sync::OnceLock<GossipBench> = std::sync::OnceLock::new();
        RUN.get_or_init(|| run(Scale::Quick, 42))
    }

    #[test]
    fn quick_fleet_disseminates_sub_sqrt_and_stays_neutral() {
        // The tier-1 rendition of the dissemination gate: same overlay
        // and bar at 60/240 fetchers. Asserted here so a regression in
        // the routing pattern fails `cargo test`, not just CI's
        // release-mode run. (Neutrality of the overlay towards results is
        // `tests/gossip_routing.rs`'s proptest.)
        let bench = quick();
        bench.assert_gates();
        assert!(
            bench.flat_exponent() > 0.9,
            "flat exponent {:.3}: the baseline must concentrate serving",
            bench.flat_exponent(),
        );
        for point in [&bench.small, &bench.large] {
            assert_eq!(point.flat.routed_fetches, 0, "flat arm must not route");
            assert!(point.gossip.routed_fetches > 0, "overlay must engage");
            assert!(
                point.gossip.relayed_bytes > 0,
                "routes must traverse relays"
            );
            assert!(
                point.gossip.max_wire_bytes < point.flat.max_wire_bytes,
                "gossip must shed the hotspot ({} vs {})",
                point.gossip.max_wire_bytes,
                point.flat.max_wire_bytes,
            );
        }
    }

    #[test]
    fn json_rendering_is_well_formed() {
        crate::assert_matches_baseline("gossip", &render_json(quick(), 42, Scale::Quick));
    }

    #[test]
    fn stride_order_visits_every_fetcher() {
        // The arm's visit order is a permutation for any n ≥ 1, including
        // every n whose first stride shares a factor with it (n = 9,
        // seed 3: stride 3 would visit only a third of the fleet).
        for n in 1..=64 {
            for seed in 0..64 {
                let mut order: Vec<usize> = visit_order(n, seed).collect();
                order.sort_unstable();
                assert!(order.into_iter().eq(0..n), "n={n} seed={seed}");
            }
        }
    }
}
