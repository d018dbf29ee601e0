//! Seeded per-node neighbor graph for topology-aware dissemination.
//!
//! The flat fabric resolves every fetch point-to-point against the global
//! provider index, so at fleet scale every node hammers whichever provider
//! sorts first and per-node wire bytes grow linearly with the federation.
//! This module builds the gossip overlay the network layer routes through
//! instead: each node gets a bounded set of neighbors, fetches walk the
//! overlay hop by hop toward the nearest provider, and blocks spread
//! neighborhood-to-neighborhood so serving load stays bounded by degree.
//!
//! The graph is a pure function of `(config, seed, neighborhoods)`:
//!
//! - every neighborhood (a shard, when composed with `core::sharding`; the
//!   whole federation otherwise) is wired as a ring over its members in
//!   ascending [`NodeId`] order, so the overlay is connected within a
//!   neighborhood by construction;
//! - seeded chord edges are added inside each neighborhood until every
//!   member reaches the configured degree, keeping intra-neighborhood
//!   diameter small;
//! - neighborhoods themselves are joined by bridge edges at offsets `1,
//!   2, 4, 8, …` (powers of two), giving the inter-neighborhood graph a
//!   logarithmic diameter the same way chord fingers do.
//!
//! Everything downstream (provider selection, hop charging, swarming) is
//! in [`crate::network`]; this module only answers "who are my neighbors"
//! and "how far / which way to that node".

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dht::NodeId;

/// Operator-facing knobs for the gossip overlay.
///
/// Carried by experiment configs and handed to
/// [`GossipTopology::derive`]; `Copy` so configs stay cheap to clone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GossipConfig {
    /// Target neighbor count per node inside its neighborhood (≥ 1).
    /// Ring edges count toward the target; seeded chords top it up.
    pub degree: usize,
    /// Maximum providers a single fetch swarms chunks from (≥ 1;
    /// 1 = no swarming, all chunks from the nearest provider).
    pub swarm: usize,
}

impl GossipConfig {
    /// An overlay with the given per-node degree and chunk swarming
    /// across up to three providers.
    pub fn new(degree: usize) -> Self {
        GossipConfig { degree, swarm: 3 }
    }

    /// Caps chunk swarming at `swarm` providers per fetch.
    pub fn with_swarm(mut self, swarm: usize) -> Self {
        self.swarm = swarm;
        self
    }
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig::new(4)
    }
}

/// The concrete neighbor graph for one run: adjacency lists plus the
/// neighborhood assignment they were derived from.
///
/// Neighbor lists are kept in ascending [`NodeId`] order, so every
/// traversal (BFS distances, path reconstruction) is deterministic
/// without consulting the seed again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GossipTopology {
    /// Node index → neighborhood (shard) index.
    neighborhoods: Vec<usize>,
    /// Node index → neighbors, ascending.
    adjacency: Vec<Vec<NodeId>>,
}

impl GossipTopology {
    /// Derives the seeded overlay for `neighborhoods[i] = neighborhood of
    /// node i`. One `StdRng` stream seeds both the chord and bridge
    /// draws, so the graph is a pure function of its arguments.
    pub fn derive(config: &GossipConfig, seed: u64, neighborhoods: &[usize]) -> GossipTopology {
        let n = neighborhoods.len();
        let degree = config.degree.max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges: BTreeSet<(u32, u32)> = BTreeSet::new();
        let add = |edges: &mut BTreeSet<(u32, u32)>, a: u32, b: u32| {
            if a != b {
                edges.insert((a.min(b), a.max(b)));
            }
        };

        let groups = neighborhoods.iter().copied().max().map_or(0, |m| m + 1);
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); groups];
        for (node, hood) in neighborhoods.iter().enumerate() {
            members[*hood].push(node as u32);
        }

        // Ring + seeded chords inside each neighborhood.
        for hood in &members {
            let size = hood.len();
            if size >= 2 {
                for (pos, node) in hood.iter().enumerate() {
                    add(&mut edges, *node, hood[(pos + 1) % size]);
                }
            }
            if size > 2 {
                for node in hood {
                    // The ring contributes two edges; draw chords for the rest.
                    for _ in 2..degree.min(size - 1) {
                        let peer = hood[rng.gen_range(0..size)];
                        if peer != *node {
                            add(&mut edges, *node, peer);
                        }
                    }
                }
            }
        }

        // Bridges between neighborhoods at power-of-two offsets: each
        // neighborhood links a seeded member to one in neighborhoods
        // `+1, +2, +4, …`, so inter-neighborhood distance is O(log groups).
        if groups > 1 {
            for hood in 0..groups {
                let mut offset = 1usize;
                while offset < groups {
                    let other = (hood + offset) % groups;
                    if other != hood && !members[hood].is_empty() && !members[other].is_empty() {
                        let a = members[hood][rng.gen_range(0..members[hood].len())];
                        let b = members[other][rng.gen_range(0..members[other].len())];
                        add(&mut edges, a, b);
                    }
                    offset *= 2;
                }
            }
        }

        let mut adjacency: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (a, b) in edges {
            adjacency[a as usize].push(NodeId(b));
            adjacency[b as usize].push(NodeId(a));
        }
        for neighbors in &mut adjacency {
            neighbors.sort();
        }
        GossipTopology {
            neighborhoods: neighborhoods.to_vec(),
            adjacency,
        }
    }

    /// Number of nodes the overlay covers.
    pub fn len(&self) -> usize {
        self.neighborhoods.len()
    }

    /// True when the overlay covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.neighborhoods.is_empty()
    }

    /// A node's neighbors, ascending.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.adjacency[node.0 as usize]
    }

    /// BFS hop distances from `from` to every node; `u32::MAX` marks
    /// unreachable nodes. Neighbors are expanded in ascending order, so
    /// the frontier (and therefore [`Self::path`]) is deterministic.
    pub fn distances_from(&self, from: NodeId) -> Vec<u32> {
        if (from.0 as usize) >= self.len() {
            return vec![u32::MAX; self.len()];
        }
        self.bfs_row(from).dist
    }

    /// One full BFS from `from` (which must be covered): every node's hop
    /// distance and the node it was first discovered from. Parents are
    /// assigned at first discovery, exactly as [`Self::path`]'s early-exit
    /// search assigns them, so walking the parent row back from any target
    /// yields the path that search returns.
    fn bfs_row(&self, from: NodeId) -> BfsRow {
        let n = self.len();
        let mut dist = vec![u32::MAX; n];
        let mut parent = vec![u32::MAX; n];
        dist[from.0 as usize] = 0;
        let mut frontier = vec![from];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for node in frontier {
                let d = dist[node.0 as usize];
                for peer in self.neighbors(node) {
                    if dist[peer.0 as usize] == u32::MAX {
                        dist[peer.0 as usize] = d + 1;
                        parent[peer.0 as usize] = node.0;
                        next.push(*peer);
                    }
                }
            }
            frontier = next;
        }
        BfsRow { dist, parent }
    }

    /// The hop sequence from `from` to `to` (inclusive of both ends), or
    /// `None` when unreachable. Among equal-length paths the lexically
    /// smallest is returned, because BFS expands ascending neighbors.
    pub fn path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        let n = self.len();
        if (from.0 as usize) >= n || (to.0 as usize) >= n {
            return None;
        }
        if from == to {
            return Some(vec![from]);
        }
        let mut prev: Vec<Option<NodeId>> = vec![None; n];
        let mut seen = vec![false; n];
        seen[from.0 as usize] = true;
        let mut frontier = vec![from];
        'bfs: while !frontier.is_empty() {
            let mut next = Vec::new();
            for node in frontier {
                for peer in self.neighbors(node) {
                    if !seen[peer.0 as usize] {
                        seen[peer.0 as usize] = true;
                        prev[peer.0 as usize] = Some(node);
                        if *peer == to {
                            break 'bfs;
                        }
                        next.push(*peer);
                    }
                }
            }
            frontier = next;
        }
        prev[to.0 as usize]?;
        let mut path = vec![to];
        let mut cursor = to;
        while let Some(p) = prev[cursor.0 as usize] {
            path.push(p);
            cursor = p;
        }
        path.reverse();
        debug_assert_eq!(path.first(), Some(&from));
        Some(path)
    }
}

/// One BFS tree: hop distances from its root and, per node, the node it was
/// first discovered from (`u32::MAX` for the root and unreachable nodes).
#[derive(Debug)]
struct BfsRow {
    dist: Vec<u32>,
    parent: Vec<u32>,
}

/// An installed overlay together with the routes already walked over it.
///
/// A fetch asks two things of the overlay: how far every provider is from
/// the fetcher, and which way the bytes travel from each source. Both are
/// read off one BFS tree per node, computed on first use and kept for as
/// long as the overlay is installed — `2 × n × u32` per node that ever
/// fetched or served, at most `8·n²` bytes. The memo is owned by the
/// installed overlay, so replacing or clearing the overlay drops every row
/// with it; there is nothing to invalidate.
#[derive(Debug)]
pub(crate) struct RouteMemo {
    topology: GossipTopology,
    rows: Vec<Option<BfsRow>>,
}

impl RouteMemo {
    pub(crate) fn new(topology: GossipTopology) -> Self {
        let rows = (0..topology.len()).map(|_| None).collect();
        RouteMemo { topology, rows }
    }

    /// The overlay the routes run over.
    pub(crate) fn topology(&self) -> &GossipTopology {
        &self.topology
    }

    fn row(&mut self, from: NodeId) -> Option<&BfsRow> {
        let topology = &self.topology;
        let slot = self.rows.get_mut(from.0 as usize)?;
        Some(slot.get_or_insert_with(|| topology.bfs_row(from)))
    }

    /// [`GossipTopology::distances_from`], memoised. A node the overlay
    /// does not cover has an empty row: every lookup into it misses, which
    /// callers read as unreachable.
    pub(crate) fn distances_from(&mut self, from: NodeId) -> &[u32] {
        self.row(from).map_or(&[], |row| &row.dist)
    }

    /// [`GossipTopology::path`], memoised: the same hop sequence, tie-breaks
    /// included, read off `from`'s BFS tree.
    pub(crate) fn path(&mut self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        let row = self.row(from)?;
        if *row.dist.get(to.0 as usize)? == u32::MAX {
            return None;
        }
        let mut path = vec![to];
        let mut cursor = to.0;
        while cursor != from.0 {
            cursor = row.parent[cursor as usize];
            path.push(NodeId(cursor));
        }
        path.reverse();
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hoods(sizes: &[usize]) -> Vec<usize> {
        sizes
            .iter()
            .enumerate()
            .flat_map(|(hood, size)| std::iter::repeat_n(hood, *size))
            .collect()
    }

    #[test]
    fn derivation_is_seed_deterministic() {
        let cfg = GossipConfig::new(4);
        let assignment = hoods(&[5, 5, 6]);
        let a = GossipTopology::derive(&cfg, 42, &assignment);
        let b = GossipTopology::derive(&cfg, 42, &assignment);
        assert_eq!(a, b, "same seed, same graph");
        let c = GossipTopology::derive(&cfg, 43, &assignment);
        assert_ne!(a.adjacency, c.adjacency, "different seed rewires chords");
    }

    #[test]
    fn overlay_is_connected_across_neighborhoods() {
        let t = GossipTopology::derive(&GossipConfig::new(3), 7, &hoods(&[4, 4, 4, 4, 4]));
        let dist = t.distances_from(NodeId(0));
        assert!(
            dist.iter().all(|d| *d != u32::MAX),
            "bridges connect every neighborhood: {dist:?}"
        );
    }

    #[test]
    fn neighbors_are_sorted_and_symmetric() {
        let t = GossipTopology::derive(&GossipConfig::new(4), 11, &hoods(&[6, 6]));
        for node in 0..t.len() as u32 {
            let ns = t.neighbors(NodeId(node));
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            for peer in ns {
                assert!(
                    t.neighbors(*peer).contains(&NodeId(node)),
                    "edges are undirected"
                );
            }
        }
    }

    #[test]
    fn degree_stays_bounded() {
        let t = GossipTopology::derive(&GossipConfig::new(4), 13, &hoods(&[20, 20, 20]));
        let max_degree = (0..t.len() as u32)
            .map(|n| t.neighbors(NodeId(n)).len())
            .max()
            .unwrap();
        // degree chords + 2 ring edges + a handful of seeded bridges.
        assert!(max_degree <= 4 + 2 + 6, "bounded fan-out, got {max_degree}");
    }

    #[test]
    fn paths_follow_edges_and_match_distances() {
        let t = GossipTopology::derive(&GossipConfig::new(3), 5, &hoods(&[5, 5, 5]));
        let dist = t.distances_from(NodeId(2));
        for to in 0..t.len() as u32 {
            let path = t.path(NodeId(2), NodeId(to)).expect("connected");
            assert_eq!(path.len() as u32 - 1, dist[to as usize]);
            for hop in path.windows(2) {
                assert!(t.neighbors(hop[0]).contains(&hop[1]), "path uses edges");
            }
        }
    }

    proptest::proptest! {
        /// The memo answers exactly what the one-shot searches answer —
        /// distance rows and hop sequences, tie-breaks included — for
        /// every ordered pair, unreachable and uncovered nodes included,
        /// and however often a row is asked for again.
        #[test]
        fn memoised_routes_match_the_one_shot_searches(
            degree in 1usize..6,
            sizes in proptest::collection::vec(1usize..7, 1..5),
            seed in proptest::prelude::any::<u64>(),
            cut in proptest::collection::vec(0usize..24, 0..3),
        ) {
            let mut t = GossipTopology::derive(&GossipConfig::new(degree), seed, &hoods(&sizes));
            // Derived overlays are connected by construction; cut a few
            // nodes loose so unreachable pairs are covered too.
            for node in cut {
                let node = NodeId((node % t.len()) as u32);
                for peer in std::mem::take(&mut t.adjacency[node.0 as usize]) {
                    t.adjacency[peer.0 as usize].retain(|p| *p != node);
                }
            }
            let mut memo = RouteMemo::new(t.clone());
            let n = t.len() as u32;
            let hops = |row: &[u32], to: u32| row.get(to as usize).copied().unwrap_or(u32::MAX);
            for _pass in 0..2 {
                for from in 0..n + 2 {
                    let reference = t.distances_from(NodeId(from));
                    let row = memo.distances_from(NodeId(from)).to_vec();
                    for to in 0..n + 2 {
                        proptest::prop_assert_eq!(hops(&row, to), hops(&reference, to));
                        proptest::prop_assert_eq!(
                            memo.path(NodeId(from), NodeId(to)),
                            t.path(NodeId(from), NodeId(to)),
                            "{} -> {}", from, to
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_neighborhood_is_a_small_world() {
        let t = GossipTopology::derive(&GossipConfig::new(4), 3, &hoods(&[40]));
        let worst = t
            .distances_from(NodeId(0))
            .into_iter()
            .max()
            .expect("nonempty");
        assert!(worst <= 12, "chords shortcut the ring, diameter {worst}");
    }
}
