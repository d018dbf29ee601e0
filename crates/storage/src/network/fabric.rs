//! The shared fabric: the one lock, the state behind it (nodes, provider
//! index, injector, overlay, tie stream) and its set-up and read-out.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rand::rngs::StdRng;
use rand::SeedableRng;

use super::cache::FetchCache;
use super::config::{LinkProfile, TransferConfig, TransferStats};
use super::faults::{StorageFaultStats, StorageFaults};
use super::fetch::IpfsNode;
use crate::blockstore::BlockStore;
use crate::cid::Cid;
use crate::dht::{NodeId, ProviderIndex};
use crate::topology::{GossipConfig, GossipTopology, RouteMemo};

pub(super) struct NodeState {
    pub(super) store: BlockStore,
    pub(super) link: LinkProfile,
    pub(super) cache: FetchCache,
    /// Cumulative bytes fetched from remote providers.
    pub(super) bytes_fetched: u64,
    /// Cumulative bytes served to other nodes.
    pub(super) bytes_served: u64,
    /// Cumulative bytes forwarded on behalf of other nodes (overlay
    /// routing only; relays hold nothing, so this never shows up in
    /// resident storage).
    pub(super) bytes_relayed: u64,
}

pub(super) struct NetworkState {
    pub(super) nodes: Vec<NodeState>,
    pub(super) dht: ProviderIndex,
    pub(super) faults: Option<StorageFaults>,
    pub(super) transfer: TransferConfig,
    pub(super) transfer_seed: u64,
    pub(super) stats: TransferStats,
    /// The gossip overlay fetches route over, when installed, with the
    /// routes already walked over it.
    pub(super) gossip: Option<(GossipConfig, RouteMemo)>,
    /// Seeded stream breaking full-key provider-selection ties, so load
    /// spreads across equivalent providers instead of always landing on
    /// the lowest `NodeId`. Drawn from only when a tie actually exists.
    pub(super) tie_rng: StdRng,
}

impl NetworkState {
    fn node_cache_seed(seed: u64, node: usize) -> u64 {
        seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// The tie-break stream is its own derivation of the transfer seed so
    /// it can never alias a node's cache stream.
    fn tie_seed(seed: u64) -> u64 {
        seed ^ 0xC2B2_AE3D_27D4_EB4F
    }
}

/// Shared distributed-storage fabric.
#[derive(Clone)]
pub struct IpfsNetwork {
    inner: Arc<Mutex<NetworkState>>,
}

impl Default for IpfsNetwork {
    fn default() -> Self {
        Self::new()
    }
}

impl IpfsNetwork {
    /// The state behind the fabric's one lock. A panic raised while it is
    /// held ([`IpfsNetwork::install_topology`]'s coverage assert is one)
    /// poisons a `std` mutex, and the poison is swallowed: the panic has
    /// already reported the failure, and a run the service contains must
    /// not turn every later call on its fabric into a second panic.
    pub(super) fn state(&self) -> MutexGuard<'_, NetworkState> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Creates an empty fabric with the default [`TransferConfig`].
    pub fn new() -> Self {
        IpfsNetwork {
            inner: Arc::new(Mutex::new(NetworkState {
                nodes: Vec::new(),
                dht: ProviderIndex::new(),
                faults: None,
                transfer: TransferConfig::default(),
                transfer_seed: 0,
                stats: TransferStats::default(),
                gossip: None,
                tie_rng: StdRng::seed_from_u64(NetworkState::tie_seed(0)),
            })),
        }
    }

    /// Installs the transfer configuration, deriving every node's cache
    /// stream from `seed`. Existing node caches are rebuilt (emptied) and
    /// the transfer accounting is reset, so this is meant to be called at
    /// fabric setup, before traffic flows.
    pub fn configure_transfer(&self, config: TransferConfig, seed: u64) {
        let mut st = self.state();
        st.transfer = config;
        st.transfer_seed = seed;
        st.stats = TransferStats::default();
        st.tie_rng = StdRng::seed_from_u64(NetworkState::tie_seed(seed));
        for (i, node) in st.nodes.iter_mut().enumerate() {
            node.cache =
                FetchCache::new(NetworkState::node_cache_seed(seed, i), config.cache_bytes);
        }
    }

    /// The active transfer configuration.
    pub fn transfer_config(&self) -> TransferConfig {
        self.state().transfer
    }

    /// Snapshot of the transfer accounting (the resident-bytes gauge is
    /// sampled at call time).
    pub fn transfer_stats(&self) -> TransferStats {
        let st = self.state();
        let mut stats = st.stats;
        stats.cache_resident_bytes = st.nodes.iter().map(|n| n.cache.resident).sum();
        stats
    }

    /// Installs (or replaces) the gossip overlay remote fetches route
    /// over. `topology` must cover every current node; nodes added later
    /// fall back to flat routing until a covering topology is installed.
    ///
    /// Routing changes which providers serve a fetch, how many overlay
    /// hops it crosses (each charged by the link cost model, each rolling
    /// the fault injector) and therefore the wire-byte distribution — but
    /// never the bytes a caller receives: every block is still verified
    /// against its CID.
    ///
    /// The installed overlay owns its route memo (one BFS tree per node
    /// that fetched or served, built on first use), so installing a new
    /// overlay — a regroup — drops every memoised route.
    pub fn install_topology(&self, config: GossipConfig, topology: GossipTopology) {
        let mut st = self.state();
        assert!(
            topology.len() >= st.nodes.len(),
            "topology covers {} nodes but the fabric has {}",
            topology.len(),
            st.nodes.len()
        );
        st.gossip = Some((config, RouteMemo::new(topology)));
    }

    /// The installed overlay's topology, if any.
    pub fn topology(&self) -> Option<GossipTopology> {
        let st = self.state();
        st.gossip.as_ref().map(|(_, memo)| memo.topology().clone())
    }

    /// The heaviest per-node wire load: `max` over nodes of bytes
    /// fetched + served + relayed. The scaling metric gossip routing
    /// exists to bound (flat routing concentrates it on whichever
    /// provider sorts first).
    pub fn max_node_wire_bytes(&self) -> u64 {
        self.state()
            .nodes
            .iter()
            .map(|n| n.bytes_fetched + n.bytes_served + n.bytes_relayed)
            .max()
            .unwrap_or(0)
    }

    /// Installs (or replaces) the fabric's fault injector.
    pub fn install_faults(&self, faults: StorageFaults) {
        self.state().faults = Some(faults);
    }

    /// Removes the fault injector, returning the fabric to fault-free
    /// operation.
    pub fn clear_faults(&self) {
        self.state().faults = None;
    }

    /// Snapshot of the injected-fault accounting (`None` when no injector
    /// is installed).
    pub fn fault_stats(&self) -> Option<StorageFaultStats> {
        self.state().faults.as_ref().map(|f| f.stats)
    }

    /// Records a caller-level whole-fetch retry in the fault accounting (a
    /// no-op without an injector). Pair with
    /// [`IpfsNetwork::record_fetch_retry_outcome`] once the retry resolves.
    pub fn record_fetch_retry(&self) {
        if let Some(f) = self.state().faults.as_mut() {
            f.stats.fetch_retries += 1;
        }
    }

    /// Records how a caller-level retry ended: `recovered == true` counts a
    /// retried-then-succeeded fetch, `false` a permanent failure (the
    /// caller gave up). A no-op without an injector.
    pub fn record_fetch_retry_outcome(&self, recovered: bool) {
        if let Some(f) = self.state().faults.as_mut() {
            if recovered {
                f.stats.fetch_recoveries += 1;
            } else {
                f.stats.fetch_permanent_failures += 1;
            }
        }
    }

    /// Joins a new node with the given link profile, returning its handle.
    pub fn add_node(&self, link: LinkProfile) -> IpfsNode {
        let mut st = self.state();
        let id = NodeId(st.nodes.len() as u32);
        let cache_seed = NetworkState::node_cache_seed(st.transfer_seed, id.0 as usize);
        let cache_bytes = st.transfer.cache_bytes;
        st.nodes.push(NodeState {
            store: BlockStore::new(),
            link,
            cache: FetchCache::new(cache_seed, cache_bytes),
            bytes_fetched: 0,
            bytes_served: 0,
            bytes_relayed: 0,
        });
        IpfsNode {
            network: self.clone(),
            id,
        }
    }

    /// Number of nodes in the fabric.
    pub fn node_count(&self) -> usize {
        self.state().nodes.len()
    }

    /// Audits the blockstore invariant fabric-wide: the first `(node,
    /// key)` whose value does not hash to its key, or `None` when every
    /// store is sound.
    pub fn first_corrupt_block(&self) -> Option<(NodeId, Cid)> {
        let st = self.state();
        st.nodes.iter().enumerate().find_map(|(i, node)| {
            let cid = node.store.first_corrupt()?;
            Some((NodeId(i as u32), cid))
        })
    }

    /// Total bytes stored across all nodes (with duplication).
    pub fn total_bytes(&self) -> u64 {
        self.state()
            .nodes
            .iter()
            .map(|n| n.store.total_bytes())
            .sum()
    }
}

impl std::fmt::Debug for IpfsNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IpfsNetwork")
            .field("nodes", &self.node_count())
            .finish()
    }
}
