//! The distributed storage fabric: nodes, bitswap-style fetch, the
//! transfer cost model and the bandwidth-aware transfer layer.
//!
//! An [`IpfsNetwork`] is the shared fabric (blockstores + provider index);
//! an [`IpfsNode`] is a handle held by one cluster. `add` chunks and stores
//! content locally and advertises it; `get` resolves providers through the
//! index, transfers the root and leaf blocks from the best-connected
//! provider, verifies every block against its CID, caches it locally and
//! re-advertises (exactly the availability amplification IPFS gives the
//! paper's aggregators).
//!
//! Every operation returns the virtual time it would have taken, which the
//! experiment engine charges to the calling cluster.
//!
//! # The transfer layer
//!
//! Cross-silo bandwidth is the substrate cost that grows with federation
//! size, so the fetch path is bandwidth-aware end to end ([`TransferConfig`]
//! holds the knobs, [`TransferStats`] the accounting):
//!
//! - **Chunk dedup** — a leaf (or root) block already present in the local
//!   blockstore is never transferred again; content addressing guarantees
//!   byte equality, so the fetch result is identical with dedup on or off.
//! - **Delta fetch** — [`IpfsNode::get_with_delta`] reconstructs content
//!   from a locally-held base plus a small delta blob, verifying the
//!   reconstruction against the requested CID before accepting it (and
//!   falling back to a full fetch when the base is missing or anything
//!   fails verification).
//! - **Fetch cache** — a seeded, size-bounded, approximately-LRU cache of
//!   assembled content per node, so repeat fetches of a peer's model are
//!   free. Only *verified, successful* fetches populate it: a fetch
//!   poisoned by injected [`StorageFaults`] errors out before the insert.
//!   An entry is a reference to the assembled buffer, not a copy of it —
//!   for one-leaf content the very buffer the blockstores already share —
//!   so the byte budget bounds what the cache can keep alive past a `gc`,
//!   and a hit or an insert is a refcount bump.
//!
//! All knobs change only how many bytes move, never which bytes a caller
//! receives — `logical_bytes` (what a naive fetch would have moved) vs
//! `physical_bytes` (what actually moved) quantifies the difference.
//!
//! # Topology-aware routing
//!
//! With a [`GossipTopology`] installed ([`IpfsNetwork::install_topology`])
//! remote fetches stop being flat point-to-point transfers: providers are
//! ranked by overlay hop distance before link speed, leaf chunks swarm
//! across up to [`GossipConfig::swarm`] nearby providers, transfers are
//! charged per overlay edge (latency + serialization at the edge
//! bottleneck) and every intermediate relay rolls the fault injector —
//! so under chaos, hop-distance turns fetch failures into partitions.
//! Relays forward without retaining, and every block is still verified
//! against its CID, so routing changes the byte *distribution* and the
//! virtual time, never the bytes a caller receives or the fabric's
//! resident storage.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unifyfl_sim::SimDuration;

use crate::blockstore::BlockStore;
use crate::chunker::{
    chunk, decode_root, reassemble, reassemble_trusted, ReassembleError, DEFAULT_CHUNK_SIZE,
};
use crate::cid::Cid;
use crate::dht::{NodeId, ProviderIndex};
use crate::topology::{GossipConfig, GossipTopology, RouteMemo};

/// Network link characteristics of one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// Sustained bandwidth in bytes/s.
    pub bandwidth_bps: f64,
    /// One-way latency.
    pub latency: SimDuration,
}

impl LinkProfile {
    /// A 1 Gbit/s LAN link with 1 ms latency (the GPU cluster's fabric).
    pub fn lan() -> Self {
        LinkProfile {
            bandwidth_bps: 125.0e6,
            latency: SimDuration::from_millis(1),
        }
    }

    /// A 100 Mbit/s edge link with 5 ms latency.
    pub fn edge() -> Self {
        LinkProfile {
            bandwidth_bps: 12.5e6,
            latency: SimDuration::from_millis(5),
        }
    }

    /// An 8 Mbit/s WAN link with 15 ms latency: cross-silo storage traffic
    /// between geographically separated organizations, where byte
    /// serialization dominates the per-fetch round-trips once transfers
    /// reach the ~100 KB model-blob range. Under the physical link time
    /// model this is where the transfer layer's byte savings translate
    /// into virtual wall-clock savings (the `timeline` bench runs on it).
    pub fn wan() -> Self {
        LinkProfile {
            bandwidth_bps: 1.0e6,
            latency: SimDuration::from_millis(15),
        }
    }
}

/// Cost charged for a DHT provider lookup.
const DHT_LOOKUP_COST: SimDuration = SimDuration::from_millis(20);

/// Fetch-side knobs of the transfer layer.
///
/// The *publish* path is config-independent (publishers always store full
/// content, and deltas where the protocol provides one), so two **fault-free**
/// runs that differ only in this configuration fetch bit-identical content
/// and produce bit-identical experiment results — only the wire-byte
/// accounting differs. Under injected [`StorageFaults`] the arms consume
/// the fault stream differently (a delta fetch rolls for the delta blob
/// and again on fallback; dedup-skipped blocks roll nothing), so chaos
/// outcomes legitimately diverge between configurations — same-seed
/// *reproducibility* within one configuration always holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferConfig {
    /// Skip transferring blocks already present in the local blockstore.
    pub dedup: bool,
    /// Serve fetches from `(base, delta)` reconstruction when the caller
    /// supplies a delta reference and the base is locally available.
    pub delta: bool,
    /// Capacity of the per-node assembled-content fetch cache in bytes
    /// (0 disables the cache).
    pub cache_bytes: u64,
}

impl Default for TransferConfig {
    fn default() -> Self {
        TransferConfig {
            dedup: true,
            delta: true,
            cache_bytes: 64 * 1024 * 1024,
        }
    }
}

impl TransferConfig {
    /// Every optimization off: the naive re-fetch-everything baseline.
    pub fn disabled() -> Self {
        TransferConfig {
            dedup: false,
            delta: false,
            cache_bytes: 0,
        }
    }
}

/// Cumulative accounting of the transfer layer, fabric-wide.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Bytes a naive fetcher would have moved (full DAG size of every
    /// remotely-served fetch).
    pub logical_bytes: u64,
    /// Bytes actually moved on the wire.
    pub physical_bytes: u64,
    /// Blocks skipped because the fetcher already held them.
    pub dedup_chunks_skipped: u64,
    /// Bytes those skipped blocks would have cost.
    pub dedup_bytes_saved: u64,
    /// Fetches served from the assembled-content cache.
    pub cache_hits: u64,
    /// Cache lookups that missed (the fetch proceeded normally).
    pub cache_misses: u64,
    /// Entries evicted to respect the cache byte budget.
    pub cache_evictions: u64,
    /// Bytes currently resident across all node caches (gauge, sampled at
    /// snapshot time).
    pub cache_resident_bytes: u64,
    /// Fetches served by base + delta reconstruction.
    pub delta_fetches: u64,
    /// Delta fetches that fell back to a full transfer (base missing,
    /// delta unavailable, or reconstruction failed verification).
    pub delta_fallbacks: u64,
    /// Wire bytes saved by delta reconstruction (full size minus the delta
    /// transfer, summed over delta-served fetches).
    pub delta_bytes_saved: u64,
    /// Remote fetches routed hop-by-hop over an installed gossip topology.
    pub routed_fetches: u64,
    /// Overlay hops traversed by routed fetches (per transfer branch; a
    /// direct neighbor fetch counts one hop).
    pub route_hops: u64,
    /// Bytes forwarded through intermediate overlay nodes (summed over
    /// every relay a transfer crossed; relays never retain the blocks).
    pub relayed_bytes: u64,
}

/// A seeded, size-bounded, approximately-LRU cache of assembled content.
///
/// Eviction is Redis-style sampled LRU: a seeded sample of up to
/// [`FetchCache::EVICTION_SAMPLE`] entries is drawn and the least recently
/// used of the sample is evicted. The sampling stream derives from the
/// per-node cache seed, so two runs with the same seed evict identically.
#[derive(Debug)]
struct FetchCache {
    capacity: u64,
    rng: StdRng,
    tick: u64,
    resident: u64,
    entries: HashMap<Cid, CacheEntry>,
}

#[derive(Debug)]
struct CacheEntry {
    data: Bytes,
    last_used: u64,
}

impl FetchCache {
    /// Entries sampled per eviction.
    const EVICTION_SAMPLE: usize = 5;

    fn new(seed: u64, capacity: u64) -> Self {
        FetchCache {
            capacity,
            rng: StdRng::seed_from_u64(seed),
            tick: 0,
            resident: 0,
            entries: HashMap::new(),
        }
    }

    fn get(&mut self, cid: Cid) -> Option<Bytes> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(&cid)?;
        entry.last_used = tick;
        Some(entry.data.clone())
    }

    /// Inserts verified content, evicting sampled-LRU entries until the
    /// budget holds. Oversized content (and a zero budget) is not cached.
    /// The budget counts each entry's logical length, shared buffer or not.
    fn insert(&mut self, cid: Cid, data: &Bytes, evictions: &mut u64) {
        if self.capacity == 0 || data.len() as u64 > self.capacity {
            return;
        }
        if self.entries.contains_key(&cid) {
            self.tick += 1;
            self.entries.get_mut(&cid).expect("just checked").last_used = self.tick;
            return;
        }
        while self.resident + data.len() as u64 > self.capacity {
            self.evict_one();
            *evictions += 1;
        }
        self.tick += 1;
        self.resident += data.len() as u64;
        self.entries.insert(
            cid,
            CacheEntry {
                data: data.clone(),
                last_used: self.tick,
            },
        );
    }

    fn evict_one(&mut self) {
        // Deterministic sampled LRU: sort keys for a stable universe, draw
        // sample indices from the seeded stream, evict the least recently
        // used of the sample.
        let mut keys: Vec<Cid> = self.entries.keys().copied().collect();
        keys.sort_unstable();
        let sample = Self::EVICTION_SAMPLE.min(keys.len());
        let victim = (0..sample)
            .map(|_| keys[(self.rng.gen::<u64>() % keys.len() as u64) as usize])
            .min_by_key(|c| (self.entries[c].last_used, *c))
            .expect("cache non-empty when evicting");
        let gone = self.entries.remove(&victim).expect("sampled from keys");
        self.resident -= gone.data.len() as u64;
    }
}

struct NodeState {
    store: BlockStore,
    link: LinkProfile,
    cache: FetchCache,
    /// Cumulative bytes fetched from remote providers.
    bytes_fetched: u64,
    /// Cumulative bytes served to other nodes.
    bytes_served: u64,
    /// Cumulative bytes forwarded on behalf of other nodes (overlay
    /// routing only; relays hold nothing, so this never shows up in
    /// resident storage).
    bytes_relayed: u64,
}

/// Seeded fault injector for the storage fabric: whole-fetch DHT failures
/// and per-chunk transfer loss with a bounded retry budget. Quiescent
/// unless installed via [`IpfsNetwork::install_faults`]; every decision is
/// drawn from one deterministic stream, so identical call sequences yield
/// identical fault sequences.
#[derive(Debug)]
pub struct StorageFaults {
    rng: StdRng,
    /// Probability a remote fetch fails at provider resolution.
    fetch_failure_prob: f64,
    /// Probability one chunk transfer is lost (then retried).
    chunk_loss_prob: f64,
    /// Retry budget per chunk before the fetch errors out.
    chunk_retries: u32,
    stats: StorageFaultStats,
}

/// Cumulative accounting of injected storage faults.
///
/// Caller-level whole-fetch retries are split by outcome: every retry ends
/// in exactly one of [`StorageFaultStats::fetch_recoveries`] (the retry
/// succeeded) or [`StorageFaultStats::fetch_permanent_failures`] (the retry
/// failed too and the fetch was abandoned), so
/// `fetch_retries == fetch_recoveries + fetch_permanent_failures` once all
/// outcomes are recorded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageFaultStats {
    /// Whole fetches that failed at the DHT lookup.
    pub fetch_failures: u64,
    /// Whole-fetch retries requested by callers.
    pub fetch_retries: u64,
    /// Whole-fetch retries that succeeded (transient failure, recovered).
    pub fetch_recoveries: u64,
    /// Whole-fetch retries that failed again (the fetch was abandoned).
    pub fetch_permanent_failures: u64,
    /// Individual chunk transfers lost.
    pub chunk_losses: u64,
    /// Chunk retransmissions performed.
    pub chunk_retries: u64,
    /// Fetches abandoned after exhausting the chunk retry budget.
    pub exhausted_fetches: u64,
}

impl StorageFaults {
    /// Creates an injector drawing from `seed`.
    pub fn new(
        seed: u64,
        fetch_failure_prob: f64,
        chunk_loss_prob: f64,
        chunk_retries: u32,
    ) -> Self {
        StorageFaults {
            rng: StdRng::seed_from_u64(seed),
            fetch_failure_prob,
            chunk_loss_prob,
            chunk_retries,
            stats: StorageFaultStats::default(),
        }
    }

    fn roll(&mut self, prob: f64) -> bool {
        prob > 0.0 && self.rng.gen::<f64>() < prob
    }

    fn roll_fetch_failure(&mut self) -> bool {
        let p = self.fetch_failure_prob;
        self.roll(p)
    }

    fn roll_chunk_loss(&mut self) -> bool {
        let p = self.chunk_loss_prob;
        self.roll(p)
    }
}

struct NetworkState {
    nodes: Vec<NodeState>,
    dht: ProviderIndex,
    faults: Option<StorageFaults>,
    transfer: TransferConfig,
    transfer_seed: u64,
    stats: TransferStats,
    /// The gossip overlay fetches route over, when installed, with the
    /// routes already walked over it.
    gossip: Option<(GossipConfig, RouteMemo)>,
    /// Seeded stream breaking full-key provider-selection ties, so load
    /// spreads across equivalent providers instead of always landing on
    /// the lowest `NodeId`. Drawn from only when a tie actually exists.
    tie_rng: StdRng,
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
        let mut st = self.inner.lock();
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
        self.inner.lock().transfer
    }

    /// Snapshot of the transfer accounting (the resident-bytes gauge is
    /// sampled at call time).
    pub fn transfer_stats(&self) -> TransferStats {
        let st = self.inner.lock();
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
    /// overlay — a regroup — or clearing it drops every memoised route.
    pub fn install_topology(&self, config: GossipConfig, topology: GossipTopology) {
        let mut st = self.inner.lock();
        assert!(
            topology.len() >= st.nodes.len(),
            "topology covers {} nodes but the fabric has {}",
            topology.len(),
            st.nodes.len()
        );
        st.gossip = Some((config, RouteMemo::new(topology)));
    }

    /// Removes the gossip overlay, returning the fabric to flat
    /// point-to-point routing.
    pub fn clear_topology(&self) {
        self.inner.lock().gossip = None;
    }

    /// The installed overlay's topology, if any.
    pub fn topology(&self) -> Option<GossipTopology> {
        let st = self.inner.lock();
        st.gossip.as_ref().map(|(_, memo)| memo.topology().clone())
    }

    /// The heaviest per-node wire load: `max` over nodes of bytes
    /// fetched + served + relayed. The scaling metric gossip routing
    /// exists to bound (flat routing concentrates it on whichever
    /// provider sorts first).
    pub fn max_node_wire_bytes(&self) -> u64 {
        self.inner
            .lock()
            .nodes
            .iter()
            .map(|n| n.bytes_fetched + n.bytes_served + n.bytes_relayed)
            .max()
            .unwrap_or(0)
    }

    /// Installs (or replaces) the fabric's fault injector.
    pub fn install_faults(&self, faults: StorageFaults) {
        self.inner.lock().faults = Some(faults);
    }

    /// Removes the fault injector, returning the fabric to fault-free
    /// operation.
    pub fn clear_faults(&self) {
        self.inner.lock().faults = None;
    }

    /// Snapshot of the injected-fault accounting (`None` when no injector
    /// is installed).
    pub fn fault_stats(&self) -> Option<StorageFaultStats> {
        self.inner.lock().faults.as_ref().map(|f| f.stats)
    }

    /// Records a caller-level whole-fetch retry in the fault accounting (a
    /// no-op without an injector). Pair with
    /// [`IpfsNetwork::record_fetch_retry_outcome`] once the retry resolves.
    pub fn record_fetch_retry(&self) {
        if let Some(f) = self.inner.lock().faults.as_mut() {
            f.stats.fetch_retries += 1;
        }
    }

    /// Records how a caller-level retry ended: `recovered == true` counts a
    /// retried-then-succeeded fetch, `false` a permanent failure (the
    /// caller gave up). A no-op without an injector.
    pub fn record_fetch_retry_outcome(&self, recovered: bool) {
        if let Some(f) = self.inner.lock().faults.as_mut() {
            if recovered {
                f.stats.fetch_recoveries += 1;
            } else {
                f.stats.fetch_permanent_failures += 1;
            }
        }
    }

    /// Joins a new node with the given link profile, returning its handle.
    pub fn add_node(&self, link: LinkProfile) -> IpfsNode {
        let mut st = self.inner.lock();
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
        self.inner.lock().nodes.len()
    }

    /// Audits the blockstore invariant fabric-wide: the first `(node,
    /// key)` whose value does not hash to its key, or `None` when every
    /// store is sound.
    pub fn first_corrupt_block(&self) -> Option<(NodeId, Cid)> {
        let st = self.inner.lock();
        st.nodes.iter().enumerate().find_map(|(i, node)| {
            let cid = node.store.first_corrupt()?;
            Some((NodeId(i as u32), cid))
        })
    }

    /// Total bytes stored across all nodes (with duplication).
    pub fn total_bytes(&self) -> u64 {
        self.inner
            .lock()
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

/// Error raised by fetch operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IpfsError {
    /// No provider advertises the CID.
    NotFound(Cid),
    /// Content failed CID verification or reassembly.
    Corrupt(String),
    /// A chunk transfer kept failing after exhausting its retry budget
    /// (injected network faults). The fetch returns nothing rather than
    /// truncated data.
    ChunkLoss(Cid),
}

impl std::fmt::Display for IpfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IpfsError::NotFound(c) => write!(f, "content {c} not found on any provider"),
            IpfsError::Corrupt(m) => write!(f, "content corrupt: {m}"),
            IpfsError::ChunkLoss(c) => {
                write!(f, "chunk {c} lost in transfer; retry budget exhausted")
            }
        }
    }
}

impl std::error::Error for IpfsError {}

/// Receipt of an `add` operation.
#[derive(Debug, Clone, PartialEq)]
pub struct AddReceipt {
    /// The file's root CID.
    pub cid: Cid,
    /// Number of blocks written (root + leaves).
    pub blocks: usize,
    /// Virtual time the add took (hashing + local writes).
    pub elapsed: SimDuration,
}

/// Receipt of a `get` operation.
#[derive(Debug, Clone, PartialEq)]
pub struct GetReceipt {
    /// The reassembled content: for a one-leaf file the leaf block's own
    /// buffer, shared with the blockstore and the fetch cache.
    pub data: Bytes,
    /// Virtual time the fetch took (lookup + transfer), zero-ish when the
    /// content was already local.
    pub elapsed: SimDuration,
    /// True if the content was served without touching the wire (fetch
    /// cache or local blockstore).
    pub local_hit: bool,
}

/// How a locked fetch should behave (internal plumbing for the delta and
/// fallback paths, which must not double-count cache lookups or cache
/// single-use delta blobs).
#[derive(Clone, Copy)]
struct FetchOpts {
    /// Count cache hit/miss in the transfer stats.
    count_cache: bool,
    /// Retain fetched blocks locally, re-advertise, and cache the content.
    retain: bool,
}

impl FetchOpts {
    const NORMAL: FetchOpts = FetchOpts {
        count_cache: true,
        retain: true,
    };
    /// For single-use payloads (delta blobs): fetch without retaining, so
    /// the fabric's resident bytes are independent of the fetch strategy.
    const TRANSIENT: FetchOpts = FetchOpts {
        count_cache: false,
        retain: false,
    };
    /// A fallback after a counted cache miss: proceed without re-counting.
    const FALLBACK: FetchOpts = FetchOpts {
        count_cache: false,
        retain: true,
    };
}

/// Handle to one node of the fabric.
#[derive(Clone)]
pub struct IpfsNode {
    network: IpfsNetwork,
    id: NodeId,
}

impl IpfsNode {
    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Adds content: chunks it, stores the blocks locally, pins the DAG and
    /// advertises it in the provider index.
    pub fn add(&self, data: &[u8]) -> AddReceipt {
        self.add_with_chunk_size(data, DEFAULT_CHUNK_SIZE)
    }

    /// [`IpfsNode::add`] with an explicit chunk size (for tests/benches).
    pub fn add_with_chunk_size(&self, data: &[u8], chunk_size: usize) -> AddReceipt {
        let file = chunk(data, chunk_size);
        let mut st = self.network.inner.lock();
        let id = self.id;
        let node = &mut st.nodes[id.0 as usize];
        for (cid, leaf) in &file.leaves {
            node.store.put_keyed(*cid, leaf.clone());
        }
        node.store.put_keyed(file.root, file.root_block.clone());
        node.store.pin(file.root);
        st.dht.provide(file.root, id);
        // Local add cost: hashing at ~1 GB/s plus a per-block write cost.
        let elapsed = SimDuration::from_secs_f64(data.len() as f64 / 1.0e9)
            + SimDuration::from_millis(file.leaves.len() as u64 / 64);
        AddReceipt {
            cid: file.root,
            blocks: 1 + file.leaves.len(),
            elapsed,
        }
    }

    /// Fetches content by CID: from the fetch cache or local store if
    /// present, otherwise from the best-connected provider
    /// (bitswap-style), verifying every block, then caching and
    /// re-advertising locally. With [`TransferConfig::dedup`] on, blocks
    /// the node already holds are not re-transferred.
    ///
    /// # Errors
    ///
    /// [`IpfsError::NotFound`] if no provider has the content,
    /// [`IpfsError::Corrupt`] if verification fails.
    pub fn get(&self, cid: Cid) -> Result<GetReceipt, IpfsError> {
        let mut st = self.network.inner.lock();
        Self::get_locked(&mut st, self.id, cid, FetchOpts::NORMAL)
    }

    /// Fetches `cid` by transferring only the `delta` blob and
    /// reconstructing against the locally-held `base` content.
    ///
    /// `reconstruct(base_bytes, delta_bytes)` must return the full content
    /// bytes (or `None` if the delta does not apply); the result is
    /// **verified against `cid`** before being accepted, stored and
    /// advertised, so a wrong or malicious delta can never corrupt the
    /// fetch. Any failure — base not local, delta unavailable,
    /// reconstruction refused, verification mismatch — falls back to a
    /// plain full fetch and is counted in
    /// [`TransferStats::delta_fallbacks`].
    ///
    /// Verification re-chunks the reconstruction at [`DEFAULT_CHUNK_SIZE`],
    /// matching how [`IpfsNode::add`] published it. Content added through
    /// [`IpfsNode::add_with_chunk_size`] with any other size has a
    /// different root CID and will always take the fallback — use plain
    /// [`IpfsNode::get`] for such content.
    ///
    /// # Errors
    ///
    /// As [`IpfsNode::get`] (of the fallback full fetch).
    pub fn get_with_delta(
        &self,
        cid: Cid,
        base: Cid,
        delta: Cid,
        reconstruct: impl FnOnce(&[u8], &[u8]) -> Option<Vec<u8>>,
    ) -> Result<GetReceipt, IpfsError> {
        let mut st = self.network.inner.lock();
        let st = &mut *st;
        let id = self.id;

        // Fast paths, identical to a plain get.
        if let Some(receipt) = Self::try_fast_path(st, id, cid, FetchOpts::NORMAL)? {
            return Ok(receipt);
        }

        if !st.transfer.delta {
            return Self::get_locked(st, id, cid, FetchOpts::FALLBACK);
        }

        // The base must be fully resident (and well-formed); otherwise a
        // delta transfer cannot help and the full fetch is the cheapest
        // correct path.
        let base_data = Self::read_local(&st.nodes[id.0 as usize].store, base);
        let Some(base_data) = base_data.ok().flatten() else {
            st.stats.delta_fallbacks += 1;
            return Self::get_locked(st, id, cid, FetchOpts::FALLBACK);
        };

        // Pull the delta blob through the ordinary (faultable, dedup-aware)
        // machinery, but transiently: single-use payloads are not retained,
        // so resident storage is identical whichever path served the fetch.
        let before = st.stats;
        let delta_receipt = match Self::get_locked(st, id, delta, FetchOpts::TRANSIENT) {
            Ok(r) => r,
            Err(_) => {
                st.stats.delta_fallbacks += 1;
                return Self::get_locked(st, id, cid, FetchOpts::FALLBACK);
            }
        };
        let delta_logical = st.stats.logical_bytes - before.logical_bytes;
        let delta_physical = st.stats.physical_bytes - before.physical_bytes;

        // The trust boundary of a delta fetch: the reconstruction is
        // re-chunked and must hash to the requested root before a byte of
        // it is stored, cached or returned. Re-chunking hashes every leaf,
        // so the blocks go in under the CIDs it just computed — and a
        // one-leaf reconstruction is carried on as that leaf's buffer.
        let verified = reconstruct(&base_data, &delta_receipt.data)
            .map(|data| (chunk(&data, DEFAULT_CHUNK_SIZE), data))
            .filter(|(file, _)| file.root == cid);
        let Some((file, data)) = verified else {
            st.stats.delta_fallbacks += 1;
            return Self::get_locked(st, id, cid, FetchOpts::FALLBACK);
        };
        let data = match file.leaves.as_slice() {
            [(_, leaf)] => leaf.clone(),
            _ => Bytes::from(data),
        };

        // Verified: materialize the full DAG locally (no wire bytes),
        // advertise, account, cache.
        let store = &mut st.nodes[id.0 as usize].store;
        for (leaf_cid, leaf) in &file.leaves {
            store.put_keyed(*leaf_cid, leaf.clone());
        }
        store.put_keyed(file.root, file.root_block.clone());
        st.dht.provide(cid, id);

        let full_dag = file.root_block.len() as u64
            + file.leaves.iter().map(|(_, b)| b.len() as u64).sum::<u64>();
        st.stats.logical_bytes += full_dag.saturating_sub(delta_logical);
        st.stats.delta_fetches += 1;
        st.stats.delta_bytes_saved += full_dag.saturating_sub(delta_physical);

        let evictions = &mut st.stats.cache_evictions;
        st.nodes[id.0 as usize].cache.insert(cid, &data, evictions);

        // Reconstruction cost mirrors the add-path hashing model (~1 GB/s).
        let elapsed = delta_receipt.elapsed + SimDuration::from_secs_f64(data.len() as f64 / 1.0e9);
        Ok(GetReceipt {
            data,
            elapsed,
            local_hit: false,
        })
    }

    /// The shared serve-without-the-wire path: fetch cache, then local
    /// blockstore (populating the cache). `Ok(None)` means the caller must
    /// go remote. Kept in one place so plain and delta fetches can never
    /// drift in their hit/miss accounting.
    fn try_fast_path(
        st: &mut NetworkState,
        id: NodeId,
        cid: Cid,
        opts: FetchOpts,
    ) -> Result<Option<GetReceipt>, IpfsError> {
        if st.transfer.cache_bytes > 0 {
            if let Some(data) = st.nodes[id.0 as usize].cache.get(cid) {
                if opts.count_cache {
                    st.stats.cache_hits += 1;
                }
                return Ok(Some(GetReceipt {
                    data,
                    elapsed: SimDuration::from_millis(1),
                    local_hit: true,
                }));
            }
            if opts.count_cache {
                st.stats.cache_misses += 1;
            }
        }
        if let Some(data) = Self::read_local(&st.nodes[id.0 as usize].store, cid)? {
            if opts.retain {
                let evictions = &mut st.stats.cache_evictions;
                st.nodes[id.0 as usize].cache.insert(cid, &data, evictions);
            }
            return Ok(Some(GetReceipt {
                data,
                elapsed: SimDuration::from_millis(1),
                local_hit: true,
            }));
        }
        Ok(None)
    }

    fn get_locked(
        st: &mut NetworkState,
        id: NodeId,
        cid: Cid,
        opts: FetchOpts,
    ) -> Result<GetReceipt, IpfsError> {
        if let Some(receipt) = Self::try_fast_path(st, id, cid, opts)? {
            return Ok(receipt);
        }

        // Injected DHT fault: the provider lookup fails outright; the
        // caller sees ordinary missing content and may retry (a fresh roll).
        if let Some(f) = st.faults.as_mut() {
            if f.roll_fetch_failure() {
                f.stats.fetch_failures += 1;
                return Err(IpfsError::NotFound(cid));
            }
        }

        // Split the state borrow so the overlay (immutable) can be held
        // across the mutable accounting below.
        let NetworkState {
            nodes,
            dht,
            faults,
            transfer,
            stats,
            gossip,
            tie_rng,
            ..
        } = st;

        // The overlay view for this fetch. `None` routes flat; a node the
        // installed topology does not cover also routes flat.
        let mut overlay = gossip
            .as_mut()
            .filter(|(_, memo)| (id.0 as usize) < memo.topology().len())
            .map(|(config, memo)| (*config, memo));

        // Rank providers: overlay hop distance first (constant when
        // flat), then latency, then bandwidth, NodeId last for a stable
        // order. A genuine full-key tie is broken with a draw from the
        // seeded tie stream — never by NodeId, which at scale would pile
        // every fetch onto the lowest-indexed provider.
        let hops_from_fetcher = overlay.as_mut().map(|(_, memo)| memo.distances_from(id));
        let mut candidates: Vec<(u32, SimDuration, f64, NodeId)> = dht
            .providers(cid)
            .filter(|p| *p != id)
            .map(|p| {
                let link = nodes[p.0 as usize].link;
                let hops = hops_from_fetcher.map_or(0, |dist| {
                    dist.get(p.0 as usize).copied().unwrap_or(u32::MAX)
                });
                (hops, link.latency, link.bandwidth_bps, p)
            })
            .collect();
        candidates.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then(a.1.cmp(&b.1))
                .then(b.2.total_cmp(&a.2))
                .then(a.3.cmp(&b.3))
        });
        let Some(leader) = candidates.first().copied() else {
            return Err(IpfsError::NotFound(cid));
        };
        let tied = candidates
            .iter()
            .take_while(|c| c.0 == leader.0 && c.1 == leader.1 && c.2 == leader.2)
            .count();
        let provider = if tied > 1 {
            // Only an actual tie consumes the stream, so runs whose
            // providers are all distinguishable draw nothing.
            candidates[tie_rng.gen_range(0..tied)].3
        } else {
            leader.3
        };

        // The transfer branches: the primary provider plus, with an
        // overlay installed, up to `swarm - 1` next-ranked providers that
        // leaf chunks round-robin across, so a single large fetch spreads
        // its serving load over the neighborhood.
        let mut sources: Vec<NodeId> = vec![provider];
        if let Some((config, _)) = overlay.as_ref() {
            sources.extend(
                candidates
                    .iter()
                    .map(|c| c.3)
                    .filter(|p| *p != provider)
                    .take(config.swarm.max(1) - 1),
            );
        }

        // Each branch walks the overlay from its source to the fetcher
        // (flat routing is the one-hop special case). Every intermediate
        // relay on the primary route rolls the fetch-failure injector, so
        // under chaos a distant source naturally partitions away while a
        // neighbor stays reachable. The roll count — one at provider
        // resolution plus one per relay — is a pinned contract: the
        // chaos_gossip tier asserts exact per-distance success counts and
        // fault-counter totals against it.
        let routes: Vec<Vec<NodeId>> = sources
            .iter()
            .map(|source| match overlay.as_mut() {
                Some((_, memo)) => memo.path(*source, id).unwrap_or_else(|| vec![*source, id]),
                None => vec![*source, id],
            })
            .collect();
        if let Some(f) = faults.as_mut() {
            for _relay in 1..routes[0].len().saturating_sub(1) {
                if f.roll_fetch_failure() {
                    f.stats.fetch_failures += 1;
                    return Err(IpfsError::NotFound(cid));
                }
            }
        }

        // Pull the root block (dedup: reuse a locally-held copy) from the
        // primary, then the leaves from the branch rotation.
        let mut logical = 0u64;
        let mut moved = vec![0u64; sources.len()];
        let mut dedup_skipped = 0u64;
        let mut dedup_saved = 0u64;

        let local_root = transfer
            .dedup
            .then(|| nodes[id.0 as usize].store.get(cid))
            .flatten();
        let root_block = match local_root {
            Some(b) => {
                dedup_skipped += 1;
                dedup_saved += b.len() as u64;
                b
            }
            None => {
                let b = nodes[provider.0 as usize]
                    .store
                    .get(cid)
                    .ok_or(IpfsError::NotFound(cid))?;
                moved[0] += b.len() as u64;
                b
            }
        };
        logical += root_block.len() as u64;
        if !cid.verifies(&root_block) {
            return Err(IpfsError::Corrupt(format!("root block of {cid}")));
        }

        // Receipt is the trust boundary: the root was just hashed against
        // its CID above and `reassemble` hashes every leaf, so the retain
        // loop below stores them under CIDs that are already checked.
        let mut blocks: Vec<(Cid, Bytes)> = vec![(cid, root_block.clone())];
        let data = match decode_root(&root_block) {
            Some(root) => {
                for (position, child) in root.children.iter().enumerate() {
                    // Dedup: a block the fetcher already holds is never
                    // re-transferred (and never exposed to transfer
                    // faults — nothing moves).
                    let local = transfer
                        .dedup
                        .then(|| nodes[id.0 as usize].store.get(*child))
                        .flatten();
                    let block = match local {
                        Some(b) => {
                            dedup_skipped += 1;
                            dedup_saved += b.len() as u64;
                            logical += b.len() as u64;
                            b
                        }
                        None => {
                            // Swarm rotation: start at this chunk's slot
                            // and settle on the first branch whose source
                            // actually holds the block.
                            let start = position % sources.len();
                            let branch = (0..sources.len())
                                .map(|step| (start + step) % sources.len())
                                .find(|b| nodes[sources[*b].0 as usize].store.has(*child))
                                .ok_or(IpfsError::NotFound(*child))?;
                            let block = nodes[sources[branch].0 as usize]
                                .store
                                .get(*child)
                                .expect("branch source holds the block");
                            moved[branch] += block.len() as u64;
                            logical += block.len() as u64;
                            // Injected chunk loss: each lost transfer is
                            // retried (and re-charged) up to the retry
                            // budget; exhausting it fails the whole fetch —
                            // never truncated data.
                            if let Some(f) = faults.as_mut() {
                                let mut budget = f.chunk_retries;
                                while f.roll_chunk_loss() {
                                    f.stats.chunk_losses += 1;
                                    if budget == 0 {
                                        f.stats.exhausted_fetches += 1;
                                        return Err(IpfsError::ChunkLoss(*child));
                                    }
                                    budget -= 1;
                                    f.stats.chunk_retries += 1;
                                    moved[branch] += block.len() as u64;
                                }
                            }
                            block
                        }
                    };
                    blocks.push((*child, block));
                }
                // `reassemble` asks for the children in order, which is the
                // order they were just received in (a block handed over
                // for the wrong child would fail its hash check).
                let mut received = blocks[1..].iter();
                reassemble(&root, |_| received.next().map(|(_, block)| block.clone()))
                    .map_err(|e| IpfsError::Corrupt(e.to_string()))?
            }
            None => root_block,
        };

        // Transfer cost: one DHT lookup, then per-edge latency and
        // serialization at the edge's bottleneck bandwidth down each
        // branch's route. Branches transfer concurrently, so the fetch
        // takes as long as its slowest branch; a direct flat route
        // reduces to lookup + both latencies + bytes over the link
        // bottleneck.
        let branch_cost = |route: &[NodeId], bytes: u64| -> SimDuration {
            let mut cost = SimDuration::ZERO;
            for edge in route.windows(2) {
                let a = nodes[edge[0].0 as usize].link;
                let b = nodes[edge[1].0 as usize].link;
                cost = cost
                    + a.latency
                    + b.latency
                    + SimDuration::from_secs_f64(
                        bytes as f64 / a.bandwidth_bps.min(b.bandwidth_bps),
                    );
            }
            cost
        };
        let slowest = routes
            .iter()
            .enumerate()
            .filter(|(branch, _)| *branch == 0 || moved[*branch] > 0)
            .map(|(branch, route)| branch_cost(route, moved[branch]))
            .max()
            .unwrap_or(SimDuration::ZERO);
        let elapsed = DHT_LOOKUP_COST + slowest;

        // Wire accounting: sources serve, intermediates relay (without
        // ever retaining — resident storage is routing-independent).
        let transferred: u64 = moved.iter().sum();
        let routed = overlay.is_some();
        for (branch, bytes) in moved.iter().enumerate() {
            if branch > 0 && *bytes == 0 {
                continue;
            }
            nodes[sources[branch].0 as usize].bytes_served += bytes;
            let route = &routes[branch];
            if routed {
                stats.route_hops += (route.len() as u64).saturating_sub(1);
            }
            for relay in &route[1..route.len().saturating_sub(1)] {
                nodes[relay.0 as usize].bytes_relayed += bytes;
                stats.relayed_bytes += bytes;
            }
        }
        if routed {
            stats.routed_fetches += 1;
        }
        stats.logical_bytes += logical;
        stats.physical_bytes += transferred;
        stats.dedup_chunks_skipped += dedup_skipped;
        stats.dedup_bytes_saved += dedup_saved;

        // Cache locally and advertise (verified content only; a fetch that
        // errored above never reaches this point, so a poisoned fetch can
        // never populate the blockstore or the fetch cache).
        {
            let node = &mut nodes[id.0 as usize];
            node.bytes_fetched += transferred;
            if opts.retain {
                for (block_cid, block) in blocks {
                    node.store.put_keyed(block_cid, block);
                }
            }
        }
        if opts.retain {
            dht.provide(cid, id);
            let evictions = &mut stats.cache_evictions;
            nodes[id.0 as usize].cache.insert(cid, &data, evictions);
        }

        Ok(GetReceipt {
            data,
            elapsed,
            local_hit: false,
        })
    }

    /// Reads `cid`'s full content out of a local blockstore, or `None`
    /// when the DAG is not fully resident (a root without all its leaves
    /// counts as a miss). Nothing is hashed here: the blockstore invariant
    /// (every key is the SHA-256 of its value, checked when each block
    /// came in) already vouches for the bytes.
    ///
    /// # Errors
    ///
    /// [`IpfsError::Corrupt`] if the resident leaves do not add up to the
    /// length the root declares — content no provider could serve either.
    fn read_local(store: &BlockStore, cid: Cid) -> Result<Option<Bytes>, IpfsError> {
        let Some(root_block) = store.get(cid) else {
            return Ok(None);
        };
        match decode_root(&root_block) {
            Some(root) => match reassemble_trusted(&root, |c| store.get(c)) {
                Ok(data) => Ok(Some(data)),
                Err(ReassembleError::MissingChunk(_)) => Ok(None),
                Err(e) => Err(IpfsError::Corrupt(e.to_string())),
            },
            None => Ok(Some(root_block)),
        }
    }

    /// Pins a DAG so garbage collection keeps it.
    pub fn pin(&self, cid: Cid) {
        let mut st = self.network.inner.lock();
        st.nodes[self.id.0 as usize].store.pin(cid);
    }

    /// Unpins a DAG.
    pub fn unpin(&self, cid: Cid) {
        let mut st = self.network.inner.lock();
        st.nodes[self.id.0 as usize].store.unpin(cid);
    }

    /// Garbage-collects unpinned blocks, removing this node's provider
    /// records for content it no longer holds. Returns blocks removed.
    pub fn gc(&self) -> usize {
        let mut st = self.network.inner.lock();
        let id = self.id;
        let removed = st.nodes[id.0 as usize].store.gc();
        // Withdraw provider records for vanished roots.
        let stale: Vec<Cid> = {
            let st_ref = &*st;
            st_ref
                .dht
                .records_for_node(id)
                .into_iter()
                .filter(|c| !st_ref.nodes[id.0 as usize].store.has(*c))
                .collect()
        };
        for cid in stale {
            st.dht.unprovide(cid, id);
        }
        removed
    }

    /// True if this node holds the full DAG for `cid` locally.
    pub fn has_local(&self, cid: Cid) -> bool {
        let st = self.network.inner.lock();
        Self::read_local(&st.nodes[self.id.0 as usize].store, cid)
            .ok()
            .flatten()
            .is_some()
    }

    /// Cumulative bytes fetched from remote providers.
    pub fn bytes_fetched(&self) -> u64 {
        self.network.inner.lock().nodes[self.id.0 as usize].bytes_fetched
    }

    /// Cumulative bytes served to remote peers. Counts wire bytes, not
    /// blob bytes: each transfer includes per-chunk framing overhead on
    /// top of the payload, so a single served blob reports slightly more
    /// than its length. A fetcher that retained the content answers later
    /// gets locally — repeat fetches add nothing here.
    pub fn bytes_served(&self) -> u64 {
        self.network.inner.lock().nodes[self.id.0 as usize].bytes_served
    }

    /// Cumulative bytes forwarded for other nodes as an overlay relay.
    pub fn bytes_relayed(&self) -> u64 {
        self.network.inner.lock().nodes[self.id.0 as usize].bytes_relayed
    }

    /// Total wire load this node carried: fetched + served + relayed.
    pub fn wire_bytes(&self) -> u64 {
        let st = self.network.inner.lock();
        let node = &st.nodes[self.id.0 as usize];
        node.bytes_fetched + node.bytes_served + node.bytes_relayed
    }
}

impl std::fmt::Debug for IpfsNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IpfsNode").field("id", &self.id).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(n: usize) -> (IpfsNetwork, Vec<IpfsNode>) {
        let net = IpfsNetwork::new();
        let nodes = (0..n).map(|_| net.add_node(LinkProfile::lan())).collect();
        (net, nodes)
    }

    /// A fabric with every transfer optimization off (the historical
    /// baseline most invariants are phrased against).
    fn naive_fabric(n: usize) -> (IpfsNetwork, Vec<IpfsNode>) {
        let (net, nodes) = fabric(n);
        net.configure_transfer(TransferConfig::disabled(), 0);
        (net, nodes)
    }

    #[test]
    fn add_then_remote_get_round_trips() {
        let (_, nodes) = fabric(3);
        let data: Vec<u8> = (0..700_000u32).map(|i| (i % 253) as u8).collect();
        let receipt = nodes[0].add(&data);
        assert!(receipt.blocks > 1, "multi-chunk file");

        let got = nodes[1].get(receipt.cid).unwrap();
        assert_eq!(got.data, data);
        assert!(!got.local_hit);
        assert!(got.elapsed > SimDuration::ZERO);
        assert!(nodes[1].bytes_fetched() >= data.len() as u64);
        assert!(nodes[0].bytes_served() >= data.len() as u64);
    }

    #[test]
    fn local_get_is_cheap() {
        let (_, nodes) = fabric(2);
        let receipt = nodes[0].add(b"small");
        let got = nodes[0].get(receipt.cid).unwrap();
        assert!(got.local_hit);
        assert_eq!(&got.data[..], b"small");
    }

    #[test]
    fn fetch_caches_and_reprovides() {
        let (_, nodes) = fabric(3);
        let receipt = nodes[0].add(b"cache me");
        nodes[1].get(receipt.cid).unwrap();
        assert!(nodes[1].has_local(receipt.cid));
        // Node 2 can now fetch even if only node 1's copy exists; both
        // advertise, and verification still passes.
        let got = nodes[2].get(receipt.cid).unwrap();
        assert_eq!(&got.data[..], b"cache me");
    }

    #[test]
    fn missing_content_errors() {
        let (_, nodes) = fabric(2);
        let ghost = Cid::for_data(b"never added");
        assert_eq!(nodes[1].get(ghost), Err(IpfsError::NotFound(ghost)));
    }

    #[test]
    fn gc_withdraws_unpinned_content() {
        let (net, nodes) = fabric(2);
        // The fetch cache would keep serving GC'd content (it is
        // content-addressed, so that is *correct*), but this test asserts
        // the provider-withdrawal path, so run it on the naive config.
        net.configure_transfer(TransferConfig::disabled(), 0);
        let receipt = nodes[0].add(b"temporary");
        nodes[0].unpin(receipt.cid);
        let removed = nodes[0].gc();
        assert!(removed >= 1);
        assert!(!nodes[0].has_local(receipt.cid));
        // Provider record withdrawn: nobody can fetch it now.
        assert!(matches!(
            nodes[1].get(receipt.cid),
            Err(IpfsError::NotFound(_))
        ));
    }

    #[test]
    fn pinned_content_survives_gc() {
        let (_, nodes) = fabric(1);
        let receipt = nodes[0].add(b"pinned model weights");
        assert_eq!(nodes[0].gc(), 0);
        assert!(nodes[0].has_local(receipt.cid));
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let net = IpfsNetwork::new();
        let a = net.add_node(LinkProfile::edge());
        let b = net.add_node(LinkProfile::edge());
        let small = a.add(&vec![1u8; 10_000]);
        let large = a.add(&vec![2u8; 10_000_000]);
        let t_small = b.get(small.cid).unwrap().elapsed;
        let t_large = b.get(large.cid).unwrap().elapsed;
        assert!(t_large > t_small * 10, "{t_large} vs {t_small}");
    }

    #[test]
    fn empty_content_round_trips() {
        let (_, nodes) = fabric(2);
        let receipt = nodes[0].add(b"");
        let got = nodes[1].get(receipt.cid).unwrap();
        assert!(got.data.is_empty());
    }

    #[test]
    fn fabric_reports_totals() {
        let (net, nodes) = fabric(2);
        nodes[0].add(&vec![0u8; 1000]);
        assert_eq!(net.node_count(), 2);
        assert!(net.total_bytes() >= 1000);
    }

    #[test]
    fn injected_fetch_failures_are_counted_and_retryable() {
        let (net, nodes) = naive_fabric(2);
        let receipt = nodes[0].add(&vec![3u8; 4096]);
        net.install_faults(StorageFaults::new(7, 0.5, 0.0, 2));
        let mut failures = 0;
        let mut successes = 0;
        for _ in 0..64 {
            match nodes[1].get(receipt.cid) {
                Ok(got) => {
                    assert_eq!(got.data.len(), 4096);
                    successes += 1;
                    // Drop the cached copy so the next get stays remote.
                    nodes[1].unpin(receipt.cid);
                    nodes[1].gc();
                }
                Err(IpfsError::NotFound(_)) => failures += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(failures > 0 && successes > 0, "{failures} / {successes}");
        let stats = net.fault_stats().unwrap();
        assert_eq!(stats.fetch_failures, failures);
        net.record_fetch_retry();
        net.record_fetch_retry_outcome(true);
        net.record_fetch_retry();
        net.record_fetch_retry_outcome(false);
        let stats = net.fault_stats().unwrap();
        assert_eq!(stats.fetch_retries, 2);
        assert_eq!(stats.fetch_recoveries, 1);
        assert_eq!(stats.fetch_permanent_failures, 1);
        assert_eq!(
            stats.fetch_retries,
            stats.fetch_recoveries + stats.fetch_permanent_failures,
            "every retry resolves to exactly one outcome"
        );
    }

    #[test]
    fn chunk_loss_is_retried_and_never_truncates() {
        let (net, nodes) = naive_fabric(2);
        // 8 chunks of 256 B.
        let data: Vec<u8> = (0..2048u32).map(|i| (i % 241) as u8).collect();
        let receipt = nodes[0].add_with_chunk_size(&data, 256);
        net.install_faults(StorageFaults::new(11, 0.0, 0.4, 8));
        let got = nodes[1].get(receipt.cid).expect("retries recover");
        assert_eq!(got.data, data, "reconstruction is exact");
        let stats = net.fault_stats().unwrap();
        assert!(stats.chunk_losses > 0, "faults must have fired");
        assert_eq!(stats.chunk_retries, stats.chunk_losses);
        assert_eq!(stats.exhausted_fetches, 0);
    }

    #[test]
    fn exhausted_chunk_retries_fail_the_whole_fetch() {
        let (net, nodes) = naive_fabric(2);
        let data = vec![9u8; 2048];
        let receipt = nodes[0].add_with_chunk_size(&data, 256);
        // Certain loss, zero retries: the fetch must error, not truncate.
        net.install_faults(StorageFaults::new(3, 0.0, 1.0, 0));
        let err = nodes[1].get(receipt.cid).unwrap_err();
        assert!(matches!(err, IpfsError::ChunkLoss(_)), "{err}");
        assert!(net.fault_stats().unwrap().exhausted_fetches >= 1);
        // Clearing the injector restores fault-free operation.
        net.clear_faults();
        assert_eq!(nodes[1].get(receipt.cid).unwrap().data, data);
        assert!(net.fault_stats().is_none());
    }

    #[test]
    fn local_hits_bypass_fault_injection() {
        let (net, nodes) = fabric(2);
        let receipt = nodes[0].add(b"resident");
        net.install_faults(StorageFaults::new(5, 1.0, 1.0, 0));
        // The adder holds the content locally: always served.
        let got = nodes[0].get(receipt.cid).unwrap();
        assert!(got.local_hit);
        assert_eq!(&got.data[..], b"resident");
    }

    // ---- transfer layer ------------------------------------------------

    #[test]
    fn cache_serves_repeat_fetches_and_counts() {
        let (net, nodes) = fabric(2);
        net.configure_transfer(
            TransferConfig {
                dedup: false,
                delta: false,
                cache_bytes: 1 << 20,
            },
            42,
        );
        let receipt = nodes[0].add(&vec![5u8; 10_000]);
        let first = nodes[1].get(receipt.cid).unwrap();
        assert!(!first.local_hit);
        let second = nodes[1].get(receipt.cid).unwrap();
        assert!(second.local_hit);
        assert_eq!(second.data, first.data);
        let stats = net.transfer_stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert!(stats.cache_resident_bytes >= 10_000);
    }

    #[test]
    fn cache_eviction_respects_budget_and_is_deterministic() {
        let run = |seed: u64| {
            let (net, nodes) = fabric(2);
            net.configure_transfer(
                TransferConfig {
                    dedup: false,
                    delta: false,
                    cache_bytes: 25_000,
                },
                seed,
            );
            let mut cids = Vec::new();
            for i in 0..8u8 {
                cids.push(nodes[0].add(&vec![i; 10_000]).cid);
            }
            for cid in &cids {
                nodes[1].get(*cid).unwrap();
            }
            let stats = net.transfer_stats();
            assert!(stats.cache_resident_bytes <= 25_000, "budget respected");
            assert!(stats.cache_evictions >= 6, "evictions occurred");
            // Which entries survived is observable via hit/miss on re-get.
            let hits: Vec<bool> = cids
                .iter()
                .map(|c| nodes[1].get(*c).unwrap().local_hit)
                .collect();
            hits
        };
        assert_eq!(run(9), run(9), "same seed, same eviction outcome");
    }

    #[test]
    fn failed_fetch_never_populates_the_cache() {
        let (net, nodes) = fabric(2);
        net.configure_transfer(
            TransferConfig {
                dedup: false,
                delta: false,
                cache_bytes: 1 << 20,
            },
            1,
        );
        let data = vec![7u8; 2048];
        let receipt = nodes[0].add_with_chunk_size(&data, 256);
        // Certain chunk loss, no retries: the fetch is poisoned.
        net.install_faults(StorageFaults::new(3, 0.0, 1.0, 0));
        assert!(nodes[1].get(receipt.cid).is_err());
        assert_eq!(net.transfer_stats().cache_resident_bytes, 0);
        // And a clean retry after the fault clears serves + caches.
        net.clear_faults();
        assert_eq!(nodes[1].get(receipt.cid).unwrap().data, data);
        assert!(net.transfer_stats().cache_resident_bytes > 0);
    }

    #[test]
    fn dedup_skips_locally_held_chunks() {
        let (net, nodes) = fabric(2);
        net.configure_transfer(
            TransferConfig {
                dedup: true,
                delta: false,
                cache_bytes: 0,
            },
            0,
        );
        // Two files sharing half their chunks.
        let shared: Vec<u8> = vec![1u8; 1024];
        let mut a = shared.clone();
        a.extend(vec![2u8; 1024]);
        let mut b = shared.clone();
        b.extend(vec![3u8; 1024]);
        let ra = nodes[0].add_with_chunk_size(&a, 256);
        let rb = nodes[0].add_with_chunk_size(&b, 256);

        nodes[1].get(ra.cid).unwrap();
        let before = net.transfer_stats();
        let got = nodes[1].get(rb.cid).unwrap();
        assert_eq!(got.data, b, "dedup never changes fetched bytes");
        let after = net.transfer_stats();
        assert!(
            after.dedup_chunks_skipped > before.dedup_chunks_skipped,
            "shared chunks were reused"
        );
        assert!(
            after.physical_bytes - before.physical_bytes
                < after.logical_bytes - before.logical_bytes,
            "the second fetch moved fewer bytes than its logical size"
        );
    }

    #[test]
    fn delta_fetch_reconstructs_verifies_and_accounts() {
        let (net, nodes) = fabric(2);
        net.configure_transfer(
            TransferConfig {
                dedup: true,
                delta: true,
                cache_bytes: 1 << 20,
            },
            3,
        );
        let base: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let mut new = base.clone();
        new[5] = 0xFF; // tiny change
        let delta: Vec<u8> = vec![5, 0xFF]; // toy format: (index, byte)

        let rb = nodes[0].add(&base);
        let rn = nodes[0].add(&new);
        let rd = nodes[0].add(&delta);

        // Fetcher holds the base already.
        nodes[1].get(rb.cid).unwrap();
        let before = net.transfer_stats();
        let got = nodes[1]
            .get_with_delta(rn.cid, rb.cid, rd.cid, |b, d| {
                let mut out = b.to_vec();
                out[d[0] as usize] = d[1];
                Some(out)
            })
            .unwrap();
        assert_eq!(got.data, new, "reconstruction is exact");
        assert!(!got.local_hit);
        let after = net.transfer_stats();
        assert_eq!(after.delta_fetches, before.delta_fetches + 1);
        assert!(
            after.physical_bytes - before.physical_bytes < 1000,
            "only the delta moved"
        );
        assert!(after.logical_bytes - before.logical_bytes > 99_000);
        assert!(after.delta_bytes_saved > 90_000);
        // The full content is now materialized, advertised and cacheable.
        assert!(nodes[1].has_local(rn.cid));
        assert!(nodes[1].get(rn.cid).unwrap().local_hit);
    }

    #[test]
    fn delta_fetch_falls_back_when_base_missing_or_reconstruction_wrong() {
        let (net, nodes) = fabric(2);
        net.configure_transfer(TransferConfig::default(), 3);
        let content = vec![9u8; 50_000];
        let rc = nodes[0].add(&content);
        let rd = nodes[0].add(b"not really a delta");
        let ghost_base = Cid::for_data(b"never stored");

        // Base missing: full fetch, correct bytes.
        let got = nodes[1]
            .get_with_delta(rc.cid, ghost_base, rd.cid, |_, _| unreachable!())
            .unwrap();
        assert_eq!(got.data, content);
        assert_eq!(net.transfer_stats().delta_fallbacks, 1);

        // Reconstruction lies: verification rejects it, full fetch wins.
        let (net2, nodes2) = fabric(2);
        net2.configure_transfer(TransferConfig::default(), 3);
        let rb2 = nodes2[0].add(b"base");
        let rc2 = nodes2[0].add(&content);
        let rd2 = nodes2[0].add(b"delta");
        nodes2[1].get(rb2.cid).unwrap();
        let got = nodes2[1]
            .get_with_delta(rc2.cid, rb2.cid, rd2.cid, |_, _| Some(vec![1, 2, 3]))
            .unwrap();
        assert_eq!(got.data, content, "bad reconstruction never surfaces");
        assert_eq!(net2.transfer_stats().delta_fallbacks, 1);
        // Not a byte of the rejected reconstruction was stored.
        let rejected = chunk(&[1, 2, 3], DEFAULT_CHUNK_SIZE);
        assert!(!nodes2[1].has_local(rejected.root));
        assert!(!nodes2[1].has_local(rejected.leaves[0].0));
        assert_eq!(net2.first_corrupt_block(), None);
    }

    /// A root block declaring `total_len` bytes over `children`. Any block
    /// that looks like a root is decoded as one, so these few bytes are all
    /// an attacker needs to publish.
    fn lying_root(total_len: u64, children: &[Cid]) -> Vec<u8> {
        let mut block = b"UFLDAGv0".to_vec();
        block.extend_from_slice(&total_len.to_be_bytes());
        block.extend_from_slice(&(children.len() as u32).to_be_bytes());
        for child in children {
            block.extend_from_slice(child.digest().as_bytes());
        }
        block
    }

    #[test]
    fn a_root_lying_about_its_length_is_corrupt_locally_and_remotely() {
        // No children and `u64::MAX` bytes; then the one-leaf shape, whose
        // leaf is handed on as the content without a copy — one byte
        // shorter and one byte longer than the root declares.
        let leaf = vec![6u8; 1000];
        let leaf_cid = chunk(&leaf, DEFAULT_CHUNK_SIZE).leaves[0].0;
        for blob in [
            lying_root(u64::MAX, &[]),
            lying_root(1001, &[leaf_cid]),
            lying_root(999, &[leaf_cid]),
        ] {
            let (net, nodes) = fabric(2);
            let cid = Cid::for_data(&blob);
            // `add` stores the blob as a leaf under its own CID.
            nodes[0].add(&leaf);
            nodes[0].add(&blob);

            // Local path: the adder reads its own block back as a root.
            let err = nodes[0].get(cid).unwrap_err();
            assert!(matches!(err, IpfsError::Corrupt(_)), "{err}");
            assert!(!nodes[0].has_local(cid));

            // Remote path: the adder advertises the block as content (what
            // a Byzantine aggregator registering the CID on-chain amounts
            // to).
            net.inner.lock().dht.provide(cid, nodes[0].id());
            let err = nodes[1].get(cid).unwrap_err();
            assert!(matches!(err, IpfsError::Corrupt(_)), "{err}");
            let st = net.inner.lock();
            assert!(st.nodes[1].store.is_empty(), "nothing retained");
            assert_eq!(st.nodes[1].cache.resident, 0, "nothing cached");
        }
    }

    /// Where the node's copy of `cid`'s block lives.
    fn resident_at(net: &IpfsNetwork, node: &IpfsNode, cid: Cid) -> *const u8 {
        let st = net.inner.lock();
        st.nodes[node.id().0 as usize]
            .store
            .get(cid)
            .expect("block is resident")
            .as_ptr()
    }

    #[test]
    fn one_leaf_content_is_its_leaf_buffer_on_every_path() {
        let (net, nodes) = fabric(3);
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let cid = nodes[0].add(&data).cid;
        let leaf = chunk(&data, DEFAULT_CHUNK_SIZE).leaves[0].0;
        let published = resident_at(&net, &nodes[0], leaf);

        // Local read (the cache misses first), then the cache hit.
        let local = nodes[0].get(cid).unwrap();
        assert_eq!((local.data.as_ptr(), local.local_hit), (published, true));
        assert_eq!(net.transfer_stats().cache_hits, 0);
        let hit = nodes[0].get(cid).unwrap();
        assert_eq!((hit.data.as_ptr(), hit.local_hit), (published, true));
        assert_eq!(net.transfer_stats().cache_hits, 1);

        // Remote fetch: receipt, retained block and cache entry are all the
        // publisher's buffer — nothing was copied on the way.
        let remote = nodes[1].get(cid).unwrap();
        assert_eq!((remote.data.as_ptr(), remote.local_hit), (published, false));
        assert_eq!(remote.data, data);
        assert_eq!(resident_at(&net, &nodes[1], leaf), published);
        assert_eq!(nodes[1].get(cid).unwrap().data.as_ptr(), published);
        assert_eq!(net.transfer_stats().cache_resident_bytes, 2 * 10_000);

        // Delta fetch: the leaf its verifying re-chunk built is the one that
        // is stored, cached and returned.
        let mut next = data.clone();
        next[17] ^= 0xFF;
        let next_cid = nodes[0].add(&next).cid;
        let delta_cid = nodes[0].add(&[17]).cid;
        let rebuilt = nodes[1]
            .get_with_delta(next_cid, cid, delta_cid, |base, delta| {
                let mut out = base.to_vec();
                out[delta[0] as usize] ^= 0xFF;
                Some(out)
            })
            .unwrap();
        assert_eq!(net.transfer_stats().delta_fetches, 1);
        assert_eq!(rebuilt.data, next);
        let next_leaf = chunk(&next, DEFAULT_CHUNK_SIZE).leaves[0].0;
        assert_eq!(
            rebuilt.data.as_ptr(),
            resident_at(&net, &nodes[1], next_leaf)
        );
        assert_eq!(
            nodes[1].get(next_cid).unwrap().data.as_ptr(),
            rebuilt.data.as_ptr()
        );
    }

    #[test]
    fn multi_leaf_content_round_trips_and_is_concatenated_once() {
        for leaves in [2usize, 3] {
            let (net, nodes) = fabric(2);
            let data: Vec<u8> = (0..(leaves * 256 - 100) as u32)
                .map(|i| (i % 241) as u8)
                .collect();
            let receipt = nodes[0].add_with_chunk_size(&data, 256);
            assert_eq!(receipt.blocks, 1 + leaves);

            // One concatenation per node: the buffer the first fetch built
            // is the cache entry every later fetch is handed.
            for node in &nodes {
                let first = node.get(receipt.cid).unwrap();
                assert_eq!(first.data, data);
                let again = node.get(receipt.cid).unwrap();
                assert!(again.local_hit);
                assert_eq!(again.data.as_ptr(), first.data.as_ptr());
            }
            assert_eq!(net.transfer_stats().cache_hits, 2);
            assert_eq!(net.first_corrupt_block(), None);
        }
    }

    #[test]
    fn a_collected_block_the_cache_references_stays_readable_until_evicted() {
        let (net, nodes) = fabric(2);
        net.configure_transfer(
            TransferConfig {
                cache_bytes: 15_000,
                ..TransferConfig::default()
            },
            5,
        );
        let data = vec![9u8; 10_000];
        let cid = nodes[0].add(&data).cid;
        nodes[1].get(cid).unwrap();

        // Fetched blocks are not pinned: gc empties the fetcher's store, but
        // the cache entry still holds the buffer and still counts it.
        assert!(nodes[1].gc() >= 2);
        assert!(!nodes[1].has_local(cid));
        let hit = nodes[1].get(cid).unwrap();
        assert!(hit.local_hit);
        assert_eq!(hit.data, data);
        assert_eq!(net.transfer_stats().cache_resident_bytes, 10_000);

        // The next release does not fit beside it: the entry is evicted, its
        // bytes leave the gauge, and the content is remote again.
        let other = nodes[0].add(&vec![8u8; 10_000]).cid;
        nodes[1].get(other).unwrap();
        let stats = net.transfer_stats();
        assert_eq!(
            (stats.cache_evictions, stats.cache_resident_bytes),
            (1, 10_000)
        );
        assert!(!nodes[1].get(cid).unwrap().local_hit);
    }

    #[test]
    fn a_provider_serving_bad_bytes_is_caught_at_the_wire() {
        // The check that survives hashing once: every block that crosses
        // the wire is hashed against its CID on receipt, whatever the
        // provider's store claims. Poison the root, then a leaf.
        for poison_root in [true, false] {
            let (net, nodes) = fabric(3);
            let data: Vec<u8> = (0..2048u32).map(|i| (i % 239) as u8).collect();
            let receipt = nodes[0].add_with_chunk_size(&data, 256);
            let file = chunk(&data, 256);
            let victim = if poison_root {
                file.root
            } else {
                file.leaves[3].0
            };
            net.inner.lock().nodes[0]
                .store
                .put_unchecked(victim, Bytes::from_static(b"not the block you asked for"));
            assert_eq!(net.first_corrupt_block(), Some((NodeId(0), victim)));

            let err = nodes[1].get(receipt.cid).unwrap_err();
            assert!(matches!(err, IpfsError::Corrupt(_)), "{err}");
            let st = net.inner.lock();
            assert!(st.nodes[1].store.is_empty(), "blockstore untouched");
            assert_eq!(st.nodes[1].cache.resident, 0, "fetch cache untouched");
            assert_eq!(
                st.dht.providers(receipt.cid).collect::<Vec<_>>(),
                vec![NodeId(0)],
                "provider records untouched"
            );
            assert_eq!(st.nodes[1].store.first_corrupt(), None);
        }
    }

    #[test]
    fn installing_a_topology_drops_every_memoised_route() {
        // The regroup case: a second install must route over the new
        // overlay from the first fetch on. Six nodes in one ring route
        // 0 → 3 over two relays; regrouped into rings {0,1,2} and {3,4,5}
        // the only way across is a bridge, and the relays change.
        let net = IpfsNetwork::new();
        net.configure_transfer(TransferConfig::disabled(), 3);
        let nodes: Vec<IpfsNode> = (0..6).map(|_| net.add_node(LinkProfile::lan())).collect();
        let config = GossipConfig::new(1).with_swarm(1);
        let routed = |from: u32, to: u32| {
            let mut st = net.inner.lock();
            let (_, memo) = st.gossip.as_mut().expect("installed");
            (
                memo.distances_from(NodeId(to)).to_vec(),
                memo.path(NodeId(from), NodeId(to)),
            )
        };

        let ring = GossipTopology::derive(&config, 0, &[0; 6]);
        net.install_topology(config, ring.clone());
        let cid = nodes[0].add(&vec![5u8; 4096]).cid;
        nodes[3].get(cid).unwrap();
        assert_eq!(
            routed(0, 3),
            (
                ring.distances_from(NodeId(3)),
                ring.path(NodeId(0), NodeId(3))
            )
        );

        let split = GossipTopology::derive(&config, 0, &[0, 0, 0, 1, 1, 1]);
        assert_ne!(
            ring.path(NodeId(0), NodeId(3)),
            split.path(NodeId(0), NodeId(3))
        );
        net.install_topology(config, split.clone());
        assert_eq!(
            routed(0, 3),
            (
                split.distances_from(NodeId(3)),
                split.path(NodeId(0), NodeId(3))
            )
        );

        net.clear_topology();
        assert!(net.inner.lock().gossip.is_none());
    }

    #[test]
    fn transfer_strategy_never_changes_resident_storage() {
        // The same traffic under naive and optimized configs must leave
        // the fabric's blockstores byte-identical: the strategy changes
        // what moves, never what is stored.
        let run = |config: TransferConfig| {
            let (net, nodes) = fabric(3);
            net.configure_transfer(config, 7);
            let base: Vec<u8> = (0..40_000u32).map(|i| (i % 255) as u8).collect();
            let mut new = base.clone();
            new[17] = 0xAA;
            let rb = nodes[0].add(&base);
            let rn = nodes[0].add(&new);
            let rd = nodes[0].add(&[17, 0xAA]);
            for node in &nodes[1..] {
                node.get(rb.cid).unwrap();
                node.get_with_delta(rn.cid, rb.cid, rd.cid, |b, d| {
                    let mut out = b.to_vec();
                    out[d[0] as usize] = d[1];
                    Some(out)
                })
                .unwrap();
            }
            net.total_bytes()
        };
        assert_eq!(
            run(TransferConfig::disabled()),
            run(TransferConfig::default())
        );
    }

    /// Drives `fetchers` single fetches of one blob published by several
    /// identical-link providers, returning every node's served bytes.
    fn tie_break_run(seed: u64, providers: usize, fetchers: usize) -> Vec<u64> {
        let net = IpfsNetwork::new();
        net.configure_transfer(TransferConfig::disabled(), seed);
        let provider_nodes: Vec<IpfsNode> = (0..providers)
            .map(|_| net.add_node(LinkProfile::lan()))
            .collect();
        let fetcher_nodes: Vec<IpfsNode> = (0..fetchers)
            .map(|_| net.add_node(LinkProfile::lan()))
            .collect();
        let data = vec![3u8; 400_000];
        let mut cid = None;
        for p in &provider_nodes {
            cid = Some(p.add(&data).cid);
        }
        for f in &fetcher_nodes {
            f.get(cid.unwrap()).unwrap();
        }
        provider_nodes
            .iter()
            .chain(&fetcher_nodes)
            .map(|n| n.bytes_served())
            .collect()
    }

    #[test]
    fn tie_break_spreads_load_across_equivalent_providers() {
        // Four providers with identical links tie on every selection key;
        // the seeded draw must spread the serving load instead of piling
        // every fetch onto the lowest NodeId.
        let served = tie_break_run(42, 4, 24);
        let busy = served.iter().filter(|b| **b > 0).count();
        assert!(
            busy >= 3,
            "expected ≥3 distinct servers among ties, served: {served:?}"
        );
        assert!(
            *served.iter().max().unwrap() < served.iter().sum::<u64>(),
            "no single node absorbs all load"
        );
    }

    #[test]
    fn tie_break_stream_is_seed_deterministic() {
        assert_eq!(tie_break_run(7, 4, 16), tie_break_run(7, 4, 16));
        assert_ne!(
            tie_break_run(7, 4, 16),
            tie_break_run(8, 4, 16),
            "different seed draws different winners"
        );
    }

    #[test]
    fn tie_break_draws_nothing_without_a_tie() {
        // A lan provider always outranks the edge fetchers that re-provide
        // after retaining, so no selection ever ties and the seed cannot
        // matter.
        let run = |seed: u64| -> Vec<u64> {
            let net = IpfsNetwork::new();
            net.configure_transfer(TransferConfig::disabled(), seed);
            let provider = net.add_node(LinkProfile::lan());
            let fetchers: Vec<IpfsNode> =
                (0..16).map(|_| net.add_node(LinkProfile::edge())).collect();
            let cid = provider.add(&vec![3u8; 400_000]).cid;
            for f in &fetchers {
                f.get(cid).unwrap();
            }
            std::iter::once(&provider)
                .chain(&fetchers)
                .map(|n| n.bytes_served())
                .collect()
        };
        assert_eq!(run(7), run(999));
    }

    #[test]
    fn overlay_routing_relays_without_retaining() {
        let net = IpfsNetwork::new();
        net.configure_transfer(TransferConfig::disabled(), 3);
        let nodes: Vec<IpfsNode> = (0..6).map(|_| net.add_node(LinkProfile::lan())).collect();
        // Degree 1 over one neighborhood derives a pure ring 0-1-2-3-4-5,
        // so the route 0 → 3 crosses exactly two relays.
        let config = GossipConfig::new(1).with_swarm(1);
        net.install_topology(config, GossipTopology::derive(&config, 0, &[0; 6]));

        let data = vec![5u8; 400_000];
        let cid = nodes[0].add(&data).cid;
        let got = nodes[3].get(cid).unwrap();
        assert_eq!(got.data, data, "routing never changes the bytes");

        let wire = nodes[0].bytes_served();
        assert!(wire >= data.len() as u64);
        assert_eq!(nodes[1].bytes_relayed(), wire, "first relay forwards all");
        assert_eq!(nodes[2].bytes_relayed(), wire, "second relay forwards all");
        assert_eq!(nodes[4].bytes_relayed(), 0, "off-route node untouched");
        assert!(
            !nodes[1].has_local(cid) && !nodes[2].has_local(cid),
            "relays never retain"
        );
        let stats = net.transfer_stats();
        assert_eq!(stats.routed_fetches, 1);
        assert_eq!(stats.route_hops, 3, "0→1→2→3");
        assert_eq!(stats.relayed_bytes, 2 * wire);

        // The same fetch over a direct link is strictly faster: each hop
        // charges latency and serialization.
        let flat = IpfsNetwork::new();
        flat.configure_transfer(TransferConfig::disabled(), 3);
        let a = flat.add_node(LinkProfile::lan());
        let b = flat.add_node(LinkProfile::lan());
        let direct = b.get(a.add(&data).cid).unwrap();
        assert!(got.elapsed > direct.elapsed, "hops cost virtual time");
    }

    #[test]
    fn swarming_spreads_chunks_across_nearby_providers() {
        let net = IpfsNetwork::new();
        net.configure_transfer(TransferConfig::disabled(), 11);
        let nodes: Vec<IpfsNode> = (0..4).map(|_| net.add_node(LinkProfile::lan())).collect();
        let config = GossipConfig::new(3).with_swarm(3);
        net.install_topology(config, GossipTopology::derive(&config, 2, &[0; 4]));

        // Three providers hold the same multi-chunk blob; the fourth
        // fetches once and the leaf rotation spreads the serving load.
        let data: Vec<u8> = (0..900_000u32).map(|i| (i % 249) as u8).collect();
        let mut cid = None;
        for p in &nodes[..3] {
            cid = Some(p.add(&data).cid);
        }
        let got = nodes[3].get(cid.unwrap()).unwrap();
        assert_eq!(got.data, data);
        let servers = nodes[..3].iter().filter(|n| n.bytes_served() > 0).count();
        assert!(servers >= 2, "chunks swarm from multiple providers");
        assert_eq!(
            nodes.iter().map(|n| n.bytes_served()).sum::<u64>(),
            net.transfer_stats().physical_bytes,
            "every transferred byte is attributed to exactly one server"
        );
    }
}
