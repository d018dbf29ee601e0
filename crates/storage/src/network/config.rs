//! What a link is and what the transfer layer may do: per-node link
//! profiles, the fetch-side knobs and the fabric-wide byte accounting.

use unifyfl_sim::SimDuration;

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

/// Fetch-side knobs of the transfer layer.
///
/// The *publish* path is config-independent (publishers always store full
/// content, and deltas where the protocol provides one), so two **fault-free**
/// runs that differ only in this configuration fetch bit-identical content
/// and produce bit-identical experiment results — only the wire-byte
/// accounting differs. Under injected [`StorageFaults`](super::StorageFaults) the arms consume
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
