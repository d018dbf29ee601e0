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
//! - **Delta fetch** — [`IpfsNode::get_with_delta_chain`] walks the
//!   content's delta references back to the nearest base the node holds
//!   and reconstructs from it plus the small delta blobs on the way
//!   ([`IpfsNode::get_with_delta`] is the one-hop call), verifying the
//!   final reconstruction against the requested CID before accepting it
//!   (and falling back to a full fetch when no base along the chain is
//!   held or anything fails verification).
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
//! With a [`GossipTopology`](crate::topology::GossipTopology) installed ([`IpfsNetwork::install_topology`])
//! remote fetches stop being flat point-to-point transfers: providers are
//! ranked by overlay hop distance before link speed, leaf chunks swarm
//! across up to [`GossipConfig::swarm`](crate::topology::GossipConfig::swarm) nearby providers, transfers are
//! charged per overlay edge (latency + serialization at the edge
//! bottleneck) and every intermediate relay rolls the fault injector —
//! so under chaos, hop-distance turns fetch failures into partitions.
//! Relays forward without retaining, and every block is still verified
//! against its CID, so routing changes the byte *distribution* and the
//! virtual time, never the bytes a caller receives or the fabric's
//! resident storage.

mod cache;
mod config;
mod fabric;
mod faults;
mod fetch;
mod remote;
#[cfg(test)]
mod tests;

pub use config::{LinkProfile, TransferConfig, TransferStats};
pub use fabric::IpfsNetwork;
pub use faults::{StorageFaultStats, StorageFaults};
pub use fetch::{AddReceipt, GetReceipt, IpfsError, IpfsNode};
