//! IPFS-like content-addressed distributed storage for the UnifyFL
//! reproduction.
//!
//! The paper stores serialized model weights on a private IPFS swarm hosted
//! by the aggregator nodes; the blockchain orchestrator only carries CIDs.
//! This crate rebuilds that substrate:
//!
//! - [`cid`] — CIDv0 content identifiers (sha2-256 multihash, base58btc,
//!   `Qm…` strings identical in structure to real IPFS CIDs);
//! - [`chunker`] — 256 KiB chunking and the DAG root node;
//! - [`blockstore`] — per-node block storage with recursive pinning and GC;
//! - [`dht`] — the provider index standing in for Kademlia;
//! - [`network`] — the shared fabric: bitswap-style verified fetch with a
//!   latency/bandwidth cost model feeding the discrete-event simulator,
//!   seeded fault injection (DHT fetch failure, chunk loss with bounded
//!   retries) for chaos experiments, and the bandwidth-aware transfer
//!   layer (chunk dedup, verified delta fetch, seeded size-bounded LRU
//!   fetch cache) with logical-vs-physical byte accounting;
//! - [`topology`] — the seeded gossip overlay (neighborhood rings +
//!   chords + power-of-two bridges) remote fetches route over hop by hop
//!   when installed, with chunk swarming across nearby providers and
//!   per-hop fault/latency charging.
//!
//! # Example
//!
//! ```
//! use unifyfl_storage::{IpfsNetwork, LinkProfile};
//!
//! let net = IpfsNetwork::new();
//! let org_a = net.add_node(LinkProfile::lan());
//! let org_b = net.add_node(LinkProfile::lan());
//!
//! let weights = vec![0.5f32; 1024].iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<_>>();
//! let receipt = org_a.add(&weights);
//! assert!(receipt.cid.to_string().starts_with("Qm"));
//!
//! let fetched = org_b.get(receipt.cid).expect("provider found");
//! assert_eq!(fetched.data[..], weights[..]);
//! ```

#![warn(missing_docs)]

pub mod blockstore;
pub mod chunker;
pub mod cid;
pub mod dht;
pub mod network;
pub mod topology;

pub use blockstore::BlockStore;
pub use chunker::{chunk, chunk_default, ChunkedFile, DEFAULT_CHUNK_SIZE};
pub use cid::Cid;
pub use dht::{NodeId, ProviderIndex};
pub use network::{
    AddReceipt, GetReceipt, IpfsError, IpfsNetwork, IpfsNode, LinkProfile, StorageFaultStats,
    StorageFaults, TransferConfig, TransferStats,
};
pub use topology::{GossipConfig, GossipTopology};
