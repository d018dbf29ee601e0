//! A node's side of a fetch that stays off the wire: `add`, the cache and
//! local-store fast path (probed once per fetch), the delta walk and its
//! one fallback site, pins and garbage collection. Going remote is
//! [`super::remote`].
//!
//! The delta walk ([`IpfsNode::get_with_delta_chain`]) follows a fetched
//! CID's delta references back to the nearest base the node holds, moves
//! only the delta blobs from there, applies them farthest first and
//! verifies the final reconstruction against the CID; intermediates are
//! never hashed or stored. Every way a walk can fail sends the fetch to
//! the wire in full, counted once.

use std::sync::Arc;
use unifyfl_sim::SimDuration;

use super::fabric::{IpfsNetwork, NetworkState};
use crate::blockstore::BlockStore;
use crate::chunker::{
    chunk, decode_root, hash_in_place, reassemble_trusted, ReassembleError, DEFAULT_CHUNK_SIZE,
};
use crate::cid::Cid;
use crate::dht::NodeId;

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
    pub data: Arc<[u8]>,
    /// Virtual time the fetch took (lookup + transfer), zero-ish when the
    /// content was already local.
    pub elapsed: SimDuration,
    /// True if the content was served without touching the wire (fetch
    /// cache or local blockstore).
    pub local_hit: bool,
}

/// Handle to one node of the fabric.
#[derive(Clone)]
pub struct IpfsNode {
    pub(super) network: IpfsNetwork,
    pub(super) id: NodeId,
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
        let mut st = self.network.state();
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
    /// re-advertising locally. With [`TransferConfig::dedup`](super::TransferConfig::dedup) on, blocks
    /// the node already holds are not re-transferred.
    ///
    /// # Errors
    ///
    /// [`IpfsError::NotFound`] if no provider has the content,
    /// [`IpfsError::Corrupt`] if verification fails.
    pub fn get(&self, cid: Cid) -> Result<GetReceipt, IpfsError> {
        let mut st = self.network.state();
        Self::get_locked(&mut st, self.id, cid, true)
    }

    /// Fetches `cid` by transferring only the `delta` blob and
    /// reconstructing against the locally-held `base` content: the one-hop
    /// walk of [`IpfsNode::get_with_delta_chain`], which documents the
    /// path, its trust boundary and its one fallback site.
    ///
    /// # Errors
    ///
    /// As [`IpfsNode::get`] (of the fallback full fetch).
    pub fn get_with_delta(
        &self,
        cid: Cid,
        base: Cid,
        delta: Cid,
        reconstruct: impl Fn(&[u8], &[u8]) -> Option<Vec<u8>>,
    ) -> Result<GetReceipt, IpfsError> {
        self.get_with_delta_chain(cid, &[(base, delta)], reconstruct)
    }

    /// Fetches `cid` by walking its delta references back to a base this
    /// node holds, transferring only the deltas on the way.
    ///
    /// `hops[0]` is `cid`'s `(base, delta)` reference and each next hop is
    /// the reference of the base before it, so `hops[k].0` is the release
    /// `k + 1` references back. The walk starts at the nearest base held
    /// in full in the local blockstore, pulls each delta blob from there
    /// to `cid` transiently, farthest first, and applies it:
    /// `reconstruct(base_bytes, delta_bytes)` must return the next
    /// release's bytes (or `None` if the delta does not apply). The
    /// intermediate releases are never hashed, stored or advertised. The
    /// final reconstruction is **verified against `cid`** before being
    /// accepted, stored and advertised, so a wrong or malicious delta
    /// anywhere along the chain can never corrupt the fetch. The fast
    /// path runs once, as for [`IpfsNode::get`]. With deltas on, any
    /// failure of the walk — no base along the chain local, a delta blob
    /// unavailable, a reconstruction refused, verification mismatch — is
    /// counted once in
    /// [`TransferStats::delta_fallbacks`](super::TransferStats::delta_fallbacks);
    /// then, or with deltas off, this one site fetches in full from the wire.
    /// A successful walk counts one
    /// [`TransferStats::delta_fetches`](super::TransferStats::delta_fetches),
    /// however many hops it took. The caller bounds the walk by the
    /// length of `hops`.
    ///
    /// Verification hashes the reconstruction where it lies, leaf by leaf
    /// at [`DEFAULT_CHUNK_SIZE`] (how [`IpfsNode::add`] published it), then
    /// the root block built from those CIDs, without copying it. With each
    /// delta blob's hash on receipt, a one-hop fetch makes two SHA-256
    /// passes over content bytes. Nothing is stored until the root equals
    /// `cid`. Each leaf is then stored as the very buffer a provider of
    /// `cid` holds under that leaf's CID — the buffer a full fetch would
    /// have retained — so a delta fetch adds no resident copy of a block
    /// the fabric already holds. Only a leaf no provider still holds is
    /// stored as an owned copy. Content added through
    /// [`IpfsNode::add_with_chunk_size`] with any other chunk size has a
    /// different root CID and will always take the fallback — use plain
    /// [`IpfsNode::get`] for such content.
    ///
    /// # Errors
    ///
    /// As [`IpfsNode::get`] (of the fallback full fetch).
    pub fn get_with_delta_chain(
        &self,
        cid: Cid,
        hops: &[(Cid, Cid)],
        reconstruct: impl Fn(&[u8], &[u8]) -> Option<Vec<u8>>,
    ) -> Result<GetReceipt, IpfsError> {
        let mut st = self.network.state();
        let st = &mut *st;
        let id = self.id;
        if let Some(receipt) = Self::try_fast_path(st, id, cid, true)? {
            return Ok(receipt);
        }
        if st.transfer.delta {
            if let Some(receipt) = Self::fetch_by_delta(st, id, cid, hops, reconstruct) {
                return Ok(receipt);
            }
            st.stats.delta_fallbacks += 1;
        }
        Self::fetch_remote(st, id, cid, true)
    }

    /// [`IpfsNode::get_with_delta_chain`]'s walk: `None`, with nothing of
    /// `cid` stored, when no base along `hops` is resident, a delta blob
    /// cannot be fetched, `reconstruct` refuses or the root is not `cid`.
    fn fetch_by_delta(
        st: &mut NetworkState,
        id: NodeId,
        cid: Cid,
        hops: &[(Cid, Cid)],
        reconstruct: impl Fn(&[u8], &[u8]) -> Option<Vec<u8>>,
    ) -> Option<GetReceipt> {
        // The nearest base along the chain must be fully resident (and
        // well-formed); with none, a delta transfer cannot help and the
        // full fetch is the cheapest correct path.
        let store = &st.nodes[id.0 as usize].store;
        let (depth, base_data) = hops.iter().enumerate().find_map(|(depth, (base, _))| {
            Some((depth, Self::read_local(store, *base).ok().flatten()?))
        })?;

        // Pull each delta blob through the ordinary (faultable,
        // dedup-aware) machinery, but transiently: single-use payloads are
        // not retained, so resident storage is identical whichever path
        // served the fetch. The walk runs from the base towards `cid`, so
        // the farthest delta applies first; an intermediate release lives
        // only as the input of the next delta.
        let before = st.stats;
        let mut elapsed = SimDuration::ZERO;
        let mut data: Option<Vec<u8>> = None;
        for (_, delta) in hops[..=depth].iter().rev() {
            let delta_receipt = Self::get_locked(st, id, *delta, false).ok()?;
            elapsed += delta_receipt.elapsed;
            let from = data.as_deref().unwrap_or(&base_data);
            data = Some(reconstruct(from, &delta_receipt.data)?);
        }
        let data = data?;
        let delta_logical = st.stats.logical_bytes - before.logical_bytes;
        let delta_physical = st.stats.physical_bytes - before.physical_bytes;

        // The trust boundary of a delta fetch: the final reconstruction is
        // hashed where it lies — every leaf, then the root block built
        // from their CIDs — and that root must be the requested CID before
        // a byte of it is stored, cached or returned.
        let (root, root_block) = hash_in_place(&data, DEFAULT_CHUNK_SIZE);
        (Cid::for_data(&root_block) == cid).then_some(())?;

        // Verified: materialize the full DAG locally (no wire bytes). A
        // leaf goes in as the buffer a provider of `cid` already holds
        // under its CID — so a block has one buffer fabric-wide, as a full
        // fetch leaves it — and as an owned copy only when no provider
        // still holds it. A provider's block is its CID's SHA-256 preimage
        // by the blockstore invariant, so it is these bytes.
        let leaves: Vec<(Cid, Arc<[u8]>)> = root
            .children
            .iter()
            .zip(data.chunks(DEFAULT_CHUNK_SIZE))
            .map(|(leaf, bytes)| {
                let held = st
                    .dht
                    .providers(cid)
                    .find_map(|p| st.nodes[p.0 as usize].store.get(*leaf));
                (*leaf, held.unwrap_or_else(|| Arc::from(bytes)))
            })
            .collect();
        let data = match leaves.as_slice() {
            [(_, leaf)] => leaf.clone(),
            _ => Arc::from(data),
        };
        let full_dag = root_block.len() as u64 + root.total_len;
        let store = &mut st.nodes[id.0 as usize].store;
        for (leaf_cid, leaf) in leaves {
            store.put_keyed(leaf_cid, leaf);
        }
        store.put_keyed(cid, Arc::from(root_block));
        st.dht.provide(cid, id);

        st.stats.logical_bytes += full_dag.saturating_sub(delta_logical);
        st.stats.delta_fetches += 1;
        st.stats.delta_bytes_saved += full_dag.saturating_sub(delta_physical);

        let evictions = &mut st.stats.cache_evictions;
        st.nodes[id.0 as usize].cache.insert(cid, &data, evictions);

        // Reconstruction cost mirrors the add-path hashing model (~1 GB/s).
        let elapsed = elapsed + SimDuration::from_secs_f64(data.len() as f64 / 1.0e9);
        Some(GetReceipt {
            data,
            elapsed,
            local_hit: false,
        })
    }

    /// The shared serve-without-the-wire path, kept in one place so plain
    /// and delta fetches count hits and misses alike: fetch cache, then
    /// local blockstore. `Ok(None)` means the caller must go remote. A
    /// `retain` probe counts its cache lookup and caches a blockstore hit;
    /// a transient one (a delta blob) does neither.
    pub(super) fn try_fast_path(
        st: &mut NetworkState,
        id: NodeId,
        cid: Cid,
        retain: bool,
    ) -> Result<Option<GetReceipt>, IpfsError> {
        if st.transfer.cache_bytes > 0 {
            if let Some(data) = st.nodes[id.0 as usize].cache.get(cid) {
                if retain {
                    st.stats.cache_hits += 1;
                }
                return Ok(Some(GetReceipt {
                    data,
                    elapsed: SimDuration::from_millis(1),
                    local_hit: true,
                }));
            }
            if retain {
                st.stats.cache_misses += 1;
            }
        }
        if let Some(data) = Self::read_local(&st.nodes[id.0 as usize].store, cid)? {
            if retain {
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
    fn read_local(store: &BlockStore, cid: Cid) -> Result<Option<Arc<[u8]>>, IpfsError> {
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
        let mut st = self.network.state();
        st.nodes[self.id.0 as usize].store.pin(cid);
    }

    /// Unpins a DAG.
    pub fn unpin(&self, cid: Cid) {
        let mut st = self.network.state();
        st.nodes[self.id.0 as usize].store.unpin(cid);
    }

    /// Garbage-collects unpinned blocks, removing this node's provider
    /// records for content it no longer holds. Returns blocks removed.
    pub fn gc(&self) -> usize {
        let mut st = self.network.state();
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
        let st = self.network.state();
        Self::read_local(&st.nodes[self.id.0 as usize].store, cid)
            .ok()
            .flatten()
            .is_some()
    }

    /// Cumulative bytes fetched from remote providers.
    pub fn bytes_fetched(&self) -> u64 {
        self.network.state().nodes[self.id.0 as usize].bytes_fetched
    }

    /// Cumulative bytes served to remote peers. Counts wire bytes, not
    /// blob bytes: each transfer includes per-chunk framing overhead on
    /// top of the payload, so a single served blob reports slightly more
    /// than its length. A fetcher that retained the content answers later
    /// gets locally — repeat fetches add nothing here.
    pub fn bytes_served(&self) -> u64 {
        self.network.state().nodes[self.id.0 as usize].bytes_served
    }

    /// Cumulative bytes forwarded for other nodes as an overlay relay.
    pub fn bytes_relayed(&self) -> u64 {
        self.network.state().nodes[self.id.0 as usize].bytes_relayed
    }

    /// Total wire load this node carried: fetched + served + relayed.
    pub fn wire_bytes(&self) -> u64 {
        let st = self.network.state();
        let node = &st.nodes[self.id.0 as usize];
        node.bytes_fetched + node.bytes_served + node.bytes_relayed
    }
}

impl std::fmt::Debug for IpfsNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IpfsNode").field("id", &self.id).finish()
    }
}
