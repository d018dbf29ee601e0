//! Per-node block storage with pinning and garbage collection.
//!
//! Each IPFS node owns a [`BlockStore`]: a CID-addressed map of raw blocks.
//! Pinning protects a DAG (root + leaves) from [`BlockStore::gc`], matching
//! the `ipfs pin` semantics the paper's aggregators rely on to keep their
//! published model weights available.

use std::sync::Arc;

use crate::chunker::decode_root;
use crate::cid::{Cid, CidMap, CidSet};

/// A CID-addressed block store.
///
/// **Invariant: every key is the SHA-256 of its value.** The only ways in
/// are [`BlockStore::put`], which derives the key by hashing, and the
/// crate-private keyed insert, whose callers have just computed or verified
/// the CID themselves (chunking on publish, verification on wire receipt,
/// re-chunking a delta reconstruction). Local reads rely on it and do not
/// hash again — go-ipfs's `HashOnRead = false` default: verify on receipt,
/// not on local read. [`BlockStore::first_corrupt`] audits it.
///
/// Pins are the pinned CIDs and nothing else. What a recursive pin
/// protects is worked out when [`BlockStore::gc`] runs, by walking the
/// pinned roots present then (go-ipfs's pinner does the same), so a leaf
/// two roots share stays while either is pinned, and a root pinned before
/// it arrived protects its children once it has.
#[derive(Debug, Default)]
pub struct BlockStore {
    blocks: CidMap<Arc<[u8]>>,
    pinned: CidSet,
}

impl BlockStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a block under its CID; returns the CID.
    pub fn put(&mut self, data: Arc<[u8]>) -> Cid {
        let cid = Cid::for_data(&data);
        self.put_keyed(cid, data);
        cid
    }

    /// Stores a block whose CID the caller has just computed or verified,
    /// without hashing it again.
    pub(crate) fn put_keyed(&mut self, cid: Cid, data: Arc<[u8]>) {
        debug_assert!(cid.verifies(&data), "blockstore key must hash its value");
        self.blocks.insert(cid, data);
    }

    /// Audits the store invariant: the first key (in CID order) that is not
    /// the SHA-256 of its value, or `None` when the store is sound.
    pub fn first_corrupt(&self) -> Option<Cid> {
        self.blocks
            .iter()
            .filter(|(cid, data)| !cid.verifies(data))
            .map(|(cid, _)| *cid)
            .min()
    }

    /// Plants `data` under a key it does not hash to — a provider serving
    /// bad bytes, which nothing outside a test can construct.
    #[cfg(test)]
    pub(crate) fn put_unchecked(&mut self, cid: Cid, data: Arc<[u8]>) {
        self.blocks.insert(cid, data);
    }

    /// Retrieves a block.
    pub fn get(&self, cid: Cid) -> Option<Arc<[u8]>> {
        self.blocks.get(&cid).cloned()
    }

    /// True if the block is present locally.
    pub fn has(&self, cid: Cid) -> bool {
        self.blocks.contains_key(&cid)
    }

    /// Number of blocks stored.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if the store holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Total bytes stored.
    pub fn total_bytes(&self) -> u64 {
        self.blocks.values().map(|b| b.len() as u64).sum()
    }

    /// Pins `cid` recursively (`ipfs pin add -r`): if it is a DAG root, its
    /// children are kept too. It may be pinned before it is present.
    pub fn pin(&mut self, cid: Cid) {
        self.pinned.insert(cid);
    }

    /// Removes a pin. A block another pinned root links stays protected.
    pub fn unpin(&mut self, cid: Cid) {
        self.pinned.remove(&cid);
    }

    /// Garbage-collects every block no present pinned DAG reaches; returns
    /// how many were removed.
    pub fn gc(&mut self) -> usize {
        let before = self.blocks.len();
        let mut keep = self.pinned.clone();
        for cid in &self.pinned {
            if let Some(root) = self.blocks.get(cid).and_then(|block| decode_root(block)) {
                keep.extend(root.children);
            }
        }
        self.blocks.retain(|cid, _| keep.contains(cid));
        before - self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunker::chunk;

    #[test]
    fn put_get_round_trip() {
        let mut bs = BlockStore::new();
        let cid = bs.put(Arc::from(&b"block data"[..]));
        assert_eq!(bs.get(cid).unwrap(), Arc::from(&b"block data"[..]));
        assert!(bs.has(cid));
        assert_eq!(bs.len(), 1);
        assert_eq!(bs.total_bytes(), 10);
    }

    #[test]
    fn gc_removes_only_unpinned() {
        let mut bs = BlockStore::new();
        let keep = bs.put(Arc::from(&b"keep"[..]));
        let _drop = bs.put(Arc::from(&b"drop"[..]));
        bs.pin(keep);
        let removed = bs.gc();
        assert_eq!(removed, 1);
        assert!(bs.has(keep));
        assert_eq!(bs.len(), 1);
    }

    #[test]
    fn recursive_pin_protects_dag() {
        let data = vec![3u8; 1000];
        let file = chunk(&data, 256);
        // Identical chunks dedup to one block: count distinct CIDs.
        let distinct_leaves: CidSet = file.leaves.iter().map(|(c, _)| *c).collect();
        let mut bs = BlockStore::new();
        for (_, leaf) in &file.leaves {
            bs.put(leaf.clone());
        }
        bs.put(file.root_block.clone());
        bs.pin(file.root);
        assert_eq!(bs.gc(), 0, "whole DAG survives GC");
        assert_eq!(bs.len(), 1 + distinct_leaves.len());

        bs.unpin(file.root);
        assert_eq!(bs.gc(), 1 + distinct_leaves.len());
        assert!(bs.is_empty());
    }

    #[test]
    fn unpin_unknown_is_noop() {
        let mut bs = BlockStore::new();
        let cid = Cid::for_data(b"ghost");
        bs.unpin(cid);
        assert!(!bs.has(cid));
        assert_eq!(bs.gc(), 0);
    }

    #[test]
    fn speculative_pin_applies_when_block_arrives() {
        let mut bs = BlockStore::new();
        let cid = Cid::for_data(b"later");
        bs.pin(cid);
        bs.put(Arc::from(&b"later"[..]));
        assert_eq!(bs.gc(), 0);
        assert!(bs.has(cid));
    }

    #[test]
    fn duplicate_put_dedupes() {
        let mut bs = BlockStore::new();
        let a = bs.put(Arc::from(&b"same"[..]));
        let b = bs.put(Arc::from(&b"same"[..]));
        assert_eq!(a, b);
        assert_eq!(bs.len(), 1);
    }
}
