//! Provider records: who has which content.
//!
//! Stands in for the Kademlia DHT: a global index mapping CIDs to the set
//! of nodes advertising them. Real IPFS resolves providers with O(log n)
//! routing hops; the fetch cost model in [`crate::network`] charges a
//! lookup latency for that instead of simulating the routing table.

use std::collections::BTreeSet;

use crate::cid::{Cid, CidMap};

/// Identifier of an IPFS node within a network fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// The provider index.
#[derive(Debug, Default)]
pub struct ProviderIndex {
    providers: CidMap<BTreeSet<NodeId>>,
}

impl ProviderIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `node` can serve `cid`.
    pub fn provide(&mut self, cid: Cid, node: NodeId) {
        self.providers.entry(cid).or_default().insert(node);
    }

    /// Removes a provider record (e.g. after the node GCs the block).
    pub fn unprovide(&mut self, cid: Cid, node: NodeId) {
        if let Some(set) = self.providers.get_mut(&cid) {
            set.remove(&node);
            if set.is_empty() {
                self.providers.remove(&cid);
            }
        }
    }

    /// Nodes currently advertising `cid`, in deterministic (sorted) order.
    ///
    /// Borrowing iterator rather than an owned `Vec`: provider resolution
    /// runs on every fetch, and at 1,000 clusters the release CIDs carry
    /// provider sets of federation size — cloning one per lookup made the
    /// hot path O(n) allocations deep. Callers that need ownership can
    /// still `.collect()`.
    pub fn providers(&self, cid: Cid) -> impl Iterator<Item = NodeId> + '_ {
        self.providers
            .get(&cid)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// CIDs a given node currently advertises (used to withdraw records
    /// after garbage collection).
    pub fn records_for_node(&self, node: NodeId) -> Vec<Cid> {
        let mut cids: Vec<Cid> = self
            .providers
            .iter()
            .filter(|(_, set)| set.contains(&node))
            .map(|(cid, _)| *cid)
            .collect();
        cids.sort();
        cids
    }

    /// Number of distinct CIDs with at least one provider.
    pub fn len(&self) -> usize {
        self.providers.len()
    }

    /// True if no provider records exist.
    pub fn is_empty(&self) -> bool {
        self.providers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(s: &str) -> Cid {
        Cid::for_data(s.as_bytes())
    }

    #[test]
    fn provide_and_lookup() {
        let mut idx = ProviderIndex::new();
        idx.provide(cid("a"), NodeId(2));
        idx.provide(cid("a"), NodeId(1));
        idx.provide(cid("b"), NodeId(3));
        assert_eq!(
            idx.providers(cid("a")).collect::<Vec<_>>(),
            vec![NodeId(1), NodeId(2)]
        );
        assert_eq!(idx.providers(cid("b")).collect::<Vec<_>>(), vec![NodeId(3)]);
        assert_eq!(idx.providers(cid("missing")).count(), 0);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn provide_is_idempotent() {
        let mut idx = ProviderIndex::new();
        idx.provide(cid("a"), NodeId(1));
        idx.provide(cid("a"), NodeId(1));
        assert_eq!(idx.providers(cid("a")).count(), 1);
    }

    #[test]
    fn unprovide_removes_record_and_empty_entries() {
        let mut idx = ProviderIndex::new();
        idx.provide(cid("a"), NodeId(1));
        idx.unprovide(cid("a"), NodeId(1));
        assert_eq!(idx.providers(cid("a")).count(), 0);
        assert!(idx.is_empty());
        // Unproviding again is a no-op.
        idx.unprovide(cid("a"), NodeId(1));
    }

    #[test]
    fn provider_order_is_deterministic_regardless_of_insertion_order() {
        // The fetch path resolves providers through this iterator and
        // tie-breaks on NodeId, so its order must be a pure function of the
        // set's *contents* — never of insertion history.
        let forward = {
            let mut idx = ProviderIndex::new();
            for n in 0..16 {
                idx.provide(cid("w"), NodeId(n));
            }
            idx.providers(cid("w")).collect::<Vec<_>>()
        };
        let backward = {
            let mut idx = ProviderIndex::new();
            for n in (0..16).rev() {
                idx.provide(cid("w"), NodeId(n));
            }
            idx.providers(cid("w")).collect::<Vec<_>>()
        };
        assert_eq!(forward, backward);
        let mut sorted = forward.clone();
        sorted.sort();
        assert_eq!(forward, sorted, "providers iterate in ascending NodeId");
    }
}
