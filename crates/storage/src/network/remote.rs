//! The remote half of a fetch: ranking providers, choosing routes and
//! swarm branches, moving the blocks, pricing the transfer and booking
//! who served, relayed and received what.

use rand::Rng;
use std::sync::Arc;
use unifyfl_sim::SimDuration;

use super::fabric::NetworkState;
use super::fetch::{GetReceipt, IpfsError, IpfsNode};
use crate::chunker::{decode_root, reassemble};
use crate::cid::Cid;
use crate::dht::NodeId;

/// Cost charged for a DHT provider lookup.
const DHT_LOOKUP_COST: SimDuration = SimDuration::from_millis(20);

impl IpfsNode {
    /// A fetch under the lock: the fast path, then [`IpfsNode::fetch_remote`].
    pub(super) fn get_locked(
        st: &mut NetworkState,
        id: NodeId,
        cid: Cid,
        retain: bool,
    ) -> Result<GetReceipt, IpfsError> {
        if let Some(receipt) = Self::try_fast_path(st, id, cid, retain)? {
            return Ok(receipt);
        }
        Self::fetch_remote(st, id, cid, retain)
    }

    /// Fetches `cid` from its best-ranked provider once the fast path has
    /// missed. With `retain` the verified blocks are stored, advertised and
    /// cached; without it (a delta blob) only the wire accounting remains.
    pub(super) fn fetch_remote(
        st: &mut NetworkState,
        id: NodeId,
        cid: Cid,
        retain: bool,
    ) -> Result<GetReceipt, IpfsError> {
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
        let mut blocks: Vec<(Cid, Arc<[u8]>)> = vec![(cid, root_block.clone())];
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
            if retain {
                for (block_cid, block) in blocks {
                    node.store.put_keyed(block_cid, block);
                }
            }
        }
        if retain {
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
}
