//! Property-based tests of the storage substrate's invariants.

use proptest::prelude::*;
use unifyfl_storage::chunker::{chunk, decode_root, reassemble};
use unifyfl_storage::cid::{base58_decode, base58_encode, Cid};
use unifyfl_storage::{IpfsNetwork, LinkProfile, StorageFaults};

proptest! {
    /// Base58 encode/decode is the identity on arbitrary byte strings.
    #[test]
    fn base58_round_trips(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        let enc = base58_encode(&data);
        prop_assert_eq!(base58_decode(&enc).unwrap(), data);
    }

    /// CID string form round-trips and always carries the Qm prefix.
    #[test]
    fn cid_string_round_trips(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let cid = Cid::for_data(&data);
        let s = cid.to_string();
        prop_assert!(s.starts_with("Qm"));
        prop_assert_eq!(s.parse::<Cid>().unwrap(), cid);
    }

    /// Chunk + reassemble is the identity for any content and chunk size,
    /// and every root `chunk` builds decodes back to its length and its
    /// leaves' CIDs, in order.
    #[test]
    fn chunking_round_trips(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        chunk_size in 1usize..1024,
    ) {
        let file = chunk(&data, chunk_size);
        let root = decode_root(&file.root_block).expect("root decodes");
        prop_assert_eq!(root.total_len, data.len() as u64);
        let leaves: Vec<Cid> = file.leaves.iter().map(|(cid, _)| *cid).collect();
        prop_assert_eq!(&root.children, &leaves);
        let store: std::collections::HashMap<_, _> = file.leaves.iter().cloned().collect();
        let out = reassemble(&root, |c| store.get(&c).cloned()).unwrap();
        prop_assert_eq!(out[..], data[..]);
    }

    /// `decode_root` over arbitrary bytes — raw, and behind the root magic
    /// with a declared child count that is honest, one too many, one too
    /// few or wild — never panics, and any block it accepts re-encodes to
    /// exactly the bytes it came from.
    #[test]
    fn decode_root_never_panics_and_re_encodes_what_it_accepts(
        body in proptest::collection::vec(any::<u8>(), 0..300),
        total_len in any::<u64>(),
        count_kind in 0usize..4,
        wild in any::<u32>(),
    ) {
        let whole = body.len() / 32;
        let count = match count_kind {
            0 => whole as u32,
            1 => whole as u32 + 1,
            2 => (whole as u32).saturating_sub(1),
            _ => wild,
        };
        // Magic, big-endian length and count, then the children's digests.
        let mut framed = b"UFLDAGv0".to_vec();
        framed.extend_from_slice(&total_len.to_be_bytes());
        framed.extend_from_slice(&count.to_be_bytes());
        framed.extend_from_slice(&body[..whole * 32]);
        if count_kind == 0 {
            prop_assert!(decode_root(&framed).is_some(), "an honest count decodes");
        }
        for block in [&body, &framed] {
            if let Some(root) = decode_root(block) {
                prop_assert_eq!(&root.encode(), block);
            }
        }
    }

    /// Content added on any node is fetchable from any other node, intact.
    #[test]
    fn network_fetch_is_faithful(
        data in proptest::collection::vec(any::<u8>(), 1..2048),
        adder in 0usize..3,
        getter in 0usize..3,
    ) {
        prop_assume!(adder != getter);
        let net = IpfsNetwork::new();
        let nodes: Vec<_> = (0..3).map(|_| net.add_node(LinkProfile::lan())).collect();
        let receipt = nodes[adder].add_with_chunk_size(&data, 256);
        let got = nodes[getter].get(receipt.cid).unwrap();
        prop_assert_eq!(got.data[..], data[..]);
    }

    /// Under injected chunk loss a fetch is all-or-nothing: it either
    /// reconstructs the original bytes exactly or returns an error — never
    /// truncated or corrupted data — and the loss/retry accounting stays
    /// consistent with what was observed.
    #[test]
    fn chunk_loss_never_truncates(
        data in proptest::collection::vec(any::<u8>(), 1..4096),
        fault_seed in any::<u64>(),
        loss_pct in 0u32..=100,
        retries in 0u32..4,
    ) {
        let net = IpfsNetwork::new();
        let adder = net.add_node(LinkProfile::lan());
        let getter = net.add_node(LinkProfile::lan());
        let receipt = adder.add_with_chunk_size(&data, 256);
        net.install_faults(StorageFaults::new(
            fault_seed,
            0.0,
            f64::from(loss_pct) / 100.0,
            retries,
        ));
        match getter.get(receipt.cid) {
            Ok(got) => prop_assert_eq!(got.data[..], data[..], "reconstruction must be exact"),
            Err(e) => prop_assert!(
                matches!(e, unifyfl_storage::IpfsError::ChunkLoss(_)),
                "only retry exhaustion may fail here: {}", e
            ),
        }
        let stats = net.fault_stats().expect("injector installed");
        // Retries never exceed losses, and the budget bounds each chunk.
        prop_assert!(stats.chunk_retries <= stats.chunk_losses);
        prop_assert!(stats.chunk_losses <= stats.chunk_retries + stats.exhausted_fetches);
        if loss_pct == 0 {
            prop_assert_eq!(stats.chunk_losses, 0);
        }
    }

    /// Distinct content yields distinct CIDs (collision resistance at the
    /// API level).
    #[test]
    fn distinct_content_distinct_cids(
        a in proptest::collection::vec(any::<u8>(), 0..64),
        b in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        prop_assume!(a != b);
        prop_assert_ne!(Cid::for_data(&a), Cid::for_data(&b));
    }
}

proptest! {
    /// Dedup never changes fetched bytes: for arbitrary content pairs with
    /// arbitrary chunk-level overlap, a fetch with dedup (and the cache)
    /// enabled returns byte-identical data to the naive path — only the
    /// wire accounting differs.
    #[test]
    fn dedup_never_changes_fetched_bytes(
        shared in proptest::collection::vec(any::<u8>(), 0..1024),
        tail_a in proptest::collection::vec(any::<u8>(), 1..512),
        tail_b in proptest::collection::vec(any::<u8>(), 1..512),
        chunk_size in 1usize..300,
        cache in any::<bool>(),
    ) {
        use unifyfl_storage::TransferConfig;

        let mut a = shared.clone();
        a.extend(&tail_a);
        let mut b = shared.clone();
        b.extend(&tail_b);

        let fetch_both = |config: TransferConfig| {
            let net = IpfsNetwork::new();
            net.configure_transfer(config, 11);
            let adder = net.add_node(LinkProfile::lan());
            let getter = net.add_node(LinkProfile::lan());
            let ra = adder.add_with_chunk_size(&a, chunk_size);
            let rb = adder.add_with_chunk_size(&b, chunk_size);
            let got_a = getter.get(ra.cid).unwrap().data;
            let got_b = getter.get(rb.cid).unwrap().data;
            (got_a, got_b, net.transfer_stats())
        };

        let naive = fetch_both(TransferConfig::disabled());
        let optimized = fetch_both(TransferConfig {
            dedup: true,
            delta: false,
            cache_bytes: if cache { 1 << 20 } else { 0 },
        });

        prop_assert_eq!(naive.0[..], a[..]);
        prop_assert_eq!(naive.1[..], b[..]);
        prop_assert_eq!(&optimized.0, &naive.0, "dedup changed fetched bytes");
        prop_assert_eq!(&optimized.1, &naive.1, "dedup changed fetched bytes");
        // Dedup only ever removes wire bytes, and both paths agree on the
        // logical volume.
        prop_assert_eq!(optimized.2.logical_bytes, naive.2.logical_bytes);
        prop_assert!(optimized.2.physical_bytes <= naive.2.physical_bytes);
        prop_assert_eq!(
            optimized.2.physical_bytes + optimized.2.dedup_bytes_saved,
            optimized.2.logical_bytes
        );
    }
}

proptest! {
    /// The blockstore invariant the local read path rests on: after any
    /// sequence of add / get / get_with_delta / gc over a routed fabric
    /// with faults installed — lying reconstructions included — every key
    /// in every node's store is still the SHA-256 of its value, and every
    /// fetch that succeeded returned exactly the published bytes.
    #[test]
    fn every_stored_key_hashes_its_value(
        ops in proptest::collection::vec((0u8..4, 0usize..4, any::<u8>(), any::<u8>()), 8..64),
        fault_seed in any::<u64>(),
        chunk_size in 16usize..400,
    ) {
        use unifyfl_storage::{GossipConfig, GossipTopology};

        let net = IpfsNetwork::new();
        let nodes: Vec<_> = (0..4).map(|_| net.add_node(LinkProfile::lan())).collect();
        let gossip = GossipConfig::new(1).with_swarm(2);
        net.install_topology(gossip, GossipTopology::derive(&gossip, fault_seed, &[0; 4]));

        // Toy delta format: (position, byte) patches against the base.
        let patch = |base: &[u8], delta: &[u8]| {
            let mut out = base.to_vec();
            *out.get_mut(delta[0] as usize)? = delta[1];
            Some(out)
        };
        // Every published version: (cid, bytes, delta reference). Deltas
        // only reconstruct content published at the default chunk size, so
        // every fourth version goes out at `chunk_size` and always takes the
        // fallback.
        let first: Vec<u8> = (0..600u32).map(|i| (i % 251) as u8).collect();
        let mut versions = vec![(nodes[0].add(&first).cid, first, None)];
        net.install_faults(StorageFaults::new(fault_seed, 0.15, 0.15, 1));

        for (op, node, pick, tweak) in ops {
            let node = &nodes[node];
            let (cid, data, delta_ref) = versions[pick as usize % versions.len()].clone();
            match op {
                0 => {
                    let delta = [pick, tweak];
                    let next = patch(&data, &delta).expect("in range");
                    let published = if versions.len() % 4 != 0 {
                        node.add(&next)
                    } else {
                        node.add_with_chunk_size(&next, chunk_size)
                    };
                    let delta_cid = node.add(&delta).cid;
                    versions.push((published.cid, next, Some((cid, delta_cid))));
                }
                1 => {
                    if let Ok(got) = node.get(cid) {
                        prop_assert_eq!(got.data[..], data[..]);
                    }
                }
                2 => {
                    let Some((base, delta)) = delta_ref else { continue };
                    let lie = tweak % 3 == 0;
                    let got = node.get_with_delta(cid, base, delta, |b, d| {
                        if lie { Some(vec![tweak; 40]) } else { patch(b, d) }
                    });
                    if let Ok(got) = got {
                        prop_assert_eq!(got.data[..], data[..]);
                    }
                }
                _ => {
                    node.unpin(cid);
                    node.gc();
                }
            }
        }
        prop_assert_eq!(net.first_corrupt_block(), None);
    }
}
