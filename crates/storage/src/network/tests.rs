//! Unit tests of the fabric, through its public surface and the state
//! behind its lock.

use std::sync::Arc;
use unifyfl_sim::SimDuration;

use super::*;
use crate::chunker::{chunk, DEFAULT_CHUNK_SIZE};
use crate::cid::Cid;
use crate::dht::NodeId;
use crate::topology::{GossipConfig, GossipTopology};

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
    assert_eq!(got.data[..], data[..]);
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
fn unpinning_one_root_keeps_a_leaf_another_pinned_root_shares() {
    let (_, nodes) = fabric(1);
    let shared = [7u8; 256];
    let a = nodes[0].add_with_chunk_size(&[&shared[..], &[1; 100]].concat(), 256);
    let b = nodes[0].add_with_chunk_size(&[&shared[..], &[2; 100]].concat(), 256);
    nodes[0].unpin(a.cid);
    assert_eq!(nodes[0].gc(), 2, "a's root and its own leaf go");
    assert!(!nodes[0].has_local(a.cid));
    assert!(nodes[0].has_local(b.cid), "the shared leaf stays with b");
}

#[test]
fn a_root_pinned_before_it_arrives_keeps_its_leaves() {
    let (_, nodes) = fabric(2);
    let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
    let receipt = nodes[0].add_with_chunk_size(&data, 256);
    nodes[1].pin(receipt.cid);
    nodes[1].get(receipt.cid).unwrap();
    assert_eq!(nodes[1].gc(), 0);
    assert!(nodes[1].has_local(receipt.cid));
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
    assert_eq!(got.data[..], data[..], "reconstruction is exact");
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
    assert_eq!(nodes[1].get(receipt.cid).unwrap().data[..], data[..]);
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
    assert_eq!(nodes[1].get(receipt.cid).unwrap().data[..], data[..]);
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
    assert_eq!(got.data[..], b[..], "dedup never changes fetched bytes");
    let after = net.transfer_stats();
    assert!(
        after.dedup_chunks_skipped > before.dedup_chunks_skipped,
        "shared chunks were reused"
    );
    assert!(
        after.physical_bytes - before.physical_bytes < after.logical_bytes - before.logical_bytes,
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
    assert_eq!(got.data[..], new[..], "reconstruction is exact");
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
    // Every way a delta fetch can fall back, and deltas off. Each serves
    // the content in full with one counted cache lookup, keeps neither
    // the delta blob nor a rejected reconstruction, and leaves the content
    // local; only a fallback with deltas on counts in `delta_fallbacks`.
    type Reconstruct = fn(&[u8], &[u8]) -> Option<Vec<u8>>;
    let ghost = Cid::for_data(b"never stored");
    let rejected = chunk(&[1, 2, 3], DEFAULT_CHUNK_SIZE);
    let cases: [(&str, bool, bool, bool, Reconstruct); 5] = [
        ("deltas off", false, true, true, flip_byte),
        ("base not local", true, false, true, |_, _| unreachable!()),
        ("delta missing", true, true, false, |_, _| unreachable!()),
        ("refused", true, true, true, |_, _| None),
        ("wrong root", true, true, true, |_, _| Some(vec![1, 2, 3])),
    ];
    for (cause, delta_on, base_held, delta_published, reconstruct) in cases {
        let (net, nodes) = fabric(2);
        let transfer = TransferConfig {
            delta: delta_on,
            ..TransferConfig::default()
        };
        net.configure_transfer(transfer, 3);
        let (base, next, delta, _) = delta_scenario(&nodes);
        let base = if base_held { base } else { ghost };
        let delta = if delta_published { delta } else { ghost };
        let content = nodes[0].get(next).unwrap().data;
        let before = net.transfer_stats();
        let got = nodes[1]
            .get_with_delta(next, base, delta, reconstruct)
            .unwrap();
        let after = net.transfer_stats();
        assert_eq!(got.data, content, "{cause}: the content, in full");
        assert_eq!(after.cache_misses - before.cache_misses, 1, "{cause}");
        assert_eq!(after.cache_hits, before.cache_hits, "{cause}");
        let fallbacks = after.delta_fallbacks - before.delta_fallbacks;
        assert_eq!(fallbacks, u64::from(delta_on), "{cause}");
        assert_eq!(after.delta_fetches, before.delta_fetches, "{cause}");
        assert!(!nodes[1].has_local(delta), "{cause}: delta blob kept");
        // Not a byte of the rejected reconstruction was stored.
        assert!(!nodes[1].has_local(rejected.root), "{cause}");
        assert!(!nodes[1].has_local(rejected.leaves[0].0), "{cause}");
        assert_eq!(net.first_corrupt_block(), None, "{cause}");
        assert!(nodes[1].get(next).unwrap().local_hit, "{cause}");
    }
}

/// A published one-leaf model, its successor and a toy delta between
/// them (`[index]`: flip that byte), all added by node 0, with node 1
/// holding the base: `(base, next, delta, next's leaf)` CIDs.
fn delta_scenario(nodes: &[IpfsNode]) -> (Cid, Cid, Cid, Cid) {
    let base: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
    let mut next = base.clone();
    next[17] ^= 0xFF;
    let base_cid = nodes[0].add(&base).cid;
    let next_cid = nodes[0].add(&next).cid;
    let delta_cid = nodes[0].add(&[17]).cid;
    nodes[1].get(base_cid).unwrap();
    let leaf = chunk(&next, DEFAULT_CHUNK_SIZE).leaves[0].0;
    (base_cid, next_cid, delta_cid, leaf)
}

fn flip_byte(base: &[u8], delta: &[u8]) -> Option<Vec<u8>> {
    let mut out = base.to_vec();
    out[usize::from(delta[0])] ^= 0xFF;
    Some(out)
}

/// The toy deltas of [`release_chain`]: `(index, byte)` pairs to set. Two
/// of them set byte 17, so the order deltas apply in matters.
const CHAIN_EDITS: [&[u8]; 3] = [&[17, 0xA1, 40, 0xC1], &[17, 0xA2], &[17, 0xA3, 60, 0xD3]];

fn set_bytes(base: &[u8], delta: &[u8]) -> Option<Vec<u8>> {
    let mut out = base.to_vec();
    for edit in delta.chunks_exact(2) {
        out[usize::from(edit[0])] = edit[1];
    }
    Some(out)
}

/// Four one-leaf releases of one publisher and the three deltas between
/// them (`deltas[k]` turns `releases[k]` into `releases[k + 1]`), all added
/// by node 0, with node 1 holding `releases[0]` only.
fn release_chain(nodes: &[IpfsNode]) -> ([Cid; 4], [Cid; 3]) {
    let mut release: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
    let mut releases = [nodes[0].add(&release).cid; 4];
    let mut deltas = [Cid::for_data(b""); 3];
    for (k, edits) in CHAIN_EDITS.iter().enumerate() {
        release = set_bytes(&release, edits).unwrap();
        releases[k + 1] = nodes[0].add(&release).cid;
        deltas[k] = nodes[0].add(edits).cid;
    }
    nodes[1].get(releases[0]).unwrap();
    (releases, deltas)
}

#[test]
fn a_delta_walk_moves_the_deltas_back_to_a_held_base_or_falls_back_once() {
    // The fetched release's `(base, delta)` reference and its base's, as
    // `(release, delta)` indices into `release_chain`; the fetcher holds
    // release 0. A walk moves the deltas only; every other row serves the
    // content in full after exactly one counted fallback. Either way the
    // fetcher ends up holding what a plain full fetch leaves: no delta
    // blob, no intermediate release, no rejected reconstruction.
    type Row = (&'static str, usize, [(usize, usize); 2], bool);
    let cases: [Row; 4] = [
        ("base two back", 2, [(1, 1), (0, 0)], true),
        ("base three back", 3, [(2, 2), (1, 1)], false),
        ("wrong middle delta", 2, [(1, 1), (0, 2)], false),
        ("cid its own ancestor", 2, [(1, 1), (2, 1)], false),
    ];
    for (cause, fetched, hops, walks) in cases {
        let (net, nodes) = fabric(3);
        net.configure_transfer(TransferConfig::default(), 3);
        let (releases, deltas) = release_chain(&nodes);
        let cid = releases[fetched];
        let hops = hops.map(|(release, delta)| (releases[release], deltas[delta]));
        let content = nodes[0].get(cid).unwrap().data;
        let before = net.transfer_stats();
        let got = nodes[1]
            .get_with_delta_chain(cid, &hops, set_bytes)
            .unwrap();
        let after = net.transfer_stats();
        assert_eq!(got.data, content, "{cause}: the content, in full");
        assert_eq!(after.cache_misses - before.cache_misses, 1, "{cause}");
        let fetches = after.delta_fetches - before.delta_fetches;
        assert_eq!(fetches, u64::from(walks), "{cause}");
        let fallbacks = after.delta_fallbacks - before.delta_fallbacks;
        assert_eq!(fallbacks, u64::from(!walks), "{cause}");
        if walks {
            let dag = |e: &&[u8]| (chunk(e, DEFAULT_CHUNK_SIZE).root_block.len() + e.len()) as u64;
            let blobs = CHAIN_EDITS[..fetched].iter().map(dag).sum();
            let moved = after.physical_bytes - before.physical_bytes;
            assert_eq!(moved, blobs, "{cause}: the two delta blobs, nothing else");
        }
        for (k, release) in releases.iter().enumerate() {
            let held = k == 0 || k == fetched;
            assert_eq!(nodes[1].has_local(*release), held, "{cause}: release {k}");
        }
        for delta in deltas {
            assert!(!nodes[1].has_local(delta), "{cause}: delta blob kept");
        }
        // Resident storage is what a full fetch of the same content leaves.
        nodes[2].get(releases[0]).unwrap();
        nodes[2].get(cid).unwrap();
        let st = net.state();
        let (fetcher, reference) = (&st.nodes[1].store, &st.nodes[2].store);
        assert_eq!(fetcher.len(), reference.len(), "{cause}");
        assert_eq!(fetcher.total_bytes(), reference.total_bytes(), "{cause}");
        drop(st);
        assert_eq!(net.first_corrupt_block(), None, "{cause}");
        assert!(nodes[1].get(cid).unwrap().local_hit, "{cause}");
    }
}

#[test]
fn a_delta_fetch_stores_the_providers_leaf_buffer() {
    let (net, nodes) = fabric(2);
    let (base, next, delta, leaf) = delta_scenario(&nodes);
    nodes[1]
        .get_with_delta(next, base, delta, flip_byte)
        .unwrap();
    assert_eq!(net.transfer_stats().delta_fetches, 1);
    let st = net.state();
    let provider = st.nodes[0]
        .store
        .get(leaf)
        .expect("publisher holds the leaf");
    let fetcher = st.nodes[1]
        .store
        .get(leaf)
        .expect("fetch retained the leaf");
    assert!(
        Arc::ptr_eq(&provider, &fetcher),
        "one buffer per block: the fetcher keeps no copy of its own"
    );
    drop(st);
    assert_eq!(net.first_corrupt_block(), None);
}

#[test]
fn a_delta_fetch_no_provider_can_share_stores_an_owned_copy_that_verifies() {
    let (net, nodes) = fabric(2);
    let (base, next, delta, leaf) = delta_scenario(&nodes);
    // The publisher drops the successor but its provider record lingers:
    // the record names a node that no longer holds the leaf.
    nodes[0].unpin(next);
    nodes[0].gc();
    net.state().dht.provide(next, nodes[0].id());
    assert!(!nodes[0].has_local(next));

    let got = nodes[1]
        .get_with_delta(next, base, delta, flip_byte)
        .unwrap();
    assert_eq!(net.transfer_stats().delta_fetches, 1);
    assert!(nodes[1].has_local(next));
    let st = net.state();
    let owned = st.nodes[1]
        .store
        .get(leaf)
        .expect("fetch retained the leaf");
    assert!(leaf.verifies(&owned));
    assert!(
        Arc::ptr_eq(&owned, &got.data),
        "stored, cached and returned as one buffer"
    );
    drop(st);
    assert_eq!(net.first_corrupt_block(), None);
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
        net.state().dht.provide(cid, nodes[0].id());
        let err = nodes[1].get(cid).unwrap_err();
        assert!(matches!(err, IpfsError::Corrupt(_)), "{err}");
        let st = net.state();
        assert!(st.nodes[1].store.is_empty(), "nothing retained");
        assert_eq!(st.nodes[1].cache.resident, 0, "nothing cached");
    }
}

/// Where the node's copy of `cid`'s block lives.
fn resident_at(net: &IpfsNetwork, node: &IpfsNode, cid: Cid) -> *const u8 {
    let st = net.state();
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
    assert_eq!(remote.data[..], data[..]);
    assert_eq!(resident_at(&net, &nodes[1], leaf), published);
    assert_eq!(nodes[1].get(cid).unwrap().data.as_ptr(), published);
    assert_eq!(net.transfer_stats().cache_resident_bytes, 2 * 10_000);

    // Delta fetch: the verified leaf is stored, cached and returned as
    // one buffer.
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
    assert_eq!(rebuilt.data[..], next[..]);
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
            assert_eq!(first.data[..], data[..]);
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
    assert_eq!(hit.data[..], data[..]);
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
        net.state().nodes[0]
            .store
            .put_unchecked(victim, Arc::from(&b"not the block you asked for"[..]));
        assert_eq!(net.first_corrupt_block(), Some((NodeId(0), victim)));

        let err = nodes[1].get(receipt.cid).unwrap_err();
        assert!(matches!(err, IpfsError::Corrupt(_)), "{err}");
        let st = net.state();
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
        let mut st = net.state();
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
        let fetchers: Vec<IpfsNode> = (0..16).map(|_| net.add_node(LinkProfile::edge())).collect();
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
    assert_eq!(got.data[..], data[..], "routing never changes the bytes");

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
    assert_eq!(got.data[..], data[..]);
    let servers = nodes[..3].iter().filter(|n| n.bytes_served() > 0).count();
    assert!(servers >= 2, "chunks swarm from multiple providers");
    assert_eq!(
        nodes.iter().map(|n| n.bytes_served()).sum::<u64>(),
        net.transfer_stats().physical_bytes,
        "every transferred byte is attributed to exactly one server"
    );
}
