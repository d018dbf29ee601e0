//! The fabric's one lock survives a panic raised while it is held.
//!
//! `std::sync::Mutex` poisons on such a panic and every later `lock()`
//! answers `Err`; the fabric swallows the poison behind its private
//! `state()` accessor, so a run that panicked mid-call (and was contained,
//! as the experiment service contains its runs) leaves every handle to the
//! same fabric usable.

use std::panic::{catch_unwind, AssertUnwindSafe};

use unifyfl_storage::{GossipConfig, GossipTopology, IpfsNetwork, LinkProfile};

#[test]
fn a_panic_under_the_fabric_lock_leaves_the_fabric_usable() {
    let net = IpfsNetwork::new();
    let nodes: Vec<_> = (0..3).map(|_| net.add_node(LinkProfile::lan())).collect();
    let cid = nodes[0].add(b"held before the panic").cid;

    // A topology covering two of three nodes trips `install_topology`'s
    // coverage assert, which is raised with the lock held.
    let config = GossipConfig::new(2);
    let short = GossipTopology::derive(&config, 7, &[0, 0]);
    let panicked = catch_unwind(AssertUnwindSafe(|| net.install_topology(config, short)));
    assert!(panicked.is_err(), "the coverage assert fired");

    // Reads, writes and a remote fetch all still go through the same lock.
    assert_eq!(net.node_count(), 3);
    assert!(
        net.topology().is_none(),
        "the rejected overlay was not installed"
    );
    assert_eq!(
        nodes[1].get(cid).unwrap().data[..],
        b"held before the panic"[..]
    );
    let later = nodes[2].add(b"added after the panic").cid;
    assert_eq!(
        nodes[0].get(later).unwrap().data[..],
        b"added after the panic"[..]
    );
    let covering = GossipTopology::derive(&config, 7, &[0, 0, 0]);
    net.install_topology(config, covering);
    assert!(net.topology().is_some());
}
