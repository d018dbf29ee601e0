//! The two-tier topology handlers both policies fire: shard seal,
//! inter-shard exchange, regroup, and the prefetch / fetch-ahead
//! scheduling around them.
//!
//! There is one implementation of each. What genuinely differs between the
//! barrier and the no-barrier policy comes in as arguments — *who takes
//! part* (a predicate over cluster indices) and *whose clock is charged*
//! (a callback; the barrier absorbs the work, a free-running cluster pays
//! for it on its own clock) — and each handler returns the instant its
//! work ends, from which the policy schedules its own continuation. The
//! topology itself is never an argument: every handler reads the
//! federation's current one ([`sharded`]), which a regroup replaces.

use unifyfl_chain::orchestrator::calls;
use unifyfl_sim::{EventQueue, SimDuration, SimTime};
use unifyfl_storage::Cid;

use super::mean_f64;
use super::membership::Members;
use crate::events::Event;
use crate::federation::Federation;
use crate::sharding::ShardTopology;

/// The topology a policy runs under: the federation's current one, unless
/// it is single-shard — that is behaviorally flat, and ignoring it keeps
/// the run event-for-event identical to the unsharded engine.
pub(super) fn sharded(fed: &Federation) -> Option<&ShardTopology> {
    fed.shard_topology().filter(|tp| tp.is_sharded())
}

/// A fired [`Event::ShardSealDue`]: every shard's representative (its
/// lowest-indexed participating member) seals the shard release
/// concurrently at `at`; `charge(rep, spent)` bills each representative.
/// Returns the instant the slowest seal lands.
pub(super) fn shard_seal_due(
    fed: &mut Federation,
    members: &Members,
    at: SimTime,
    epoch: u64,
    mut charge: impl FnMut(usize, SimDuration),
) -> SimTime {
    let reps: Vec<(usize, usize)> = sharded(fed).map_or_else(Vec::new, |tp| {
        let rep = |shard| {
            tp.members(shard)
                .into_iter()
                .find(|&i| members.participates(i))
        };
        (0..tp.shards)
            .filter_map(|shard| Some((shard, rep(shard)?)))
            .collect()
    });
    let mut seal_end = at;
    for (shard, rep) in reps {
        let spent = seal_shard(fed, shard, epoch, rep, at);
        charge(rep, spent);
        seal_end = seal_end.max(at + spent);
    }
    seal_end
}

/// Seals one shard's release: the representative fetches the shard's
/// currently visible scored releases (its candidate view is already
/// intra-shard), means them with its own weights in f64 accumulation,
/// publishes the blob, and submits the on-chain `submitShardRelease`.
/// Returns the virtual cost under the active link model (fetches plus the
/// representative's publish time). The representative's own model lineage
/// is untouched — the sealed blob is a shard-level artifact, not one of its
/// releases.
fn seal_shard(
    fed: &mut Federation,
    shard: usize,
    epoch: u64,
    rep: usize,
    at: SimTime,
) -> SimDuration {
    let orch = fed.orchestrator;
    let candidates = fed.candidates_for(rep);
    let fetched = fed.fetch_peers(rep, candidates.iter().map(|c| c.cid));
    let own: Vec<f64> = fed.clusters[rep]
        .weights()
        .iter()
        .map(|v| f64::from(*v))
        .collect();
    let sealed = mean_f64(own, &fetched.peers, fetched.peers.len() + 1);
    let cid = fed.clusters[rep].publish_release_blob(&sealed);
    let spent = fetched.cost + fed.clusters[rep].publish_duration();
    fed.record_ipfs_burst(spent);
    let call = calls::submit_shard_release(shard as u32, epoch, &cid.to_string());
    let tx = fed.clusters[rep].next_tx(orch, call);
    fed.submit_cluster_tx_at(at + spent, tx);
    spent
}

/// Schedules the epoch's [`Event::ShardExchange`] at `at`, preceded — when
/// a gossip overlay is installed — by one [`Event::PrefetchDue`] per
/// cluster `takes_part` admits. Same-time FIFO fires the prefetches
/// strictly before the exchange, so it reads warm stores; all of the
/// epoch's seals have landed by now, so the prefetched set is the
/// exchanged set.
pub(super) fn schedule_exchange(
    fed: &Federation,
    queue: &mut EventQueue<Event>,
    at: SimTime,
    epoch: u64,
    takes_part: impl Fn(usize) -> bool,
) {
    if fed.config().gossip.is_some() {
        for cluster in (0..fed.clusters.len()).filter(|&c| takes_part(c)) {
            queue.schedule(at, Event::PrefetchDue { cluster, epoch });
        }
    }
    queue.schedule(at, Event::ShardExchange { epoch });
}

/// A fired [`Event::PrefetchDue`]: disseminate the epoch's sealed releases
/// along the gossip overlay into `cluster`'s store ahead of the exchange.
/// Charges nothing — see [`Federation::warm`].
pub(super) fn prefetch_due(fed: &Federation, cluster: usize) {
    fed.warm(cluster, exchange_cids(fed, cluster));
}

/// A fired [`Event::ShardExchange`]: every cluster `takes_part` admits
/// folds the other shards' sealed releases into its model, concurrently
/// from `at`; `charge(idx, spent)` bills each. Returns the instant the
/// slowest fold is done.
pub(super) fn shard_exchange(
    fed: &mut Federation,
    at: SimTime,
    takes_part: impl Fn(usize) -> bool,
    mut charge: impl FnMut(usize, SimDuration),
) -> SimTime {
    let mut end = at;
    for idx in (0..fed.clusters.len()).filter(|&i| takes_part(i)) {
        let spent = exchange_into(fed, idx);
        charge(idx, spent);
        end = end.max(at + spent);
    }
    end
}

/// One cluster's side of an inter-shard exchange: fetch every *other*
/// shard's latest sealed release and fold them into the cluster's weights
/// (equal-weight mean including its own model). Returns the fetch cost
/// under the active link model. A shard whose release is unfetchable (never
/// sealed, or lost to a storage fault) is skipped — the exchange degrades
/// instead of stalling.
fn exchange_into(fed: &mut Federation, idx: usize) -> SimDuration {
    let fetched = fed.fetch_peers(idx, exchange_cids(fed, idx));
    if !fetched.peers.is_empty() {
        fed.clusters[idx].merge_peers(fetched.peers);
    }
    fed.record_ipfs_burst(fetched.cost);
    fetched.cost
}

/// The CIDs [`exchange_into`] will fetch for `idx` at this instant: every
/// *other* shard's latest sealed release. Factored out so the gossip
/// prefetch warms exactly the set the exchange reads. Empty when the run
/// is not sharded.
fn exchange_cids(fed: &Federation, idx: usize) -> Vec<Cid> {
    let Some(topology) = sharded(fed) else {
        return Vec::new();
    };
    let my_shard = topology.shard_of(idx);
    (0..topology.shards)
        .filter(|s| *s != my_shard)
        .filter_map(|s| fed.contract().latest_shard_release(s as u32))
        .filter_map(|r| r.cid.parse().ok())
        .collect()
}

/// A fired [`Event::RegroupDue`]: derive and install the next topology
/// epoch over the clusters' current weights
/// ([`Federation::regroup_epoch`]), and flush the chain so a changed
/// assignment's `updateSharding` lands. Charges no cluster clock —
/// regrouping is orchestrator bookkeeping, not silo work. Returns the
/// chain head's timestamp.
pub(super) fn regroup_due(fed: &mut Federation, at: SimTime, epoch: u64) -> SimTime {
    fed.regroup_epoch(epoch, at);
    fed.flush_chain_at(at)
}

/// Schedules a [`Event::FetchAhead`] warm-up of `cluster`'s cache for
/// `round` at `at` — the instant the round opens, but strictly before the
/// event that opens it (same-time FIFO), so the round's pulls find a warm
/// cache. No-op unless the config enables
/// [`fetch_ahead`](crate::experiment::ExperimentConfig::fetch_ahead).
pub(super) fn schedule_fetch_ahead(
    fed: &Federation,
    queue: &mut EventQueue<Event>,
    at: SimTime,
    cluster: usize,
    round: u64,
) {
    if fed.config().fetch_ahead {
        queue.schedule(at, Event::FetchAhead { cluster, round });
    }
}
