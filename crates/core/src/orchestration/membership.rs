//! Who is in the federation, and the one elastic-join path both policies
//! fire on [`Event::MembershipChange`](crate::events::Event::MembershipChange).
//! The policy owns the membership; the joiner's fault schedule is the
//! federation's, settled through [`Federation::settle_faults`].

use unifyfl_sim::{SimDuration, SimTime};

use super::mean_f64;
use crate::federation::Federation;

/// The federation's membership as the engines see it: which clusters have
/// joined, which have since departed for good, and when the configured
/// joiners are due.
pub(super) struct Members {
    /// True once the cluster has joined (founders: from setup).
    pub(super) joined: Vec<bool>,
    /// Still in the federation: true from joining until a permanent leave.
    pub(super) live: Vec<bool>,
    /// Absolute join instants (`setup_done + joins_at`) for every
    /// configured elastic joiner; `None` marks a founding member.
    pub(super) join_time: Vec<Option<SimTime>>,
}

impl Members {
    /// Founders are members from setup; configured joiners enter through
    /// [`join`].
    pub(super) fn new(fed: &Federation) -> Members {
        let join_time: Vec<Option<SimTime>> = fed
            .clusters
            .iter()
            .map(|c| c.config().joins_at.map(|d| fed.setup_done + d))
            .collect();
        let joined: Vec<bool> = join_time.iter().map(Option::is_none).collect();
        Members {
            live: joined.clone(),
            joined,
            join_time,
        }
    }

    /// True while the cluster takes part: joined and not departed.
    pub(super) fn participates(&self, idx: usize) -> bool {
        self.joined[idx] && self.live[idx]
    }
}

/// Submits a joiner's on-chain registration at `at`. When it seals is the
/// policy's business: the barrier's next phase flush carries it (Sync), or
/// the policy seals promptly so peers can assign the joiner scoring duties
/// (Async).
pub(super) fn register(fed: &mut Federation, idx: usize, at: SimTime) {
    let orch = fed.orchestrator;
    let tx = fed.clusters[idx].register_tx(orch);
    fed.submit_tx_at(at, tx);
}

/// Admits a registered joiner at `at`: bootstraps its model from every
/// currently-visible scored release (sync: window-closed entries — the
/// *full-consensus* view; async: any-scored latest entries — the
/// *optimistic* view), marks it a member, and has the federation settle
/// its fault schedule from `first_round`, the first round it takes part in
/// (Sync: the round being opened; Async: its own round 1), as
/// [`Federation::settle_faults`] describes: pre-join faults are pruned
/// from the one plan and logged as skipped, a standing skew is logged.
///
/// Returns how far behind `at` the joiner's own timeline starts: the
/// bootstrap pulls under the active link model, plus its clock skew.
pub(super) fn join(
    fed: &mut Federation,
    members: &mut Members,
    idx: usize,
    at: SimTime,
    first_round: u64,
) -> SimDuration {
    let spent = bootstrap(fed, idx, at);
    members.joined[idx] = true;
    members.live[idx] = true;
    spent + fed.settle_faults(idx, first_round)
}

/// Adopts the equal-weight mean of the visible scored releases as the
/// joiner's starting model and records the membership change. Returns the
/// virtual time the pulls cost.
fn bootstrap(fed: &mut Federation, idx: usize, at: SimTime) -> SimDuration {
    let candidates = fed.candidates_for(idx);
    let fetched = fed.fetch_peers(idx, candidates.iter().map(|c| c.cid));
    let peers = fetched.peers;
    if !peers.is_empty() {
        let zeros = vec![0.0f64; fed.clusters[idx].weights().len()];
        fed.clusters[idx].adopt_weights(mean_f64(zeros, &peers, peers.len()));
    }
    fed.record_ipfs_burst(fetched.cost);
    fed.log_membership(
        idx,
        at,
        "join",
        &format!(
            "joined; bootstrapped from {} scored release(s)",
            peers.len()
        ),
    );
    fetched.cost
}
