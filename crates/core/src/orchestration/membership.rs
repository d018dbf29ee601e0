//! Who is in the federation, and the one elastic-join path both policies
//! fire on [`Event::MembershipChange`](crate::events::Event::MembershipChange).

use unifyfl_sim::fault::FaultPlan;
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

/// Logs the standing clock-skew fault for every *founding* cluster (the
/// skew applies from the first round; recording it proves the fault took
/// effect even when nothing is rejected).
pub(super) fn log_initial_skews(fed: &mut Federation, plan: Option<&FaultPlan>, members: &Members) {
    let Some(p) = plan else { return };
    let skewed: Vec<usize> = (0..members.joined.len())
        .filter(|&idx| members.joined[idx] && !p.clock_skew(idx).is_zero())
        .collect();
    for idx in skewed {
        fed.log_fault(idx, 1, "clock_skew", "clock runs behind the federation");
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
/// *optimistic* view), marks it a member, and settles its fault schedule
/// from `first_round`, the first round it takes part in (Sync: the round
/// being opened; Async: its own round 1).
///
/// The fault plan was sampled for all clusters over all rounds with no
/// knowledge of `joins_at`, so a pre-join crash window could leak into the
/// joiner's first rounds (`is_down` spans `down_rounds`): events before
/// `first_round` are pruned from the engine's plan and recorded as
/// skipped. Clock skews are kept — a standing skew afflicts the joiner
/// from its join onward, exactly as founders are skewed from setup, and is
/// recorded as [`log_initial_skews`] does for them.
///
/// Returns how far behind `at` the joiner's own timeline starts: the
/// bootstrap pulls under the active link model, plus its clock skew.
pub(super) fn join(
    fed: &mut Federation,
    members: &mut Members,
    plan: Option<&mut FaultPlan>,
    idx: usize,
    at: SimTime,
    first_round: u64,
) -> SimDuration {
    let spent = bootstrap(fed, idx, at);
    members.joined[idx] = true;
    members.live[idx] = true;
    let Some(plan) = plan else { return spent };
    for e in plan.extract_pre_join(idx, first_round) {
        fed.log_fault(idx, e.round, e.kind.label(), "skipped: not yet joined");
    }
    let skew = plan.clock_skew(idx);
    if !skew.is_zero() {
        fed.log_fault(
            idx,
            first_round,
            "clock_skew",
            "clock runs behind the federation",
        );
    }
    spent + skew
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
