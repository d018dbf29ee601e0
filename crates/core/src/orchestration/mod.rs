//! The Sync and Async orchestration engines (§3.2 / §3.3, Figures 5 & 6),
//! as two policies over the discrete-event kernel ([`crate::events`]).
//!
//! Both engines drive the same federation through the paper's six-step
//! workflow by draining one typed [`Event`](crate::events::Event) queue,
//! differing exactly where the paper says they differ. Neither has an
//! entry point of its own: a [`RunState`](crate::service::RunState) picks
//! the policy for the configured [`Mode`] and steps it.
//!
//! - **Sync** (`SyncPolicy`) is the *barrier-event* policy: an
//!   `OpenTraining → TrainingDone×n → StartScoring → ScoresDue×n →
//!   RoundBarrier` event cycle per round. Per-cluster completion events are
//!   released at the phase-window close (the barrier), so fast clusters
//!   accumulate idle time, clusters that overrun the training window become
//!   *stragglers* whose model is only accepted next round, and scores
//!   arriving after the scoring window are rejected by the contract.
//! - **Async** (`AsyncPolicy`) is the *no-barrier* policy: each cluster's
//!   `ClusterWake` event fires at its own virtual clock (ties broken by
//!   cluster index), and the waking cluster either serves a scoring duty or
//!   runs its next training round. A final `SealSlot` event drains the
//!   chain once every cluster is done.
//!
//! The modes differ in *when* a cluster acts, not in *what* a shard seal,
//! an inter-shard exchange, a regroup, a prefetch or an elastic join does.
//! So `sync_policy` and `async_policy` hold only each mode's own clockwork,
//! while `topology` holds the one set of two-tier handlers and `membership`
//! the one elastic-join path that both fire — a policy passes in who takes
//! part and whose clock (if any) pays, and schedules its own continuation.
//!
//! Virtual time comes from the cluster cost models — or, under
//! [`LinkModel::Physical`](crate::federation::LinkModel), from the storage
//! layer's physical bytes moved per link — and chain state advances via
//! periodic Clique seals as time passes, so contract-enforced window
//! semantics (late submissions/scores reverting) are exercised for real.
//!
//! Both policies read the federation's one installed
//! [`FaultPlan`](unifyfl_sim::fault::FaultPlan), if any (crashes, leaves,
//! latency spikes, clock skew), and keep no copy of it. Both serve
//! *elastic membership*, which the policy owns: a cluster configured with
//! [`ClusterConfig::joins_at`](crate::cluster::ClusterConfig::joins_at)
//! enters mid-run through a
//! [`Event::MembershipChange`](crate::events::Event::MembershipChange)
//! event — it registers on-chain, bootstraps its model from the latest
//! scored releases, has the federation settle its fault schedule, and
//! participates from there.

mod async_policy;
mod membership;
mod sync_policy;
#[cfg(test)]
mod tests;
mod topology;

use unifyfl_chain::orchestrator::OrchestrationMode;
use unifyfl_fl::fanout;
use unifyfl_sim::SimTime;

use crate::events::EventPolicy;
use crate::federation::{ComputeView, Federation};
use crate::step::{compute_all, merge_eval, prepare_train, TrainInputs};

use async_policy::AsyncPolicy;
use membership::Members;
use sync_policy::SyncPolicy;

/// Orchestration mode selector (maps onto the contract's mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Phase-locked rounds.
    Sync,
    /// Free-running rounds.
    Async,
}

impl Mode {
    /// The contract-side mode this engine requires.
    pub fn to_chain(self) -> OrchestrationMode {
        match self {
            Mode::Sync => OrchestrationMode::Sync,
            Mode::Async => OrchestrationMode::Async,
        }
    }
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mode::Sync => write!(f, "Sync"),
            Mode::Async => write!(f, "Async"),
        }
    }
}

/// What a drained policy hands the report builder, per cluster and overall.
#[derive(Debug, Clone)]
pub(crate) struct EngineOutcome {
    /// Virtual completion time of each cluster's final round.
    pub per_cluster_time: Vec<SimTime>,
    /// Rounds in which each cluster straggled (missed the submission
    /// window; Sync only).
    pub straggler_rounds: Vec<u64>,
    /// Scores each cluster lost to a closed scoring window (Sync only).
    pub rejected_scores: Vec<u64>,
    /// Final *global* (post-merge) accuracy/loss per cluster on the global
    /// test set.
    pub final_global: Vec<(f64, f64)>,
    /// Virtual end of the whole run.
    pub end_time: SimTime,
}

/// Final pass after the last round: merge the last submissions and
/// evaluate the resulting global model. Clusters no longer participating
/// (left the federation, or never joined) report their last recorded state
/// instead of merging post-departure.
///
/// The pass goes in **waves**: the peers of as many clusters as will
/// compute at once are fetched and decoded, those clusters merge and
/// evaluate (over the run's lanes), their peers are dropped, and
/// the next wave prepares — so the pass holds one wave's fetched models,
/// not the federation's. Prepares (fetches, counters, RNG draws, resource
/// bursts) stay in cluster-index order across waves, and a cluster's
/// merge touches nothing a later prepare reads (peers come from the store,
/// never from a live model), so the wave size shows in no byte of the
/// run. `wave` is `None` outside tests: the fan-out's own lane count. The
/// round count and the lanes are the config's.
fn final_merge(fed: &mut Federation, members: &Members, wave: Option<usize>) -> Vec<(f64, f64)> {
    let n = fed.clusters.len();
    let round = fed.config().workload.rounds as u64 + 1;
    let cap = fed.config().lanes;
    let wave = wave.unwrap_or_else(|| {
        let work = |idx: usize| fed.clusters[idx].eval_flops(fed.global_test.len());
        let active = (0..n).filter(|&idx| members.participates(idx));
        fanout::lanes(cap, active.clone().count(), active.map(work).sum())
    });
    let mut finals = Vec::with_capacity(n);
    while finals.len() < n {
        // The next `wave` participating clusters, with whoever sits out
        // between them.
        let lo = finals.len();
        let mut hi = lo;
        let mut taken = 0;
        while hi < n && taken < wave {
            taken += usize::from(members.participates(hi));
            hi += 1;
        }
        let inputs: Vec<Option<TrainInputs>> = (lo..hi)
            .map(|idx| {
                members.participates(idx).then(|| {
                    let inputs = prepare_train(fed, idx, round);
                    fed.record_ipfs_burst(inputs.pull);
                    inputs
                })
            })
            .collect();
        let results = {
            let ComputeView {
                clusters,
                lanes,
                global_test,
                ..
            } = fed.compute_view();
            compute_all(
                &mut clusters[lo..hi],
                lanes,
                inputs,
                cap,
                |cluster, _| cluster.eval_flops(global_test.len()),
                |cluster, lane, inputs| merge_eval(cluster, &mut lane.eval, inputs, global_test),
            )
        };
        finals.extend(results.into_iter().zip(lo..hi).map(|(r, idx)| match r {
            Some((_, acc, loss)) => (acc, loss),
            None => fed.clusters[idx].last_global(),
        }));
    }
    finals
}

/// Equal-weight mean of `count` models in f64 accumulation: `peers` are
/// added onto `init` in order, then every coordinate is divided by `count`.
/// The initial value and the accumulation order are part of the byte
/// contract, so the caller states them: starting from zeros and starting
/// from a model's own weights differ on `-0.0` (`0.0 + -0.0` is `+0.0`).
fn mean_f64(mut init: Vec<f64>, peers: &[Vec<f32>], count: usize) -> Vec<f32> {
    for p in peers {
        for (m, v) in init.iter_mut().zip(p) {
            *m += f64::from(*v);
        }
    }
    init.into_iter()
        .map(|v| (v / count as f64) as f32)
        .collect()
}

/// Builds the policy for the configured mode for a
/// [`crate::service::RunState`]. The configuration was validated before
/// `fed` was assembled from it, so the constructors' mode and scorer
/// asserts restate invariants.
pub(crate) fn policy_for(fed: &Federation) -> Box<dyn EventPolicy + Send> {
    match fed.config().mode {
        Mode::Sync => Box::new(SyncPolicy::new(fed)),
        Mode::Async => Box::new(AsyncPolicy::new(fed)),
    }
}
