//! Sync: the barrier-event policy (§3.2, Figure 5).

use std::collections::BTreeMap;

use unifyfl_chain::orchestrator::{calls, OrchestrationMode};
use unifyfl_chain::types::Address;
use unifyfl_sim::fault::FaultPlan;
use unifyfl_sim::{EventQueue, SimDuration, SimTime};
use unifyfl_storage::Cid;

use super::membership::{self, Members};
use super::{final_merge, topology, EngineOutcome};
use crate::cluster::{ClusterNode, ClusterRoundRecord};
use crate::events::{Event, EventPolicy};
use crate::federation::{ComputeView, Federation};
use crate::scoring::{krum_assumed_byzantine, multikrum_scores, ScorerKind};
use crate::sharding::ShardTopology;
use crate::step::{
    book_score, commit_train_effects, compute_all, compute_scores, compute_train, prepare_scoring,
    prepare_train, scoring_work, train_work, Evals, ScoreTask, ScoredModel, TrainInputs,
    TrainResult,
};

/// What the training phase decided for one cluster, before any state is
/// mutated. Decisions are pure reads (membership, fault plan, carryover,
/// active set), so the kernel takes them in the phase-open event; every
/// mutation they imply — fault logs, carryover consumption, departure —
/// happens in that cluster's commit event, in cluster-index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TrainAction {
    /// Configured to join later; not a member yet.
    NotJoined,
    /// Departed in an earlier round; nothing to do.
    Gone,
    /// Leaves the federation this round (first observation).
    Leave,
    /// Crashed: sits the round out, losing any held-over work.
    Crash,
    /// Straggler finishing last round's held-over work; no pull/train.
    Carryover,
    /// Normal round: pull, merge, train, evaluate, publish.
    Run,
}

/// The barrier clockwork of one Sync run. Run-wide knobs (rounds, lanes,
/// scorer, workload) and the live shard topology are read from the
/// federation; the policy holds only its windows and per-round state.
pub(crate) struct SyncPolicy {
    training_window: SimDuration,
    scoring_window: SimDuration,
    plan: Option<FaultPlan>,
    // Cross-round accumulators.
    straggler_rounds: Vec<u64>,
    rejected_scores: Vec<u64>,
    carryover: Vec<Option<SimDuration>>,
    members: Members,
    // Round whose `OpenTraining` is currently being processed (joins that
    // gate on it log their faults against this round).
    opening_round: u64,
    // Current round's barrier state, filled by the phase-open events and
    // consumed by the per-cluster commit events.
    phase_start: SimTime,
    window_end: SimTime,
    scoring_start: SimTime,
    scoring_end: SimTime,
    pending_actions: Vec<TrainAction>,
    pending_results: Vec<Option<TrainResult>>,
    pending_scores: Vec<Option<Vec<ScoredModel>>>,
    end_time: SimTime,
}

impl SyncPolicy {
    /// Builds the barrier policy for `fed`: asserts the contract mode,
    /// sizes the phase windows from the nominal cost models ×
    /// `window_margin`, and seeds the membership bookkeeping. The returned
    /// policy is inert until the first step calls [`EventPolicy::seed`].
    ///
    /// # Panics
    ///
    /// Panics if the federation was built with the wrong contract mode.
    pub(crate) fn new(fed: &Federation) -> SyncPolicy {
        let config = fed.config();
        let workload = &config.workload;
        assert_eq!(
            fed.contract().mode(),
            OrchestrationMode::Sync,
            "sync engine needs a sync-mode contract"
        );
        let n = fed.clusters.len();
        // Peer fan-out per phase: intra-shard under the two-tier topology,
        // the whole federation when flat. Windows sized from it stay
        // constant as the federation grows with the shard size fixed.
        let fan_out = topology::sharded(fed).map_or(n, ShardTopology::max_shard_size) as u64 - 1;

        // Size the windows from nominal (straggle-free) expected
        // durations: the slowest cluster's phase, times the margin.
        let nominal = |c: &ClusterNode, d: SimDuration| {
            SimDuration::from_secs_f64(d.as_secs_f64() / c.config().straggle_factor)
        };
        let window = |phase: &dyn Fn(&ClusterNode) -> SimDuration| {
            let worst = fed.clusters.iter().map(phase).max();
            let worst = worst.expect("at least one cluster");
            SimDuration::from_secs_f64(worst.as_secs_f64() * config.window_margin)
        };
        let training_window = window(&|c| {
            let train = nominal(c, c.train_duration(workload.local_epochs));
            c.fetch_duration() * fan_out + train + c.publish_duration()
        });
        let scoring_window =
            window(&|c| (c.fetch_duration() + nominal(c, c.score_duration())) * fan_out);

        SyncPolicy {
            training_window,
            scoring_window,
            plan: fed.fault_plan().cloned(),
            straggler_rounds: vec![0; n],
            rejected_scores: vec![0; n],
            carryover: vec![None; n],
            members: Members::new(fed),
            opening_round: 0,
            phase_start: fed.setup_done,
            window_end: fed.setup_done,
            scoring_start: fed.setup_done,
            scoring_end: fed.setup_done,
            pending_actions: Vec::new(),
            pending_results: Vec::new(),
            pending_scores: Vec::new(),
            end_time: fed.setup_done,
        }
    }

    fn open_training(
        &mut self,
        fed: &mut Federation,
        queue: &mut EventQueue<Event>,
        at: SimTime,
        round: u64,
    ) {
        // Elastic joins are gated on phase boundaries: a joiner whose time
        // has come registers now, so this round's scorer sampling and
        // submissions already include it. Joins must take effect *before*
        // the phase opens, so schedule the membership events at this
        // instant followed by a re-issued `OpenTraining` — FIFO ordering
        // fires the joins first, then reopens the round with membership
        // settled.
        self.opening_round = round;
        let n = fed.clusters.len();
        let mut joins_due = false;
        for idx in 0..n {
            if !self.members.joined[idx] && self.members.join_time[idx].is_some_and(|jt| jt <= at) {
                queue.schedule(at, Event::MembershipChange { cluster: idx });
                joins_due = true;
            }
        }
        if joins_due {
            queue.schedule(at, Event::OpenTraining { round });
            return;
        }

        let tx = fed.phase_tx(calls::start_training());
        fed.submit_tx_at(at, tx);
        self.phase_start = fed.flush_chain_at(at);
        self.window_end = self.phase_start + self.training_window;

        // Phase A of the two-phase round step: decide every cluster's
        // action (pure reads), gather inputs in cluster-index order
        // (shared-state reads and fetches), then run the cluster-local
        // compute over the run's lanes. Commits are the
        // `TrainingDone` events, released at the barrier in index order.
        let actions: Vec<TrainAction> = (0..n).map(|idx| self.train_action(idx, round)).collect();
        let inputs: Vec<Option<TrainInputs>> = (0..n)
            .map(|idx| (actions[idx] == TrainAction::Run).then(|| prepare_train(fed, idx, round)))
            .collect();
        let results = {
            let ComputeView {
                clusters,
                lanes,
                global_test,
                config,
                ..
            } = fed.compute_view();
            compute_all(
                clusters,
                lanes,
                inputs,
                config.lanes,
                |cluster, _| train_work(cluster, &config.workload, global_test),
                |cluster, lane, inputs| {
                    compute_train(cluster, lane, inputs, config, global_test, Evals::Inline)
                },
            )
        };
        self.pending_actions = actions;
        self.pending_results = results;

        for idx in 0..n {
            queue.schedule(
                self.window_end,
                Event::TrainingDone {
                    cluster: idx,
                    round,
                },
            );
        }
        queue.schedule(self.window_end, Event::StartScoring { round });
    }

    /// What the training phase decides for one cluster, before any state
    /// is mutated: pure reads of membership, fault plan and carryover.
    fn train_action(&self, idx: usize, round: u64) -> TrainAction {
        if !self.members.joined[idx] {
            return TrainAction::NotJoined;
        }
        if let Some(p) = &self.plan {
            if p.has_left(idx, round) {
                return if self.members.live[idx] {
                    TrainAction::Leave
                } else {
                    TrainAction::Gone
                };
            }
            if p.is_down(idx, round) {
                return TrainAction::Crash;
            }
        }
        if self.carryover[idx].is_some() {
            TrainAction::Carryover
        } else {
            TrainAction::Run
        }
    }

    fn clock_skew(&self, idx: usize) -> SimDuration {
        self.plan
            .as_ref()
            .map_or(SimDuration::ZERO, |p| p.clock_skew(idx))
    }

    /// A [`Event::TrainingDone`] commit for one cluster: every federation
    /// mutation the round implies, replayed in the reference order.
    fn training_done(&mut self, fed: &mut Federation, idx: usize, round: u64) {
        let completed_at_secs = (self.window_end + self.scoring_window).as_secs_f64();
        match self.pending_actions[idx] {
            TrainAction::NotJoined | TrainAction::Gone => {}
            TrainAction::Leave => {
                self.members.live[idx] = false;
                self.carryover[idx] = None;
                fed.log_fault(idx, round, "leave", "left the federation");
            }
            TrainAction::Crash => {
                let outcome = if self.carryover[idx].take().is_some() {
                    "round lost; held-over work discarded"
                } else {
                    "round lost"
                };
                fed.log_fault(idx, round, "crash", outcome);
            }
            TrainAction::Carryover => {
                // Straggler from last round: finish the held work and submit
                // the stale model; no pull/train this round. The leftover
                // already embeds any clock skew from the round that incurred
                // it (skew is a fixed offset, not a per-round compounding
                // delay), so none is added here.
                let leftover = self.carryover[idx].take().expect("carryover action");
                self.submit_or_hold(fed, idx, round, self.phase_start + leftover);
                let (acc, loss) = fed.clusters[idx].last_local();
                fed.clusters[idx].record(ClusterRoundRecord {
                    round,
                    peers_merged: 0,
                    local_accuracy: acc,
                    local_loss: loss,
                    global_accuracy: acc,
                    global_loss: loss,
                    completed_at_secs,
                });
            }
            TrainAction::Run => {
                let mut result = self.pending_results[idx]
                    .take()
                    .expect("run action carries a compute result");
                let publish = commit_train_effects(fed, idx, round, &mut result);
                let busy = result.pull + result.train + publish;
                // A skewed cluster's submission reaches the chain late.
                let finish = self.phase_start + busy + self.clock_skew(idx);
                self.submit_or_hold(fed, idx, round, finish);
                fed.clusters[idx].record(ClusterRoundRecord {
                    round,
                    peers_merged: result.peers_merged,
                    local_accuracy: result.local_accuracy,
                    local_loss: result.local_loss,
                    global_accuracy: result.global_accuracy,
                    global_loss: result.global_loss,
                    completed_at_secs,
                });
            }
        }
    }

    /// Stores the cluster's model and submits it if `finish` makes the
    /// training window; otherwise (§3.2 stragglers) the contract would
    /// revert the submission, so the model is held for next round.
    fn submit_or_hold(&mut self, fed: &mut Federation, idx: usize, round: u64, finish: SimTime) {
        let cid = fed.clusters[idx].store_model(round);
        if finish <= self.window_end {
            let tx = fed.clusters[idx].submit_model_tx(fed.orchestrator, &cid);
            fed.submit_cluster_tx_at(finish, tx);
            fed.record_idle(self.window_end - finish);
        } else {
            self.straggler_rounds[idx] += 1;
            self.carryover[idx] = Some(finish - self.window_end);
        }
    }

    fn start_scoring(&mut self, fed: &mut Federation, queue: &mut EventQueue<Event>, round: u64) {
        let tx = fed.phase_tx(calls::start_scoring());
        fed.submit_tx_at(self.window_end, tx);
        self.scoring_start = fed.flush_chain_at(self.window_end);
        self.scoring_end = self.scoring_start + self.scoring_window;

        // Collect this round's assignments from the contract.
        let assignments: Vec<(Cid, Vec<Address>)> = fed
            .contract()
            .entries()
            .iter()
            .enumerate()
            .filter(|(_, e)| e.round == round)
            .filter_map(|(i, e)| fed.entry_cids(i).map(|(cid, _)| (cid, e.scorers.clone())))
            .collect();

        // MultiKRUM needs the full round's submissions at once. Under
        // sharding its "round" is each *shard's* round: distances are only
        // meaningful among the models a shard's scorers can see, so the
        // submissions are grouped by the submitter's shard and scored per
        // group. With the flat contract map every submitter is in shard 0,
        // so the single group reproduces the unsharded computation exactly.
        let krum: Option<(Vec<Cid>, Vec<f64>)> = if fed.config().scorer == ScorerKind::MultiKrum {
            let mut groups: BTreeMap<u32, Vec<Cid>> = BTreeMap::new();
            let entries = fed.contract().entries().iter().enumerate();
            for (i, e) in entries.filter(|(_, e)| e.round == round) {
                if let Some((cid, _)) = fed.entry_cids(i) {
                    groups
                        .entry(fed.contract().shard_of(e.submitter))
                        .or_default()
                        .push(cid);
                }
            }
            let mut cids: Vec<Cid> = Vec::new();
            let mut scores: Vec<f64> = Vec::new();
            for group in groups.into_values() {
                // A group with a model the fetch skips is left unscored.
                let models = fed.fetch_peers(0, group.iter().copied()).peers;
                if models.len() == group.len() && !models.is_empty() {
                    // The Byzantine bound must be admissible for the models
                    // actually scored in this group, not the federation
                    // size — crashes, leavers and straggler carryovers all
                    // shrink the submission set below `n`.
                    let f = krum_assumed_byzantine(models.len());
                    scores.extend(multikrum_scores(&models, f));
                    cids.extend(group);
                }
            }
            (!cids.is_empty()).then_some((cids, scores))
        } else {
            None
        };

        // Scoring, same two-phase shape: prepare (assignment filtering and
        // fetches, index-ordered), compute (inference, over the lanes),
        // commit (`ScoresDue` events at the window close, index order).
        let scores_due = |p: &SyncPolicy, idx: usize| {
            p.members.joined[idx]
                && p.carryover[idx].is_none() // still busy with held-over work?
                // Chaos: departed or crashed clusters never score this
                // round (`is_down` covers both).
                && p.plan.as_ref().is_none_or(|pl| !pl.is_down(idx, round))
        };
        let n = fed.clusters.len();
        let task_lists: Vec<Option<Vec<ScoreTask>>> = (0..n)
            .map(|idx| {
                let me = fed.clusters[idx].address();
                let mine = assignments
                    .iter()
                    .filter(|(_, scorers)| scorers.contains(&me));
                let mine = mine.map(|(cid, _)| *cid);
                scores_due(self, idx).then(|| prepare_scoring(fed, idx, mine, krum.as_ref()))
            })
            .collect();
        let cap = fed.config().lanes;
        let scored_lists = {
            let ComputeView {
                clusters, lanes, ..
            } = fed.compute_view();
            compute_all(
                clusters,
                lanes,
                task_lists,
                cap,
                |cluster, tasks| scoring_work(cluster, tasks),
                |cluster, lane, tasks| compute_scores(cluster, &mut lane.eval, tasks),
            )
        };
        self.pending_scores = scored_lists;

        for idx in 0..n {
            queue.schedule(
                self.scoring_end,
                Event::ScoresDue {
                    cluster: idx,
                    round,
                },
            );
        }
        queue.schedule(self.scoring_end, Event::RoundBarrier { round });
    }

    /// A [`Event::ScoresDue`] commit for one cluster: walk the virtual
    /// clock over its scored tasks, record bursts, submit in-window scores
    /// and count window rejections — in the reference order.
    fn scores_due(&mut self, fed: &mut Federation, idx: usize, round: u64) {
        let Some(scored) = self.pending_scores[idx].take() else {
            return;
        };
        let orch = fed.orchestrator;
        let skew = self.clock_skew(idx);
        let mut clock = self.scoring_start + skew;
        for s in scored {
            clock += book_score(fed, idx, &s);
            if clock <= self.scoring_end {
                let tx = fed.clusters[idx].score_tx(orch, &s.cid, s.score);
                fed.submit_cluster_tx_at(clock, tx);
            } else {
                // §3.2: "the blockchain will no longer accept scores".
                self.rejected_scores[idx] += 1;
                if !skew.is_zero() {
                    fed.log_fault(idx, round, "clock_skew", "score lost to closed window");
                }
            }
        }
        fed.record_idle(
            self.scoring_end
                .saturating_since(clock.max(self.scoring_start)),
        );
    }

    fn round_barrier(&mut self, fed: &mut Federation, queue: &mut EventQueue<Event>, round: u64) {
        let tx = fed.phase_tx(calls::end_scoring());
        fed.submit_tx_at(self.scoring_end, tx);
        let t = fed.flush_chain_at(self.scoring_end);
        self.end_time = t;
        if round >= fed.config().workload.rounds as u64 {
            return;
        }
        // Topology epochs: on the regroup cadence the barrier derives the
        // next epoch *before* any seal/exchange, so the fresh grouping
        // shapes them: RoundBarrier → RegroupDue → [seal/exchange →]
        // OpenTraining(round + 1). With `regroup: None` this never fires
        // and the barrier cycle is byte-identical to the static engine.
        let regroup = topology::sharded(fed).and_then(|tp| tp.config.regroup);
        if let Some(every) = regroup.filter(|every| round.is_multiple_of(*every)) {
            queue.schedule(
                t,
                Event::RegroupDue {
                    epoch: round / every,
                },
            );
        } else {
            self.advance_past_barrier(fed, queue, t, round);
        }
    }

    /// The barrier's continuation once any due regroup has fired: on the
    /// inter-shard cadence the next round opens only after the
    /// seal/exchange pair (ShardSealDue → ShardExchange →
    /// OpenTraining(round + 1)); otherwise it opens immediately.
    fn advance_past_barrier(
        &mut self,
        fed: &Federation,
        queue: &mut EventQueue<Event>,
        t: SimTime,
        round: u64,
    ) {
        let exchange_every = topology::sharded(fed).map(|tp| tp.config.exchange_every);
        if let Some(every) = exchange_every.filter(|every| round.is_multiple_of(*every)) {
            queue.schedule(
                t,
                Event::ShardSealDue {
                    epoch: round / every,
                },
            );
        } else {
            self.open_round(fed, queue, t, round + 1);
        }
    }

    /// Opens `round` at `t`: one fetch-ahead warm-up per participating
    /// cluster, then the round's [`Event::OpenTraining`].
    fn open_round(&self, fed: &Federation, queue: &mut EventQueue<Event>, t: SimTime, round: u64) {
        for cluster in (0..fed.clusters.len()).filter(|&c| self.members.participates(c)) {
            topology::schedule_fetch_ahead(fed, queue, t, cluster, round);
        }
        queue.schedule(t, Event::OpenTraining { round });
    }
}

impl EventPolicy for SyncPolicy {
    fn seed(&mut self, fed: &mut Federation, queue: &mut EventQueue<Event>) {
        membership::log_initial_skews(fed, self.plan.as_ref(), &self.members);
        self.end_time = fed.setup_done;
        if fed.config().workload.rounds > 0 {
            queue.schedule(fed.setup_done, Event::OpenTraining { round: 1 });
        }
    }

    fn handle(
        &mut self,
        fed: &mut Federation,
        queue: &mut EventQueue<Event>,
        at: SimTime,
        event: Event,
    ) {
        match event {
            Event::MembershipChange { cluster } => {
                // The registration seals with this round's phase
                // transaction (`open_training` re-issues right behind the
                // join and flushes), so the join is visible to this round.
                membership::register(fed, cluster, at);
                membership::join(
                    fed,
                    &mut self.members,
                    self.plan.as_mut(),
                    cluster,
                    at,
                    self.opening_round,
                );
            }
            Event::OpenTraining { round } => self.open_training(fed, queue, at, round),
            Event::TrainingDone { cluster, round } => self.training_done(fed, cluster, round),
            Event::StartScoring { round } => self.start_scoring(fed, queue, round),
            Event::ScoresDue { cluster, round } => self.scores_due(fed, cluster, round),
            Event::RoundBarrier { round } => self.round_barrier(fed, queue, round),
            Event::RegroupDue { epoch } => {
                // Window sizing is untouched by the new epoch — regrouped
                // shards respect the epoch-0 capacity bound. The barrier's
                // seal/exchange/open continuation resumes for the
                // regrouping round once the epoch is installed.
                let Some(every) = topology::sharded(fed).and_then(|tp| tp.config.regroup) else {
                    return;
                };
                let t = topology::regroup_due(fed, at, epoch);
                self.end_time = t;
                self.advance_past_barrier(fed, queue, t, epoch * every);
            }
            Event::ShardSealDue { epoch } => {
                // The barrier absorbs the sealing work: no cluster clock to
                // charge. The exchange fires once the slowest seal has
                // landed and the sealing block is mined.
                let seal_end = topology::shard_seal_due(fed, &self.members, at, epoch, |_, _| {});
                let t = fed.flush_chain_at(seal_end);
                topology::schedule_exchange(fed, queue, t, epoch, |c| self.members.participates(c));
            }
            Event::ShardExchange { epoch } => {
                let Some(every) = topology::sharded(fed).map(|tp| tp.config.exchange_every) else {
                    return;
                };
                // The next round opens once the slowest fold is done.
                let participates = |c| self.members.participates(c);
                let end = topology::shard_exchange(fed, at, participates, |_, _| {});
                let t = fed.flush_chain_at(end);
                self.end_time = t;
                self.open_round(fed, queue, t, epoch * every + 1);
            }
            Event::PrefetchDue { cluster, .. } => {
                if self.members.participates(cluster) {
                    topology::prefetch_due(fed, cluster);
                }
            }
            Event::FetchAhead { cluster, .. } => {
                if self.members.participates(cluster) {
                    fed.fetch_ahead_into(cluster);
                }
            }
            // Sync needs no end-of-run drain: every phase boundary already
            // flushed the chain, and retransmission timing is part of the
            // pinned reference order.
            Event::SealSlot | Event::ClusterWake { .. } => {}
        }
    }

    fn finish(self: Box<Self>, fed: &mut Federation, wave: Option<usize>) -> EngineOutcome {
        let end_time = self.end_time;
        EngineOutcome {
            per_cluster_time: vec![end_time; fed.clusters.len()],
            final_global: final_merge(fed, &self.members, wave),
            straggler_rounds: self.straggler_rounds,
            rejected_scores: self.rejected_scores,
            end_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use crate::orchestration::Mode;
    use unifyfl_sim::fault::{ChaosConfig, FaultEvent, FaultKind};

    /// Steps the quickstart as a Sync run, cluster 1's clock `skew_ms`
    /// behind, through cluster 1's round-1 `ScoresDue`: the instant its last
    /// score lands, the scoring window's close, and how many of its scores
    /// the window refused.
    fn last_score(skew_ms: u64) -> (SimTime, SimTime, u64) {
        let skew = SimDuration::from_millis(skew_ms);
        let kind = FaultKind::ClockSkew { skew };
        let config = ExperimentConfig {
            mode: Mode::Sync,
            chaos: Some(ChaosConfig::scripted(vec![FaultEvent {
                cluster: 1,
                round: 1,
                kind,
            }])),
            ..ExperimentConfig::default()
        };
        let mut fed = Federation::assemble(&config).expect("the quickstart assembles");
        let mut policy = SyncPolicy::new(&fed);
        let mut queue = EventQueue::new();
        policy.seed(&mut fed, &mut queue);
        let due = Event::ScoresDue {
            cluster: 1,
            round: 1,
        };
        loop {
            let (at, event) = queue.pop().expect("round 1 scores");
            // Each scored model keeps the scorer busy a fetch and an
            // inference (`book_score`).
            let busy = (event == due).then(|| {
                let scored = policy.pending_scores[1].as_deref();
                let scored = scored.expect("cluster 1 made the training window");
                let score = fed.clusters[1].score_duration();
                scored
                    .iter()
                    .fold(SimDuration::ZERO, |t, s| t + s.fetch_cost + score)
            });
            policy.handle(&mut fed, &mut queue, at, event);
            if let Some(busy) = busy {
                let landing = policy.scoring_start + skew + busy;
                return (landing, policy.scoring_end, policy.rejected_scores[1]);
            }
        }
    }

    /// §3.2's scoring window includes its close: a score that lands exactly
    /// at `scoring_end` is submitted, and the same score one clock tick
    /// (1 ms) later is lost to the closed window.
    #[test]
    fn a_score_at_the_window_close_is_submitted_and_one_ms_later_is_not() {
        let (landing, close, rejected) = last_score(1);
        assert_eq!(rejected, 0, "a 1 ms skew leaves slack");
        let slack = close.saturating_since(landing).as_millis();
        let (landing, close, rejected) = last_score(1 + slack);
        assert_eq!(landing, close, "the last score lands at the close");
        assert_eq!(rejected, 0, "a score at the close is in the window");
        let (landing, close, rejected) = last_score(2 + slack);
        assert_eq!(landing, close + SimDuration::from_millis(1));
        assert_eq!(rejected, 1, "a score 1 ms past the close is refused");
    }
}
