//! Async: the no-barrier policy (§3.3, Figure 6).

use std::collections::{HashSet, VecDeque};

use unifyfl_chain::orchestrator::OrchestrationMode;
use unifyfl_fl::fanout;
use unifyfl_sim::{EventQueue, SimDuration, SimTime};
use unifyfl_storage::Cid;

use super::membership::{self, Members};
use super::{final_merge, topology, EngineOutcome};
use crate::cluster::ClusterRoundRecord;
use crate::events::{Event, EventPolicy};
use crate::federation::{ComputeView, Federation};
use crate::sharding::ShardTopology;
use crate::step::{
    book_score, commit_train_effects, compute_scores, compute_train, prepare_scoring,
    prepare_train, Evals,
};

/// The free-running clockwork of one Async run. Run-wide knobs and the
/// live shard topology are read from the federation; the policy holds
/// only its cadences, clocks and queues.
pub(crate) struct AsyncPolicy {
    /// The configured round count, read on every eligibility check.
    rounds: u64,
    /// Inter-shard seal cadence in virtual time: seal `k` fires at
    /// `setup_done + k × seal_period` (`exchange_every` nominal round
    /// lengths), independent of how far each cluster's clock has drifted —
    /// the async analogue of the sync engine's every-`exchange_every`-rounds
    /// barrier hook.
    seal_period: SimDuration,
    /// Topology-epoch cadence in virtual time: regroup `k` fires at
    /// `setup_done + k × regroup_period` (`regroup` nominal round lengths)
    /// — the async analogue of the sync engine's every-`regroup`-rounds
    /// barrier hook. Zero when regrouping is
    /// off.
    regroup_period: SimDuration,
    /// A shard seal/exchange event is in flight; holds the end-of-run
    /// `SealSlot` drain back until the cadence chain decides to stop.
    shard_pending: bool,
    /// A regroup event is in flight; holds the `SealSlot` drain back like
    /// `shard_pending` does.
    regroup_pending: bool,
    clock: Vec<SimTime>,
    rounds_done: Vec<u64>,
    tasks: Vec<VecDeque<Cid>>,
    finished_at: Vec<Option<SimTime>>,
    members: Members,
    /// How much of the contract's append-only entry log has been dealt out
    /// as scoring duties. Async assigns scorers at submission, so an entry
    /// is complete the moment it is appended and is dealt exactly once.
    distributed: usize,
    /// Crash events already charged to a cluster (each fires once: the
    /// in-flight attempt is lost, then the round is redone after restart).
    crashes_spent: HashSet<(usize, u64)>,
    /// Whether a `ClusterWake` for the cluster is in the queue.
    wake: Vec<bool>,
    pending_joins: usize,
    seal_scheduled: bool,
    end_time: SimTime,
    /// Whether a training wake hands its two global-test evaluations to
    /// the run's eval lane instead of running them inline: when one
    /// evaluation is worth a thread under the run's lanes
    /// ([`fanout::offloads`]). Every cluster trains the workload's one
    /// model on the one global test set, so one evaluation's cost decides
    /// for the whole run.
    defer_evals: bool,
}

impl AsyncPolicy {
    /// Builds the no-barrier policy for `fed`: asserts the contract mode
    /// and scorer compatibility, derives the virtual-time seal and regroup
    /// cadences from the shard topology, and skews each cluster's starting
    /// clock per the fault plan. The returned policy is inert until the
    /// first step calls [`EventPolicy::seed`].
    ///
    /// # Panics
    ///
    /// Panics if the federation's contract is not in Async mode, or the
    /// scorer requires full-round visibility (MultiKRUM — Table 3 forbids
    /// it here).
    pub(crate) fn new(fed: &Federation) -> AsyncPolicy {
        let config = fed.config();
        let workload = &config.workload;
        assert_eq!(
            fed.contract().mode(),
            OrchestrationMode::Async,
            "async engine needs an async-mode contract"
        );
        assert!(
            !config.scorer.requires_full_round(),
            "async mode does not support weight-similarity scoring (Table 3)"
        );
        let n = fed.clusters.len();
        let topology = topology::sharded(fed);
        // The async cadence has no barrier to hook, so seals fire on
        // virtual time: every `exchange_every` *nominal round lengths*
        // (the slowest founder's intra-shard pull + train + publish) — the
        // same "every few rounds" rhythm the sync engine gets from its
        // barrier count.
        let nominal_round = |tp: &ShardTopology| {
            let fan_out = tp.max_shard_size() as u64 - 1;
            fed.clusters
                .iter()
                .filter(|c| c.config().joins_at.is_none())
                .map(|c| {
                    c.fetch_duration() * fan_out
                        + c.train_duration(workload.local_epochs)
                        + c.publish_duration()
                })
                .max()
                .expect("at least two founders")
        };
        let seal_period = topology
            .map(|tp| nominal_round(tp) * tp.config.exchange_every)
            .unwrap_or(SimDuration::ZERO);
        // The regroup cadence rides the same virtual-time rhythm, with its
        // own period.
        let regroup_period = topology
            .and_then(|tp| tp.config.regroup.map(|every| nominal_round(tp) * every))
            .unwrap_or(SimDuration::ZERO);
        // A skewed cluster's whole timeline runs behind the federation's.
        let clock: Vec<SimTime> = (0..n)
            .map(|idx| fed.setup_done + fed.clock_skew(idx))
            .collect();
        let eval = fed.clusters[0].eval_flops(fed.global_test.len());
        AsyncPolicy {
            rounds: workload.rounds as u64,
            seal_period,
            regroup_period,
            shard_pending: false,
            regroup_pending: false,
            clock,
            rounds_done: vec![0; n],
            tasks: vec![VecDeque::new(); n],
            finished_at: vec![None; n],
            members: Members::new(fed),
            distributed: 0,
            crashes_spent: HashSet::new(),
            wake: vec![false; n],
            pending_joins: 0,
            seal_scheduled: false,
            end_time: fed.setup_done,
            defer_evals: fanout::offloads(config.lanes, eval),
        }
    }

    /// Deals out the scorer assignments the contract has recorded since
    /// the last call.
    fn distribute(&mut self, fed: &Federation) {
        let entries = fed.contract().entries();
        for (position, entry) in entries.iter().enumerate().skip(self.distributed) {
            if let Some((cid, _)) = fed.entry_cids(position) {
                for scorer_addr in &entry.scorers {
                    if let Some(i) = fed
                        .clusters
                        .iter()
                        .position(|c| c.address() == *scorer_addr)
                    {
                        self.tasks[i].push_back(cid);
                    }
                }
            }
        }
        self.distributed = entries.len();
    }

    /// True if the cluster still has work to pop from the queue.
    fn eligible(&self, idx: usize) -> bool {
        self.members.participates(idx)
            && (self.rounds_done[idx] < self.rounds || !self.tasks[idx].is_empty())
    }

    /// Re-syncs the wake set with eligibility: every eligible cluster gets
    /// a `ClusterWake` at its clock, keyed by its index — so the queue's
    /// pop order is exactly the reference `min_by_key((clock, idx))`
    /// selection. Once nothing is eligible and no joins are pending, the
    /// end-of-run `SealSlot` drain is scheduled at the latest clock.
    fn ensure_wakes(&mut self, queue: &mut EventQueue<Event>) {
        let mut any = false;
        for idx in 0..self.clock.len() {
            if self.eligible(idx) {
                any = true;
                if !self.wake[idx] {
                    self.wake[idx] = true;
                    let wake = Event::ClusterWake { cluster: idx };
                    queue.schedule_keyed(self.clock[idx], idx as u64, wake);
                }
            }
        }
        if !any
            && self.pending_joins == 0
            && !self.shard_pending
            && !self.regroup_pending
            && !self.seal_scheduled
        {
            self.seal_scheduled = true;
            self.end_time = self.clock.iter().copied().max().unwrap_or(self.end_time);
            queue.schedule(self.end_time, Event::SealSlot);
        }
    }

    fn wake(
        &mut self,
        fed: &mut Federation,
        queue: &mut EventQueue<Event>,
        t: SimTime,
        idx: usize,
    ) {
        self.wake[idx] = false;
        // A shard seal/exchange may have pushed this cluster's clock past
        // the instant the wake was scheduled at; drop the stale wake and
        // re-arm at the new clock.
        if self.clock[idx] > t {
            self.ensure_wakes(queue);
            return;
        }
        let orch = fed.orchestrator;

        fed.advance_chain_to(t);
        self.distribute(fed);

        // Chaos: the free-running timeline hits this cluster's next fault.
        // Decisions are pure reads of the plan; mutations follow once the
        // borrow is released.
        enum FaultHit {
            Leave,
            Crash { down: u64 },
        }
        let round = self.rounds_done[idx] + 1;
        let hit = match fed.fault_plan() {
            Some(p) if p.has_left(idx, round.min(self.rounds)) => Some(FaultHit::Leave),
            Some(p)
                if round <= self.rounds
                    && p.crash_starts(idx, round)
                    && !self.crashes_spent.contains(&(idx, round)) =>
            {
                Some(FaultHit::Crash {
                    down: p.crash_down_rounds_at(idx, round),
                })
            }
            _ => None,
        };
        match hit {
            Some(FaultHit::Leave) => {
                self.members.live[idx] = false;
                self.tasks[idx].clear();
                self.finished_at[idx] = Some(t);
                fed.log_fault(idx, round, "leave", "left the federation");
                self.ensure_wakes(queue);
                return;
            }
            Some(FaultHit::Crash { down }) => {
                // The in-flight round is lost and the cluster sits out this
                // crash's own window, then redoes the round — async churn
                // costs time, not rounds (Table 3's "low straggler
                // impact"). Later crash windows are charged when they fire.
                self.crashes_spent.insert((idx, round));
                let lost = fed.clusters[idx].train_duration(fed.config().workload.local_epochs);
                self.clock[idx] = t + lost + lost * down;
                fed.log_fault(
                    idx,
                    round,
                    "crash",
                    "attempt lost; round redone after restart",
                );
                self.ensure_wakes(queue);
                return;
            }
            None => {}
        }

        if let Some(cid) = self.tasks[idx].pop_front() {
            // Scoring duty first: an idle aggregator scores as soon as the
            // assignment reaches it (Figure 6 step 4) — the round step's
            // scoring, inline on the stepping thread's lane.
            let tasks = prepare_scoring(fed, idx, [cid], None);
            let ComputeView {
                clusters, lanes, ..
            } = fed.compute_view();
            if let Some(scored) = compute_scores(&clusters[idx], &mut lanes[0].eval, tasks).pop() {
                let done = t + book_score(fed, idx, &scored);
                let tx = fed.clusters[idx].score_tx(orch, &cid, scored.score);
                fed.submit_cluster_tx_at(done, tx);
                self.clock[idx] = done;
                if !self.tasks[idx].is_empty() {
                    // More duties queued: warm their models while this
                    // score's inference runs, so the next pop's fetch
                    // lands as a cache hit. Fires at `done`, strictly
                    // before the rescheduled wake (same-time FIFO).
                    topology::schedule_fetch_ahead(fed, queue, done, idx, round);
                }
            }
            self.ensure_wakes(queue);
            return;
        }

        // Otherwise: run the next training round — the same round step as
        // the sync engine (prepare inputs, cluster-local compute, then
        // commit the chain/storage/accounting effects). The whole action
        // commits atomically at wake time: splitting decide from commit
        // would change what concurrently-waking clusters observe on-chain.
        // Only the two global-test evaluations may leave the stepping
        // thread: their results fill this round's record, which nothing
        // reads before the run settles.
        let inputs = prepare_train(fed, idx, round);
        let record = fed.clusters[idx].records.len();
        let mut result = {
            let ComputeView {
                clusters,
                lanes,
                evals,
                global_test,
                config,
            } = fed.compute_view();
            let evals = if self.defer_evals {
                Evals::Deferred {
                    lane: evals,
                    cluster: idx,
                    record,
                }
            } else {
                Evals::Inline
            };
            compute_train(
                &mut clusters[idx],
                &mut lanes[0],
                inputs,
                config,
                global_test,
                evals,
            )
        };
        let publish = commit_train_effects(fed, idx, round, &mut result);
        let finish = t + result.pull + result.train + publish;

        let cid = fed.clusters[idx].store_model(round);
        let tx = fed.clusters[idx].submit_model_tx(orch, &cid);
        fed.submit_cluster_tx_at(finish, tx);
        // Seal promptly so scorers learn their assignment.
        fed.flush_chain_at(finish);
        self.distribute(fed);

        self.rounds_done[idx] = round;
        self.clock[idx] = finish;
        fed.clusters[idx].record(ClusterRoundRecord {
            round,
            peers_merged: result.peers_merged,
            local_accuracy: result.local_accuracy,
            local_loss: result.local_loss,
            global_accuracy: result.global_accuracy,
            global_loss: result.global_loss,
            completed_at_secs: finish.as_secs_f64(),
        });
        if round < self.rounds {
            // Warm the next round's candidates at the instant this round's
            // publish lands: the event fires at `finish`, strictly before
            // the rescheduled training wake (same-time FIFO), so the next
            // pull hits a warm cache.
            topology::schedule_fetch_ahead(fed, queue, finish, idx, round + 1);
        }
        if round == self.rounds {
            self.finished_at[idx] = Some(finish);
        }
        self.ensure_wakes(queue);
    }

    fn membership_change(
        &mut self,
        fed: &mut Federation,
        queue: &mut EventQueue<Event>,
        t: SimTime,
        idx: usize,
    ) {
        self.pending_joins -= 1;
        fed.advance_chain_to(t);
        membership::register(fed, idx, t);
        // Seal promptly: the joiner must be registered before its first
        // submission, and peers can assign it scoring duties from here on.
        fed.flush_chain_at(t);
        // The joiner free-runs from its join: its own round 1 comes first.
        let behind = membership::join(fed, &mut self.members, idx, t, 1);
        self.clock[idx] = t + behind;
        self.distribute(fed);
        self.ensure_wakes(queue);
    }

    /// True while the cluster still has rounds to run: it takes part in
    /// exchanges and prefetches. A finished cluster keeps scoring (and
    /// sealing, as a shard representative) but folds in nothing more.
    fn working(&self, idx: usize) -> bool {
        self.members.participates(idx) && self.finished_at[idx].is_none()
    }

    /// The cadence chains' liveness condition: a join is pending, or some
    /// participant still has rounds to run. Once false the chains end and
    /// the `SealSlot` drain can fire.
    fn rounds_remain(&self) -> bool {
        self.pending_joins > 0
            || (0..self.clock.len())
                .any(|i| self.members.participates(i) && self.rounds_done[i] < self.rounds)
    }
}

impl EventPolicy for AsyncPolicy {
    fn seed(&mut self, fed: &mut Federation, queue: &mut EventQueue<Event>) {
        for idx in 0..fed.clusters.len() {
            if let Some(jt) = self.members.join_time[idx] {
                self.pending_joins += 1;
                queue.schedule_keyed(jt, idx as u64, Event::MembershipChange { cluster: idx });
            }
        }
        if let Some(tp) = topology::sharded(fed) {
            self.shard_pending = true;
            // Regroups are scheduled ahead of seals so that at a shared
            // cadence instant the fresh grouping shapes the seal
            // (same-time FIFO pops the regroup first).
            if tp.config.regroup.is_some() {
                self.regroup_pending = true;
                queue.schedule(
                    fed.setup_done + self.regroup_period,
                    Event::RegroupDue { epoch: 1 },
                );
            }
            queue.schedule(
                fed.setup_done + self.seal_period,
                Event::ShardSealDue { epoch: 1 },
            );
        }
        self.ensure_wakes(queue);
    }

    fn handle(
        &mut self,
        fed: &mut Federation,
        queue: &mut EventQueue<Event>,
        at: SimTime,
        event: Event,
    ) {
        match event {
            Event::ClusterWake { cluster } => self.wake(fed, queue, at, cluster),
            Event::MembershipChange { cluster } => self.membership_change(fed, queue, at, cluster),
            Event::RegroupDue { epoch } => {
                fed.advance_chain_to(at);
                let sealed = topology::regroup_due(fed, at, epoch);
                if self.rounds_remain() {
                    let next = (fed.setup_done + self.regroup_period * (epoch + 1)).max(sealed);
                    queue.schedule(next, Event::RegroupDue { epoch: epoch + 1 });
                } else {
                    self.regroup_pending = false;
                }
                self.ensure_wakes(queue);
            }
            Event::ShardSealDue { epoch } => {
                fed.advance_chain_to(at);
                // The sealing work lands on each representative's own
                // free-running clock, pushing its next wake back.
                let clock = &mut self.clock;
                let seal_end =
                    topology::shard_seal_due(fed, &self.members, at, epoch, |rep, spent| {
                        clock[rep] = clock[rep].max(at) + spent;
                    });
                fed.flush_chain_at(seal_end);
                topology::schedule_exchange(fed, queue, seal_end, epoch, |c| self.working(c));
                self.ensure_wakes(queue);
            }
            Event::ShardExchange { epoch } => {
                fed.advance_chain_to(at);
                // Every cluster still working pays the fetch cost on its
                // own clock.
                let clock = &mut self.clock;
                let (members, finished_at) = (&self.members, &self.finished_at);
                topology::shard_exchange(
                    fed,
                    at,
                    |c| members.participates(c) && finished_at[c].is_none(),
                    |idx, spent| clock[idx] = clock[idx].max(at) + spent,
                );
                if self.rounds_remain() {
                    // A slow seal/exchange can overrun the cadence instant;
                    // never schedule into the past.
                    let next = (fed.setup_done + self.seal_period * (epoch + 1)).max(at);
                    queue.schedule(next, Event::ShardSealDue { epoch: epoch + 1 });
                } else {
                    self.shard_pending = false;
                }
                self.ensure_wakes(queue);
            }
            Event::PrefetchDue { cluster, .. } => {
                if self.working(cluster) {
                    topology::prefetch_due(fed, cluster);
                }
            }
            Event::FetchAhead { cluster, .. } => {
                // Warm while training rounds remain, or while scoring
                // duties are still queued (a finished cluster keeps
                // scoring; its queue drains with warmed fetches).
                if self.members.participates(cluster)
                    && (self.finished_at[cluster].is_none() || !self.tasks[cluster].is_empty())
                {
                    fed.fetch_ahead_into(cluster);
                }
            }
            // End-of-run drain: seal everything due, flushing any still-
            // pending transactions (exactly the reference's final flush).
            Event::SealSlot => {
                fed.flush_chain_at(at);
            }
            // Barrier events never arise under the no-barrier policy.
            Event::OpenTraining { .. }
            | Event::TrainingDone { .. }
            | Event::StartScoring { .. }
            | Event::ScoresDue { .. }
            | Event::RoundBarrier { .. } => {}
        }
    }

    fn finish(self: Box<Self>, fed: &mut Federation, wave: Option<usize>) -> EngineOutcome {
        let n = fed.clusters.len();
        let end_time = self.end_time;
        EngineOutcome {
            per_cluster_time: self
                .finished_at
                .iter()
                .map(|f| f.unwrap_or(end_time))
                .collect(),
            straggler_rounds: vec![0; n],
            rejected_scores: vec![0; n],
            final_global: final_merge(fed, &self.members, wave),
            end_time,
        }
    }
}
