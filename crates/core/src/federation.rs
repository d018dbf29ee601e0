//! Federation assembly: wiring clusters, the blockchain and the storage
//! fabric together, plus the chain-driving helpers shared by the Sync and
//! Async engines.

use std::collections::HashMap;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::thread::JoinHandle;

use rand::rngs::StdRng;
use rand::SeedableRng;
use unifyfl_chain::chain::{Blockchain, ChainFaults};
use unifyfl_chain::clique::CliqueConfig;
use unifyfl_chain::orchestrator::{calls, DeltaRef, ModelEntry, UnifyFlContract};
use unifyfl_chain::types::{Address, Transaction};
use unifyfl_data::Dataset;
use unifyfl_fl::{EvalResult, EvalShell};
use unifyfl_sim::fault::{FaultPlan, FaultRecord};
use unifyfl_sim::{ChaosConfig, ResourceMonitor, SeedTree, SimDuration, SimTime};
use unifyfl_storage::network::LinkProfile;
use unifyfl_storage::topology::GossipTopology;
use unifyfl_storage::{Cid, GetReceipt, IpfsError, IpfsNetwork, StorageFaults};
use unifyfl_tensor::delta::apply_to_blob;
use unifyfl_tensor::weights_from_bytes;
use unifyfl_tensor::zoo::ModelSpec;

use crate::cluster::ClusterNode;
use crate::experiment::{ExperimentConfig, ExperimentError};
use crate::policy::ScoredCandidate;
use crate::sharding::ShardTopology;
use crate::step::{EvalStage, Lane};
use Process::{Aggregator, Client, Ipfs, Scorer};

/// How virtual time is charged for cross-silo weight transfers.
///
/// The storage fabric always *accounts* physical bytes (dedup, delta and
/// cache savings, PR 3); this knob decides whether those bytes also drive
/// the virtual clock:
///
/// - [`LinkModel::Nominal`] (the default, and the historical behavior):
///   every fetch costs the cluster's nominal
///   [`fetch_duration`](crate::cluster::ClusterNode::fetch_duration) —
///   full wire size over the device link, regardless of what actually
///   moved. Bandwidth savings show up in the transfer report only.
/// - [`LinkModel::Physical`]: every fetch costs the storage layer's
///   per-fetch elapsed time — actual bytes moved over the per-node
///   [`LinkProfile`] (bottleneck bandwidth + both latencies + DHT lookup),
///   so dedup/delta/cache savings become *virtual wall-clock* savings.
///   Injected latency-spike faults are routed through the same links
///   (they stretch the round's transfers instead of its training).
///
/// All pinned scenarios run [`LinkModel::Nominal`]; the link model never
/// changes which bytes arrive, only what they cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum LinkModel {
    /// Nominal device-profile transfer cost per fetch (reference model).
    #[default]
    Nominal,
    /// Physical-bytes transfer cost from the storage layer's link model.
    Physical,
}

impl std::fmt::Display for LinkModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkModel::Nominal => write!(f, "Nominal"),
            LinkModel::Physical => write!(f, "Physical"),
        }
    }
}

/// One elastic-membership change observed during a run (currently: mid-run
/// joins; permanent leaves stay in the chaos section where they originate).
#[derive(Debug, Clone, PartialEq)]
pub struct MembershipRecord {
    /// Name of the cluster whose membership changed.
    pub cluster: String,
    /// Virtual time of the change (seconds).
    pub at_secs: f64,
    /// Stable change label (`"join"`).
    pub change: String,
    /// Human-readable outcome (e.g. how many releases seeded the bootstrap).
    pub detail: String,
}

/// A peer model candidate, resolved from the contract view.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Content identifier of the weights on IPFS.
    pub cid: Cid,
    /// Submitting aggregator.
    pub submitter: Address,
    /// Raw per-scorer scores (already converted to floats).
    pub scores: Vec<f64>,
}

/// The outcome of [`Federation::fetch_peers`]: the peer models that
/// arrived and validated, and what pulling them cost.
#[derive(Debug)]
pub struct FetchedPeers {
    /// Fetched weight vectors of the fetching cluster's model length.
    pub peers: Vec<Vec<f32>>,
    /// Position of each kept peer in the requested CID sequence,
    /// index-aligned with `peers`.
    pub kept: Vec<usize>,
    /// Virtual time the kept fetches cost under the active link model.
    pub cost: SimDuration,
}

/// How many delta references back [`Federation::pull`] walks to find a base
/// the fetcher holds. Each hop adds a delta blob to the transfer, so a
/// walk pays only while the summed deltas stay smaller than the release.
/// `physical_bytes` in MB at seed 42, by cap:
///
/// | cap | `wan_transfer` | `sharded_fleet` |
/// |-----|----------------|-----------------|
/// | 1   | 19.131         | 10.766          |
/// | 2   | 17.494         | 10.154          |
/// | 3   | 17.384         | 10.166          |
/// | 4   | 17.360         | 10.341          |
///
/// Two is the best cap on `sharded_fleet`, whose 1.37 KB releases a
/// longer chain of deltas outgrows. On `wan_transfer` it saves 8.6 % of
/// the one-hop bytes, where no cap at all saves 9.3 % (cap 4 leaves no
/// fallback there).
const DELTA_HOPS: usize = 2;

/// The CIDs one contract entry names, parsed: the release and, when the
/// submitter registered a delta blob beside it, `(base_cid, delta_cid)`.
pub type EntryCids = (Cid, Option<(Cid, Cid)>);

/// Parses an on-chain delta reference into `(base_cid, delta_cid)`; `None`
/// if either string is not a well-formed CID (the reference is then simply
/// ignored and fetches go through the full path).
fn parse_delta_ref(d: &DeltaRef) -> Option<(Cid, Cid)> {
    Some((d.base_cid.parse().ok()?, d.delta_cid.parse().ok()?))
}

/// Parses one entry's CID strings; `None` if the release CID itself is
/// malformed (every reader then skips the entry).
fn parse_entry_cids(entry: &ModelEntry) -> Option<EntryCids> {
    let cid = entry.cid.parse().ok()?;
    Some((cid, entry.delta.as_ref().and_then(parse_delta_ref)))
}

/// Where a global-test evaluation handed to the [`EvalLane`] settles: the
/// record of one cluster's round, and which half of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EvalSlot {
    /// The evaluated cluster's index.
    pub cluster: usize,
    /// Position of the round's record in the cluster's history.
    pub record: usize,
    /// Which of the record's accuracy and loss pairs the result fills.
    pub stage: EvalStage,
}

/// A run's eval lane: one worker thread with its own [`EvalShell`] and a
/// copy of the global test set, started on the first hand-off, that
/// evaluates weight snapshots while the stepping thread goes on. Only an
/// Async run's training wakes hand it work, and only when one evaluation
/// reaches the fan-out grain and the run's lanes allow a second one
/// (`fanout::offloads`); every
/// other evaluation runs inline where it always did. No policy, contract
/// call or scorer reads a global-test result, so the results wait on the
/// lane until `Federation::settle_evals` joins it and writes them into
/// their records. Dropping the lane unsettled lets the thread finish the
/// few evaluations it holds and joins it.
#[derive(Default)]
pub struct EvalLane {
    worker: Option<EvalWorker>,
    /// Evaluations handed over since the federation was assembled.
    handed: u64,
}

/// The live half of an [`EvalLane`].
struct EvalWorker {
    /// The job queue. It holds one wake's two evaluations: a lane that
    /// falls further behind blocks the next hand-off, so a run holds at
    /// most three snapshots however far ahead its stepping thread gets.
    jobs: SyncSender<EvalJob>,
    thread: JoinHandle<Vec<(EvalSlot, EvalResult)>>,
}

/// One snapshot to evaluate on the global test set.
struct EvalJob {
    slot: EvalSlot,
    spec: ModelSpec,
    weights: Vec<f32>,
}

impl EvalLane {
    /// Hands the lane one evaluation of `weights` on `global_test`,
    /// starting the thread on first use. Blocks while the queue is full; a
    /// lane that has died re-raises its panic here.
    pub(crate) fn hand_off(
        &mut self,
        slot: EvalSlot,
        spec: &ModelSpec,
        weights: &[f32],
        global_test: &Dataset,
    ) {
        self.handed += 1;
        let worker = self
            .worker
            .get_or_insert_with(|| EvalWorker::start(global_test.clone()));
        let job = EvalJob {
            slot,
            spec: spec.clone(),
            weights: weights.to_vec(),
        };
        if worker.jobs.send(job).is_err() {
            self.join();
            unreachable!("the lane hangs up only by panicking");
        }
    }

    /// Closes the queue, waits for the thread to drain it and returns its
    /// results in hand-off order (none if the lane never started). A panic
    /// on the lane is re-raised with its original payload.
    fn join(&mut self) -> Vec<(EvalSlot, EvalResult)> {
        let Some(EvalWorker { jobs, thread }) = self.worker.take() else {
            return Vec::new();
        };
        drop(jobs);
        thread
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    }
}

impl EvalWorker {
    fn start(global_test: Dataset) -> EvalWorker {
        let (jobs, queue) = sync_channel::<EvalJob>(2);
        let thread = std::thread::spawn(move || {
            let mut shell = EvalShell::default();
            queue
                .iter()
                .map(|job| {
                    let eval = shell.evaluate(&job.spec, &job.weights, &global_test);
                    (job.slot, eval)
                })
                .collect()
        });
        EvalWorker { jobs, thread }
    }
}

impl Drop for EvalLane {
    fn drop(&mut self) {
        if let Some(EvalWorker { jobs, thread }) = self.worker.take() {
            drop(jobs);
            // A panic on the lane has no run left to fail.
            let _ = thread.join();
        }
    }
}

/// The round step's compute-phase borrows of a [`Federation`]: see
/// [`Federation::compute_view`].
pub struct ComputeView<'a> {
    /// Every cluster, mutably.
    pub clusters: &'a mut [ClusterNode],
    /// The compute lanes' model shells.
    pub lanes: &'a mut Vec<Lane>,
    /// The run's eval lane.
    pub evals: &'a mut EvalLane,
    /// The held-out global test set.
    pub global_test: &'a Dataset,
    /// The validated configuration: the workload and the lane setting.
    pub config: &'a ExperimentConfig,
}

/// The data pipeline and cluster nodes of `config`, validated first — the
/// one way in for every arm: [`Federation::assemble`] and the
/// [`baseline`](crate::baseline) runs. Generates the dataset, holds out
/// the global test split, partitions the rest across the clusters and
/// builds each one's node on a fresh storage fabric (its link an explicit
/// override or the device profile's), all from the shared initial weights.
///
/// # Errors
///
/// What `validate()` reports, and the data-dependent half it cannot know
/// before the partition has drawn: [`ExperimentError::TooFewSamples`] if
/// the dataset cannot give every cluster a shard,
/// [`ExperimentError::ShardTooSmall`] if a shard cannot give every client
/// of its cluster a training sample. Neither check draws from an RNG, so
/// clusters that assemble are bit-for-bit the ones they always were.
pub(crate) fn assemble_clusters(
    config: &ExperimentConfig,
) -> Result<(Vec<ClusterNode>, Dataset, IpfsNetwork), ExperimentError> {
    config.validate()?;
    let seed = config.seed;
    let workload = &config.workload;
    let n = config.clusters.len();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFEDE);
    let (pool, global_test) = workload.dataset.generate(seed).split(0.15, &mut rng);
    if pool.len() < n {
        return Err(ExperimentError::TooFewSamples {
            samples: pool.len(),
            clusters: n,
        });
    }
    let shards = config.partition.split(&pool, n, &mut rng);

    // The cache stream derives from the experiment seed. The publish path
    // is unaffected by the fetch-side knobs — full blobs, delta blobs and
    // on-chain references are always produced — so they change bytes
    // moved, never results.
    let ipfs = IpfsNetwork::new();
    ipfs.configure_transfer(config.transfer, SeedTree::new(seed).seed("fetch-cache"));

    // Common initial weights: FL requires a shared initialization.
    let init_weights = workload.model.build(seed).flat_params();
    let mut clusters = Vec::with_capacity(n);
    for (i, (cluster, shard)) in config.clusters.iter().zip(shards).enumerate() {
        let link = cluster.link.unwrap_or(LinkProfile {
            bandwidth_bps: cluster.client_device.net_bandwidth_bps(),
            latency: cluster.client_device.net_latency(),
        });
        clusters.push(ClusterNode::try_new(
            cluster.clone(),
            workload.model.clone(),
            &shard,
            init_weights.clone(),
            ipfs.add_node(link),
            seed.wrapping_add(1000 + i as u64),
        )?);
    }
    Ok((clusters, global_test, ipfs))
}

/// The assembled federation: clusters + chain + storage + bookkeeping.
pub struct Federation {
    /// Cluster nodes, index-aligned with the experiment's cluster configs.
    pub clusters: Vec<ClusterNode>,
    /// The private Clique chain running the orchestrator contract.
    pub chain: Blockchain,
    /// Address of the deployed orchestrator contract.
    pub orchestrator: Address,
    /// The shared storage fabric.
    pub ipfs: IpfsNetwork,
    /// Held-out global test set (never seen by any client or scorer).
    pub global_test: Dataset,
    /// One [`Lane`] of model shells per lane the widest compute phase so
    /// far ran on: every fit, global-test pass and scoring pass runs on the
    /// shells of the lane it is computed on. Never empty — index 0 is the
    /// stepping thread's own, which every inline pass uses (an Async wake,
    /// a phase on one lane).
    pub(crate) lanes: Vec<Lane>,
    /// The run's eval lane: where an Async wake's global-test evaluations
    /// run when they are worth a thread (see [`EvalLane`]).
    evals: EvalLane,
    /// Resource accounting for Table 7.
    pub resources: ResourceMonitor,
    /// Virtual instant at which setup (registration) completed.
    pub setup_done: SimTime,
    /// The validated configuration the federation was assembled from: the
    /// one owner of every run-wide knob the engines read.
    config: ExperimentConfig,
    /// Installed fault schedule (chaos experiments only).
    fault_plan: Option<FaultPlan>,
    /// Per-fault outcomes observed by the engines.
    chaos_records: Vec<FaultRecord>,
    /// Membership changes observed by the engines (mid-run joins).
    membership_records: Vec<MembershipRecord>,
    /// Cluster transactions dropped in gossip, awaiting retransmission.
    lost_txs: Vec<Transaction>,
    /// Count of retransmitted transactions.
    retried_txs: u64,
    /// The current two-tier shard topology, when the experiment runs
    /// sharded: the config-time derivation until the first
    /// [`Federation::regroup_epoch`], the latest regroup's after. The one
    /// copy: the policies and the gossip overlay read it here.
    sharding: Option<ShardTopology>,
    /// The contract's entry log with its CID strings parsed, index-aligned
    /// with [`UnifyFlContract::entries`]. Entries are append-only and
    /// their CID strings immutable, so each is base58-decoded exactly
    /// once — in [`Federation::record_block_seal`], the one place a block
    /// that can append entries is sealed — and every reader indexes this
    /// by entry position instead of parsing again.
    entry_cids: Vec<Option<EntryCids>>,
    /// Entry position of each parsed release CID (CIDs are unique on
    /// chain: a duplicate submission reverts).
    entry_of: HashMap<Cid, usize>,
}

impl Federation {
    /// Assembles the federation `config` describes — the only constructor.
    /// Builds the clusters through [`assemble_clusters`] (which validates
    /// first, so no configuration [`ExperimentConfig::validate`] rejects
    /// ever reaches an engine), boots the chain with the clusters as Clique
    /// signers, deploys the orchestrator contract (with the shard
    /// topology's address → shard map and scorer cap when sharded; empty
    /// when single-shard — behaviorally flat), registers the founders, then
    /// installs the gossip overlay and the expanded fault plan.
    ///
    /// # Errors
    ///
    /// What [`assemble_clusters`] reports.
    pub(crate) fn assemble(config: &ExperimentConfig) -> Result<Federation, ExperimentError> {
        let (clusters, global_test, ipfs) = assemble_clusters(config)?;
        let seed = config.seed;
        let sharding = config
            .sharding
            .as_ref()
            .map(|s| ShardTopology::derive(s, seed, clusters.len()));

        // Chain: every cluster is a Clique signer (the permissioned
        // consortium of the paper).
        let addresses: Vec<Address> = clusters.iter().map(ClusterNode::address).collect();
        let mut chain = Blockchain::new(CliqueConfig::default(), addresses.clone());
        let orchestrator = Address::from_label("unifyfl-orchestrator");
        let mut contract = UnifyFlContract::new(orchestrator, config.mode.to_chain());
        if let Some(topology) = &sharding {
            // A single-shard map stays empty: the contract's default shard
            // is 0, so the deployment is byte-identical to the flat one.
            let map = if topology.is_sharded() {
                addresses
                    .iter()
                    .enumerate()
                    .map(|(i, a)| (*a, topology.shard_of(i) as u32))
                    .collect()
            } else {
                HashMap::new()
            };
            contract = contract.with_sharding(map, topology.config.scorers_per_release);
        }
        chain.deploy(orchestrator, Box::new(contract));

        let mut fed = Federation {
            clusters,
            chain,
            orchestrator,
            ipfs,
            global_test,
            lanes: vec![Lane::default()],
            evals: EvalLane::default(),
            resources: ResourceMonitor::new(),
            setup_done: SimTime::ZERO,
            config: config.clone(),
            fault_plan: None,
            chaos_records: Vec::new(),
            membership_records: Vec::new(),
            lost_txs: Vec::new(),
            retried_txs: 0,
            sharding,
            entry_cids: Vec::new(),
            entry_of: HashMap::new(),
        };

        // Register every *founding* aggregator; elastic joiners
        // (`ClusterConfig::joins_at`) register mid-run via the engines'
        // membership events. Seal the registration block.
        let orch = fed.orchestrator;
        for c in fed.clusters.iter_mut() {
            if c.config().joins_at.is_some() {
                continue;
            }
            let tx = c.register_tx(orch);
            fed.chain.submit(tx);
        }
        let t = fed.chain.next_seal_time();
        fed.chain.seal_next(t).expect("registration block seals");
        fed.setup_done = t;

        fed.install_gossip();
        if let Some(chaos) = config.chaos.as_ref().filter(|c| !c.is_quiescent()) {
            fed.install_chaos(chaos);
        }
        Ok(fed)
    }

    /// The validated configuration the federation was assembled from.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Expands `chaos` into the run's one fault schedule, arms the storage
    /// and chain injectors with its derived seeds and the layer knobs, and
    /// settles every founder's faults from round 1, which logs the
    /// standing clock skews before any other record. One derived seed
    /// makes the whole schedule (and the injector streams) a pure function
    /// of the experiment seed.
    fn install_chaos(&mut self, chaos: &ChaosConfig) {
        let plan = FaultPlan::expand(
            chaos,
            SeedTree::new(self.config.seed).seed("chaos"),
            self.clusters.len(),
            self.config.workload.rounds as u64,
        );
        if chaos.fetch_failure_prob > 0.0 || chaos.chunk_loss_prob > 0.0 {
            self.ipfs.install_faults(StorageFaults::new(
                plan.storage_seed(),
                chaos.fetch_failure_prob,
                chaos.chunk_loss_prob,
                chaos.chunk_retries,
            ));
        }
        if chaos.missed_seal_prob > 0.0 || chaos.dropped_tx_prob > 0.0 {
            let faults = ChainFaults::new(
                plan.chain_seed(),
                chaos.missed_seal_prob,
                chaos.dropped_tx_prob,
            );
            self.chain.install_faults(faults);
        }
        self.fault_plan = Some(plan);
        for idx in 0..self.clusters.len() {
            if self.clusters[idx].config().joins_at.is_none() {
                self.settle_faults(idx, 1);
            }
        }
    }

    /// The installed fault schedule, if any: the one both engines read,
    /// with a Sync joiner's pre-join faults pruned once it joins.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// How far `cluster`'s clock runs behind the federation's (zero
    /// without a fault plan).
    pub(crate) fn clock_skew(&self, cluster: usize) -> SimDuration {
        self.fault_plan
            .as_ref()
            .map_or(SimDuration::ZERO, |p| p.clock_skew(cluster))
    }

    /// Settles `cluster`'s fault schedule from `first_round`, the first
    /// round it takes part in (founders: 1; a Sync joiner: the round being
    /// opened; an Async joiner: its own round 1). The plan was expanded
    /// with no knowledge of `joins_at`, so the cluster's faults before
    /// `first_round` are pruned and logged as skipped; a standing clock
    /// skew is kept and logged against `first_round`. Returns the skew.
    pub(crate) fn settle_faults(&mut self, cluster: usize, first_round: u64) -> SimDuration {
        let Some(plan) = self.fault_plan.as_mut() else {
            return SimDuration::ZERO;
        };
        for e in plan.extract_pre_join(cluster, first_round) {
            self.log_fault(cluster, e.round, e.kind.label(), "skipped: not yet joined");
        }
        let skew = self.clock_skew(cluster);
        if !skew.is_zero() {
            let outcome = "clock runs behind the federation";
            self.log_fault(cluster, first_round, "clock_skew", outcome);
        }
        skew
    }

    /// The *current* two-tier shard topology (the latest epoch), when the
    /// experiment runs sharded.
    pub fn shard_topology(&self) -> Option<&ShardTopology> {
        self.sharding.as_ref()
    }

    /// Derives and installs the next topology epoch
    /// ([`Event::RegroupDue`](crate::events::Event)): regroups the
    /// clusters by weight-space distance over their *current* weights
    /// ([`ShardTopology::regroup`]). When the assignment moved a cluster
    /// it replaces the federation's topology — the only copy the engines
    /// read — submits the `updateSharding` transaction at `at` (so scorer
    /// sampling and intra-shard visibility follow the new grouping) and
    /// re-derives the gossip neighborhoods from the new shards; when it
    /// did not move, or the federation runs unsharded, nothing changes.
    ///
    /// A pure function of federation state: replaying the event trace
    /// (checkpoint resume) re-derives the identical epoch.
    pub fn regroup_epoch(&mut self, epoch: u64, at: SimTime) {
        let Some(current) = &self.sharding else {
            return;
        };
        let weights: Vec<Vec<f32>> = self.clusters.iter().map(|c| c.weights().to_vec()).collect();
        let next = current.regroup(epoch, &weights, self.config.seed);
        if next.assignment == current.assignment {
            return;
        }
        let members: Vec<(Address, u32)> = self
            .clusters
            .iter()
            .enumerate()
            .map(|(i, c)| (c.address(), next.shard_of(i) as u32))
            .collect();
        self.sharding = Some(next);
        let tx = self.phase_tx(calls::update_sharding(epoch, &members));
        self.submit_tx_at(at, tx);
        self.install_gossip();
    }

    /// Derives and installs the seeded gossip overlay on the storage
    /// fabric, when the config asks for one. Shards double as
    /// neighborhoods when the federation is sharded; otherwise the whole
    /// federation forms one neighborhood (whose ring + chords is already a
    /// small world).
    fn install_gossip(&mut self) {
        let Some(config) = self.config.gossip else {
            return;
        };
        let neighborhoods: Vec<usize> = match self.sharding.as_ref().filter(|t| t.is_sharded()) {
            Some(t) => (0..self.clusters.len()).map(|i| t.shard_of(i)).collect(),
            None => vec![0; self.clusters.len()],
        };
        let seed = SeedTree::new(self.config.seed).seed("gossip");
        let topology = GossipTopology::derive(&config, seed, &neighborhoods);
        self.ipfs.install_topology(config, topology);
    }

    /// Pulls `cids`, in order, into `cluster`'s store and cache, ahead of
    /// the fetch that will read them: a gossip prefetch before a shard
    /// exchange, or [`Federation::fetch_ahead_into`]. Each goes through
    /// `Federation::pull`, so a warm-up moves a delta wherever the round's
    /// own fetch would have. Charges nothing to the virtual clock or the
    /// resource monitor — the transfer overlaps an idle window, which is
    /// the point of warming — and ignores failures; the later fetch keeps
    /// its ordinary retry accounting.
    pub fn warm(&self, cluster: usize, cids: impl IntoIterator<Item = Cid>) {
        for cid in cids {
            let _ = self.pull(cluster, cid);
        }
    }

    /// Records a fired fault's outcome for the experiment report.
    pub fn log_fault(&mut self, cluster: usize, round: u64, kind: &str, outcome: &str) {
        let name = self.clusters[cluster].config().name.clone();
        self.chaos_records.push(FaultRecord {
            cluster: name,
            round,
            kind: kind.to_owned(),
            outcome: outcome.to_owned(),
        });
    }

    /// Per-fault outcomes observed so far.
    pub fn chaos_records(&self) -> &[FaultRecord] {
        &self.chaos_records
    }

    /// Records a membership change (mid-run join) for the report.
    pub fn log_membership(&mut self, cluster: usize, at: SimTime, change: &str, detail: &str) {
        let name = self.clusters[cluster].config().name.clone();
        self.membership_records.push(MembershipRecord {
            cluster: name,
            at_secs: at.as_secs_f64(),
            change: change.to_owned(),
            detail: detail.to_owned(),
        });
    }

    /// Membership changes observed so far.
    pub fn membership_records(&self) -> &[MembershipRecord] {
        &self.membership_records
    }

    /// Warms one cluster's storage cache with every model the coming
    /// round could pull: the merge candidates — the RNG-free superset of
    /// what [`prepare_train`](crate::step::prepare_train)'s policy will
    /// select — plus the cluster's outstanding scoring assignments. The
    /// latter are the genuinely cold first-touches: a freshly published
    /// model has no scores yet, so it is invisible to
    /// [`Federation::candidates_for`], yet this cluster must pull it
    /// before it can score. The warm-up overlaps the previous round's
    /// compute ([`Federation::warm`]); the round's fetch path keeps its
    /// ordinary accounting, it just finds the bytes cached.
    pub fn fetch_ahead_into(&self, cluster: usize) {
        let candidates = self.candidates_for(cluster);
        self.warm(cluster, candidates.iter().map(|c| c.cid));
        let addr = self.clusters[cluster].address();
        let entries = self.contract().entries().iter().enumerate();
        let duties = entries.filter(|(_, entry)| {
            let assigned = entry.scorers.contains(&addr);
            let pending = !entry.scores.iter().any(|(scorer, _)| *scorer == addr);
            assigned && pending
        });
        let cids = duties.filter_map(|(position, _)| Some(self.entry_cids(position)?.0));
        self.warm(cluster, cids);
    }

    /// Transactions retransmitted after gossip drops.
    pub fn retried_txs(&self) -> u64 {
        self.retried_txs
    }

    /// Seals every block due up to virtual time `t` by draining the
    /// chain's seal-slot schedule ([`Blockchain::seal_due_slot`] — the
    /// Clique sealer keeps producing blocks each period). Dropped cluster
    /// transactions are retransmitted first, and injected missed slots
    /// shift block production later instead of sealing.
    pub fn advance_chain_to(&mut self, t: SimTime) {
        use unifyfl_chain::chain::SlotOutcome;
        self.retransmit_lost_txs();
        loop {
            match self.chain.seal_due_slot(t).expect("periodic seal") {
                SlotOutcome::Sealed(_) => self.record_block_seal(),
                SlotOutcome::Missed => {}
                SlotOutcome::NotDue => break,
            }
        }
    }

    /// Advances to `t`, then — if transactions are still pending — seals
    /// one more block at the next period boundary so they execute (skipping
    /// past any injected missed slots). Returns the timestamp of the chain
    /// head afterwards.
    pub fn flush_chain_at(&mut self, t: SimTime) -> SimTime {
        self.advance_chain_to(t);
        if self.chain.pool_len() > 0 {
            while self.chain.slot_misses_seal() {}
            let ts = self.chain.next_seal_time();
            self.chain.seal_next(ts).expect("flush seal");
            self.record_block_seal();
        }
        self.chain.head().header.timestamp
    }

    /// Submits a transaction timed at `t` (sealing everything due first, so
    /// chain state is consistent with virtual time).
    pub fn submit_tx_at(&mut self, t: SimTime, tx: Transaction) {
        self.advance_chain_to(t);
        self.chain.submit(tx);
    }

    /// Submits a *cluster* transaction (model/score submission) timed at
    /// `t` over the faultable gossip layer. A dropped transaction is queued
    /// and retransmitted the next time the chain advances, exactly as a
    /// real client would re-gossip an unconfirmed transaction.
    pub fn submit_cluster_tx_at(&mut self, t: SimTime, tx: Transaction) {
        self.advance_chain_to(t);
        if !self.chain.submit_unreliable(tx.clone()) {
            self.lost_txs.push(tx);
        }
    }

    fn retransmit_lost_txs(&mut self) {
        if self.lost_txs.is_empty() {
            return;
        }
        for tx in std::mem::take(&mut self.lost_txs) {
            self.chain.submit(tx);
            self.retried_txs += 1;
        }
    }

    /// Read-only view of the orchestrator contract.
    pub fn contract(&self) -> &UnifyFlContract {
        self.chain
            .view::<UnifyFlContract>(self.orchestrator)
            .expect("orchestrator deployed")
    }

    /// The peer-model candidates currently visible to `viewer` (the
    /// contract's `getLatestModelsWithScores`).
    pub fn candidates_for(&self, viewer: usize) -> Vec<Candidate> {
        let addr = self.clusters[viewer].address();
        let contract = self.contract();
        contract
            .latest_scored_positions(Some(addr))
            .into_iter()
            .filter_map(|position| {
                let (cid, _) = self.entry_cids(position)?;
                let entry = &contract.entries()[position];
                Some(Candidate {
                    cid,
                    submitter: entry.submitter,
                    scores: entry.score_values(),
                })
            })
            .collect()
    }

    /// The parsed CIDs of the contract entry at `position` of
    /// [`UnifyFlContract::entries`]; `None` if its on-chain CID string is
    /// malformed.
    ///
    /// # Panics
    ///
    /// Panics if the entry was appended by a block sealed behind the
    /// federation's back: seal through [`Federation::advance_chain_to`] /
    /// [`Federation::flush_chain_at`], which also keep the resource
    /// accounting in step with the chain.
    pub fn entry_cids(&self, position: usize) -> Option<EntryCids> {
        self.entry_cids[position]
    }

    /// Reduces candidates to `(ScoredCandidate, index)` pairs under the
    /// viewer's score policy; candidates with no scores yet are dropped
    /// (they cannot be ranked).
    pub fn scored_candidates(
        &self,
        viewer: usize,
        candidates: &[Candidate],
    ) -> Vec<ScoredCandidate> {
        let policy = self.clusters[viewer].config().score_policy;
        candidates
            .iter()
            .enumerate()
            .filter_map(|(index, c)| {
                policy
                    .reduce(&c.scores)
                    .map(|score| ScoredCandidate { index, score })
            })
            .collect()
    }

    /// The viewer's own latest reduced score (for the Above-Self policy).
    pub fn self_score_of(&self, viewer: usize) -> Option<f64> {
        let cluster = &self.clusters[viewer];
        let position = *self.entry_of.get(&cluster.last_published()?)?;
        let entry = &self.contract().entries()[position];
        cluster.config().score_policy.reduce(&entry.score_values())
    }

    /// The virtual time one fetch by `cluster` costs under the active
    /// [`LinkModel`], given the storage layer's `physical` elapsed time for
    /// it: the cluster's nominal per-model
    /// [`fetch_duration`](crate::cluster::ClusterNode::fetch_duration), or
    /// the physical time itself. The one place the link model prices a
    /// fetch.
    pub fn fetch_cost(&self, cluster: usize, physical: SimDuration) -> SimDuration {
        match self.config.link_model {
            LinkModel::Nominal => self.clusters[cluster].fetch_duration(),
            LinkModel::Physical => physical,
        }
    }

    /// The `(base_cid, delta_cid)` reference the contract holds for `cid`,
    /// if any.
    fn delta_ref_of(&self, cid: Cid) -> Option<(Cid, Cid)> {
        self.entry_cids(*self.entry_of.get(&cid)?)?.1
    }

    /// The delta references [`Federation::pull`] walks for `cid`: its own
    /// `(base_cid, delta_cid)`, then its base's, and so on, at most
    /// [`DELTA_HOPS`] of them. Empty when the contract holds no reference
    /// for `cid`; a chain that loops back on itself ends at the cap.
    fn delta_hops(&self, cid: Cid) -> Vec<(Cid, Cid)> {
        std::iter::successors(self.delta_ref_of(cid), |&(base, _)| self.delta_ref_of(base))
            .take(DELTA_HOPS)
            .collect()
    }

    /// One pull of `cid` into `cluster`'s IPFS node — the first attempt of
    /// every fetch and every warm-up. With a `(base_cid, delta_cid)`
    /// reference on the contract for `cid` it is a
    /// [`get_with_delta_chain`](unifyfl_storage::IpfsNode::get_with_delta_chain)
    /// along [`Federation::delta_hops`], which moves only the deltas back
    /// to the nearest base the node holds when the storage layer's
    /// `transfer.delta` is on, reconstructing in byte space
    /// ([`apply_to_blob`]) and verifying against `cid`; otherwise, and on
    /// any mismatch, it fetches in full. Without a reference it is a `get`.
    fn pull(&self, cluster: usize, cid: Cid) -> Result<GetReceipt, IpfsError> {
        let node = self.clusters[cluster].ipfs();
        let hops = self.delta_hops(cid);
        if hops.is_empty() {
            return node.get(cid);
        }
        node.get_with_delta_chain(cid, &hops, |b, d| apply_to_blob(b, d).ok())
    }

    /// The one path by which a peer's model reaches a cluster: pulls
    /// `cids` into `cluster`'s IPFS node, in order, and decodes them.
    /// Content that is unavailable, corrupt or not of the cluster's model
    /// length is skipped and costs nothing — the CID guarantees
    /// silently-corrupted bytes are never ingested, and a registered
    /// release is untrusted input, so one of another length is skipped as
    /// an unfetchable one is, never scored or merged. Under an installed
    /// fault plan a failed fetch is retried once — fresh provider
    /// resolution, fresh fault rolls — before giving up; every retry's
    /// outcome is recorded as recovered or permanently failed.
    ///
    /// The first attempt is `Federation::pull`, so a CID with an
    /// on-chain delta reference moves only the delta blob when the base is
    /// already local; the decoded weights are identical either way.
    ///
    /// Each kept fetch is charged [`Federation::fetch_cost`] of the storage
    /// layer's physical elapsed time (actual bytes moved over the per-node
    /// link, near-zero for cache/local hits); on the retried path only the
    /// successful attempt is.
    pub fn fetch_peers(&self, cluster: usize, cids: impl IntoIterator<Item = Cid>) -> FetchedPeers {
        let node = self.clusters[cluster].ipfs();
        let want = self.clusters[cluster].weights().len();
        let mut fetched = FetchedPeers {
            peers: Vec::new(),
            kept: Vec::new(),
            cost: SimDuration::ZERO,
        };
        for (position, cid) in cids.into_iter().enumerate() {
            let receipt = match self.pull(cluster, cid) {
                Err(_) if self.fault_plan.is_some() => {
                    self.ipfs.record_fetch_retry();
                    // Retry with a plain full fetch. Re-running the delta
                    // attempt would roll the delta machinery again and count
                    // a second `delta_fallbacks` for the same logical fetch
                    // — the inner fallback's faults would then surface as
                    // extra outer retries, inflating `fetch_recoveries`.
                    let retried = node.get(cid);
                    self.ipfs.record_fetch_retry_outcome(retried.is_ok());
                    retried
                }
                first => first,
            };
            let Ok(receipt) = receipt else { continue };
            let weights = weights_from_bytes(&receipt.data).ok();
            if let Some(w) = weights.filter(|w| w.len() == want) {
                fetched.peers.push(w);
                fetched.kept.push(position);
                fetched.cost += self.fetch_cost(cluster, receipt.elapsed);
            }
        }
        fetched
    }

    /// Disjoint borrows for the round step's compute phase: every cluster,
    /// the lanes' model shells and the eval lane (mutably) plus the shared
    /// read-only global test set and workload. The parallel engine hands
    /// one cluster at a time and one lane to each scoped thread; nothing
    /// else in the federation is reachable from compute.
    pub fn compute_view(&mut self) -> ComputeView<'_> {
        ComputeView {
            clusters: &mut self.clusters,
            lanes: &mut self.lanes,
            evals: &mut self.evals,
            global_test: &self.global_test,
            config: &self.config,
        }
    }

    /// Waits for the eval lane to finish what it was handed and writes each
    /// result into the record field it belongs to; a no-op when nothing was
    /// handed over since the last settle. A panic on the lane is re-raised
    /// here with its original payload. Every read of a round record's
    /// accuracy or loss comes after a settle: the finish of a run (before
    /// the final merge, whose `last_global` fallback reads them, and the
    /// report) and [`RunState::federation`](crate::service::RunState::federation).
    pub(crate) fn settle_evals(&mut self) {
        for (slot, eval) in self.evals.join() {
            let record = &mut self.clusters[slot.cluster].records[slot.record];
            let (accuracy, loss) = match slot.stage {
                EvalStage::Global => (&mut record.global_accuracy, &mut record.global_loss),
                EvalStage::Local => (&mut record.local_accuracy, &mut record.local_loss),
            };
            (*accuracy, *loss) = (eval.accuracy, eval.loss);
        }
    }

    /// How many global-test evaluations this run has handed to its eval
    /// lane: zero wherever every evaluation ran inline.
    pub fn deferred_evals(&self) -> u64 {
        self.evals.handed
    }

    /// Phase-driving transaction from cluster 0 (any registered aggregator
    /// may cycle the phases).
    pub fn phase_tx(&mut self, call: Vec<u8>) -> Transaction {
        let orch = self.orchestrator;
        self.clusters[0].next_tx(orch, call)
    }

    // ---- resource-model hooks (Table 7) ------------------------------

    /// Memory model: megabytes resident for each process class, derived
    /// from the model's wire size (weights + gradients + optimizer state
    /// for clients; several model copies plus framework for aggregators).
    pub fn mem_mb(&self, process: Process) -> f64 {
        let wire_mb = self.config.workload.model.wire_bytes() as f64 / 1.0e6;
        match process {
            Process::Client => wire_mb * 3.3,
            Process::Aggregator => wire_mb * 20.0 + 300.0,
            Process::Scorer => wire_mb * 1.9,
            Process::Ipfs => 19.0,
        }
    }

    /// Books `dur` of each `(process, cpu %)` row, in row order — the order
    /// the resource summaries (and so every report fingerprint) were pinned
    /// in.
    fn record_burst(&mut self, dur: SimDuration, rows: &[(Process, f64)]) {
        if dur.is_zero() {
            return;
        }
        let secs = dur.as_secs_f64();
        for &(process, cpu) in rows {
            let mem = self.mem_mb(process);
            self.resources.record(process.label(), cpu, mem, secs);
        }
    }

    /// Records a client training burst; the aggregator and scorer roles of
    /// the cluster idle alongside (their duty cycle is what produces the
    /// low means with large deviations the paper reports).
    pub fn record_training_burst(&mut self, dur: SimDuration) {
        let rows = [
            (Client, 82.0),
            (Aggregator, 1.8),
            (Scorer, 0.6),
            (Ipfs, 0.5),
        ];
        self.record_burst(dur, &rows);
    }

    /// Records idle time for a cluster's processes (sync-mode waiting).
    pub fn record_idle(&mut self, dur: SimDuration) {
        let rows = [(Client, 2.0), (Aggregator, 1.2), (Scorer, 0.6), (Ipfs, 0.5)];
        self.record_burst(dur, &rows);
    }

    /// Records an aggregator burst (pull/merge/publish work); clients and
    /// the scorer role idle meanwhile.
    pub fn record_agg_burst(&mut self, dur: SimDuration) {
        self.record_burst(dur, &[(Aggregator, 12.0), (Client, 2.0), (Scorer, 0.6)]);
    }

    /// Records a scoring burst; clients and the aggregator idle meanwhile.
    pub fn record_scoring_burst(&mut self, dur: SimDuration) {
        self.record_burst(dur, &[(Scorer, 68.0), (Client, 2.0), (Aggregator, 1.2)]);
    }

    /// Records an IPFS transfer burst.
    pub fn record_ipfs_burst(&mut self, dur: SimDuration) {
        self.record_burst(dur, &[(Ipfs, 10.0)]);
    }

    /// Books one sealed block: its resource cost, and the CIDs of every
    /// entry it appended to the contract log (parsed here, once).
    fn record_block_seal(&mut self) {
        let contract = self
            .chain
            .view::<UnifyFlContract>(self.orchestrator)
            .expect("orchestrator deployed");
        for entry in &contract.entries()[self.entry_cids.len()..] {
            let parsed = parse_entry_cids(entry);
            if let Some((cid, _)) = parsed {
                self.entry_of.insert(cid, self.entry_cids.len());
            }
            self.entry_cids.push(parsed);
        }
        // Sealing a Clique block costs ~0.5 s of ~2% CPU; with a 5 s period
        // that averages to the paper's 0.2% Geth overhead.
        self.resources.record("geth", 2.0, 6.0, 0.5);
        self.resources.record("geth", 0.0, 6.0, 4.5);
        self.resources.record("ipfs", 0.5, 19.0, 5.0);
    }
}

/// Process classes tracked by the resource model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Process {
    /// An FL client trainer.
    Client,
    /// The cluster aggregator.
    Aggregator,
    /// The scoring duty of a cluster.
    Scorer,
    /// The cluster's storage daemon.
    Ipfs,
}

impl Process {
    /// The class's key in the resource monitor (Table 7's row).
    fn label(self) -> &'static str {
        match self {
            Process::Client => "client",
            Process::Aggregator => "agg",
            Process::Scorer => "scorer",
            Process::Ipfs => "ipfs",
        }
    }
}

impl std::fmt::Debug for Federation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Federation")
            .field("clusters", &self.clusters.len())
            .field("chain_height", &self.chain.height())
            .field("spec", &self.config.workload.model.name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::orchestration::Mode;
    use crate::policy::{AggregationPolicy, ScorePolicy};
    use unifyfl_data::{SyntheticConfig, WorkloadConfig};
    use unifyfl_fl::fanout::Lanes;
    use unifyfl_sim::DeviceProfile;

    fn tiny_workload() -> WorkloadConfig {
        let mut dataset = SyntheticConfig::cifar10_like(300);
        dataset.input = unifyfl_tensor::zoo::InputKind::Flat(16);
        dataset.n_classes = 4;
        dataset.noise_scale = 0.5;
        dataset.label_noise = 0.0;
        WorkloadConfig {
            name: "tiny-test".into(),
            model: ModelSpec::mlp(16, vec![16], 4),
            dataset,
            rounds: 2,
            local_epochs: 1,
            batch_size: 16,
            learning_rate: 0.05,
        }
    }

    fn configs(n: usize) -> Vec<ClusterConfig> {
        (0..n)
            .map(|i| {
                ClusterConfig::edge(format!("agg-{i}"), DeviceProfile::edge_cpu())
                    .with_policy(AggregationPolicy::All)
                    .with_score_policy(ScorePolicy::Mean)
            })
            .collect()
    }

    fn config(mode: Mode, clusters: usize) -> ExperimentConfig {
        ExperimentConfig {
            workload: tiny_workload(),
            mode,
            clusters: configs(clusters),
            ..ExperimentConfig::default()
        }
    }

    fn fed(mode: Mode) -> Federation {
        Federation::assemble(&config(mode, 3)).expect("the tiny workload assembles")
    }

    #[test]
    fn setup_registers_all_clusters() {
        let f = fed(Mode::Async);
        assert_eq!(f.contract().aggregators().len(), 3);
        assert_eq!(f.clusters.len(), 3);
        assert!(f.chain.height() >= 1);
        assert!(f.setup_done > SimTime::ZERO);
    }

    #[test]
    fn global_test_is_held_out() {
        let f = fed(Mode::Async);
        let total_cluster: usize = f
            .clusters
            .iter()
            .map(|c| c.train_samples() + c.local_test().len())
            .sum();
        assert_eq!(total_cluster + f.global_test.len(), 300);
        assert!(f.global_test.len() > 20);
    }

    #[test]
    fn advance_chain_seals_periodically() {
        let mut f = fed(Mode::Async);
        let h0 = f.chain.height();
        f.advance_chain_to(SimTime::from_secs(60));
        // 5 s period ⇒ roughly one block per period.
        assert!(f.chain.height() >= h0 + 10);
        f.chain.verify().unwrap();
    }

    #[test]
    fn publish_then_candidates_visible_after_scoring() {
        let mut f = fed(Mode::Async);
        let orch = f.orchestrator;
        let t0 = f.setup_done;

        // Cluster 1 trains and publishes a model. (Training matters: an
        // untrained publish re-releases the shared initial model — same
        // CID, so no delta reference accompanies it.)
        f.clusters[1].run_local_round(&mut f.lanes[0].train, Lanes::Host, 1, 16, 0.05);
        let cid = f.clusters[1].store_model(1);
        let tx = f.clusters[1].submit_model_tx(orch, &cid);
        f.submit_tx_at(t0, tx);
        let t1 = f.flush_chain_at(t0);

        // Async mode assigned scorers immediately; nothing visible until a
        // score arrives.
        assert!(f.candidates_for(0).is_empty());

        let entry = f
            .contract()
            .entry(&cid.to_string())
            .expect("entry recorded");
        let scorer_addr = entry.scorers[0];
        let scorer_idx = f
            .clusters
            .iter()
            .position(|c| c.address() == scorer_addr)
            .expect("scorer is a cluster");

        // The scorer fetches and scores it.
        let weights = f
            .fetch_peers(scorer_idx, [cid])
            .peers
            .pop()
            .expect("fetchable");
        let score = f.clusters[scorer_idx].score_weights(&mut f.lanes[0].eval, &weights);
        let tx = f.clusters[scorer_idx].score_tx(orch, &cid, score);
        f.submit_tx_at(t1, tx);
        f.flush_chain_at(t1);

        let cands = f.candidates_for(0);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].cid, cid);
        // The round-1 publish carries a delta reference against the shared
        // initial model, which the fetch path looks up by CID.
        let (base, delta) = f.delta_ref_of(cid).expect("delta reference recorded");
        assert_ne!(base, cid);
        assert_ne!(delta, cid);
        assert_eq!(cands[0].scores.len(), 1);
        // Viewer 1 (the submitter) must not see its own model.
        assert!(f.candidates_for(1).is_empty());

        // Reduced candidates under the viewer's policy.
        let scored = f.scored_candidates(0, &cands);
        assert_eq!(scored.len(), 1);
        assert!((scored[0].score - score).abs() < 1e-6);
    }

    /// The parsed-CID index is the entry log, position for position: one
    /// parse per entry (a slot is pushed only where `record_block_seal`
    /// parses, so the slot count *is* the parse count), equal to what
    /// parsing the on-chain strings on the spot gives, with a malformed
    /// CID recorded as skipped — and no reader adds to it.
    #[test]
    fn entry_cids_are_parsed_once_per_entry() {
        let mut f = fed(Mode::Async);
        let orch = f.orchestrator;
        let mut t = f.setup_done;
        assert!(f.entry_cids.is_empty());

        let mut published = Vec::new();
        for round in 1..=3u64 {
            for idx in 0..f.clusters.len() {
                f.clusters[idx].run_local_round(&mut f.lanes[0].train, Lanes::Host, 1, 16, 0.05);
                let cid = f.clusters[idx].store_model(round);
                let tx = f.clusters[idx].submit_model_tx(orch, &cid);
                f.submit_tx_at(t, tx);
                published.push(cid);
            }
            if round == 2 {
                // A submission whose CID string is not a CID at all.
                let tx = f.clusters[0].next_tx(orch, calls::submit_model("not-a-cid"));
                f.submit_tx_at(t, tx);
            }
            t = f.flush_chain_at(t);
            for viewer in 0..f.clusters.len() {
                f.candidates_for(viewer);
                f.fetch_ahead_into(viewer);
            }
            assert_eq!(f.entry_cids.len(), f.contract().entries().len());
        }

        let entries = f.contract().entries();
        assert_eq!(entries.len(), published.len() + 1);
        for (position, entry) in entries.iter().enumerate() {
            let on_the_spot = entry.cid.parse::<Cid>().ok().map(|cid| {
                let delta = entry.delta.as_ref().and_then(parse_delta_ref);
                (cid, delta)
            });
            assert_eq!(f.entry_cids(position), on_the_spot, "entry {position}");
        }
        let skipped = entries.iter().position(|e| e.cid == "not-a-cid").unwrap();
        assert_eq!(f.entry_cids(skipped), None);
        assert_eq!(f.entry_of.len(), published.len());
        for cid in published {
            let on_chain = f.contract().entry(&cid.to_string()).unwrap();
            let by_string = on_chain.delta.as_ref().and_then(parse_delta_ref);
            assert_eq!(f.delta_ref_of(cid), by_string);
        }
        assert_eq!(f.delta_ref_of(Cid::for_data(b"never published")), None);
    }

    /// The delta references `pull` walks: one hop back to the initial
    /// release (which carries no reference), two for a release two back,
    /// and never more than two however long the lineage or a loop in it.
    #[test]
    fn pull_walks_at_most_two_delta_references_back() {
        let mut f = fed(Mode::Async);
        let orch = f.orchestrator;
        let mut t = f.setup_done;
        let mut lineage = Vec::new();
        for round in 1..=3u64 {
            f.clusters[0].run_local_round(&mut f.lanes[0].train, Lanes::Host, 1, 16, 0.05);
            let cid = f.clusters[0].store_model(round);
            let tx = f.clusters[0].submit_model_tx(orch, &cid);
            f.submit_tx_at(t, tx);
            t = f.flush_chain_at(t);
            lineage.push(cid);
        }
        let hop = |cid| {
            f.delta_ref_of(cid)
                .expect("a trained release has a reference")
        };
        let [first, second, third] = [0, 1, 2].map(|k| hop(lineage[k]));
        assert_eq!(f.delta_ref_of(first.0), None, "the initial release");
        assert_eq!(f.delta_hops(lineage[0]), [first]);
        assert_eq!(second.0, lineage[0]);
        assert_eq!(f.delta_hops(lineage[1]), [second, first]);
        assert_eq!(third.0, lineage[1]);
        assert_eq!(f.delta_hops(lineage[2]), [third, second]);

        // A release registered without a reference (a shard release is
        // one) is a plain `get`.
        let blob = f.clusters[1].publish_release_blob(&vec![0.5; f.clusters[1].weights().len()]);
        assert_eq!(f.delta_hops(blob), []);

        // References are untrusted input: two releases naming each other
        // as base end the walk at the cap.
        let [x, y, dx, dy] = [b"x", b"y", b"p", b"q"].map(|b| Cid::for_data(b));
        for (cid, base, delta) in [(x, y, dx), (y, x, dy)] {
            let call =
                calls::submit_model_delta(&cid.to_string(), &base.to_string(), &delta.to_string());
            let tx = f.clusters[1].next_tx(orch, call);
            f.submit_tx_at(t, tx);
        }
        f.flush_chain_at(t);
        assert_eq!(f.delta_hops(x), [(y, dx), (x, dy)]);
    }

    #[test]
    fn a_panic_on_the_eval_lane_is_re_raised_at_settle_with_its_payload() {
        let mut f = fed(Mode::Async);
        let spec = f.clusters[0].spec().clone();
        let slot = EvalSlot {
            cluster: 0,
            record: 0,
            stage: EvalStage::Global,
        };
        // Weights of the wrong length: the evaluation on the lane panics.
        f.evals.hand_off(slot, &spec, &[0.0; 3], &f.global_test);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.settle_evals()));
        let payload = caught.expect_err("the lane's panic must re-raise");
        let msg = payload.downcast_ref::<String>().map_or("", String::as_str);
        assert!(
            msg.contains("flat parameter vector length mismatch"),
            "original payload survives: {msg}"
        );
    }

    #[test]
    fn fetch_of_unknown_cid_is_none() {
        let f = fed(Mode::Async);
        let ghost = Cid::for_data(b"never published");
        assert!(f.fetch_peers(0, [ghost]).peers.is_empty());
    }

    #[test]
    fn fetch_peers_validates_length_and_prices_under_the_link_model() {
        // Two releases from cluster 1: a well-formed model and a blob of
        // the wrong length. Fresh federations per measurement, so no
        // fetch is served from an earlier one's cache.
        let setup = |link_model: LinkModel| {
            let f = Federation::assemble(&ExperimentConfig {
                link_model,
                ..config(Mode::Async, 3)
            })
            .expect("the tiny workload assembles");
            let n = f.clusters[1].weights().len();
            let good = f.clusters[1].publish_release_blob(&vec![0.25; n]);
            let short = f.clusters[1].publish_release_blob(&[0.25; 3]);
            (f, good, short)
        };

        let (f, good, short) = setup(LinkModel::Nominal);
        let ghost = Cid::for_data(b"never published");
        let fetched = f.fetch_peers(0, [short, good, ghost, good]);
        // The mismatched and the unavailable peer are skipped, not
        // charged; positions index the requested sequence.
        assert_eq!(fetched.kept, vec![1, 3]);
        assert_eq!(fetched.peers.len(), 2);
        assert!(fetched
            .peers
            .iter()
            .all(|w| w.len() == f.clusters[0].weights().len()));
        // Nominal: the device-profile cost per kept fetch, whatever moved.
        assert_eq!(fetched.cost, f.clusters[0].fetch_duration() * 2);

        // Physical: exactly the storage layer's elapsed time for the one
        // kept fetch — the mismatched blob moved bytes but costs nothing.
        let (f, good, short) = setup(LinkModel::Physical);
        let fetched = f.fetch_peers(0, [short, good]);
        assert_eq!(fetched.kept, vec![1]);
        let (reference, good_again, _) = setup(LinkModel::Physical);
        assert_eq!(good, good_again);
        let alone = reference.fetch_peers(0, [good]).cost;
        assert!(!alone.is_zero());
        assert_ne!(alone, f.clusters[0].fetch_duration());
        assert_eq!(fetched.cost, alone);
    }

    /// A registered release is untrusted input: one whose length is not
    /// the model's is skipped by its scorer's fetch, as an unfetchable one
    /// is, instead of reaching inference and panicking there.
    #[test]
    fn a_registered_release_of_the_wrong_length_is_not_scored() {
        let mut f = fed(Mode::Async);
        let orch = f.orchestrator;
        let t0 = f.setup_done;
        let cid = f.clusters[1].publish_release_blob(&[0.25; 3]);
        let tx = f.clusters[1].next_tx(orch, calls::submit_model(&cid.to_string()));
        f.submit_tx_at(t0, tx);
        f.flush_chain_at(t0);

        let entry = f.contract().entry(&cid.to_string()).expect("registered");
        let scorer = entry.scorers[0];
        let scorer = f.clusters.iter().position(|c| c.address() == scorer);
        let scorer = scorer.expect("the scorer is a cluster");
        let tasks = crate::step::prepare_scoring(&f, scorer, [cid], None);
        let eval = &mut f.lanes[0].eval;
        assert!(crate::step::compute_scores(&f.clusters[scorer], eval, tasks).is_empty());
    }

    /// The federation's topology is the only copy the engines read: a
    /// regroup that moves clusters replaces it, tells the contract in one
    /// transaction, and a regroup that moves nothing submits nothing.
    #[test]
    fn regroup_epoch_installs_a_moved_assignment_and_submits_only_when_it_moves() {
        use crate::sharding::ShardConfig;
        let mut f = Federation::assemble(&ExperimentConfig {
            sharding: Some(ShardConfig::new(2)),
            ..config(Mode::Sync, 6)
        })
        .expect("the tiny workload assembles");
        // Two far-apart blobs, dealt so that each seeded shard holds two
        // clusters of one blob and one of the other.
        let seeded = f.shard_topology().expect("sharded").clone();
        let (s0, s1) = (seeded.members(0), seeded.members(1));
        assert_eq!((s0.len(), s1.len()), (3, 3));
        let near = [s0[0], s0[1], s1[2]];
        let n = f.clusters[0].weights().len();
        for idx in 0..f.clusters.len() {
            let center = if near.contains(&idx) { 0.0 } else { 10.0 };
            f.clusters[idx].adopt_weights(vec![center; n]);
        }
        let successes = |f: &Federation| {
            let blocks = (0..=f.chain.height()).filter_map(|b| f.chain.receipts(b));
            blocks.flatten().filter(|r| r.success).count()
        };
        let before = successes(&f);

        let t = f.setup_done;
        f.regroup_epoch(1, t);
        let t = f.flush_chain_at(t);
        let moved = f.shard_topology().expect("sharded").clone();
        assert_ne!(moved, seeded);
        let near_shard = moved.shard_of(near[0]);
        for idx in 0..f.clusters.len() {
            let same = moved.shard_of(idx) == near_shard;
            assert_eq!(same, near.contains(&idx), "cluster {idx} in {moved:?}");
            let on_chain = f.contract().shard_of(f.clusters[idx].address());
            assert_eq!(on_chain, moved.shard_of(idx) as u32, "cluster {idx}");
        }
        assert_eq!(successes(&f), before + 1);

        f.regroup_epoch(2, t + SimDuration::from_secs(60));
        assert_eq!(f.chain.pool_len(), 0);
        assert_eq!(f.shard_topology(), Some(&moved));
    }

    #[test]
    fn memory_model_tracks_wire_size() {
        let f = fed(Mode::Sync);
        assert!(f.mem_mb(Process::Aggregator) > f.mem_mb(Process::Client));
        assert!(f.mem_mb(Process::Client) > f.mem_mb(Process::Scorer));
    }

    #[test]
    fn single_cluster_rejected() {
        // The only constructor validates first.
        assert_eq!(
            Federation::assemble(&config(Mode::Sync, 1)).unwrap_err(),
            ExperimentError::TooFewClusters(1)
        );
    }
}
