//! The experiment driver: configuration, validation, execution, reporting.
//!
//! An [`ExperimentConfig`] fully describes one evaluation run (workload,
//! partition, mode, scorer, per-cluster policies/strategies/devices);
//! [`run_experiment`] builds the one [`RunState`](crate::service::RunState)
//! every run goes through — validate, assemble the [`Federation`], step the
//! matching engine policy — and distills an [`ExperimentReport`] whose rows
//! correspond one-to-one to the paper's Tables 5 and 6.

use std::collections::BTreeMap;

use unifyfl_data::{Partition, WorkloadConfig};
use unifyfl_sim::fault::{ChaosConfig, FaultKind, FaultRecord};
use unifyfl_sim::{ResourceSummary, SimDuration};
use unifyfl_storage::network::TransferConfig;
use unifyfl_storage::topology::GossipConfig;

use crate::byzantine::AttackKind;
use crate::cluster::{ClusterConfig, ClusterNode};
use crate::federation::Federation;
use crate::orchestration::EngineOutcome;

pub use crate::federation::{LinkModel, MembershipRecord};
pub use crate::orchestration::Mode;
use crate::policy::AggregationPolicy;
use crate::scoring::ScorerKind;
use crate::sharding::ShardConfig;
pub use crate::step::Engine;

/// A complete experiment description.
///
/// [`ExperimentConfig::default`] is the laptop quickstart; every other
/// configuration is that default with the fields it cares about set —
/// through [`ExperimentBuilder`] or by assignment. The struct is
/// `#[non_exhaustive]`, so no code outside this crate can spell out the
/// full field list: adding a defaulted knob is a one-file change.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ExperimentConfig {
    /// Master seed; every random stream derives from it.
    pub seed: u64,
    /// Display label (e.g. `"Run 2"`).
    pub label: String,
    /// The training workload.
    pub workload: WorkloadConfig,
    /// How data is split across clusters.
    pub partition: Partition,
    /// Sync or Async orchestration.
    pub mode: Mode,
    /// Scoring algorithm used by the federation.
    pub scorer: ScorerKind,
    /// Per-cluster configurations.
    pub clusters: Vec<ClusterConfig>,
    /// Operator safety factor when sizing sync phase windows.
    pub window_margin: f64,
    /// Fault-injection knobs; `None` (the default everywhere) runs the
    /// happy path. When set, the schedule expands deterministically from
    /// [`ExperimentConfig::seed`].
    pub chaos: Option<ChaosConfig>,
    /// Fetch-side transfer knobs (chunk dedup, delta fetch, fetch cache).
    /// The publish path is knob-independent, so two *fault-free*
    /// configurations differing only here produce bit-identical results —
    /// only the report's transfer section (bytes moved, hit/miss counters)
    /// differs. With [`ExperimentConfig::chaos`] armed the knobs change
    /// how the injected fault stream is consumed, so chaos outcomes may
    /// legitimately differ between transfer configurations.
    pub transfer: TransferConfig,
    /// Round-execution engine: the sequential reference or the two-phase
    /// parallel engine. Reports are byte-identical either way at the same
    /// seed — the engine changes wall-clock only, never results — so this
    /// deliberately does not appear in the [`ExperimentReport`].
    pub engine: Engine,
    /// How virtual time is charged for cross-silo transfers:
    /// [`LinkModel::Nominal`] (the default; device-profile cost per fetch)
    /// or [`LinkModel::Physical`] (actual bytes moved over each node's
    /// link — the PR 3 transfer savings become wall-clock savings).
    pub link_model: LinkModel,
    /// Two-tier shard topology; `None` (the default everywhere) runs the
    /// flat federation. When set, clusters are grouped into seeded shards:
    /// peer scoring and aggregation stay intra-shard, and shards exchange
    /// sealed releases on the [`ShardConfig::exchange_every`] cadence. A
    /// `shards = 1` topology is behaviorally flat (byte-identical reports).
    pub sharding: Option<ShardConfig>,
    /// Gossip overlay for storage dissemination; `None` (the default
    /// everywhere) keeps flat point-to-point fetches. When set, a seeded
    /// neighbor graph is derived (shards double as neighborhoods when
    /// sharding is on), remote fetches route hop-by-hop toward the
    /// nearest provider with chunk swarming, and the engines schedule
    /// prefetch-along-topology events ahead of shard exchanges. Under
    /// [`LinkModel::Nominal`] a fault-free gossip run is byte-identical
    /// to the flat run outside the report's transfer section — routing
    /// changes bytes and virtual time, never results.
    pub gossip: Option<GossipConfig>,
    /// Fetch/compute overlap: when `true` the engines schedule a
    /// [`FetchAhead`](crate::events::Event::FetchAhead) warm-up per cluster
    /// ahead of each round, pulling the candidate models the round could
    /// select into the cluster's cache while the previous round's compute
    /// is still (virtually) running. Under [`LinkModel::Physical`] this
    /// hides transfer time behind training; under [`LinkModel::Nominal`]
    /// results are identical to a cold run outside the report's transfer
    /// and timing sections (warming changes cache hit counters, never
    /// model bytes). Defaults to `false` everywhere, keeping default
    /// traces untouched.
    pub fetch_ahead: bool,
}

/// Validation failure for an experiment configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// MultiKRUM requires all of a round's submissions (Table 3).
    MultiKrumRequiresSync,
    /// MultiKRUM needs enough clusters for an admissible Byzantine bound:
    /// Krum assumes `n ≥ 2f + 3`, which no `f ≥ 0` satisfies below 3
    /// clusters. Carries the offending cluster count.
    MultiKrumTooFewClusters(usize),
    /// Cross-silo FL needs at least two clusters.
    TooFewClusters(usize),
    /// The window margin must be finite and at least 1.
    InvalidWindowMargin,
    /// A cluster's `straggle_factor` must be finite and strictly positive
    /// (window sizing divides by it). Carries the offending cluster's name.
    InvalidStraggleFactor(String),
    /// A cluster's explicit storage link must have finite, strictly
    /// positive bandwidth: transfer time divides by it, and a zero,
    /// negative or NaN divisor prices every transfer at zero. Carries the
    /// offending cluster's name.
    InvalidLinkBandwidth(String),
    /// A cluster's DP release needs a finite `clip_norm > 0` and a finite
    /// `noise_multiplier >= 0` (what [`DpConfig::new`](crate::byzantine::DpConfig::new)
    /// asserts, and more: its fields are public). Carries the offending
    /// cluster's name.
    InvalidDp(String),
    /// A cluster's attack needs a finite, non-inert parameter: a
    /// [`GaussianNoise`](crate::byzantine::AttackKind::GaussianNoise) σ
    /// above zero, a [`ScaleUp`](crate::byzantine::AttackKind::ScaleUp)
    /// factor other than 1. Carries the offending cluster's name.
    InvalidAttack(String),
    /// Elastic membership needs at least two *founding* clusters (a joiner
    /// must have a federation to join). Carries the founder count.
    TooFewFounders(usize),
    /// A joiner's `joins_at` offset must be strictly positive (a zero
    /// offset is a founder).
    InvalidJoinTime,
    /// A chaos knob is out of range (the name of the offending knob).
    InvalidChaos(&'static str),
    /// A cluster's release precision is outside 1 ..= 23 mantissa bits.
    InvalidReleasePrecision(u32),
    /// A sharding knob is out of range (the name of the offending knob).
    InvalidSharding(&'static str),
    /// A gossip knob is out of range (the name of the offending knob).
    InvalidGossip(&'static str),
    /// A workload knob is out of range (the name of the offending knob):
    /// training would panic on the first batch, or data synthesis before it.
    InvalidWorkload(&'static str),
    /// A cluster needs at least one client. Carries the cluster's name.
    NoClients(String),
    /// The dataset cannot give every cluster a shard: `samples` remain
    /// after the global test split, for `clusters` clusters.
    TooFewSamples {
        /// Samples left to partition.
        samples: usize,
        /// Clusters to partition them across.
        clusters: usize,
    },
    /// The run's nominal virtual length is past [`MAX_NOMINAL_HORIZON`].
    /// Carries the knob that puts it there — `window_margin`,
    /// `straggle_factor`, `joins_at` or `link.bandwidth_bps`, each finite
    /// and in its own domain — or `workload` when no single one does
    /// (rounds × model × samples), and the cluster it was set on, if any.
    HorizonTooLong {
        /// The offending knob.
        knob: &'static str,
        /// The cluster whose knob it is (`None` for federation-wide ones).
        cluster: Option<String>,
    },
    /// A cluster's shard cannot give each of its clients a training sample
    /// (found at assembly: shard sizes depend on the partition's draws).
    ShardTooSmall {
        /// The cluster's name.
        cluster: String,
        /// Training samples in its shard, after the scorer holdout.
        samples: usize,
        /// Clients configured for it.
        clients: usize,
    },
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::MultiKrumRequiresSync => {
                write!(f, "multikrum scoring is only supported in sync mode")
            }
            ExperimentError::MultiKrumTooFewClusters(n) => {
                write!(
                    f,
                    "multikrum scoring needs at least 3 clusters (Krum assumes n >= 2f + 3), got {n}"
                )
            }
            ExperimentError::TooFewClusters(n) => {
                write!(f, "cross-silo FL needs at least 2 clusters, got {n}")
            }
            ExperimentError::InvalidWindowMargin => {
                write!(f, "window margin must be finite and >= 1.0")
            }
            ExperimentError::InvalidStraggleFactor(cluster) => {
                write!(
                    f,
                    "straggle_factor of cluster {cluster:?} must be finite and > 0"
                )
            }
            ExperimentError::InvalidLinkBandwidth(cluster) => {
                write!(
                    f,
                    "link bandwidth of cluster {cluster:?} must be finite and > 0"
                )
            }
            ExperimentError::InvalidDp(cluster) => {
                write!(
                    f,
                    "dp of cluster {cluster:?} needs finite clip_norm > 0 and finite noise_multiplier >= 0"
                )
            }
            ExperimentError::InvalidAttack(cluster) => {
                write!(
                    f,
                    "attack of cluster {cluster:?} needs a finite sigma > 0 or a finite factor != 1"
                )
            }
            ExperimentError::TooFewFounders(n) => {
                write!(
                    f,
                    "elastic membership needs at least 2 founding clusters, got {n}"
                )
            }
            ExperimentError::InvalidJoinTime => {
                write!(f, "joins_at must be strictly positive (zero = founder)")
            }
            ExperimentError::InvalidChaos(knob) => {
                write!(f, "chaos knob {knob} is out of range")
            }
            ExperimentError::InvalidReleasePrecision(bits) => {
                write!(
                    f,
                    "release precision must keep 1..=23 mantissa bits, got {bits}"
                )
            }
            ExperimentError::InvalidSharding(knob) => {
                write!(f, "sharding knob {knob} is out of range")
            }
            ExperimentError::InvalidGossip(knob) => {
                write!(f, "gossip knob {knob} is out of range")
            }
            ExperimentError::InvalidWorkload(knob) => {
                write!(f, "workload knob {knob} is out of range")
            }
            ExperimentError::NoClients(cluster) => {
                write!(f, "cluster {cluster:?} needs at least one client")
            }
            ExperimentError::TooFewSamples { samples, clusters } => {
                write!(
                    f,
                    "{samples} samples after the global test split cannot be partitioned across {clusters} clusters"
                )
            }
            ExperimentError::HorizonTooLong { knob, cluster } => {
                write!(f, "{knob}")?;
                if let Some(cluster) = cluster {
                    write!(f, " of cluster {cluster:?}")?;
                }
                write!(
                    f,
                    " puts the run's nominal length past {} virtual seconds",
                    MAX_NOMINAL_HORIZON.as_secs_f64()
                )
            }
            ExperimentError::ShardTooSmall {
                cluster,
                samples,
                clients,
            } => {
                write!(
                    f,
                    "shard of cluster {cluster:?} has {samples} training samples for {clients} clients"
                )
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

/// The longest run [`ExperimentConfig::validate`] admits, measured on the
/// cost models alone: a hundred million virtual seconds, about three
/// years.
///
/// A ceiling has to exist because every time-scaling knob is unbounded in
/// its own domain (any finite margin ≥ 1, any finite positive straggle
/// factor or bandwidth, any join offset), the virtual clock saturates
/// rather than overflows, and the chain seals lazily — one Clique block
/// per five virtual seconds up to whatever instant the next event fires
/// at — so a run's host cost is at least linear in its virtual length:
/// `window_margin = 1e300` used to validate and then seal blocks
/// (practically) forever. It is a constant, not a knob, because nothing
/// the tree can express from its own presets comes within an order of
/// magnitude: the costliest, Tiny ImageNet's 138 M-parameter cost model
/// trained on an edge CPU for 50 rounds, is nominally 7.6 × 10⁶ s on this
/// check's pessimistic terms (3 × 10⁴ s on the GPU profile the paper
/// used; its own runs are hours). At twenty million blocks the ceiling is
/// tens of minutes of sealing — slow, bounded, and nowhere near the clock's
/// last millisecond.
pub const MAX_NOMINAL_HORIZON: SimDuration = SimDuration::from_secs(100_000_000);

/// A point on an accuracy-over-time curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// 1-based federation round the point belongs to. Under chaos a curve
    /// may have gaps (crashed rounds record nothing), so consumers must
    /// match on this rather than on curve position.
    pub round: u64,
    /// Virtual time (seconds).
    pub time_secs: f64,
    /// Global-model accuracy (percent).
    pub global_accuracy_pct: f64,
    /// Local-model accuracy (percent).
    pub local_accuracy_pct: f64,
}

/// One row of a results table: a single aggregator's outcome.
#[derive(Debug, Clone)]
pub struct AggregatorReport {
    /// Aggregator name.
    pub name: String,
    /// Aggregation policy (paper's "Policy" column).
    pub policy: String,
    /// Intra-cluster strategy (FedAvg / FedYogi).
    pub strategy: String,
    /// Total virtual time (paper's "Time" column, seconds).
    pub time_secs: f64,
    /// Final global-model accuracy (percent).
    pub global_accuracy_pct: f64,
    /// Final local-model accuracy (percent).
    pub local_accuracy_pct: f64,
    /// Final global-model loss.
    pub global_loss: f64,
    /// Final local-model loss.
    pub local_loss: f64,
    /// Rounds completed.
    pub rounds: u64,
    /// Rounds missed due to straggling (sync only).
    pub straggler_rounds: u64,
    /// Scores rejected by a closed scoring window (sync only).
    pub rejected_scores: u64,
    /// Accuracy-over-time curve (for Figure 7-style plots).
    pub curve: Vec<CurvePoint>,
}

/// Chain-level statistics of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChainStats {
    /// Blocks sealed.
    pub blocks: u64,
    /// Transactions executed.
    pub txs: u64,
    /// Transactions that reverted (stragglers, late scores).
    pub failed_txs: u64,
    /// Total gas consumed.
    pub gas_used: u64,
}

/// Chaos section of an experiment report: which faults were planned, which
/// fired, and what the injectors in every layer counted. All-zero (with
/// `enabled == false`) for happy-path runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosReport {
    /// True if a fault plan was installed for the run.
    pub enabled: bool,
    /// Events in the expanded fault schedule.
    pub planned_events: u64,
    /// Cluster-rounds lost to crashes (sync) or redone after crashes
    /// (async).
    pub crashes_fired: u64,
    /// Clusters that permanently left the federation.
    pub leaves_fired: u64,
    /// Training rounds slowed by latency spikes.
    pub spikes_fired: u64,
    /// Clock-skew fault records (one per skewed cluster at application,
    /// plus one per skew-caused window rejection).
    pub skews_fired: u64,
    /// Whole CID fetches that failed at the DHT (storage layer).
    pub fetch_failures: u64,
    /// Caller-level whole-fetch retries. Every retry resolves to exactly
    /// one of the two outcome counters below, so
    /// `fetch_retries == fetch_recoveries + fetch_permanent_failures`.
    pub fetch_retries: u64,
    /// Retried fetches that then succeeded (transient failure, recovered).
    pub fetch_recoveries: u64,
    /// Retried fetches that failed again and were abandoned for good.
    pub fetch_permanent_failures: u64,
    /// Individual chunk transfers lost (storage layer).
    pub chunk_losses: u64,
    /// Chunk retransmissions performed.
    pub chunk_retries: u64,
    /// Fetches abandoned after the chunk retry budget ran out.
    pub exhausted_fetches: u64,
    /// Seal slots skipped by injection (chain layer).
    pub missed_seals: u64,
    /// Transactions dropped in gossip (chain layer).
    pub dropped_txs: u64,
    /// Transactions retransmitted after a gossip drop.
    pub retried_txs: u64,
    /// Per-fault outcome records, in firing order.
    pub records: Vec<FaultRecord>,
}

/// Transfer section of an experiment report: what the bandwidth-aware
/// storage layer was configured to do and what it saved. For *fault-free*
/// runs this is the only report section allowed to differ between two
/// configurations that differ only in [`ExperimentConfig::transfer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferReport {
    /// Chunk dedup enabled.
    pub dedup: bool,
    /// Delta fetch enabled.
    pub delta: bool,
    /// Fetch-cache byte budget (0 = disabled).
    pub cache_bytes: u64,
    /// Bytes a naive fetcher would have moved.
    pub logical_bytes: u64,
    /// Bytes actually moved on the wire.
    pub physical_bytes: u64,
    /// Blocks skipped because the fetcher already held them.
    pub dedup_chunks_skipped: u64,
    /// Bytes those skipped blocks would have cost.
    pub dedup_bytes_saved: u64,
    /// Fetches served from the assembled-content cache.
    pub cache_hits: u64,
    /// Cache lookups that missed.
    pub cache_misses: u64,
    /// Cache entries evicted to respect the byte budget.
    pub cache_evictions: u64,
    /// Bytes resident across node caches at the end of the run.
    pub cache_resident_bytes: u64,
    /// Fetches served by base + delta reconstruction.
    pub delta_fetches: u64,
    /// Delta fetches that fell back to a full transfer.
    pub delta_fallbacks: u64,
    /// Wire bytes saved by delta reconstruction.
    pub delta_bytes_saved: u64,
    /// Model submissions that carried an on-chain `(base, delta)`
    /// reference.
    pub delta_publishes: u64,
    /// Submissions without one (no usable base, or an unchanged
    /// re-release).
    pub full_publishes: u64,
    /// Remote fetches routed over the gossip overlay (0 = flat routing).
    pub routed_fetches: u64,
    /// Overlay hops those fetches traversed, summed per transfer branch.
    pub route_hops: u64,
    /// Bytes forwarded through intermediate relays (never retained).
    pub relayed_bytes: u64,
}

impl TransferReport {
    /// Wire-byte reduction factor: logical over physical bytes (1.0 when
    /// nothing moved).
    pub fn reduction_factor(&self) -> f64 {
        if self.physical_bytes == 0 {
            if self.logical_bytes == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.logical_bytes as f64 / self.physical_bytes as f64
        }
    }
}

/// The complete result of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Display label.
    pub label: String,
    /// Mode string (`"Sync"` / `"Async"`).
    pub mode: String,
    /// Scorer string (`"Accuracy"` / `"MultiKRUM"`).
    pub scorer: String,
    /// Partition string (`"IID"` / `"NIID α=…"`).
    pub partition: String,
    /// Per-aggregator rows.
    pub aggregators: Vec<AggregatorReport>,
    /// Resource summaries per process class (Table 7).
    pub resources: BTreeMap<String, ResourceSummary>,
    /// Chain statistics.
    pub chain: ChainStats,
    /// Total bytes resident across the storage fabric.
    pub storage_bytes: u64,
    /// Virtual end-to-end duration (seconds).
    pub wall_secs: f64,
    /// Fault-injection outcomes (all-zero for happy-path runs).
    pub chaos: ChaosReport,
    /// Transfer-layer accounting (bytes on the wire, dedup/delta/cache
    /// savings).
    pub transfer: TransferReport,
    /// Link time model the run was charged under (`"Nominal"` /
    /// `"Physical"`).
    pub link_model: String,
    /// Elastic-membership changes observed during the run (mid-run joins;
    /// empty for fixed-membership runs).
    pub membership: Vec<MembershipRecord>,
}

impl Default for ExperimentConfig {
    /// The quickstart: three edge clusters, a small synthetic 4-class
    /// task, three Async rounds, every optional subsystem off.
    fn default() -> Self {
        use unifyfl_data::SyntheticConfig;
        use unifyfl_sim::DeviceProfile;
        use unifyfl_tensor::zoo::{InputKind, ModelSpec};

        let mut dataset = SyntheticConfig::cifar10_like(450);
        dataset.input = InputKind::Flat(16);
        dataset.n_classes = 4;
        dataset.noise_scale = 0.6;
        dataset.label_noise = 0.05;
        let workload = WorkloadConfig {
            name: "quickstart".into(),
            model: ModelSpec::mlp(16, vec![24], 4),
            dataset,
            rounds: 3,
            local_epochs: 1,
            batch_size: 16,
            learning_rate: 0.05,
        };
        let clusters = (0..3)
            .map(|i| ClusterConfig::edge(format!("agg-{}", i + 1), DeviceProfile::edge_cpu()))
            .collect();
        ExperimentConfig {
            seed: 42,
            label: "quickstart".into(),
            workload,
            partition: Partition::Iid,
            mode: Mode::Async,
            scorer: ScorerKind::Accuracy,
            clusters,
            window_margin: 1.15,
            chaos: None,
            transfer: TransferConfig::default(),
            engine: Engine::default(),
            link_model: LinkModel::Nominal,
            sharding: None,
            gossip: None,
            fetch_ahead: false,
        }
    }
}

impl ExperimentConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ExperimentError`] found.
    pub fn validate(&self) -> Result<(), ExperimentError> {
        if self.clusters.len() < 2 {
            return Err(ExperimentError::TooFewClusters(self.clusters.len()));
        }
        if self.mode == Mode::Async && self.scorer.requires_full_round() {
            return Err(ExperimentError::MultiKrumRequiresSync);
        }
        // MultiKRUM's Byzantine bound f (see `krum_assumed_byzantine`) must
        // satisfy Krum's n ≥ 2f + 3 assumption; below 3 clusters no f does.
        if self.scorer.requires_full_round() && self.clusters.len() < 3 {
            return Err(ExperimentError::MultiKrumTooFewClusters(
                self.clusters.len(),
            ));
        }
        // Every client fit batches its shard and steps SGD, and data
        // synthesis deals samples round-robin over the classes: a zero or
        // non-finite knob here would panic on a worker mid-run (or, for an
        // infinite learning rate, train NaNs) instead of failing admission.
        let workload = &self.workload;
        if workload.batch_size == 0 {
            return Err(ExperimentError::InvalidWorkload("batch_size (zero)"));
        }
        if !workload.learning_rate.is_finite() || workload.learning_rate <= 0.0 {
            return Err(ExperimentError::InvalidWorkload(
                "learning_rate (must be finite and > 0)",
            ));
        }
        // A client fit always trains at least one epoch, while the cost
        // model prices exactly `local_epochs` of them: at zero the run
        // would train for free — no virtual time, no work for the fan-out
        // to size a fork on.
        if workload.local_epochs == 0 {
            return Err(ExperimentError::InvalidWorkload("local_epochs (zero)"));
        }
        if workload.dataset.n_classes == 0 {
            return Err(ExperimentError::InvalidWorkload("dataset.n_classes (zero)"));
        }
        if workload.dataset.n_samples == 0 {
            return Err(ExperimentError::InvalidWorkload("dataset.n_samples (zero)"));
        }
        if !(0.0..=1.0).contains(&workload.dataset.label_noise) {
            return Err(ExperimentError::InvalidWorkload(
                "dataset.label_noise (outside [0, 1])",
            ));
        }
        // The first batch feeds dataset-shaped tensors and labels to the
        // model: a different input shape, or a label past the model's
        // outputs, aborts in the first layer or in the loss.
        if workload.model.input() != workload.dataset.input {
            return Err(ExperimentError::InvalidWorkload(
                "model (input shape differs from the dataset's)",
            ));
        }
        if workload.model.classes() < workload.dataset.n_classes {
            return Err(ExperimentError::InvalidWorkload(
                "model (fewer outputs than the dataset has classes)",
            ));
        }
        if let Some(c) = self.clusters.iter().find(|c| c.n_clients == 0) {
            return Err(ExperimentError::NoClients(c.name.clone()));
        }
        // Window sizing multiplies by the margin and divides by each
        // straggle factor; a non-finite product would collapse to a zero
        // window and silently make every cluster straggle every round.
        // (`is_finite` also rejects NaN, which `< 1.0` alone lets through.)
        if !self.window_margin.is_finite() || self.window_margin < 1.0 {
            return Err(ExperimentError::InvalidWindowMargin);
        }
        if let Some(c) = self
            .clusters
            .iter()
            .find(|c| !c.straggle_factor.is_finite() || c.straggle_factor <= 0.0)
        {
            return Err(ExperimentError::InvalidStraggleFactor(c.name.clone()));
        }
        // The storage layer prices a transfer as bytes over the link's
        // bandwidth and ranks providers by it: zero, negative and NaN all
        // come out as a free transfer (and NaN as the *best* provider).
        if let Some(c) = self.clusters.iter().find(|c| {
            c.link
                .is_some_and(|l| !l.bandwidth_bps.is_finite() || l.bandwidth_bps <= 0.0)
        }) {
            return Err(ExperimentError::InvalidLinkBandwidth(c.name.clone()));
        }
        // A non-finite clip or multiplier releases NaNs on chain for every
        // peer to merge; a zero or negative clip an all-zero or sign-flipped
        // model.
        if let Some(c) = self.clusters.iter().find(|c| {
            c.dp.is_some_and(|dp| {
                let clip_ok = dp.clip_norm.is_finite() && dp.clip_norm > 0.0;
                let noise_ok = dp.noise_multiplier.is_finite() && dp.noise_multiplier >= 0.0;
                !(clip_ok && noise_ok)
            })
        }) {
            return Err(ExperimentError::InvalidDp(c.name.clone()));
        }
        // The same hole on the attacker's side, and the attack that attacks
        // nothing — rejected as chaos rejects an inert fault.
        if let Some(c) = self.clusters.iter().find(|c| match c.attack {
            Some(AttackKind::GaussianNoise { sigma }) => !(sigma.is_finite() && sigma > 0.0),
            Some(AttackKind::ScaleUp { factor }) => !factor.is_finite() || factor == 1.0,
            Some(AttackKind::SignFlip) | None => false,
        }) {
            return Err(ExperimentError::InvalidAttack(c.name.clone()));
        }
        // Elastic membership: a joiner needs a federation to join, and a
        // zero offset is a founder misconfigured as a joiner.
        let founders = self
            .clusters
            .iter()
            .filter(|c| c.joins_at.is_none())
            .count();
        if founders < 2 {
            return Err(ExperimentError::TooFewFounders(founders));
        }
        if self
            .clusters
            .iter()
            .any(|c| c.joins_at.is_some_and(|d| d.is_zero()))
        {
            return Err(ExperimentError::InvalidJoinTime);
        }
        if let Some(c) = self
            .clusters
            .iter()
            .find(|c| !(1..=23).contains(&c.release_mantissa_bits))
        {
            return Err(ExperimentError::InvalidReleasePrecision(
                c.release_mantissa_bits,
            ));
        }
        if let Some(sharding) = &self.sharding {
            if sharding.shards == 0 {
                return Err(ExperimentError::InvalidSharding("shards (zero)"));
            }
            if sharding.shards > self.clusters.len() {
                return Err(ExperimentError::InvalidSharding(
                    "shards (more shards than clusters)",
                ));
            }
            if sharding.scorers_per_release == Some(0) {
                return Err(ExperimentError::InvalidSharding(
                    "scorers_per_release (zero)",
                ));
            }
            if sharding.exchange_every == 0 {
                return Err(ExperimentError::InvalidSharding("exchange_every (zero)"));
            }
            if sharding.regroup == Some(0) {
                return Err(ExperimentError::InvalidSharding("regroup_every (zero)"));
            }
            // MultiKRUM scores a whole round at once, so under sharding its
            // round is the *shard's* round: every shard must still satisfy
            // Krum's n ≥ 2f + 3 floor. Balanced assignment makes the
            // smallest shard ⌊n/shards⌋ members.
            if sharding.shards > 1
                && self.scorer.requires_full_round()
                && self.clusters.len() / sharding.shards < 3
            {
                return Err(ExperimentError::InvalidSharding(
                    "shards (multikrum needs 3 clusters per shard)",
                ));
            }
        }
        if let Some(gossip) = &self.gossip {
            if gossip.degree == 0 {
                return Err(ExperimentError::InvalidGossip("degree (zero)"));
            }
            if gossip.swarm == 0 {
                return Err(ExperimentError::InvalidGossip("swarm (zero)"));
            }
        }
        if let Some(chaos) = &self.chaos {
            chaos.validate().map_err(ExperimentError::InvalidChaos)?;
            for e in &chaos.events {
                if e.cluster >= self.clusters.len() {
                    return Err(ExperimentError::InvalidChaos("events (cluster index)"));
                }
                // An event outside the round schedule — or with an inert
                // payload — would silently never fire; reject it so a
                // typo'd fault cannot masquerade as a survived one.
                if e.round == 0 || e.round > self.workload.rounds as u64 {
                    return Err(ExperimentError::InvalidChaos("events (round out of range)"));
                }
                match e.kind {
                    FaultKind::Crash { down_rounds: 0 } => {
                        return Err(ExperimentError::InvalidChaos("events (zero down_rounds)"));
                    }
                    FaultKind::LatencySpike { factor } if factor.is_nan() || factor <= 1.0 => {
                        return Err(ExperimentError::InvalidChaos("events (spike factor <= 1)"));
                    }
                    FaultKind::ClockSkew { skew } if skew.is_zero() => {
                        return Err(ExperimentError::InvalidChaos("events (zero skew)"));
                    }
                    _ => {}
                }
            }
        }
        // Last, with every knob known to be in its own domain: together
        // they must not describe a run that (practically) never ends.
        self.check_horizon()
    }

    /// Rejects a configuration whose nominal virtual length — the latest
    /// join, plus `rounds × window_margin ×` the slowest cluster's nominal
    /// round — is past [`MAX_NOMINAL_HORIZON`], naming the knob that puts
    /// it there. A `joins_at` past the ceiling is named outright;
    /// otherwise `window_margin`, the slowest cluster's `straggle_factor`
    /// and its `link.bandwidth_bps` are set back to neutral (1, 1, no
    /// explicit link) one after another, and the knob whose turn brings
    /// the run under the ceiling is the one named — `workload` when even
    /// all three do not (rounds × model × samples).
    fn check_horizon(&self) -> Result<(), ExperimentError> {
        let ceiling = MAX_NOMINAL_HORIZON.as_secs_f64();
        let too_long = |knob, cluster: Option<&ClusterConfig>| {
            Err(ExperimentError::HorizonTooLong {
                knob,
                cluster: cluster.map(|c| c.name.clone()),
            })
        };
        let join = |c: &ClusterConfig| c.joins_at.map_or(0.0, |d| d.as_secs_f64());
        let latest = self
            .clusters
            .iter()
            .max_by(|a, b| join(a).total_cmp(&join(b)));
        let latest = latest.expect("validated: at least two clusters");
        if join(latest) > ceiling {
            return too_long("joins_at", Some(latest));
        }
        // The slowest cluster, every knob as configured.
        let round = |c: &ClusterConfig| self.nominal_round_secs(c, c.straggle_factor, true);
        let slowest = self
            .clusters
            .iter()
            .max_by(|a, b| round(a).total_cmp(&round(b)));
        let slowest = slowest.expect("validated: at least two clusters");
        let rounds = self.workload.rounds as f64;
        let horizon = |margin: f64, straggle: f64, link: bool| {
            join(latest) + rounds * margin * self.nominal_round_secs(slowest, straggle, link)
        };
        if horizon(self.window_margin, slowest.straggle_factor, true) <= ceiling {
            Ok(())
        } else if horizon(1.0, slowest.straggle_factor, true) <= ceiling {
            too_long("window_margin", None)
        } else if horizon(1.0, 1.0, true) <= ceiling {
            too_long("straggle_factor", Some(slowest))
        } else if horizon(1.0, 1.0, false) <= ceiling {
            too_long("link.bandwidth_bps", Some(slowest))
        } else {
            too_long("workload", None)
        }
    }

    /// One round of cluster `c` on the cost models, in virtual seconds and
    /// in `f64` (the clock's own arithmetic clamps what it cannot hold):
    /// a full pull of its peers, a local round, a publish and a scoring
    /// pass per peer. Pessimistic where assembly alone could say better —
    /// the whole dataset in this one cluster's shard — and on every fetch
    /// the slower of the device's path and the explicit storage link's
    /// (`link`: whether to count that link at all), whichever the link
    /// model will charge.
    fn nominal_round_secs(&self, c: &ClusterConfig, straggle: f64, link: bool) -> f64 {
        let workload = &self.workload;
        let spec = &workload.model;
        let peers = match &self.sharding {
            Some(sharding) => self.clusters.len().div_ceil(sharding.shards),
            None => self.clusters.len(),
        }
        .saturating_sub(1) as f64;
        let samples = workload.dataset.n_samples as f64;
        let flops = spec.flops_per_train_sample() * samples * workload.local_epochs as f64
            + spec.flops_per_eval_sample() * samples * peers;
        let compute = flops * straggle / c.client_device.flops_per_sec();
        let bytes = spec.wire_bytes() as f64;
        let device = &c.client_device;
        let mut fetch = device.net_latency().as_secs_f64() + bytes / device.net_bandwidth_bps();
        if let Some(l) = c.link.filter(|_| link) {
            fetch = fetch.max(l.latency.as_secs_f64() + bytes / l.bandwidth_bps);
        }
        compute + 2.0 * peers * fetch
    }
}

/// Runs an experiment end to end.
///
/// This is the batch entry point over the same poll-resumable machinery
/// the service layer uses: it builds a [`crate::service::RunState`] and
/// steps it to completion, so a blocking run, a daemon-hosted run and a
/// checkpoint-resumed run all execute the identical event sequence.
///
/// # Errors
///
/// Returns [`ExperimentError`] if the configuration is invalid.
pub fn run_experiment(config: &ExperimentConfig) -> Result<ExperimentReport, ExperimentError> {
    Ok(crate::service::RunState::new(config)?.run_to_completion())
}

pub(crate) fn build_report(
    config: &ExperimentConfig,
    fed: &Federation,
    outcome: EngineOutcome,
) -> ExperimentReport {
    let mut aggregators = Vec::with_capacity(fed.clusters.len());
    for (i, cluster) in fed.clusters.iter().enumerate() {
        let cfg = cluster.config();
        let curve = cluster
            .records
            .iter()
            .map(|r| CurvePoint {
                round: r.round,
                time_secs: r.completed_at_secs,
                global_accuracy_pct: r.global_accuracy * 100.0,
                local_accuracy_pct: r.local_accuracy * 100.0,
            })
            .collect();
        let (g_acc, g_loss) = outcome.final_global[i];
        let (l_acc, l_loss) = outcome.final_local[i];
        aggregators.push(AggregatorReport {
            name: cfg.name.clone(),
            policy: cfg.policy.to_string(),
            strategy: cfg.strategy.to_string(),
            time_secs: outcome.per_cluster_time[i].as_secs_f64(),
            global_accuracy_pct: g_acc * 100.0,
            local_accuracy_pct: l_acc * 100.0,
            global_loss: g_loss,
            local_loss: l_loss,
            rounds: cluster.records.len() as u64,
            straggler_rounds: outcome.straggler_rounds[i],
            rejected_scores: outcome.rejected_scores[i],
            curve,
        });
    }

    // Chain statistics from the sealed blocks.
    let mut chain = ChainStats {
        blocks: fed.chain.height(),
        ..ChainStats::default()
    };
    for b in 0..=fed.chain.height() {
        if let Some(receipts) = fed.chain.receipts(b) {
            chain.txs += receipts.len() as u64;
            chain.failed_txs += receipts.iter().filter(|r| !r.success).count() as u64;
            chain.gas_used += receipts.iter().map(|r| r.gas_used).sum::<u64>();
        }
    }

    ExperimentReport {
        label: config.label.clone(),
        mode: config.mode.to_string(),
        scorer: config.scorer.to_string(),
        partition: config.partition.to_string(),
        aggregators,
        resources: fed.resources.summaries(),
        chain,
        storage_bytes: fed.ipfs.total_bytes(),
        wall_secs: outcome.end_time.as_secs_f64(),
        chaos: build_chaos_report(fed),
        transfer: build_transfer_report(fed),
        link_model: config.link_model.to_string(),
        membership: fed.membership_records().to_vec(),
    }
}

fn build_transfer_report(fed: &Federation) -> TransferReport {
    let config = fed.ipfs.transfer_config();
    let stats = fed.ipfs.transfer_stats();
    let (delta_publishes, full_publishes) = fed
        .clusters
        .iter()
        .map(ClusterNode::publish_counts)
        .fold((0, 0), |(d, f), (dd, ff)| (d + dd, f + ff));
    TransferReport {
        dedup: config.dedup,
        delta: config.delta,
        cache_bytes: config.cache_bytes,
        logical_bytes: stats.logical_bytes,
        physical_bytes: stats.physical_bytes,
        dedup_chunks_skipped: stats.dedup_chunks_skipped,
        dedup_bytes_saved: stats.dedup_bytes_saved,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        cache_evictions: stats.cache_evictions,
        cache_resident_bytes: stats.cache_resident_bytes,
        delta_fetches: stats.delta_fetches,
        delta_fallbacks: stats.delta_fallbacks,
        delta_bytes_saved: stats.delta_bytes_saved,
        delta_publishes,
        full_publishes,
        routed_fetches: stats.routed_fetches,
        route_hops: stats.route_hops,
        relayed_bytes: stats.relayed_bytes,
    }
}

fn build_chaos_report(fed: &Federation) -> ChaosReport {
    let Some(plan) = fed.fault_plan() else {
        return ChaosReport::default();
    };
    let records = fed.chaos_records().to_vec();
    let count = |kind: &str| records.iter().filter(|r| r.kind == kind).count() as u64;
    let storage = fed.ipfs.fault_stats().unwrap_or_default();
    let chain = fed.chain.fault_stats().unwrap_or_default();
    ChaosReport {
        enabled: true,
        planned_events: plan.events().len() as u64,
        crashes_fired: count("crash"),
        leaves_fired: count("leave"),
        spikes_fired: count("latency_spike"),
        skews_fired: count("clock_skew"),
        fetch_failures: storage.fetch_failures,
        fetch_retries: storage.fetch_retries,
        fetch_recoveries: storage.fetch_recoveries,
        fetch_permanent_failures: storage.fetch_permanent_failures,
        chunk_losses: storage.chunk_losses,
        chunk_retries: storage.chunk_retries,
        exhausted_fetches: storage.exhausted_fetches,
        missed_seals: chain.missed_seals,
        dropped_txs: chain.dropped_txs,
        retried_txs: fed.retried_txs(),
        records,
    }
}

/// Fluent builder for experiments (the friendly entry point used by the
/// examples and the facade crate's doctest).
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    config: ExperimentConfig,
}

impl ExperimentBuilder {
    /// A fast, laptop-friendly 3-cluster experiment on a small synthetic
    /// task (seconds, not minutes) — [`ExperimentConfig::default`]. The
    /// starting point for exploration.
    pub fn quickstart() -> Self {
        ExperimentBuilder::from_config(ExperimentConfig::default())
    }

    /// Starts from an explicit configuration.
    pub fn from_config(config: ExperimentConfig) -> Self {
        ExperimentBuilder { config }
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the display label.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.config.label = label.into();
        self
    }

    /// Sets the number of FL rounds.
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.config.workload.rounds = rounds;
        self
    }

    /// Sets the orchestration mode.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Sets the data partition.
    pub fn partition(mut self, partition: Partition) -> Self {
        self.config.partition = partition;
        self
    }

    /// Sets the scoring algorithm.
    pub fn scorer(mut self, scorer: ScorerKind) -> Self {
        self.config.scorer = scorer;
        self
    }

    /// Replaces the workload.
    pub fn workload(mut self, workload: WorkloadConfig) -> Self {
        self.config.workload = workload;
        self
    }

    /// Replaces the cluster list.
    pub fn clusters(mut self, clusters: Vec<ClusterConfig>) -> Self {
        self.config.clusters = clusters;
        self
    }

    /// Applies one aggregation policy to every cluster.
    pub fn policy_all(mut self, policy: AggregationPolicy) -> Self {
        for c in &mut self.config.clusters {
            c.policy = policy;
        }
        self
    }

    /// Arms fault injection for the run (pass [`ChaosConfig::default`]-based
    /// knobs or a scripted schedule).
    pub fn chaos(mut self, chaos: ChaosConfig) -> Self {
        self.config.chaos = Some(chaos);
        self
    }

    /// Sets the fetch-side transfer knobs (dedup / delta fetch / cache).
    pub fn transfer(mut self, transfer: TransferConfig) -> Self {
        self.config.transfer = transfer;
        self
    }

    /// Sets the round-execution engine (sequential reference vs. parallel
    /// two-phase; byte-identical results, different wall-clock).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.config.engine = engine;
        self
    }

    /// Sets the link time model (nominal device cost vs. physical bytes
    /// moved per link).
    pub fn link_model(mut self, link_model: LinkModel) -> Self {
        self.config.link_model = link_model;
        self
    }

    /// Arms the two-tier shard topology (see [`ShardConfig`]).
    pub fn sharding(mut self, sharding: ShardConfig) -> Self {
        self.config.sharding = Some(sharding);
        self
    }

    /// Arms topology-aware gossip dissemination (see [`GossipConfig`]).
    pub fn gossip(mut self, gossip: GossipConfig) -> Self {
        self.config.gossip = Some(gossip);
        self
    }

    /// Arms fetch/compute overlap (see
    /// [`ExperimentConfig::fetch_ahead`]).
    pub fn fetch_ahead(mut self, enabled: bool) -> Self {
        self.config.fetch_ahead = enabled;
        self
    }

    /// The assembled configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Runs the experiment.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError`] if the configuration is invalid.
    pub fn run(self) -> Result<ExperimentReport, ExperimentError> {
        run_experiment(&self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_runs_and_reports() {
        let report = ExperimentBuilder::quickstart()
            .seed(7)
            .rounds(2)
            .run()
            .expect("quickstart runs");
        assert_eq!(report.aggregators.len(), 3);
        assert_eq!(report.mode, "Async");
        for agg in &report.aggregators {
            assert_eq!(agg.rounds, 2);
            assert!(agg.time_secs > 0.0);
            assert!(agg.global_accuracy_pct >= 0.0 && agg.global_accuracy_pct <= 100.0);
            assert_eq!(agg.curve.len(), 2);
        }
        assert!(report.chain.blocks > 0);
        assert!(report.chain.txs > 0);
        assert!(report.storage_bytes > 0);
        assert!(report.resources.contains_key("client"));
        assert!(report.resources.contains_key("geth"));
    }

    #[test]
    fn validation_rejects_async_multikrum() {
        let err = ExperimentBuilder::quickstart()
            .mode(Mode::Async)
            .scorer(ScorerKind::MultiKrum)
            .run()
            .unwrap_err();
        assert_eq!(err, ExperimentError::MultiKrumRequiresSync);
        // The sync variant is accepted.
        let ok = ExperimentBuilder::quickstart()
            .mode(Mode::Sync)
            .scorer(ScorerKind::MultiKrum)
            .rounds(2)
            .run();
        assert!(ok.is_ok());
    }

    #[test]
    fn validation_rejects_multikrum_below_three_clusters() {
        // Krum assumes n ≥ 2f + 3; no f ≥ 0 satisfies that at n = 2, so a
        // 2-cluster MultiKRUM federation must be rejected up front instead
        // of silently relying on the scoring clamp.
        let mut builder = ExperimentBuilder::quickstart()
            .mode(Mode::Sync)
            .scorer(ScorerKind::MultiKrum);
        builder.config.clusters.truncate(2);
        assert_eq!(
            builder.run().unwrap_err(),
            ExperimentError::MultiKrumTooFewClusters(2)
        );
        // Three clusters (f = 0) are admissible.
        let ok = ExperimentBuilder::quickstart()
            .mode(Mode::Sync)
            .scorer(ScorerKind::MultiKrum)
            .rounds(2)
            .run();
        assert!(ok.is_ok());
    }

    #[test]
    fn validation_rejects_out_of_range_sharding() {
        use crate::sharding::ShardConfig;
        let err = |sharding: ShardConfig| {
            ExperimentBuilder::quickstart()
                .sharding(sharding)
                .run()
                .unwrap_err()
        };
        // Degenerate knobs are rejected up front (quickstart has 3
        // clusters).
        assert!(matches!(
            err(ShardConfig {
                shards: 0,
                ..ShardConfig::new(1)
            }),
            ExperimentError::InvalidSharding(_)
        ));
        assert!(matches!(
            err(ShardConfig::new(4)),
            ExperimentError::InvalidSharding(_)
        ));
        assert!(matches!(
            err(ShardConfig::new(1).with_scorers(0)),
            ExperimentError::InvalidSharding(_)
        ));
        assert!(matches!(
            err(ShardConfig::new(1).with_exchange_every(0)),
            ExperimentError::InvalidSharding(_)
        ));
        assert!(matches!(
            err(ShardConfig::new(1).with_regroup_every(0)),
            ExperimentError::InvalidSharding(_)
        ));
        // MultiKRUM's distance matrix needs ≥ 3 clusters per shard.
        let krum = ExperimentBuilder::quickstart()
            .mode(Mode::Sync)
            .scorer(ScorerKind::MultiKrum)
            .sharding(ShardConfig::new(3))
            .run()
            .unwrap_err();
        assert!(matches!(krum, ExperimentError::InvalidSharding(_)));
        // A sane sharded configuration runs.
        let ok = ExperimentBuilder::quickstart()
            .rounds(2)
            .sharding(ShardConfig::new(3))
            .run();
        assert!(ok.is_ok(), "{ok:?}");
    }

    #[test]
    fn validation_rejects_single_cluster() {
        let mut builder = ExperimentBuilder::quickstart();
        builder.config.clusters.truncate(1);
        assert_eq!(
            builder.run().unwrap_err(),
            ExperimentError::TooFewClusters(1)
        );
    }

    #[test]
    fn validation_rejects_bad_margin() {
        for margin in [0.5, f64::NAN, f64::INFINITY] {
            let mut builder = ExperimentBuilder::quickstart();
            builder.config.window_margin = margin;
            assert_eq!(
                builder.run().unwrap_err(),
                ExperimentError::InvalidWindowMargin,
                "margin {margin}"
            );
        }
        // The window sizing divides by the straggle factor: a zero,
        // negative or non-finite one would collapse the windows to zero.
        for factor in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut builder = ExperimentBuilder::quickstart();
            builder.config.clusters[1].straggle_factor = factor;
            assert_eq!(
                builder.run().unwrap_err(),
                ExperimentError::InvalidStraggleFactor("agg-2".into()),
                "straggle_factor {factor}"
            );
        }
    }

    #[test]
    fn validation_rejects_a_run_that_would_never_end() {
        // Each knob is finite and inside its own domain, so each used to
        // validate — and then the clock saturated and the chain sealed a
        // block per five virtual seconds towards the end of time. The test
        // only validates: on the parent, running any of them is the bug.
        use unifyfl_storage::network::LinkProfile;
        type Edit = fn(&mut ExperimentConfig);
        let offenders: [(&str, Option<&str>, Edit); 5] = [
            ("window_margin", None, |c| c.window_margin = 1.0e300),
            ("straggle_factor", Some("agg-2"), |c| {
                c.clusters[1].straggle_factor = 1.0e300;
            }),
            ("joins_at", Some("agg-3"), |c| {
                c.clusters[2].joins_at = Some(SimDuration::from_millis(u64::MAX));
            }),
            ("link.bandwidth_bps", Some("agg-2"), |c| {
                c.clusters[1].link = Some(LinkProfile {
                    bandwidth_bps: 1.0e-300,
                    ..LinkProfile::wan()
                });
            }),
            // No single knob: a million rounds of a billion-parameter
            // cost model.
            ("workload", None, |c| {
                c.workload.rounds = 1_000_000;
                c.workload.model.virtual_params = Some(1_000_000_000);
            }),
        ];
        for (knob, cluster, edit) in offenders {
            let mut config = ExperimentBuilder::quickstart()
                .link_model(LinkModel::Physical)
                .config()
                .clone();
            config.clusters.push(ClusterConfig::gpu("agg-4"));
            edit(&mut config);
            let expected = ExperimentError::HorizonTooLong {
                knob,
                cluster: cluster.map(str::to_owned),
            };
            assert_eq!(config.validate(), Err(expected.clone()), "{knob}");
            assert!(expected.to_string().starts_with(knob), "{expected}");
        }
        // Two offenders at once: the one still too long with the other
        // neutral is named (the other is next, once this one is fixed).
        let mut config = ExperimentBuilder::quickstart().config().clone();
        config.window_margin = 1.0e300;
        config.clusters[0].straggle_factor = 1.0e300;
        let named = config.validate().unwrap_err();
        assert!(named.to_string().starts_with("straggle_factor"), "{named}");
        // And nothing the presets can express comes within an order of
        // magnitude of the ceiling: the costliest workload in the tree on
        // the quickstart's edge CPUs.
        let config = ExperimentBuilder::quickstart()
            .workload(WorkloadConfig::tiny_imagenet())
            .config()
            .clone();
        assert!(config.validate().is_ok());
        let slowest = config.nominal_round_secs(&config.clusters[0], 1.0, true);
        let nominal = config.workload.rounds as f64 * config.window_margin * slowest;
        assert!(
            (7.0e6..1.0e7).contains(&nominal) && 10.0 * nominal < MAX_NOMINAL_HORIZON.as_secs_f64(),
            "{nominal} s"
        );
    }

    #[test]
    fn validation_rejects_an_unusable_storage_link() {
        // `bytes / bandwidth` is infinite or NaN for each of these, which
        // the clock maps to zero: the silo's transfers were free, and a NaN
        // bandwidth ranked it first among providers.
        use unifyfl_storage::network::LinkProfile;
        for bandwidth_bps in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut builder = ExperimentBuilder::quickstart().link_model(LinkModel::Physical);
            builder.config.clusters[1].link = Some(LinkProfile {
                bandwidth_bps,
                ..LinkProfile::wan()
            });
            assert_eq!(
                builder.run().unwrap_err(),
                ExperimentError::InvalidLinkBandwidth("agg-2".into()),
                "bandwidth {bandwidth_bps}"
            );
        }
        let mut slow = ExperimentBuilder::quickstart().rounds(1);
        slow.config.clusters[1].link = Some(LinkProfile::wan());
        assert!(slow.run().is_ok());
    }

    #[test]
    fn validation_rejects_a_dp_release_its_constructor_would_refuse() {
        // `DpConfig`'s fields are public, so its constructor's asserts are
        // optional; each of these used to publish an all-NaN, all-zero or
        // sign-flipped release.
        use crate::byzantine::DpConfig;
        let nominal = DpConfig::new(50.0, 0.05);
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let bad_clips = [nan, 0.0, -50.0, inf].map(|clip_norm| DpConfig {
            clip_norm,
            ..nominal
        });
        let bad_noise = [nan, -0.05, inf].map(|noise_multiplier| DpConfig {
            noise_multiplier,
            ..nominal
        });
        for dp in bad_clips.into_iter().chain(bad_noise) {
            let mut builder = ExperimentBuilder::quickstart();
            builder.config.clusters[2].dp = Some(dp);
            assert_eq!(
                builder.run().unwrap_err(),
                ExperimentError::InvalidDp("agg-3".into()),
                "{dp:?}"
            );
        }
        let mut private = ExperimentBuilder::quickstart().rounds(1);
        private.config.clusters[2].dp = Some(nominal);
        assert!(private.run().is_ok());
    }

    #[test]
    fn validation_rejects_knobs_that_would_panic_mid_run() {
        // Each of these used to validate and then abort inside a client
        // fit (`batch_size`, `learning_rate`, a model that does not fit the
        // data), data synthesis (`dataset.*`) or the client partition
        // (`n_clients`).
        type Edit = fn(&mut ExperimentConfig);
        let workload = ExperimentError::InvalidWorkload;
        let cases: Vec<(Edit, ExperimentError)> = vec![
            (|c| c.workload.batch_size = 0, workload("batch_size (zero)")),
            (
                |c| c.workload.dataset.n_classes = 0,
                workload("dataset.n_classes (zero)"),
            ),
            (
                |c| c.workload.dataset.n_samples = 0,
                workload("dataset.n_samples (zero)"),
            ),
            (
                |c| c.workload.dataset.label_noise = 1.5,
                workload("dataset.label_noise (outside [0, 1])"),
            ),
            (
                |c| c.workload.dataset.label_noise = f64::NAN,
                workload("dataset.label_noise (outside [0, 1])"),
            ),
            (
                |c| c.workload.dataset.n_classes = 5,
                workload("model (fewer outputs than the dataset has classes)"),
            ),
            (
                |c| c.workload.dataset.input = unifyfl_tensor::zoo::InputKind::Flat(8),
                workload("model (input shape differs from the dataset's)"),
            ),
            (
                |c| c.clusters[2].n_clients = 0,
                ExperimentError::NoClients("agg-3".into()),
            ),
        ];
        for (edit, expected) in cases {
            let mut builder = ExperimentBuilder::quickstart();
            edit(&mut builder.config);
            assert_eq!(builder.run().unwrap_err(), expected);
        }
        // `+∞` passes `Sgd`'s own `lr > 0` assert and trains NaNs.
        for lr in [0.0, -0.05, f32::NAN, f32::INFINITY] {
            let mut builder = ExperimentBuilder::quickstart();
            builder.config.workload.learning_rate = lr;
            assert_eq!(
                builder.run().unwrap_err(),
                workload("learning_rate (must be finite and > 0)"),
                "learning_rate {lr}"
            );
        }
    }

    #[test]
    fn validation_rejects_zero_local_epochs() {
        // Nothing would panic: every client would train one epoch and the
        // virtual clock would charge for none.
        let mut builder = ExperimentBuilder::quickstart();
        builder.config.workload.local_epochs = 0;
        let expected = ExperimentError::InvalidWorkload("local_epochs (zero)");
        assert_eq!(builder.config.validate().unwrap_err(), expected);
        assert_eq!(builder.run().unwrap_err(), expected);
    }

    #[test]
    fn undersized_data_is_a_typed_assembly_error() {
        // Shard sizes are the partition's draw, so these surface from
        // assembly (`RunState::new`), not from `validate()` — as errors,
        // where the partition used to assert.
        let mut starved = ExperimentBuilder::quickstart();
        starved.config.workload.dataset.n_samples = 10;
        assert!(starved.config.validate().is_ok());
        assert_eq!(
            starved.run().unwrap_err(),
            // 8 pooled samples deal 3 / 3 / 2; the last shard cannot
            // cover its three clients.
            ExperimentError::ShardTooSmall {
                cluster: "agg-3".into(),
                samples: 2,
                clients: 3,
            }
        );
        let mut crowded = ExperimentBuilder::quickstart();
        crowded.config.clusters[0].n_clients = 1_000;
        assert!(matches!(
            crowded.run().unwrap_err(),
            ExperimentError::ShardTooSmall { cluster, clients: 1_000, .. } if cluster == "agg-1"
        ));
        let mut empty = ExperimentBuilder::quickstart();
        empty.config.workload.dataset.n_samples = 2;
        assert_eq!(
            empty.run().unwrap_err(),
            ExperimentError::TooFewSamples {
                samples: 2,
                clusters: 3,
            }
        );
    }

    #[test]
    fn validation_rejects_bad_chaos() {
        use unifyfl_sim::fault::{FaultEvent, FaultKind};
        let mut builder = ExperimentBuilder::quickstart().rounds(3);
        builder.config.chaos = Some(ChaosConfig {
            crash_prob: 2.0,
            ..ChaosConfig::default()
        });
        assert_eq!(
            builder.clone().run().unwrap_err(),
            ExperimentError::InvalidChaos("crash_prob")
        );
        // A scripted event aimed past the schedule would silently never
        // fire; it must be rejected instead.
        builder.config.chaos = Some(ChaosConfig::scripted(vec![FaultEvent {
            cluster: 0,
            round: 9,
            kind: FaultKind::Leave,
        }]));
        assert_eq!(
            builder.clone().run().unwrap_err(),
            ExperimentError::InvalidChaos("events (round out of range)")
        );
        builder.config.chaos = Some(ChaosConfig::scripted(vec![FaultEvent {
            cluster: 7,
            round: 1,
            kind: FaultKind::Leave,
        }]));
        assert_eq!(
            builder.run().unwrap_err(),
            ExperimentError::InvalidChaos("events (cluster index)")
        );
    }

    #[test]
    fn identical_seeds_reproduce_identical_reports() {
        let run = |seed| {
            ExperimentBuilder::quickstart()
                .seed(seed)
                .rounds(2)
                .run()
                .unwrap()
        };
        let a = run(11);
        let b = run(11);
        let c = run(12);
        for (x, y) in a.aggregators.iter().zip(&b.aggregators) {
            assert_eq!(x.global_accuracy_pct, y.global_accuracy_pct);
            assert_eq!(x.time_secs, y.time_secs);
        }
        // A different seed almost surely changes the result.
        assert_ne!(
            a.aggregators[0].global_accuracy_pct,
            c.aggregators[0].global_accuracy_pct
        );
    }

    #[test]
    fn sync_mode_reports_shared_time() {
        let report = ExperimentBuilder::quickstart()
            .mode(Mode::Sync)
            .rounds(2)
            .run()
            .unwrap();
        let t0 = report.aggregators[0].time_secs;
        assert!(report.aggregators.iter().all(|a| a.time_secs == t0));
        assert_eq!(report.mode, "Sync");
    }

    #[test]
    fn quickstart_aggregators_report_fedavg() {
        let report = ExperimentBuilder::quickstart().rounds(2).run().unwrap();
        let strategies: Vec<&str> = report
            .aggregators
            .iter()
            .map(|a| a.strategy.as_str())
            .collect();
        assert!(strategies.iter().all(|s| *s == "FedAvg"));
    }
}
