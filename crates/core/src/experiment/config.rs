//! The experiment description and its fluent builder.

use unifyfl_data::{Partition, WorkloadConfig};
use unifyfl_sim::fault::ChaosConfig;
use unifyfl_storage::network::TransferConfig;
use unifyfl_storage::topology::GossipConfig;

use super::{run_experiment, Engine, ExperimentError, ExperimentReport, LinkModel, Mode};
use crate::cluster::ClusterConfig;
use crate::policy::AggregationPolicy;
use crate::scoring::ScorerKind;
use crate::sharding::ShardConfig;

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

/// Fluent builder for experiments (the friendly entry point used by the
/// examples and the facade crate's doctest).
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    pub(super) config: ExperimentConfig,
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
