//! The four workloads: what each one feeds the system and why.
//!
//! Every input is a pure function of `(workload, seed, smoke)`. Configs are
//! built through [`ExperimentBuilder`] plus public field edits only, so a
//! new `ExperimentConfig` knob never breaks this file.

use unifyfl_core::cluster::ClusterConfig;
use unifyfl_core::experiment::{ExperimentBuilder, ExperimentConfig, LinkModel, Mode};
use unifyfl_core::policy::{AggregationPolicy, ScorePolicy};
use unifyfl_core::scoring::ScorerKind;
use unifyfl_core::sharding::ShardConfig;
use unifyfl_core::GossipConfig;
use unifyfl_data::{Partition, WorkloadConfig};
use unifyfl_sim::DeviceProfile;
use unifyfl_storage::LinkProfile;
use unifyfl_tensor::zoo::ModelSpec;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Train-dominated 60-client Sync run (ROADMAP's reference run).
    TrainHeavy,
    /// Eight WAN-attached clusters, Async, bytes priced on a physical link.
    WanTransfer,
    /// 120 tiny clusters, sharded + gossip-routed: coordination-dominated.
    ShardedFleet,
    /// Bursts of 64 tiny experiments through one bounded service.
    ServiceBurst,
}

impl Workload {
    /// All workloads, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::TrainHeavy,
        Workload::WanTransfer,
        Workload::ShardedFleet,
        Workload::ServiceBurst,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainHeavy => "train_heavy",
            Workload::WanTransfer => "wan_transfer",
            Workload::ShardedFleet => "sharded_fleet",
            Workload::ServiceBurst => "service_burst",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line; mirrored in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::TrainHeavy => {
                "60-client Sync CNN run: tensor+fl do >=80% of the wall; storage and chain stay idle"
            }
            Workload::WanTransfer => {
                "8 WAN clusters, Async, Physical link, fetch-ahead: storage+delta work, virtual time priced from bytes moved"
            }
            Workload::ShardedFleet => {
                "120 tiny clusters, sharded+gossip: routed fetches, chain sealing and the event kernel dominate, compute is ~8%"
            }
            Workload::ServiceBurst => {
                "bursts of 64 tiny experiments through a service bounded at 8 in flight: admission, assembly and replay dominate"
            }
        }
    }

    /// Federation-mean global accuracy (percent) the run must reach;
    /// `sim_time_to_target_s` is the virtual time of the first round that
    /// does, and a run that never does fails. `wan_transfer`'s target sits
    /// under what the slowest of 50 probed seeds reached (92.8 % final),
    /// so a miss means the run broke, not that the seed was unlucky. The
    /// other three carry no quality target: over five rounds
    /// `train_heavy` ends anywhere between 10 % (chance; 1 seed of 127
    /// probed) and 27 %, and at 4 samples per cluster or 2 rounds the
    /// coordination workloads' accuracy is a coin toss across seeds
    /// (27–83 %). Theirs is 0, so the metric reads the virtual time of the
    /// first completed federation round.
    pub fn target_accuracy_pct(self) -> f64 {
        match self {
            Workload::WanTransfer => 85.0,
            Workload::TrainHeavy | Workload::ShardedFleet | Workload::ServiceBurst => 0.0,
        }
    }

    /// Experiments handed over per operation (1, or the burst size).
    pub fn burst_size(self, smoke: bool) -> usize {
        match self {
            Workload::ServiceBurst if smoke => 8,
            Workload::ServiceBurst => 64,
            _ => 1,
        }
    }

    /// The experiment configs of one operation: a single config for the
    /// batch workloads, the whole burst for `service_burst`.
    pub fn configs(self, seed: u64, smoke: bool) -> Vec<ExperimentConfig> {
        match self {
            Workload::TrainHeavy => vec![train_heavy(seed, smoke)],
            Workload::WanTransfer => vec![wan_transfer(seed, smoke)],
            Workload::ShardedFleet => vec![sharded_fleet(seed, smoke)],
            Workload::ServiceBurst => (0..self.burst_size(smoke))
                .map(|i| burst_member(seed, i))
                .collect(),
        }
    }
}

fn edge_clusters(n: usize, prefix: &str) -> Vec<ClusterConfig> {
    (0..n)
        .map(|i| ClusterConfig::edge(format!("{prefix}-{}", i + 1), DeviceProfile::edge_cpu()))
        .collect()
}

/// §4.2.6: 60 clients split between 3 aggregators, phase-locked. Five
/// rounds, not the scaled workload's ten: a round costs the same, and a
/// run half as long is repeated twice as often within `--seconds`, which
/// is what the fast-sample statistics of `run` need on a shared host.
fn train_heavy(seed: u64, smoke: bool) -> ExperimentConfig {
    let mut workload = WorkloadConfig::cifar10().scaled(10);
    workload.dataset.n_samples = if smoke { 180 } else { 1_800 };
    workload.rounds = if smoke { 2 } else { 5 };
    if smoke {
        workload.local_epochs = 1;
    }
    let clients = if smoke { 2 } else { 20 };
    let clusters = edge_clusters(3, "agg")
        .into_iter()
        .map(|c| {
            let mut c = c
                .with_policy(AggregationPolicy::All)
                .with_score_policy(ScorePolicy::Mean);
            c.n_clients = clients;
            c
        })
        .collect();
    ExperimentBuilder::quickstart()
        .seed(seed)
        .label("train_heavy")
        .workload(workload)
        .partition(Partition::Dirichlet { alpha: 0.5 })
        .mode(Mode::Sync)
        .scorer(ScorerKind::Accuracy)
        .clusters(clusters)
        .link_model(LinkModel::Nominal)
        .config()
        .clone()
}

/// Cross-geo silos: ~150 KB releases over 1 MB/s links, bytes priced.
fn wan_transfer(seed: u64, smoke: bool) -> ExperimentConfig {
    let n = if smoke { 3 } else { 8 };
    let clusters = edge_clusters(n, "wan")
        .into_iter()
        .map(|c| c.with_link(LinkProfile::wan()))
        .collect();
    let mut config = ExperimentBuilder::quickstart()
        .seed(seed)
        .label("wan_transfer")
        .rounds(if smoke { 2 } else { 8 })
        .mode(Mode::Async)
        .clusters(clusters)
        .link_model(LinkModel::Physical)
        .fetch_ahead(true)
        .config()
        .clone();
    config.workload.model = ModelSpec::mlp(16, vec![256, 128], 4);
    config.workload.dataset.n_samples = if smoke { 240 } else { 1_200 };
    config
}

/// Many tiny clusters: the coordination path with almost no compute.
fn sharded_fleet(seed: u64, smoke: bool) -> ExperimentConfig {
    let n = if smoke { 12 } else { 120 };
    let mut config = ExperimentBuilder::quickstart()
        .seed(seed)
        .label("sharded_fleet")
        .rounds(if smoke { 2 } else { 4 })
        .mode(Mode::Async)
        .clusters(edge_clusters(n, "cell"))
        .link_model(LinkModel::Nominal)
        .sharding(
            ShardConfig::new(3)
                .with_scorers(if smoke { 2 } else { 5 })
                .with_exchange_every(2)
                .with_regroup_every(2),
        )
        .gossip(GossipConfig::default())
        .config()
        .clone();
    config.workload.model = ModelSpec::mlp(16, vec![16], 4);
    config.workload.dataset.n_samples = if smoke { 120 } else { 480 };
    config.workload.batch_size = 8;
    config
}

/// Member `index` of a burst: the laptop quickstart, two rounds, modes
/// alternating so both engine policies are in flight together.
fn burst_member(seed: u64, index: usize) -> ExperimentConfig {
    let mode = if index.is_multiple_of(2) {
        Mode::Sync
    } else {
        Mode::Async
    };
    ExperimentBuilder::quickstart()
        .seed(seed.wrapping_add(index as u64))
        .label(format!("burst-{index}"))
        .rounds(2)
        .mode(mode)
        .config()
        .clone()
}

/// Every this-many-th burst member arrives as a half-run checkpoint.
pub const RESUME_EVERY: usize = 8;

/// The warm-up variant of a config: the same run cut to its first round.
pub fn first_round_only(config: &ExperimentConfig) -> ExperimentConfig {
    let mut warm = config.clone();
    warm.workload.rounds = 1;
    warm
}
