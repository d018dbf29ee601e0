//! Dynamic re-clustering: topology epochs chasing a domain drift across a
//! heterogeneous fleet.
//!
//! ```sh
//! cargo run --release --example dynamic_clustering
//! ```
//!
//! Six silos share one task: three in-vehicle compute units
//! ([`DeviceProfile::automotive_fleet`]) on cellular uplinks, two
//! rack-scale datacenter silos ([`DeviceProfile::datacenter_silo`]) and
//! one desktop edge aggregator. At round 2 the vehicle fleet crosses a
//! border and its data distribution rotates under it
//! ([`DriftSpec`]) — from then on the cars train a *different task* while
//! publishing into the same federation.
//!
//! The cars are placed so that every *static* shard holds both cars and
//! stable silos. Two arms run the same seeded scenario:
//!
//! - **static** — the config-time shard assignment never moves; every
//!   round merges each stable silo with drifted car models, and the
//!   stable majority plateaus;
//! - **regroup** — every second round the federation re-derives the
//!   grouping from pairwise weight-space distance
//!   ([`ShardTopology::regroup`]) and installs it as the next topology
//!   epoch. One cadence after the drift, the cars are quarantined into
//!   their own shard and the stable silos converge undisturbed.
//!
//! Both arms are fully deterministic: re-run to reproduce bit for bit.

use unifyfl::core::cluster::{ClusterConfig, DriftSpec};
use unifyfl::core::experiment::{ExperimentBuilder, ExperimentReport, Mode};
use unifyfl::core::{ShardConfig, ShardTopology};
use unifyfl::data::{Partition, SyntheticConfig, WorkloadConfig};
use unifyfl::sim::DeviceProfile;
use unifyfl::tensor::zoo::{InputKind, ModelSpec};

const SEED: u64 = 42;
const FLEET: usize = 6;
const SHARDS: usize = 2;
const ROUNDS: usize = 10;
const DRIFT_ROUND: u64 = 2;

fn workload() -> WorkloadConfig {
    let mut dataset = SyntheticConfig::cifar10_like(1200);
    dataset.input = InputKind::Flat(16);
    dataset.n_classes = 4;
    dataset.noise_scale = 0.6;
    dataset.label_noise = 0.05;
    WorkloadConfig {
        name: "border-crossing".into(),
        model: ModelSpec::mlp(16, vec![24], 4),
        dataset,
        rounds: ROUNDS,
        local_epochs: 3,
        batch_size: 16,
        learning_rate: 0.05,
    }
}

/// Car positions: straddle the static epoch-0 shards so the static arm
/// cannot dodge the drift by luck.
fn car_positions() -> Vec<usize> {
    let topology = ShardTopology::derive(&ShardConfig::new(SHARDS), SEED, FLEET);
    let mut cars = Vec::new();
    for shard in 0..topology.shards {
        let members = topology.members(shard);
        let take = if shard % 2 == 0 {
            members.len().div_ceil(2)
        } else {
            members.len() / 2
        };
        cars.extend_from_slice(&members[..take]);
    }
    cars.sort_unstable();
    cars
}

fn run(regroup: bool) -> ExperimentReport {
    let cars = car_positions();
    let mut stable = [
        DeviceProfile::datacenter_silo(),
        DeviceProfile::datacenter_silo(),
        DeviceProfile::edge_cpu(),
    ]
    .into_iter();
    let clusters = (0..FLEET)
        .map(|i| {
            if cars.contains(&i) {
                ClusterConfig::edge(format!("car-{i}"), DeviceProfile::automotive_fleet())
                    .with_drift(DriftSpec {
                        at_round: DRIFT_ROUND,
                        class_shift: 2,
                    })
            } else {
                ClusterConfig::edge(
                    format!("silo-{i}"),
                    stable.next().expect("three stable silos"),
                )
            }
        })
        .collect();
    let mut sharding = ShardConfig::new(SHARDS).with_exchange_every(1);
    if regroup {
        sharding = sharding.with_regroup_every(2);
    }
    ExperimentBuilder::quickstart()
        .seed(SEED)
        .label(if regroup { "regroup" } else { "static" })
        .mode(Mode::Sync)
        .workload(workload())
        .partition(Partition::Iid)
        .clusters(clusters)
        .sharding(sharding)
        .run()
        .expect("valid configuration")
}

/// The stable silos' mean accuracy by round, over the rounds all of them
/// recorded.
fn stable_mean_curve(report: &ExperimentReport, cars: &[usize]) -> Vec<(u64, f64)> {
    let stable = FLEET - cars.len();
    let curve = report.round_means(|i| !cars.contains(&i));
    let full = curve.into_iter().filter(|m| m.recorded == stable);
    full.map(|m| (m.round, m.global_accuracy_pct)).collect()
}

fn main() {
    let cars = car_positions();
    println!(
        "fleet: {FLEET} silos, {SHARDS} shards; cars at {cars:?} drift at round {DRIFT_ROUND}\n"
    );

    let static_arm = run(false);
    let regroup_arm = run(true);

    println!("stable-silo mean global accuracy by round:");
    println!("{:>6} {:>10} {:>10}", "round", "static", "regroup");
    let static_curve = stable_mean_curve(&static_arm, &cars);
    let regroup_curve = stable_mean_curve(&regroup_arm, &cars);
    for ((round, s), (_, r)) in static_curve.iter().zip(&regroup_curve) {
        let marker = if *round == DRIFT_ROUND {
            "  <- drift"
        } else {
            ""
        };
        println!("{round:>6} {s:>9.1}% {r:>9.1}%{marker}");
    }

    let final_static = static_curve.last().expect("curve").1;
    let final_regroup = regroup_curve.last().expect("curve").1;
    println!(
        "\nfinal stable-silo accuracy: static {final_static:.1}% vs regroup {final_regroup:.1}%"
    );
    assert!(
        final_regroup > final_static,
        "quarantining the drifted cars must beat merging with them forever"
    );
    println!(
        "the regrouped topology quarantined the drifted cars within one cadence; \
         re-run to reproduce bit for bit"
    );
}
