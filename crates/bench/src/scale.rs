//! Scale trajectory: the two-tier sharded topology to 1,000 clusters.
//!
//! The flat engines broadcast every release to every peer, so their wire
//! traffic grows as O(n²) in the cluster count and the scoring fan-out as
//! O(n · majority) — fine for the paper's 3–9 clusters, hopeless at a
//! thousand. The sharded topology bounds both: intra-shard traffic is
//! O(n · shard_size), inter-shard exchange moves one sealed release per
//! shard on a slower cadence, and scorer sampling caps score tasks at
//! O(n · k). This bench runs the sharded Sync engine at two fleet sizes
//! and asserts:
//!
//! 1. **Sub-quadratic wire bytes** — the log-log byte-curve exponent
//!    between the two sizes stays below [`BYTE_EXPONENT_BAR`] (a flat
//!    broadcast measures ≈ 2.0).
//! 2. **Bounded score tasks** — the contract hands out at most
//!    `rounds × n × k` scorer assignments.
//!
//! (That shards = 1 is a no-op — byte-identical to the unsharded engine —
//! is proven over random seeds by `tests/sharding_equivalence.rs`.)
//!
//! Quick scale runs 60/120 clusters so the gates ride in tier-1 tests;
//! `--full` runs the 500/1,000-cluster fleet. `unifyfl-bench scale` writes
//! `BENCH_scale.json` (schema in `docs/BENCH.md`);
//! `docs/baselines/scale.json` pins it at quick scale.

use unifyfl_core::experiment::{ExperimentBuilder, Mode};
use unifyfl_core::{ClusterConfig, RunState, ShardConfig};
use unifyfl_data::{SyntheticConfig, WorkloadConfig};
use unifyfl_sim::DeviceProfile;
use unifyfl_tensor::ModelSpec;

use crate::{fixed, int, Json, Scale};

/// Sub-quadratic bar on the log-log wire-byte exponent between the two
/// measured fleet sizes.
pub const BYTE_EXPONENT_BAR: f64 = 1.5;

/// Target shard population; the shard count is `ceil(n / SHARD_SIZE)`.
pub const SHARD_SIZE: usize = 40;

/// Scorers sampled per release in the measured arms.
pub const SCORERS_PER_RELEASE: usize = 5;

/// Federation rounds per measured arm (inter-shard exchange every 2).
pub const ROUNDS: usize = 4;

/// The two measured fleet sizes at a given scale.
pub fn fleet_sizes(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Quick => (60, 120),
        Scale::Full => (500, 1000),
    }
}

/// The shard plan for a fleet of `n`: fixed-population shards plus the
/// sampled-scorer cap.
pub fn shard_plan(n: usize) -> ShardConfig {
    ShardConfig::new(n.div_ceil(SHARD_SIZE))
        .with_scorers(SCORERS_PER_RELEASE)
        .with_exchange_every(2)
}

/// A deliberately tiny workload: the bench measures *coordination* cost
/// (wire bytes, score tasks), so per-cluster compute is kept to a few
/// samples of a small MLP and the sample pool merely scales with `n` so
/// every cluster keeps a non-empty shard of data.
pub fn workload(n: usize) -> WorkloadConfig {
    let mut dataset = SyntheticConfig::cifar10_like(420);
    dataset.input = unifyfl_tensor::zoo::InputKind::Flat(16);
    dataset.n_classes = 4;
    dataset.n_samples = n * 4;
    WorkloadConfig {
        name: format!("scale-{n}"),
        model: ModelSpec::mlp(16, vec![16], 4),
        dataset,
        rounds: ROUNDS,
        local_epochs: 1,
        batch_size: 8,
        learning_rate: 0.05,
    }
}

/// One measured fleet size.
pub struct ScaleArm {
    /// Clusters in the fleet.
    pub clusters: usize,
    /// Shards the topology derived.
    pub shards: usize,
    /// Scorer-sample cap per release.
    pub scorers_per_release: usize,
    /// Federation rounds run.
    pub rounds: usize,
    /// Bytes actually moved on the storage wire.
    pub wire_bytes: u64,
    /// Scorer assignments the contract handed out.
    pub score_tasks: u64,
    /// The O(n·k) ceiling those assignments must stay under.
    pub score_task_bound: u64,
    /// Virtual completion time of the run.
    pub virtual_secs: f64,
}

impl ScaleArm {
    /// True if the contract stayed within its O(n·k) score-task ceiling.
    pub fn within_task_bound(&self) -> bool {
        self.score_tasks <= self.score_task_bound
    }
}

/// Runs the sharded Sync engine at fleet size `n` and measures the wire
/// and contract counters. Keeps the federation the run hands back
/// ([`RunState::finish`]) because the score-task count lives on the
/// orchestrator contract, which the report does not carry.
pub fn run_arm(n: usize, seed: u64) -> ScaleArm {
    let plan = shard_plan(n);
    let shards = plan.shards;
    let clusters: Vec<ClusterConfig> = (0..n)
        .map(|i| ClusterConfig::edge(format!("agg-{}", i + 1), DeviceProfile::edge_cpu()))
        .collect();
    let config = ExperimentBuilder::quickstart()
        .seed(seed)
        .workload(workload(n))
        .mode(Mode::Sync)
        .clusters(clusters)
        .sharding(plan)
        .config()
        .clone();
    let (report, fed) = RunState::new(&config)
        .expect("the scale workload gives every client a sample")
        .finish();
    ScaleArm {
        clusters: n,
        shards,
        scorers_per_release: SCORERS_PER_RELEASE,
        rounds: ROUNDS,
        wire_bytes: report.transfer.physical_bytes,
        score_tasks: fed.contract().assigned_score_tasks(),
        score_task_bound: (ROUNDS * n * SCORERS_PER_RELEASE) as u64,
        virtual_secs: report.wall_secs,
    }
}

/// The complete benchmark result.
pub struct ScaleBench {
    /// The smaller measured fleet.
    pub small: ScaleArm,
    /// The larger measured fleet.
    pub large: ScaleArm,
}

impl ScaleBench {
    /// Log-log wire-byte growth exponent between the two fleet sizes
    /// (1.0 = linear, 2.0 = quadratic broadcast).
    pub fn byte_exponent(&self) -> f64 {
        (self.large.wire_bytes as f64 / self.small.wire_bytes as f64).ln()
            / (self.large.clusters as f64 / self.small.clusters as f64).ln()
    }

    /// True if the byte curve stays below [`BYTE_EXPONENT_BAR`].
    pub fn sub_quadratic(&self) -> bool {
        self.byte_exponent() < BYTE_EXPONENT_BAR
    }

    /// Asserts the two scale gates.
    ///
    /// # Panics
    ///
    /// Panics on the first gate that does not hold.
    pub fn assert_gates(&self) {
        assert!(
            self.sub_quadratic(),
            "byte exponent {:.3} breached the {BYTE_EXPONENT_BAR} bar ({} -> {} bytes)",
            self.byte_exponent(),
            self.small.wire_bytes,
            self.large.wire_bytes,
        );
        for arm in [&self.small, &self.large] {
            assert!(
                arm.within_task_bound(),
                "{} clusters: {} score tasks exceed the O(n*k) bound {}",
                arm.clusters,
                arm.score_tasks,
                arm.score_task_bound,
            );
        }
    }
}

/// Runs both measured fleets.
pub fn run(scale: Scale, seed: u64) -> ScaleBench {
    let (small_n, large_n) = fleet_sizes(scale);
    ScaleBench {
        small: run_arm(small_n, seed),
        large: run_arm(large_n, seed),
    }
}

/// Renders the machine-readable `BENCH_scale.json` body.
pub fn render_json(bench: &ScaleBench, seed: u64, scale: Scale) -> Json {
    let arms = [&bench.small, &bench.large].map(|arm| {
        Json::obj([
            ("clusters", int(arm.clusters)),
            ("shards", int(arm.shards)),
            ("scorers_per_release", int(arm.scorers_per_release)),
            ("rounds", int(arm.rounds)),
            ("wire_bytes", int(arm.wire_bytes)),
            ("score_tasks", int(arm.score_tasks)),
            ("score_task_bound", int(arm.score_task_bound)),
            ("within_task_bound", Json::Bool(arm.within_task_bound())),
            ("virtual_secs", fixed(arm.virtual_secs, 3)),
        ])
    });
    Json::obj([
        ("bench", Json::str("scale")),
        ("seed", int(seed)),
        ("scale", Json::str(scale.label())),
        ("byte_exponent", fixed(bench.byte_exponent(), 3)),
        ("byte_exponent_bar", Json::Num(BYTE_EXPONENT_BAR)),
        ("sub_quadratic", Json::Bool(bench.sub_quadratic())),
        ("arms", Json::Arr(arms.into())),
    ])
}

/// Renders the human-readable summary.
pub fn render(bench: &ScaleBench) -> String {
    let mut out = String::new();
    out.push_str("Scale bench: two-tier sharded federation\n\n");
    out.push_str(&format!(
        "{:>9} {:>7} {:>6} {:>14} {:>12} {:>12} {:>12}\n",
        "clusters", "shards", "k", "wire_bytes", "score_tasks", "task_bound", "virtual(s)"
    ));
    for arm in [&bench.small, &bench.large] {
        out.push_str(&format!(
            "{:>9} {:>7} {:>6} {:>14} {:>12} {:>12} {:>12.0}\n",
            arm.clusters,
            arm.shards,
            arm.scorers_per_release,
            arm.wire_bytes,
            arm.score_tasks,
            arm.score_task_bound,
            arm.virtual_secs,
        ));
    }
    out.push_str(&format!(
        "\nbyte-curve exponent: {:.3} (bar {BYTE_EXPONENT_BAR}; flat broadcast ≈ 2.0) — sub-quadratic: {}\n",
        bench.byte_exponent(),
        bench.sub_quadratic(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick-scale seed-42 run both tests read.
    fn quick() -> &'static ScaleBench {
        static RUN: std::sync::OnceLock<ScaleBench> = std::sync::OnceLock::new();
        RUN.get_or_init(|| run(Scale::Quick, 42))
    }

    #[test]
    fn quick_fleet_stays_sub_quadratic_and_within_task_bound() {
        // The tier-1 rendition of the 1,000-cluster gate: same topology
        // and gates at 60/120 clusters. Asserted here so a regression in
        // the sharded wire pattern fails `cargo test`, not just CI's
        // release-mode `--full` run.
        let bench = quick();
        bench.assert_gates();
        for arm in [&bench.small, &bench.large] {
            assert!(arm.score_tasks > 0, "scoring actually happened");
            assert!(arm.shards > 1, "the measured arms are genuinely sharded");
        }
    }

    #[test]
    fn json_rendering_is_well_formed() {
        crate::assert_matches_baseline("scale", &render_json(quick(), 42, Scale::Quick));
    }

    #[test]
    fn shard_plan_keeps_fixed_population() {
        assert_eq!(shard_plan(60).shards, 2);
        assert_eq!(shard_plan(120).shards, 3);
        assert_eq!(shard_plan(500).shards, 13);
        assert_eq!(shard_plan(1000).shards, 25);
    }
}
