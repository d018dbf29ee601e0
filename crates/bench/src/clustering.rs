//! Clustering trajectory: distance-driven dynamic re-clustering vs. the
//! static seeded assignment, under severe non-IID data with a mid-run
//! domain drift.
//!
//! The scenario: six silos train in Sync mode across two shards.
//! Mid-run, half the fleet — chosen so every *static* shard contains
//! both kinds — suffers a domain drift (labels rotate under the silos;
//! see [`DriftSpec`]). From that round on,
//! drifted silos publish models for a *different task*, and the static
//! assignment keeps merging them into their undrifted shard-mates every
//! round. The regroup arm re-derives the grouping every
//! [`REGROUP_EVERY`] rounds from pairwise weight-space distance
//! ([`ShardTopology::regroup`](unifyfl_core::ShardTopology::regroup)):
//! once drifted weights diverge, the regrouped shards quarantine the
//! drifted silos, and the undrifted majority converges undisturbed.
//!
//! Two gates ride on the result:
//!
//! 1. **Regroup beats static** — the undrifted silos' mean accuracy
//!    reaches [`TARGET_ACCURACY_PCT`] strictly earlier (virtual time)
//!    under regrouping, and ends at least as high.
//! 2. **Determinism** — the regroup arm, run twice at the same seed,
//!    produces a full-Debug **byte-identical** report.
//!
//! (That `regroup: None` leaves every pre-refactor report untouched is
//! the pinned fingerprint grid of `tests/clustering_equivalence.rs`.)
//!
//! `unifyfl-bench clustering` writes `BENCH_clustering.json` (schema in
//! `docs/BENCH.md`); `docs/baselines/clustering.json` pins it at quick
//! scale.

use unifyfl_core::cluster::{ClusterConfig, DriftSpec};
use unifyfl_core::experiment::{ExperimentBuilder, ExperimentReport, Mode, RoundMean};
use unifyfl_core::{Engine, ShardConfig, ShardTopology};
use unifyfl_data::{Partition, SyntheticConfig, WorkloadConfig};
use unifyfl_sim::DeviceProfile;
use unifyfl_tensor::zoo::{InputKind, ModelSpec};

use crate::{fixed, int, Json, Scale};

/// Clusters in the drift fleet.
pub const FLEET: usize = 6;

/// Shards the fleet is grouped into.
pub const SHARDS: usize = 2;

/// Regroup cadence (rounds) in the dynamic arms.
pub const REGROUP_EVERY: u64 = 2;

/// Round at whose start the drift fires.
pub const DRIFT_ROUND: u64 = 2;

/// Label rotation the drifted silos suffer (the task has 4 classes, so 2
/// is the maximally distant rotation).
pub const CLASS_SHIFT: usize = 2;

/// Undrifted-mean accuracy (percent) the time-to-target gate measures.
/// Chosen just above the static arm's post-drift plateau (~69% at quick
/// scale): the undrifted silos cannot get there while every round merges
/// them with drifted shard-mates, but clear it within one regroup cadence
/// once the drifted silos are quarantined.
pub const TARGET_ACCURACY_PCT: f64 = 70.0;

/// Rounds per arm at a given scale.
pub fn rounds(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 10,
        Scale::Full => 20,
    }
}

/// The drift workload: the quickstart task with a dataset large enough
/// that a Dirichlet(0.1) six-way split leaves every silo trainable.
pub fn workload(scale: Scale) -> WorkloadConfig {
    let mut dataset = SyntheticConfig::cifar10_like(1200);
    dataset.input = InputKind::Flat(16);
    dataset.n_classes = 4;
    dataset.noise_scale = 0.6;
    dataset.label_noise = 0.05;
    WorkloadConfig {
        name: "clustering-drift".into(),
        model: ModelSpec::mlp(16, vec![24], 4),
        dataset,
        rounds: rounds(scale) as usize,
        local_epochs: 3,
        batch_size: 16,
        learning_rate: 0.05,
    }
}

/// The drifted half of the fleet, chosen against the *static* epoch-0
/// assignment so that every static shard holds both drifted and undrifted
/// silos — the worst case for a grouping that never moves.
pub fn drifted_set(seed: u64) -> Vec<usize> {
    let topology = ShardTopology::derive(&ShardConfig::new(SHARDS), seed, FLEET);
    let mut drifted = Vec::new();
    for shard in 0..topology.shards {
        let members = topology.members(shard);
        // Alternate ⌈n/2⌉ / ⌊n/2⌋ per shard: exactly half the fleet
        // drifts, and no shard is spared or wiped out.
        let take = if shard % 2 == 0 {
            members.len().div_ceil(2)
        } else {
            members.len() / 2
        };
        drifted.extend_from_slice(&members[..take]);
    }
    drifted.sort_unstable();
    drifted
}

/// One measured arm of the drift scenario.
#[derive(Debug, Clone)]
pub struct DriftArm {
    /// Arm label (`static`, `regroup`, `regroup_adaptive`).
    pub label: String,
    /// Virtual seconds until the undrifted silos' mean global accuracy
    /// *sustainably* reaches [`TARGET_ACCURACY_PCT`]: the time of the
    /// first round from which the mean stays at or above the target
    /// through the end of the run. `None` if no such round exists. (A
    /// first-crossing metric would reward the static arm's pre-drift peak
    /// that the poisoned merges then erode; sustained crossing measures
    /// actual recovery.)
    pub time_to_target_secs: Option<f64>,
    /// Undrifted silos' mean global accuracy (percent) at the final round.
    pub final_undrifted_accuracy_pct: f64,
    /// Drifted silos' mean global accuracy (percent) at the final round
    /// (informational: they face a rotated task the global test set never
    /// sees, so this stays low by construction).
    pub final_drifted_accuracy_pct: f64,
    /// Regroup evaluations scheduled over the run (0 = static; the
    /// cadence [`REGROUP_EVERY`] applied to the round count).
    pub regroups: u64,
    /// Full-Debug report rendering (determinism checks).
    pub report_debug: String,
}

/// Builds and runs one arm: `regroup` enables the dynamic cadence,
/// `adaptive` additionally turns on variance-weighted intra-shard
/// aggregation.
pub fn run_arm(scale: Scale, seed: u64, regroup: bool, adaptive: bool) -> DriftArm {
    let drifted = drifted_set(seed);
    let clusters = (0..FLEET)
        .map(|i| {
            let config = ClusterConfig::edge(format!("agg-{}", i + 1), DeviceProfile::edge_cpu());
            if drifted.contains(&i) {
                config.with_drift(DriftSpec {
                    at_round: DRIFT_ROUND,
                    class_shift: CLASS_SHIFT,
                })
            } else {
                config
            }
        })
        .collect();
    let mut sharding = ShardConfig::new(SHARDS).with_exchange_every(1);
    if regroup {
        sharding = sharding.with_regroup_every(REGROUP_EVERY);
    }
    if adaptive {
        sharding = sharding.with_adaptive_weighting();
    }
    let report = ExperimentBuilder::quickstart()
        .seed(seed)
        .label(format!("clustering-{}", arm_label(regroup, adaptive)))
        .mode(Mode::Sync)
        .engine(Engine::Parallel)
        .workload(workload(scale))
        .partition(Partition::Iid)
        .clusters(clusters)
        .sharding(sharding)
        .run()
        .expect("drift scenario config is valid");
    // Regroups fire at the barriers of rounds `every, 2·every, …` strictly
    // before the final round (the last barrier ends the run instead).
    let regroups = if regroup {
        (rounds(scale) - 1) / REGROUP_EVERY
    } else {
        0
    };
    summarize(&report, &drifted, arm_label(regroup, adaptive), regroups)
}

fn arm_label(regroup: bool, adaptive: bool) -> &'static str {
    match (regroup, adaptive) {
        (false, _) => "static",
        (true, false) => "regroup",
        (true, true) => "regroup_adaptive",
    }
}

fn summarize(report: &ExperimentReport, drifted: &[usize], label: &str, regroups: u64) -> DriftArm {
    // The mean curve of the drifted or the undrifted silos, over the rounds
    // every one of them recorded.
    let curve = |is_drifted: bool| {
        let member = |i: usize| drifted.contains(&i) == is_drifted;
        let size = (0..report.aggregators.len()).filter(|&i| member(i)).count();
        let mut means = report.round_means(member);
        means.retain(|m| m.recorded == size);
        means
    };
    let (undrifted_curve, drifted_curve) = (curve(false), curve(true));
    let last_round = report.round_means(|_| true).last().map_or(0, |m| m.round);
    // Sustained crossing: the first round of the unbroken at-or-above-target
    // run of rounds that ends at the last round.
    let sustained = undrifted_curve
        .iter()
        .rev()
        .zip((1..=last_round).rev())
        .take_while(|(m, round)| m.round == *round && m.global_accuracy_pct >= TARGET_ACCURACY_PCT);
    let time_to_target_secs = sustained.last().map(|(m, _)| m.time_secs);
    let final_mean = |curve: &[RoundMean]| {
        let last = curve.last().filter(|m| m.round == last_round);
        last.map_or(0.0, |m| m.global_accuracy_pct)
    };
    DriftArm {
        label: label.to_owned(),
        time_to_target_secs,
        final_undrifted_accuracy_pct: final_mean(&undrifted_curve),
        final_drifted_accuracy_pct: final_mean(&drifted_curve),
        regroups,
        report_debug: format!("{report:?}"),
    }
}

/// The complete benchmark result.
#[derive(Debug, Clone)]
pub struct ClusteringBench {
    /// The static-assignment arm.
    pub static_arm: DriftArm,
    /// The dynamic-regroup arm.
    pub regroup_arm: DriftArm,
    /// Regroup plus variance-weighted intra-shard aggregation.
    pub adaptive_arm: DriftArm,
    /// Whether the regroup arm reproduced byte-identically on a second
    /// same-seed run.
    pub deterministic: bool,
    /// The drifted cluster indices.
    pub drifted: Vec<usize>,
}

impl ClusteringBench {
    /// Gate 1: regrouping reaches the target strictly earlier than the
    /// static assignment (or the static arm never reaches it at all), and
    /// does not end below it.
    pub fn regroup_beats_static(&self) -> bool {
        let regroup = match self.regroup_arm.time_to_target_secs {
            Some(t) => t,
            None => return false,
        };
        let earlier = match self.static_arm.time_to_target_secs {
            Some(t) => regroup < t,
            None => true,
        };
        earlier
            && self.regroup_arm.final_undrifted_accuracy_pct
                >= self.static_arm.final_undrifted_accuracy_pct
    }

    /// Asserts the two clustering gates.
    ///
    /// # Panics
    ///
    /// Panics on the first gate that does not hold.
    pub fn assert_gates(&self) {
        assert!(
            self.regroup_beats_static(),
            "dynamic regrouping must reach {TARGET_ACCURACY_PCT}% undrifted accuracy strictly \
             before the static assignment (static {:?}s vs regroup {:?}s)",
            self.static_arm.time_to_target_secs,
            self.regroup_arm.time_to_target_secs,
        );
        assert!(
            self.deterministic,
            "regroup arm must be byte-identical across same-seed runs",
        );
    }
}

/// Runs all arms and gates.
pub fn run(scale: Scale, seed: u64) -> ClusteringBench {
    let static_arm = run_arm(scale, seed, false, false);
    let regroup_arm = run_arm(scale, seed, true, false);
    let rerun = run_arm(scale, seed, true, false);
    let adaptive_arm = run_arm(scale, seed, true, true);
    let deterministic = regroup_arm.report_debug == rerun.report_debug;
    ClusteringBench {
        static_arm,
        regroup_arm,
        adaptive_arm,
        deterministic,
        drifted: drifted_set(seed),
    }
}

/// Renders the machine-readable `BENCH_clustering.json` body.
pub fn render_json(bench: &ClusteringBench, seed: u64, scale: Scale) -> Json {
    let arms = [&bench.static_arm, &bench.regroup_arm, &bench.adaptive_arm].map(|arm| {
        Json::obj([
            ("arm", Json::str(arm.label.clone())),
            (
                "time_to_target_secs",
                arm.time_to_target_secs.map_or(Json::Null, |t| fixed(t, 1)),
            ),
            (
                "final_undrifted_accuracy_pct",
                fixed(arm.final_undrifted_accuracy_pct, 2),
            ),
            (
                "final_drifted_accuracy_pct",
                fixed(arm.final_drifted_accuracy_pct, 2),
            ),
            ("regroups", int(arm.regroups)),
        ])
    });
    Json::obj([
        ("bench", Json::str("clustering")),
        ("seed", int(seed)),
        ("scale", Json::str(scale.label())),
        ("fleet", int(FLEET)),
        ("shards", int(SHARDS)),
        ("rounds", int(rounds(scale))),
        ("drift_round", int(DRIFT_ROUND)),
        (
            "drifted_clusters",
            Json::Arr(bench.drifted.iter().copied().map(int).collect()),
        ),
        ("target_accuracy_pct", Json::Num(TARGET_ACCURACY_PCT)),
        (
            "regroup_beats_static",
            Json::Bool(bench.regroup_beats_static()),
        ),
        ("deterministic", Json::Bool(bench.deterministic)),
        ("arms", Json::Arr(arms.into())),
    ])
}

/// Renders the human-readable summary.
pub fn render(bench: &ClusteringBench) -> String {
    let mut out = String::new();
    out.push_str("Clustering bench: dynamic re-clustering vs. static assignment under drift\n\n");
    out.push_str(&format!(
        "drifted clusters (round {DRIFT_ROUND}, shift {CLASS_SHIFT}): {:?}\n\n",
        bench.drifted
    ));
    out.push_str(&format!(
        "{:>18} {:>16} {:>16} {:>14} {:>8}\n",
        "arm", "t_to_target(s)", "undrifted(%)", "drifted(%)", "regroups"
    ));
    for arm in [&bench.static_arm, &bench.regroup_arm, &bench.adaptive_arm] {
        out.push_str(&format!(
            "{:>18} {:>16} {:>16.2} {:>14.2} {:>8}\n",
            arm.label,
            arm.time_to_target_secs
                .map_or("never".to_owned(), |t| format!("{t:.1}")),
            arm.final_undrifted_accuracy_pct,
            arm.final_drifted_accuracy_pct,
            arm.regroups,
        ));
    }
    out.push_str(&format!(
        "\nregroup beats static: {} (target {TARGET_ACCURACY_PCT}%)\n",
        bench.regroup_beats_static()
    ));
    out.push_str(&format!("same-seed determinism: {}\n", bench.deterministic));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick-scale seed-42 run both tests read.
    fn quick() -> &'static ClusteringBench {
        static RUN: std::sync::OnceLock<ClusteringBench> = std::sync::OnceLock::new();
        RUN.get_or_init(|| run(Scale::Quick, 42))
    }

    #[test]
    fn quick_scale_gates_hold() {
        let bench = quick();
        bench.assert_gates();
        assert!(
            bench.regroup_arm.final_drifted_accuracy_pct
                < bench.regroup_arm.final_undrifted_accuracy_pct,
            "quarantined drifted silos face a rotated task the global test \
             set never sees"
        );
    }

    #[test]
    fn json_rendering_is_well_formed() {
        crate::assert_matches_baseline("clustering", &render_json(quick(), 42, Scale::Quick));
    }

    #[test]
    fn drifted_set_straddles_every_static_shard() {
        for seed in [11u64, 42, 1337] {
            let drifted = drifted_set(seed);
            assert_eq!(drifted.len(), FLEET / 2, "exactly half drifts");
            let topology = ShardTopology::derive(&ShardConfig::new(SHARDS), seed, FLEET);
            for shard in 0..SHARDS {
                let members = topology.members(shard);
                let hit = members.iter().filter(|m| drifted.contains(m)).count();
                assert!(
                    hit > 0 && hit < members.len(),
                    "shard {shard} must mix drifted and undrifted (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn beats_static_requires_strict_improvement() {
        let arm = |ttt: Option<f64>, acc: f64| DriftArm {
            label: "x".into(),
            time_to_target_secs: ttt,
            final_undrifted_accuracy_pct: acc,
            final_drifted_accuracy_pct: 0.0,
            regroups: 0,
            report_debug: String::new(),
        };
        let bench = |static_ttt, regroup_ttt, static_acc, regroup_acc| ClusteringBench {
            static_arm: arm(static_ttt, static_acc),
            regroup_arm: arm(regroup_ttt, regroup_acc),
            adaptive_arm: arm(None, 0.0),
            deterministic: true,
            drifted: vec![],
        };
        // Strictly earlier and at least as accurate: beats.
        assert!(bench(Some(100.0), Some(90.0), 60.0, 60.0).regroup_beats_static());
        // Static never reaches, regroup does: beats.
        assert!(bench(None, Some(90.0), 50.0, 60.0).regroup_beats_static());
        // Regroup never reaches: loses.
        assert!(!bench(Some(100.0), None, 60.0, 60.0).regroup_beats_static());
        // Same time: not strictly earlier.
        assert!(!bench(Some(90.0), Some(90.0), 60.0, 60.0).regroup_beats_static());
        // Earlier but ends lower: loses.
        assert!(!bench(Some(100.0), Some(90.0), 60.0, 55.0).regroup_beats_static());
    }
}
