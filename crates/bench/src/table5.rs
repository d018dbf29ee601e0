//! Table 5 — the nine Tiny-ImageNet runs on the GPU cluster.
//!
//! | Run | Mode | Strategy | Scoring | Partition | Policies |
//! |---|---|---|---|---|---|
//! | 1 | HBFL baseline | FedAvg | Accuracy | NIID α=0.5 | All |
//! | 2 | Async | FedAvg | Accuracy | NIID α=0.5 | All ×4 |
//! | 3 | Async | FedAvg | Accuracy | NIID α=0.1 | Top2-Mean ×4 |
//! | 4 | Async | FedAvg+FedYogi | Accuracy | NIID α=0.1 | Top2-Mean ×4 |
//! | 5 | Sync | FedAvg | Accuracy | NIID α=0.5 | Self / Top2-Max / Top2-Mean / Top3-Mean |
//! | 6 | Sync | FedAvg | Accuracy | IID | Self / Top2-Max / Top2-Mean / Top3-Mean |
//! | 7 | Sync | FedAvg | MultiKRUM | NIID α=0.5 | All / Top3-Mean / Top2-Mean / Top1-Mean |
//! | 8 | Sync | FedAvg | Accuracy | IID | All ×4 |
//! | 9 | Async | FedAvg | Accuracy | IID | All ×4 |

use unifyfl_core::baseline::run_hbfl;
use unifyfl_core::cluster::ClusterConfig;
use unifyfl_core::experiment::{run_experiment, ExperimentBuilder, ExperimentConfig, Mode};
use unifyfl_core::policy::{AggregationPolicy, ScorePolicy};
use unifyfl_core::report::{render_baseline_table, render_run_table};
use unifyfl_core::scoring::ScorerKind;
use unifyfl_data::{Partition, WorkloadConfig};
use unifyfl_fl::StrategyKind;

use crate::Scale;

/// Run identifiers in the table.
pub const RUNS: std::ops::RangeInclusive<u32> = 1..=9;

fn gpu_clusters(
    policies: &[AggregationPolicy],
    score: &[ScorePolicy],
    strategies: &[StrategyKind],
) -> Vec<ClusterConfig> {
    (0..4)
        .map(|i| {
            ClusterConfig::gpu(format!("Agg {}", i + 1))
                .with_policy(policies[i % policies.len()])
                .with_score_policy(score[i % score.len()])
                .with_strategy(strategies[i % strategies.len()])
        })
        .collect()
}

/// The Tiny-ImageNet workload at the requested scale. The quick scale
/// keeps at least 10 rounds: the 200-class task needs ≥ 20 total local
/// epochs before the paper's relative orderings stabilize above noise.
pub fn workload(scale: Scale) -> WorkloadConfig {
    let mut workload = scale.apply(WorkloadConfig::tiny_imagenet());
    if scale == Scale::Quick {
        workload.rounds = workload.rounds.max(10);
    }
    workload
}

/// The configuration of one run: run 1 is the HBFL baseline (its mode and
/// scorer are never read), runs 2–9 are UnifyFL experiments.
///
/// # Panics
///
/// Panics on run numbers outside 1–9.
pub fn config(run_no: u32, scale: Scale, seed: u64) -> ExperimentConfig {
    let workload = workload(scale);
    use AggregationPolicy as P;
    use ScorePolicy as S;
    use StrategyKind as K;
    let (mode, scorer, partition, clusters) = match run_no {
        1 => (
            Mode::Sync,
            ScorerKind::Accuracy,
            Partition::Dirichlet { alpha: 0.5 },
            gpu_clusters(&[P::All], &[S::Mean], &[K::FedAvg]),
        ),
        2 => (
            Mode::Async,
            ScorerKind::Accuracy,
            Partition::Dirichlet { alpha: 0.5 },
            gpu_clusters(&[P::All], &[S::Mean], &[K::FedAvg]),
        ),
        3 => (
            Mode::Async,
            ScorerKind::Accuracy,
            Partition::Dirichlet { alpha: 0.1 },
            gpu_clusters(&[P::TopK(2)], &[S::Mean], &[K::FedAvg]),
        ),
        4 => (
            Mode::Async,
            ScorerKind::Accuracy,
            Partition::Dirichlet { alpha: 0.1 },
            // Aggregators 2 and 4 run FedYogi (the paper's "F" rows).
            gpu_clusters(&[P::TopK(2)], &[S::Mean], &[K::FedAvg, K::FedYogi]),
        ),
        5 => (
            Mode::Sync,
            ScorerKind::Accuracy,
            Partition::Dirichlet { alpha: 0.5 },
            gpu_clusters(
                &[P::SelfOnly, P::TopK(2), P::TopK(2), P::TopK(3)],
                &[S::Mean, S::Max, S::Mean, S::Mean],
                &[K::FedAvg],
            ),
        ),
        6 => (
            Mode::Sync,
            ScorerKind::Accuracy,
            Partition::Iid,
            gpu_clusters(
                &[P::SelfOnly, P::TopK(2), P::TopK(2), P::TopK(3)],
                &[S::Mean, S::Max, S::Mean, S::Mean],
                &[K::FedAvg],
            ),
        ),
        7 => (
            Mode::Sync,
            ScorerKind::MultiKrum,
            Partition::Dirichlet { alpha: 0.5 },
            gpu_clusters(
                &[P::All, P::TopK(3), P::TopK(2), P::TopK(1)],
                &[S::Mean],
                &[K::FedAvg],
            ),
        ),
        8 => (
            Mode::Sync,
            ScorerKind::Accuracy,
            Partition::Iid,
            gpu_clusters(&[P::All], &[S::Mean], &[K::FedAvg]),
        ),
        9 => (
            Mode::Async,
            ScorerKind::Accuracy,
            Partition::Iid,
            gpu_clusters(&[P::All], &[S::Mean], &[K::FedAvg]),
        ),
        other => panic!("run {other} is not a Table 5 run (1..=9)"),
    };
    ExperimentBuilder::quickstart()
        .seed(seed)
        .label(format!("Table 5 Run {run_no}"))
        .workload(workload)
        .partition(partition)
        .mode(mode)
        .scorer(scorer)
        .clusters(clusters)
        .config()
        .clone()
}

/// Renders one run (1 = HBFL baseline, 2–9 = UnifyFL).
pub fn render(run_no: u32, scale: Scale, seed: u64) -> String {
    let paper = WorkloadConfig::tiny_imagenet();
    let config = config(run_no, scale, seed);
    let mut out = String::new();
    if run_no == 1 {
        let baseline = run_hbfl(&config).expect("table5 configs are valid");
        out.push_str("== Table 5 Run 1 [HBFL baseline | FedAvg | Accuracy | NIID α=0.5] ==\n");
        out.push_str(&render_baseline_table(
            "HBFL (centralized multilevel)",
            &baseline,
        ));
        out.push_str(&format!(
            "Time: {:.0} virtual s\n",
            baseline.outcome.end_time.as_secs_f64()
        ));
    } else {
        let report = run_experiment(&config).expect("table5 configs are valid");
        out.push_str(&render_run_table(&report));
    }
    out.push_str(&crate::extrapolation_note(scale, &paper, &config.workload));
    out
}

/// Renders every run of the table.
pub fn render_all(scale: Scale, seed: u64) -> String {
    RUNS.map(|r| render(r, scale, seed))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_runs_have_valid_configs() {
        for r in RUNS {
            let cfg = config(r, Scale::Quick, 1);
            cfg.validate().unwrap_or_else(|e| panic!("run {r}: {e}"));
            assert_eq!(cfg.clusters.len(), 4);
        }
    }

    #[test]
    fn run7_uses_multikrum_sync() {
        let cfg = config(7, Scale::Quick, 1);
        assert_eq!(cfg.mode, Mode::Sync);
        assert_eq!(cfg.scorer, ScorerKind::MultiKrum);
    }

    #[test]
    fn run4_mixes_strategies() {
        let cfg = config(4, Scale::Quick, 1);
        let strategies: Vec<_> = cfg.clusters.iter().map(|c| c.strategy).collect();
        assert_eq!(
            strategies,
            vec![
                StrategyKind::FedAvg,
                StrategyKind::FedYogi,
                StrategyKind::FedAvg,
                StrategyKind::FedYogi
            ]
        );
    }

    #[test]
    fn run5_mixes_policies_like_the_paper() {
        let cfg = config(5, Scale::Quick, 1);
        let p: Vec<String> = cfg.clusters.iter().map(|c| c.policy.to_string()).collect();
        assert_eq!(p, vec!["Self", "Top2", "Top2", "Top3"]);
        let s: Vec<String> = cfg
            .clusters
            .iter()
            .map(|c| c.score_policy.to_string())
            .collect();
        assert_eq!(s, vec!["Mean", "Max", "Mean", "Mean"]);
    }

    #[test]
    #[should_panic(expected = "not a Table 5 run")]
    fn run0_panics() {
        let _ = config(0, Scale::Quick, 1);
    }
}
