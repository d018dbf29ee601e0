//! Table 6 — the CIFAR-10 edge-cluster runs.
//!
//! Three heterogeneous edge organizations (Raspberry Pi 400, Jetson Nano,
//! Docker clients), all on the Top2-Mean policy with FedAvg and accuracy
//! scoring:
//!
//! | Run | Mode | Partition |
//! |---|---|---|
//! | C1 | Sync | IID |
//! | C2 | Sync | NIID α=0.5 |
//! | C3 | Async | NIID α=0.5 |

use unifyfl_core::experiment::{
    run_experiment, ExperimentBuilder, ExperimentConfig, ExperimentReport, Mode,
};
use unifyfl_core::policy::{AggregationPolicy, ScorePolicy};
use unifyfl_core::report::render_run_table;
use unifyfl_core::scoring::ScorerKind;
use unifyfl_data::{Partition, WorkloadConfig};

use crate::table1::edge_clusters;
use crate::Scale;

/// Run identifiers in the table.
pub const RUNS: [&str; 3] = ["C1", "C2", "C3"];

/// The experiment configuration for a run (`"C1"`, `"C2"`, `"C3"`).
///
/// # Panics
///
/// Panics on unknown run names.
pub fn config(run_name: &str, scale: Scale, seed: u64) -> ExperimentConfig {
    let workload = scale.apply(WorkloadConfig::cifar10());
    let (mode, partition) = match run_name {
        "C1" => (Mode::Sync, Partition::Iid),
        "C2" => (Mode::Sync, Partition::Dirichlet { alpha: 0.5 }),
        "C3" => (Mode::Async, Partition::Dirichlet { alpha: 0.5 }),
        other => panic!("unknown Table 6 run {other:?} (C1/C2/C3)"),
    };
    let clusters = edge_clusters()
        .into_iter()
        .map(|c| {
            c.with_policy(AggregationPolicy::TopK(2))
                .with_score_policy(ScorePolicy::Mean)
        })
        .collect();
    ExperimentBuilder::quickstart()
        .seed(seed)
        .label(format!("Table 6 Run {run_name}"))
        .workload(workload)
        .partition(partition)
        .mode(mode)
        .scorer(ScorerKind::Accuracy)
        .clusters(clusters)
        .config()
        .clone()
}

/// Runs one row set.
///
/// # Panics
///
/// Panics on unknown run names.
pub fn run(run_name: &str, scale: Scale, seed: u64) -> ExperimentReport {
    run_experiment(&config(run_name, scale, seed)).expect("table6 configs are valid")
}

/// Renders one run.
pub fn render(run_name: &str, scale: Scale, seed: u64) -> String {
    let paper = WorkloadConfig::cifar10();
    let actual = scale.apply(paper.clone());
    let report = run(run_name, scale, seed);
    let mut out = render_run_table(&report);
    out.push_str(&crate::extrapolation_note(scale, &paper, &actual));
    out
}

/// Renders the whole table.
pub fn render_all(scale: Scale, seed: u64) -> String {
    RUNS.iter()
        .map(|r| render(r, scale, seed))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_match_paper_matrix() {
        let c1 = config("C1", Scale::Quick, 1);
        assert_eq!(c1.mode, Mode::Sync);
        assert_eq!(c1.partition, Partition::Iid);
        let c3 = config("C3", Scale::Quick, 1);
        assert_eq!(c3.mode, Mode::Async);
        assert!(matches!(c3.partition, Partition::Dirichlet { .. }));
        for name in RUNS {
            let cfg = config(name, Scale::Quick, 1);
            assert_eq!(cfg.clusters.len(), 3);
            assert!(cfg
                .clusters
                .iter()
                .all(|c| c.policy == AggregationPolicy::TopK(2)));
        }
    }

    #[test]
    #[should_panic(expected = "unknown Table 6 run")]
    fn unknown_run_panics() {
        let _ = config("C9", Scale::Quick, 1);
    }
}
