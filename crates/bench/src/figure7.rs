//! Figure 7 — policies to prevent Byzantine attacks.
//!
//! Two honest aggregators and one sign-flipping attacker. For the first
//! ~30 % of rounds every aggregator trains on its own model (the paper's
//! warm-up, visible as the flat early segment before the dip). Then:
//!
//! - the **naive** policy (Top-3 over 3 available models) pulls the
//!   poisoned model in and accuracy collapses, while
//! - the **smart** policy (Above-Average) filters it out, because the
//!   accuracy scorers give the poisoned model a near-zero score.

use unifyfl_core::byzantine::AttackKind;
use unifyfl_core::experiment::{
    run_experiment, ExperimentBuilder, ExperimentConfig, ExperimentReport, Mode,
};
use unifyfl_core::policy::{AggregationPolicy, ScorePolicy};
use unifyfl_core::report::render_curves;
use unifyfl_core::scoring::ScorerKind;
use unifyfl_data::{Partition, WorkloadConfig};
use unifyfl_sim::DeviceProfile;

use crate::Scale;

/// Which policy variant of the figure to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyVariant {
    /// Figure 7(a): Top-3 ingests the attacker.
    Naive,
    /// Figure 7(b): Above-Average filters the attacker.
    Smart,
}

impl PolicyVariant {
    fn aggregation(self) -> AggregationPolicy {
        match self {
            PolicyVariant::Naive => AggregationPolicy::TopK(3),
            PolicyVariant::Smart => AggregationPolicy::AboveAverage,
        }
    }
}

/// The experiment configuration for one variant.
pub fn config(variant: PolicyVariant, scale: Scale, seed: u64) -> ExperimentConfig {
    let workload = scale.apply(WorkloadConfig::cifar10());
    let warmup = (workload.rounds as u64 * 3) / 10; // paper: 30 of ~100 rounds
    let mk = |name: &str, attack: Option<AttackKind>| {
        let mut c = unifyfl_core::cluster::ClusterConfig::edge(name, DeviceProfile::edge_cpu())
            .with_policy(variant.aggregation())
            .with_score_policy(ScorePolicy::Mean);
        c.warmup_self_rounds = warmup;
        c.attack = attack;
        c
    };
    ExperimentBuilder::quickstart()
        .seed(seed)
        .label(format!("Figure 7 ({variant:?} policy)"))
        .workload(workload)
        .partition(Partition::Dirichlet { alpha: 0.5 })
        .mode(Mode::Sync)
        .scorer(ScorerKind::Accuracy)
        .clusters(vec![
            mk("Honest 1", None),
            mk("Honest 2", None),
            mk("Malicious", Some(AttackKind::SignFlip)),
        ])
        .config()
        .clone()
}

/// Runs one variant.
///
/// # Panics
///
/// Panics if the configuration is invalid (cannot happen here).
pub fn run(variant: PolicyVariant, scale: Scale, seed: u64) -> ExperimentReport {
    run_experiment(&config(variant, scale, seed)).expect("figure7 configs are valid")
}

/// Mean final global accuracy of the *honest* aggregators.
pub fn honest_accuracy(report: &ExperimentReport) -> f64 {
    report.mean_global_accuracy_pct(|i| !report.aggregators[i].name.contains("Malicious"))
}

/// Renders both panels of the figure.
pub fn render(scale: Scale, seed: u64) -> String {
    let naive = run(PolicyVariant::Naive, scale, seed);
    let smart = run(PolicyVariant::Smart, scale, seed);
    let mut out = String::new();
    out.push_str("Figure 7: Policies to prevent Byzantine attacks\n");
    out.push_str("(2 honest aggregators + 1 sign-flip attacker; accuracy over time)\n\n");
    out.push_str("(a) Naive policy — Top-3 (ingests the poisoned model):\n");
    out.push_str(&render_curves(&naive));
    out.push_str(&format!(
        "final honest accuracy: {:.2}%\n\n",
        honest_accuracy(&naive)
    ));
    out.push_str("(b) Smart policy — Above-Average (filters the poisoned model):\n");
    out.push_str(&render_curves(&smart));
    out.push_str(&format!(
        "final honest accuracy: {:.2}%\n\n",
        honest_accuracy(&smart)
    ));
    out.push_str(&format!(
        "smart-policy advantage: {:+.2} accuracy points\n",
        honest_accuracy(&smart) - honest_accuracy(&naive)
    ));
    out.push_str(&crate::extrapolation_note(
        scale,
        &WorkloadConfig::cifar10(),
        &scale.apply(WorkloadConfig::cifar10()),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smart_policy_beats_naive_under_attack() {
        let naive = run(PolicyVariant::Naive, Scale::Quick, 42);
        let smart = run(PolicyVariant::Smart, Scale::Quick, 42);
        let (n, s) = (honest_accuracy(&naive), honest_accuracy(&smart));
        assert!(
            s > n,
            "Figure 7 shape: smart ({s:.2}%) must beat naive ({n:.2}%)"
        );
    }

    #[test]
    fn warmup_is_a_third_of_rounds() {
        let cfg = config(PolicyVariant::Smart, Scale::Quick, 1);
        let warmup = cfg.clusters[0].warmup_self_rounds;
        assert_eq!(warmup, (cfg.workload.rounds as u64 * 3) / 10);
    }

    #[test]
    fn exactly_one_attacker() {
        let cfg = config(PolicyVariant::Naive, Scale::Quick, 1);
        let attackers = cfg.clusters.iter().filter(|c| c.attack.is_some()).count();
        assert_eq!(attackers, 1);
    }
}
