//! Byzantine defense (the paper's Figure 7 scenario): a malicious
//! organization publishes sign-flipped models; honest organizations defend
//! with their *aggregation policy*, not with any central authority.
//!
//! ```sh
//! cargo run --release --example byzantine_defense
//! ```
//!
//! Runs the same federation twice — once with a naive Top-3 policy that
//! ingests everything, once with the Above-Average policy that filters
//! low-scored models — and prints both accuracy trajectories.

use unifyfl::core::byzantine::AttackKind;
use unifyfl::core::cluster::ClusterConfig;
use unifyfl::core::experiment::{run_experiment, ExperimentBuilder, ExperimentConfig, Mode};
use unifyfl::core::policy::{AggregationPolicy, ScorePolicy};
use unifyfl::core::report::render_curves;
use unifyfl::core::scoring::ScorerKind;
use unifyfl::data::{Partition, WorkloadConfig};
use unifyfl::sim::DeviceProfile;

fn scenario(policy: AggregationPolicy, label: &str) -> ExperimentConfig {
    let workload = WorkloadConfig::cifar10().scaled(10);
    let warmup = workload.rounds as u64 * 3 / 10;
    let mk = |name: &str, attack: Option<AttackKind>| {
        let mut c = ClusterConfig::edge(name, DeviceProfile::edge_cpu())
            .with_policy(policy)
            .with_score_policy(ScorePolicy::Mean);
        c.warmup_self_rounds = warmup;
        c.attack = attack;
        c
    };
    ExperimentBuilder::quickstart()
        .seed(42)
        .label(label.to_owned())
        .workload(workload)
        .partition(Partition::Dirichlet { alpha: 0.5 })
        .mode(Mode::Sync)
        .scorer(ScorerKind::Accuracy)
        .clusters(vec![
            mk("Honest-1", None),
            mk("Honest-2", None),
            mk("Attacker", Some(AttackKind::SignFlip)),
        ])
        .config()
        .clone()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let naive = run_experiment(&scenario(AggregationPolicy::TopK(3), "naive Top-3"))?;
    let smart = run_experiment(&scenario(
        AggregationPolicy::AboveAverage,
        "smart Above-Average",
    ))?;

    println!("--- naive policy: the poisoned model is merged ---");
    print!("{}", render_curves(&naive));
    println!("\n--- smart policy: scorers expose the attacker, the policy filters it ---");
    print!("{}", render_curves(&smart));

    let honest_mean = |r: &unifyfl::core::ExperimentReport| {
        r.mean_global_accuracy_pct(|i| r.aggregators[i].name.starts_with("Honest"))
    };
    println!(
        "\nfinal honest accuracy: naive {:.1}% vs smart {:.1}%",
        honest_mean(&naive),
        honest_mean(&smart)
    );
    println!(
        "defense value: {:+.1} accuracy points",
        honest_mean(&smart) - honest_mean(&naive)
    );
    Ok(())
}
