//! The paper's motivating scenario (Figure 1): three automobile companies,
//! each with a vehicle fleet training on private sensor data, collaborate
//! without trusting a central aggregator.
//!
//! ```sh
//! cargo run --release --example automotive_fleet
//! ```
//!
//! Each company keeps its own FL pipeline (different aggregation policies,
//! different fleet hardware) and only shares *aggregated* model weights
//! through IPFS, with the blockchain orchestrator coordinating scoring.
//! The example prints each company's outcome and the on-chain audit trail
//! that makes the collaboration trustworthy.

use unifyfl::chain::orchestrator::events;
use unifyfl::core::cluster::ClusterConfig;
use unifyfl::core::experiment::{ExperimentBuilder, Mode};
use unifyfl::core::policy::{AggregationPolicy, ScorePolicy};
use unifyfl::core::scoring::ScorerKind;
use unifyfl::core::RunState;
use unifyfl::data::{Partition, SyntheticConfig, WorkloadConfig};
use unifyfl::fl::StrategyKind;
use unifyfl::sim::DeviceProfile;
use unifyfl::tensor::ModelSpec;

fn main() {
    // Driving-scene classification stand-in: 8 manoeuvre classes from
    // 24-dimensional telemetry windows.
    let mut dataset = SyntheticConfig::cifar10_like(1_200);
    dataset.input = unifyfl::tensor::zoo::InputKind::Flat(24);
    dataset.n_classes = 8;
    dataset.noise_scale = 2.0;
    let workload = WorkloadConfig {
        name: "fleet-telemetry".into(),
        model: ModelSpec::mlp(24, vec![48], 8),
        dataset,
        rounds: 8,
        local_epochs: 2,
        batch_size: 16,
        learning_rate: 0.05,
    };

    // Three companies with different fleets, policies and strategies —
    // the flexibility UnifyFL's design is built around (§3.4.4).
    let companies = vec![
        ClusterConfig::edge("NorthStar Motors", DeviceProfile::jetson_nano())
            .with_policy(AggregationPolicy::TopK(2))
            .with_score_policy(ScorePolicy::Median)
            .with_strategy(StrategyKind::FedAvg),
        ClusterConfig::edge("Velo Automotive", DeviceProfile::edge_cpu())
            .with_policy(AggregationPolicy::AboveAverage)
            .with_score_policy(ScorePolicy::Mean)
            .with_strategy(StrategyKind::FedYogi),
        ClusterConfig::edge("Kestrel EV", DeviceProfile::docker_container())
            .with_policy(AggregationPolicy::All)
            .with_score_policy(ScorePolicy::Mean)
            .with_strategy(StrategyKind::FedAvg),
    ];

    let config = ExperimentBuilder::quickstart()
        .seed(7)
        .label("automotive cross-silo federation")
        .workload(workload)
        .partition(Partition::Dirichlet { alpha: 0.5 })
        .mode(Mode::Sync)
        .scorer(ScorerKind::Accuracy)
        .clusters(companies)
        .config()
        .clone();

    // Keep the federation the run hands back, so the chain can be
    // inspected afterwards.
    let (report, fed) = RunState::new(&config).expect("valid scenario").finish();

    println!("=== {} ===", report.label);
    for company in &report.aggregators {
        println!(
            "{:<18} policy {:<10} strategy {:<8} local {:>5.1}%  global {:>5.1}%",
            company.name,
            company.policy,
            company.strategy,
            company.local_accuracy_pct,
            company.global_accuracy_pct,
        );
    }

    // The audit trail: every orchestration step is an on-chain event any
    // company can replay and verify.
    println!("\n=== on-chain audit trail ===");
    for name in [
        events::AGGREGATOR_REGISTERED,
        events::START_TRAINING,
        events::MODEL_SUBMITTED,
        events::SCORERS_ASSIGNED,
        events::SCORE_SUBMITTED,
        events::SCORING_CLOSED,
    ] {
        println!(
            "{:<22} {:>4} events",
            name,
            fed.chain.logs_since(0, Some(name)).len()
        );
    }
    println!(
        "chain height {} — integrity check: {}",
        fed.chain.height(),
        match fed.chain.verify() {
            Ok(()) => "all seals and tx roots valid".to_owned(),
            Err(h) => format!("FAILED at block {h}"),
        }
    );
}
