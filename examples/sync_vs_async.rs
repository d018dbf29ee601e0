//! Sync vs Async orchestration on a heterogeneous edge federation
//! (the paper's §4.2.4 / Table 6 comparison).
//!
//! ```sh
//! cargo run --release --example sync_vs_async
//! ```
//!
//! The same three organizations — Raspberry Pi, Jetson Nano and Docker
//! client fleets — run the same workload in both modes. Sync pays for the
//! slowest cluster every round (idle time); Async lets each cluster
//! free-run, trading a little model freshness for wall-clock speed.

use unifyfl::core::cluster::ClusterConfig;
use unifyfl::core::experiment::{
    run_experiment, ExperimentBuilder, ExperimentConfig, ExperimentReport, Mode,
};
use unifyfl::core::policy::{AggregationPolicy, ScorePolicy};
use unifyfl::core::scoring::ScorerKind;
use unifyfl::data::{Partition, WorkloadConfig};
use unifyfl::sim::DeviceProfile;

fn config(mode: Mode) -> ExperimentConfig {
    let clusters = vec![
        ClusterConfig::edge("pi-cluster", DeviceProfile::raspberry_pi_400()),
        ClusterConfig::edge("jetson-cluster", DeviceProfile::jetson_nano()),
        ClusterConfig::edge("docker-cluster", DeviceProfile::docker_container()),
    ]
    .into_iter()
    .map(|c| {
        c.with_policy(AggregationPolicy::TopK(2))
            .with_score_policy(ScorePolicy::Mean)
    })
    .collect();
    ExperimentBuilder::quickstart()
        .seed(42)
        .label(format!("{mode} orchestration"))
        .workload(WorkloadConfig::cifar10().scaled(10))
        .partition(Partition::Dirichlet { alpha: 0.5 })
        .mode(mode)
        .scorer(ScorerKind::Accuracy)
        .clusters(clusters)
        .config()
        .clone()
}

fn summarize(report: &ExperimentReport) {
    println!("== {} ==", report.label);
    for a in &report.aggregators {
        println!(
            "{:<16} finished at {:>6.0} s   global {:>5.1}%   stragglers {}  rejected scores {}",
            a.name, a.time_secs, a.global_accuracy_pct, a.straggler_rounds, a.rejected_scores
        );
    }
    println!("federation end-to-end: {:.0} s\n", report.wall_secs);
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sync = run_experiment(&config(Mode::Sync))?;
    let async_ = run_experiment(&config(Mode::Async))?;

    summarize(&sync);
    summarize(&async_);

    let fastest_async = async_
        .aggregators
        .iter()
        .map(|a| a.time_secs)
        .fold(f64::INFINITY, f64::min);
    println!(
        "speedup for the fastest organization: {:.2}x (sync {:.0} s → async {:.0} s)",
        sync.wall_secs / fastest_async,
        sync.wall_secs,
        fastest_async
    );
    println!(
        "accuracy cost of going async: {:+.1} points",
        async_.aggregators[0].global_accuracy_pct - sync.aggregators[0].global_accuracy_pct
    );
    Ok(())
}
