//! §4.2.6 — scalability: 60 clients split between 3 aggregators.
//!
//! The paper's claims: (1) accuracy stays comparable to the baseline at
//! the same round count, and (2) the blockchain/IPFS overhead stays flat
//! as client count grows, because UnifyFL abstracts the substrate at the
//! cluster level — edge clients never run Geth or IPFS nodes.

use unifyfl_core::cluster::ClusterConfig;
use unifyfl_core::experiment::{
    run_experiment, ExperimentBuilder, ExperimentConfig, ExperimentReport, Mode,
};
use unifyfl_core::policy::{AggregationPolicy, ScorePolicy};
use unifyfl_core::report::render_run_table;
use unifyfl_core::scoring::ScorerKind;
use unifyfl_data::{Partition, WorkloadConfig};
use unifyfl_sim::DeviceProfile;

use crate::Scale;

/// Configuration with `clients_per_agg` clients on each of 3 aggregators.
pub fn config(clients_per_agg: usize, scale: Scale, seed: u64) -> ExperimentConfig {
    let mut workload = scale.apply(WorkloadConfig::cifar10());
    // More clients need enough samples to shard meaningfully.
    workload.dataset.n_samples = workload.dataset.n_samples.max(clients_per_agg * 3 * 30);
    let clusters = (0..3)
        .map(|i| {
            let mut c = ClusterConfig::edge(format!("Agg {}", i + 1), DeviceProfile::edge_cpu())
                .with_policy(AggregationPolicy::All)
                .with_score_policy(ScorePolicy::Mean);
            c.n_clients = clients_per_agg;
            c
        })
        .collect();
    ExperimentBuilder::quickstart()
        .seed(seed)
        .label(format!("Scalability ({} clients)", clients_per_agg * 3))
        .workload(workload)
        .partition(Partition::Dirichlet { alpha: 0.5 })
        .mode(Mode::Async)
        .scorer(ScorerKind::Accuracy)
        .clusters(clusters)
        .config()
        .clone()
}

/// Runs the scalability experiment at a given fleet size.
///
/// # Panics
///
/// Panics if the configuration is invalid (cannot happen here).
pub fn run(clients_per_agg: usize, scale: Scale, seed: u64) -> ExperimentReport {
    run_experiment(&config(clients_per_agg, scale, seed)).expect("scalability config is valid")
}

/// Renders the small-fleet vs large-fleet comparison (9 vs 60 clients).
pub fn render(scale: Scale, seed: u64) -> String {
    let small = run(3, scale, seed);
    let large = run(20, scale, seed);
    let mut out = String::new();
    out.push_str("§4.2.6 Scalability: 60 clients split between 3 aggregators\n\n");
    out.push_str("-- 9 clients (3 per aggregator) --\n");
    out.push_str(&render_run_table(&small));
    out.push_str("\n-- 60 clients (20 per aggregator) --\n");
    out.push_str(&render_run_table(&large));
    out.push('\n');
    for (name, report) in [("9-client", &small), ("60-client", &large)] {
        if let (Some(geth), Some(ipfs)) =
            (report.resources.get("geth"), report.resources.get("ipfs"))
        {
            out.push_str(&format!(
                "{name} substrate overhead: Geth {:.2}% CPU / {:.0} MB, IPFS {:.2}% CPU / {:.0} MB\n",
                geth.cpu_mean, geth.mem_mean, ipfs.cpu_mean, ipfs.mem_mean
            ));
        }
    }
    out.push_str(
        "(overhead is per-cluster and independent of client count: edge clients run no\n chain or storage nodes)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixty_client_run_completes_with_stable_accuracy() {
        let small = run(3, Scale::Quick, 42);
        let large = run(20, Scale::Quick, 42);
        let mean = |r: &ExperimentReport| r.mean_global_accuracy_pct(|_| true);
        let (s, l) = (mean(&small), mean(&large));
        // §4.2.6: performance trends stay stable when scaling clients.
        assert!(l > 0.0);
        assert!(
            (s - l).abs() < 25.0,
            "9-client {s:.1}% vs 60-client {l:.1}% should be in the same band"
        );
    }

    #[test]
    fn substrate_overhead_is_flat_across_fleet_sizes() {
        let small = run(3, Scale::Quick, 42);
        let large = run(20, Scale::Quick, 42);
        let g_small = small.resources.get("geth").unwrap().mem_mean;
        let g_large = large.resources.get("geth").unwrap().mem_mean;
        assert!(
            (g_small - g_large).abs() < 0.5,
            "Geth memory must stay flat"
        );
    }

    #[test]
    fn config_sets_client_counts() {
        let cfg = config(20, Scale::Quick, 1);
        assert!(cfg.clusters.iter().all(|c| c.n_clients == 20));
        assert_eq!(cfg.clusters.len(), 3);
    }
}
