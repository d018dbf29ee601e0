//! Table 1 — accuracy and loss for the No-Collab and Collab settings.
//!
//! The paper's motivating experiment: three edge clusters train on a
//! NIID-partitioned CIFAR-10 workload, first independently, then through
//! the centralized multilevel (HBFL-style) collaboration. The headline
//! result: non-collaborative accuracy is capped well below the
//! collaborative global model's.

use unifyfl_core::baseline::{run_hbfl, run_no_collab, BaselineRun};
use unifyfl_core::cluster::ClusterConfig;
use unifyfl_core::experiment::ExperimentBuilder;
use unifyfl_core::report::render_baseline_table;
use unifyfl_data::{Partition, WorkloadConfig};
use unifyfl_sim::DeviceProfile;

use crate::Scale;

/// The edge-cluster configuration used throughout Tables 1 and 6: three
/// organizations whose client fleets are Raspberry Pi 400s, Jetson Nanos
/// and Docker containers respectively.
pub fn edge_clusters() -> Vec<ClusterConfig> {
    vec![
        ClusterConfig::edge("Aggregator 1", DeviceProfile::raspberry_pi_400()),
        ClusterConfig::edge("Aggregator 2", DeviceProfile::jetson_nano()),
        ClusterConfig::edge("Aggregator 3", DeviceProfile::docker_container()),
    ]
}

/// Both baseline runs, `(no_collab, hbfl)`, of one configuration: the edge
/// clusters on CIFAR-10 at the requested scale, NIID α = 0.5.
///
/// # Panics
///
/// Panics if the configuration is invalid (it is not, at either scale).
pub fn run(scale: Scale, seed: u64) -> (BaselineRun, BaselineRun, WorkloadConfig) {
    let builder = ExperimentBuilder::quickstart()
        .seed(seed)
        .workload(scale.apply(WorkloadConfig::cifar10()))
        .partition(Partition::Dirichlet { alpha: 0.5 })
        .clusters(edge_clusters());
    let config = builder.config();
    let no_collab = run_no_collab(config).expect("the Table 1 config is valid");
    let hbfl = run_hbfl(config).expect("the Table 1 config is valid");
    (no_collab, hbfl, config.workload.clone())
}

/// Renders the table in the paper's layout.
pub fn render(scale: Scale, seed: u64) -> String {
    let (no_collab, hbfl, actual) = run(scale, seed);
    let mut out = String::new();
    out.push_str("Table 1: Accuracy and Loss for No Collab and Collab settings\n");
    out.push_str(&format!(
        "workload: {} | NIID α=0.5 | seed {seed}\n\n",
        actual.name
    ));
    out.push_str(&render_baseline_table("No Collab", &no_collab));
    out.push('\n');
    out.push_str(&render_baseline_table(
        "Collab (centralized multilevel)",
        &hbfl,
    ));
    out.push('\n');
    out.push_str(&crate::extrapolation_note(
        scale,
        &WorkloadConfig::cifar10(),
        &actual,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a 64 over everything a baseline run reports — every cluster's
    /// round records, the per-cluster and end times, the global and final
    /// local metrics — with every float by its bits.
    fn fingerprint(run: &BaselineRun) -> u64 {
        let mut words = Vec::new();
        for r in run.clusters.iter().flat_map(|c| &c.records) {
            words.extend([r.round, r.peers_merged as u64]);
            words.extend([r.local_accuracy, r.local_loss].map(f64::to_bits));
            words.extend([r.global_accuracy, r.global_loss].map(f64::to_bits));
            words.push(r.completed_at_secs.to_bits());
        }
        let o = &run.outcome;
        words.extend(o.per_cluster_time.iter().map(|t| t.as_millis()));
        for (accuracy, loss) in std::iter::once(&o.global).chain(&o.final_local) {
            words.extend([accuracy.to_bits(), loss.to_bits()]);
        }
        words.push(o.end_time.as_millis());
        let bytes = words.iter().flat_map(|w| w.to_le_bytes());
        bytes.fold(0xcbf29ce484222325, |hash, byte| {
            (hash ^ byte as u64).wrapping_mul(0x100000001b3)
        })
    }

    /// Table 1's shape, and both arms pinned bit for bit at seed 42 as the
    /// tree computed them before the baselines took the validated route.
    #[test]
    fn collab_global_beats_every_no_collab_local() {
        let (no_collab, hbfl, _) = run(Scale::Quick, 42);
        assert_eq!(
            (fingerprint(&no_collab), fingerprint(&hbfl)),
            (0x856bb531dca069a1, 0x108874a5385f0d5a),
            "a baseline arm moved"
        );
        let best_solo = no_collab
            .outcome
            .final_local
            .iter()
            .map(|(a, _)| *a)
            .fold(0.0, f64::max);
        let (global, _) = hbfl.outcome.global;
        assert!(
            global > best_solo,
            "Table 1 shape: collab global {global:.3} must beat best solo {best_solo:.3}"
        );
    }

    #[test]
    fn render_contains_all_rows() {
        let text = render(Scale::Quick, 42);
        assert!(text.contains("No Collab"));
        assert!(text.contains("Global Model"));
        assert!(text.contains("Aggregator 1"));
        assert!(text.contains("Aggregator 3"));
    }
}
