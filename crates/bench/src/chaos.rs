//! Chaos benchmark: rounds-to-converge with and without churn.
//!
//! Runs the same federation twice — fault-free, then under a churn mix
//! (sampled crashes, flaky DHT, lossy gossip, missed seals) — and reports
//! how many rounds each run needs to reach 90% of the fault-free final
//! accuracy. `unifyfl-bench chaos` writes the JSON rendering to
//! `BENCH_chaos.json` and then asserts [`ChaosBench::assert_gates`];
//! `docs/baselines/chaos.json` pins it at seed 42.

use unifyfl_core::cluster::ClusterConfig;
use unifyfl_core::experiment::{
    run_experiment, ExperimentBuilder, ExperimentConfig, ExperimentReport, Mode,
};
use unifyfl_core::policy::AggregationPolicy;
use unifyfl_core::report::{render_chaos_summary, render_run_table};
use unifyfl_core::scoring::ScorerKind;
use unifyfl_core::ChaosConfig;
use unifyfl_data::{Partition, SyntheticConfig, WorkloadConfig};
use unifyfl_sim::DeviceProfile;
use unifyfl_tensor::zoo::{InputKind, ModelSpec};

use crate::{fixed, int, Json};

/// Rounds of the benchmark federation.
pub const ROUNDS: usize = 6;

/// The churn mix applied to the faulty run.
pub fn churn() -> ChaosConfig {
    ChaosConfig {
        crash_prob: 0.08,
        crash_down_rounds: 1,
        fetch_failure_prob: 0.2,
        chunk_loss_prob: 0.15,
        chunk_retries: 3,
        missed_seal_prob: 0.1,
        dropped_tx_prob: 0.15,
        ..ChaosConfig::default()
    }
}

/// The benchmark configuration (3 edge clusters, small synthetic task).
pub fn config(seed: u64, chaos: Option<ChaosConfig>) -> ExperimentConfig {
    let mut dataset = SyntheticConfig::cifar10_like(450);
    dataset.input = InputKind::Flat(16);
    dataset.n_classes = 4;
    dataset.noise_scale = 0.6;
    dataset.label_noise = 0.05;
    let workload = WorkloadConfig {
        name: "chaos-bench".into(),
        model: ModelSpec::mlp(16, vec![24], 4),
        dataset,
        rounds: ROUNDS,
        local_epochs: 1,
        batch_size: 16,
        learning_rate: 0.05,
    };
    let clusters = (0..3)
        .map(|i| {
            ClusterConfig::edge(format!("agg-{}", i + 1), DeviceProfile::edge_cpu())
                .with_policy(AggregationPolicy::All)
        })
        .collect();
    let mut config = ExperimentBuilder::quickstart()
        .seed(seed)
        .label(if chaos.is_some() { "churn" } else { "baseline" })
        .workload(workload)
        .partition(Partition::Iid)
        .mode(Mode::Sync)
        .scorer(ScorerKind::Accuracy)
        .clusters(clusters)
        .config()
        .clone();
    config.chaos = chaos;
    config
}

/// First 1-based round whose mean accuracy, over the aggregators that
/// recorded it, reaches `threshold_pct`, if any.
pub fn rounds_to_converge(report: &ExperimentReport, threshold_pct: f64) -> Option<u64> {
    let curve = report.round_means(|_| true);
    let reached = curve
        .iter()
        .find(|m| m.global_accuracy_pct >= threshold_pct)?;
    Some(reached.round)
}

/// The paired result of one benchmark run.
pub struct ChaosBench {
    /// Fault-free run.
    pub baseline: ExperimentReport,
    /// Same seed under the churn mix.
    pub churned: ExperimentReport,
    /// 90% of the baseline's final mean accuracy.
    pub threshold_pct: f64,
}

impl ChaosBench {
    /// Asserts the chaos gates: the churn arm ran under a fault plan that
    /// injected at least one fault besides crashes (a fetch failure, chunk
    /// loss, missed seal or dropped transaction), and the fault-free arm
    /// reaches its own 90% bar.
    ///
    /// # Panics
    ///
    /// Panics on the first gate that does not hold.
    pub fn assert_gates(&self) {
        let c = &self.churned.chaos;
        assert!(c.enabled, "the churn arm must run under a fault plan");
        let faults = c.fetch_failures + c.chunk_losses + c.missed_seals + c.dropped_txs;
        assert!(faults > 0, "churn must inject a fault besides crashes");
        assert!(
            rounds_to_converge(&self.baseline, self.threshold_pct).is_some(),
            "the fault-free arm must reach its own {:.1}% bar",
            self.threshold_pct
        );
    }
}

/// Runs both arms of the benchmark (one scale: the federation is already
/// quick-sized).
///
/// # Panics
///
/// Panics if the configuration is invalid (cannot happen here).
pub fn run(seed: u64) -> ChaosBench {
    let baseline = run_experiment(&config(seed, None)).expect("baseline config is valid");
    let churned = run_experiment(&config(seed, Some(churn()))).expect("churn config is valid");
    let threshold_pct = 0.9 * baseline.mean_global_accuracy_pct(|_| true);
    ChaosBench {
        baseline,
        churned,
        threshold_pct,
    }
}

fn opt_u64(v: Option<u64>) -> String {
    v.map_or("null".to_owned(), |x| x.to_string())
}

/// Renders the machine-readable `BENCH_chaos.json` body.
pub fn render_json(bench: &ChaosBench, seed: u64) -> Json {
    let base_rtc = rounds_to_converge(&bench.baseline, bench.threshold_pct);
    let churn_rtc = rounds_to_converge(&bench.churned, bench.threshold_pct);
    let rtc = |r: Option<u64>| r.map_or(Json::Null, int);
    let final_acc = |r: &ExperimentReport| fixed(r.mean_global_accuracy_pct(|_| true), 3);
    let overhead = match (base_rtc, churn_rtc) {
        (Some(b), Some(c)) => Json::Num(c as f64 - b as f64),
        _ => Json::Null,
    };
    let c = &bench.churned.chaos;
    Json::obj([
        ("bench", Json::str("chaos")),
        ("seed", int(seed)),
        ("mode", Json::str(bench.baseline.mode.to_string())),
        ("rounds", int(ROUNDS)),
        ("threshold_acc_pct", fixed(bench.threshold_pct, 3)),
        (
            "baseline",
            Json::obj([
                ("rounds_to_converge", rtc(base_rtc)),
                ("final_acc_pct", final_acc(&bench.baseline)),
                ("wall_secs", fixed(bench.baseline.wall_secs, 3)),
            ]),
        ),
        (
            "churn",
            Json::obj([
                ("rounds_to_converge", rtc(churn_rtc)),
                ("final_acc_pct", final_acc(&bench.churned)),
                ("wall_secs", fixed(bench.churned.wall_secs, 3)),
                ("crashes", int(c.crashes_fired)),
                ("fetch_failures", int(c.fetch_failures)),
                ("chunk_losses", int(c.chunk_losses)),
                ("missed_seals", int(c.missed_seals)),
                ("dropped_txs", int(c.dropped_txs)),
            ]),
        ),
        ("overhead_rounds", overhead),
    ])
}

/// Renders the human-readable comparison.
pub fn render(bench: &ChaosBench) -> String {
    let mut out = String::new();
    out.push_str("Chaos bench: rounds-to-converge with and without churn\n\n");
    out.push_str(&render_run_table(&bench.baseline));
    out.push('\n');
    out.push_str(&render_run_table(&bench.churned));
    out.push('\n');
    out.push_str(&render_chaos_summary(&bench.churned));
    out.push_str(&format!(
        "\nthreshold {:.1}% | baseline converges in {} round(s) | churn in {} round(s)\n",
        bench.threshold_pct,
        opt_u64(rounds_to_converge(&bench.baseline, bench.threshold_pct)),
        opt_u64(rounds_to_converge(&bench.churned, bench.threshold_pct)),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seed-42 run both tests read.
    fn quick() -> &'static ChaosBench {
        static RUN: std::sync::OnceLock<ChaosBench> = std::sync::OnceLock::new();
        RUN.get_or_init(|| run(42))
    }

    #[test]
    fn bench_runs_and_counts_churn() {
        quick().assert_gates();
    }

    #[test]
    fn json_rendering_is_well_formed() {
        crate::assert_matches_baseline("chaos", &render_json(quick(), 42));
    }
}
