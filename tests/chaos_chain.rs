//! Chaos tier — scenario family 4: consensus/gossip faults. Missed seal
//! slots (the due signer fails to produce; block production shifts one
//! period) and dropped transactions (lost in gossip; the sender
//! retransmits). The orchestration must absorb both: phases start late,
//! submissions land a block later, and the chain stays verifiable.

use unifyfl::core::cluster::ClusterConfig;
use unifyfl::core::experiment::{ExperimentBuilder, ExperimentReport, Mode};
use unifyfl::core::{ChaosConfig, ChaosReport, RunState};
use unifyfl::data::{SyntheticConfig, WorkloadConfig};
use unifyfl::sim::DeviceProfile;
use unifyfl::tensor::zoo::InputKind;
use unifyfl::tensor::ModelSpec;

fn lossy_chain() -> ChaosConfig {
    ChaosConfig {
        missed_seal_prob: 0.2,
        dropped_tx_prob: 0.3,
        ..ChaosConfig::default()
    }
}

fn run(mode: Mode, chaos: Option<ChaosConfig>) -> ExperimentReport {
    let mut b = ExperimentBuilder::quickstart()
        .seed(5)
        .rounds(4)
        .mode(mode)
        .label("chaos-chain");
    if let Some(c) = chaos {
        b = b.chaos(c);
    }
    b.run().expect("chaos config is valid")
}

fn assert_chain_faults_fired(chaos: &ChaosReport) {
    assert!(chaos.enabled);
    assert!(chaos.missed_seals > 0, "seal slots must have been missed");
    assert!(chaos.dropped_txs > 0, "gossip drops must have fired");
    assert_eq!(
        chaos.retried_txs, chaos.dropped_txs,
        "every dropped transaction is eventually retransmitted"
    );
}

#[test]
fn sync_run_absorbs_missed_seals_and_dropped_txs() {
    let baseline = run(Mode::Sync, None);
    let report = run(Mode::Sync, Some(lossy_chain()));
    assert_chain_faults_fired(&report.chaos);

    // Missed slots delay phase openings, so the lossy run takes at least
    // as long as the fault-free one — and the protocol still completes.
    assert!(report.wall_secs >= baseline.wall_secs);
    for agg in &report.aggregators {
        assert_eq!(agg.rounds, 4, "{} completes every round", agg.name);
        let first = agg.curve.first().unwrap();
        assert!(
            agg.global_accuracy_pct > first.global_accuracy_pct,
            "{} must still learn",
            agg.name
        );
    }
}

#[test]
fn async_run_absorbs_missed_seals_and_dropped_txs() {
    let report = run(Mode::Async, Some(lossy_chain()));
    assert_chain_faults_fired(&report.chaos);
    for agg in &report.aggregators {
        assert_eq!(agg.rounds, 4);
    }
    assert!(report.chain.txs > 0);
}

#[test]
fn chain_stays_verifiable_under_injected_faults() {
    // Keep the federation the run hands back so the chain object itself
    // can be audited afterwards.
    let mut dataset = SyntheticConfig::cifar10_like(360);
    dataset.input = InputKind::Flat(16);
    dataset.n_classes = 4;
    dataset.noise_scale = 0.5;
    dataset.label_noise = 0.0;
    let workload = WorkloadConfig {
        name: "chaos-chain-verify".into(),
        model: ModelSpec::mlp(16, vec![16], 4),
        dataset,
        rounds: 3,
        local_epochs: 1,
        batch_size: 16,
        learning_rate: 0.05,
    };
    let clusters: Vec<ClusterConfig> = (0..3)
        .map(|i| ClusterConfig::edge(format!("agg-{i}"), DeviceProfile::edge_cpu()))
        .collect();
    let config = ExperimentBuilder::quickstart()
        .seed(7)
        .workload(workload)
        .mode(Mode::Sync)
        .clusters(clusters)
        .chaos(lossy_chain())
        .config()
        .clone();
    let (_, fed) = RunState::new(&config).expect("valid config").finish();

    // The ledger produced under fault injection still verifies end to end:
    // linkage, seals (with period gaps from missed slots), and tx roots.
    fed.chain.verify().expect("chain verifies under chaos");
    let stats = fed.chain.fault_stats().expect("injector installed");
    assert!(stats.missed_seals > 0 || stats.dropped_txs > 0);
}

#[test]
fn chain_fault_accounting_is_seed_deterministic() {
    let a = run(Mode::Sync, Some(lossy_chain()));
    let b = run(Mode::Sync, Some(lossy_chain()));
    assert_eq!(a.chaos, b.chaos);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}
