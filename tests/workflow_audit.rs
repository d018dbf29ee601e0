//! Auditability integration tests: after a full UnifyFL run, the chain's
//! event log and block structure must let a third party replay and verify
//! every orchestration step (the transparency claim of §1.1.5).

use unifyfl::chain::merkle::{merkle_proof, merkle_root, verify_proof};
use unifyfl::chain::orchestrator::events;
use unifyfl::core::cluster::ClusterConfig;
use unifyfl::core::experiment::{ExperimentBuilder, Mode};
use unifyfl::core::federation::Federation;
use unifyfl::core::policy::AggregationPolicy;
use unifyfl::core::RunState;
use unifyfl::data::{SyntheticConfig, WorkloadConfig};
use unifyfl::sim::DeviceProfile;
use unifyfl::tensor::ModelSpec;

const ROUNDS: usize = 3;
const CLUSTERS: usize = 3;

fn run_federation() -> Federation {
    let mut dataset = SyntheticConfig::cifar10_like(360);
    dataset.input = unifyfl::tensor::zoo::InputKind::Flat(16);
    dataset.n_classes = 4;
    let workload = WorkloadConfig {
        name: "audit".into(),
        model: ModelSpec::mlp(16, vec![16], 4),
        dataset,
        rounds: ROUNDS,
        local_epochs: 1,
        batch_size: 16,
        learning_rate: 0.05,
    };
    let clusters = (0..CLUSTERS)
        .map(|i| {
            ClusterConfig::edge(format!("org-{i}"), DeviceProfile::edge_cpu())
                .with_policy(AggregationPolicy::All)
        })
        .collect();
    let config = ExperimentBuilder::quickstart()
        .seed(11)
        .workload(workload)
        .mode(Mode::Sync)
        .clusters(clusters)
        .config()
        .clone();
    RunState::new(&config).expect("valid config").finish().1
}

#[test]
fn event_trail_is_complete_and_consistent() {
    let fed = run_federation();
    let count = |name| fed.chain.logs_since(0, Some(name)).len();

    assert_eq!(count(events::AGGREGATOR_REGISTERED), CLUSTERS);
    assert_eq!(count(events::START_TRAINING), ROUNDS);
    assert_eq!(count(events::START_SCORING), ROUNDS);
    assert_eq!(count(events::SCORING_CLOSED), ROUNDS);
    assert_eq!(count(events::MODEL_SUBMITTED), ROUNDS * CLUSTERS);
    // One assignment event per submitted model.
    assert_eq!(count(events::SCORERS_ASSIGNED), ROUNDS * CLUSTERS);
    // Majority of 3 = 2 scorers per model, all of whom reported in time.
    assert_eq!(count(events::SCORE_SUBMITTED), ROUNDS * CLUSTERS * 2);
}

#[test]
fn chain_replays_and_verifies() {
    let fed = run_federation();
    fed.chain.verify().expect("chain verifies end to end");
    // Every block's tx root is independently recomputable.
    for n in 0..=fed.chain.height() {
        let block = fed.chain.block(n).unwrap();
        let encoded: Vec<Vec<u8>> = block.transactions.iter().map(|t| t.encode()).collect();
        assert_eq!(
            merkle_root(encoded.iter().map(Vec::as_slice)),
            block.header.tx_root,
            "block {n}"
        );
        // And inclusion proofs work for each transaction.
        for (i, enc) in encoded.iter().enumerate() {
            let proof = merkle_proof(encoded.iter().map(Vec::as_slice), i).unwrap();
            assert!(verify_proof(block.header.tx_root, enc, &proof));
        }
    }
}

#[test]
fn every_registered_model_is_fetchable_and_scored() {
    let fed = run_federation();
    let contract = fed.contract();
    assert_eq!(contract.entries().len(), ROUNDS * CLUSTERS);
    for entry in contract.entries() {
        // The CID on-chain resolves to real, verifiable weight bytes.
        let cid: unifyfl::storage::Cid = entry.cid.parse().expect("valid CID");
        let weights = fed.fetch_peers(0, [cid]).peers.pop();
        let weights = weights.expect("fetchable, decodable and of the model's length");
        assert_eq!(weights.len(), fed.spec.actual_params());
        // Scorers were assigned (majority of 3 = 2), never the submitter.
        assert_eq!(entry.scorers.len(), 2);
        assert!(!entry.scorers.contains(&entry.submitter));
        // All assigned scorers reported, scores are plausible accuracies.
        assert!(entry.fully_scored());
        for s in entry.score_values() {
            assert!((0.0..=1.0).contains(&s), "score {s}");
        }
        assert!(entry.scoring_closed);
    }
}

#[test]
fn gas_accounting_is_conserved() {
    let fed = run_federation();
    for n in 0..=fed.chain.height() {
        let block = fed.chain.block(n).unwrap();
        let receipts = fed.chain.receipts(n).unwrap();
        let total: u64 = receipts.iter().map(|r| r.gas_used).sum();
        assert_eq!(block.header.gas_used, total, "block {n} gas mismatch");
        for r in receipts {
            assert!(r.gas_used >= 21_000 || block.transactions.is_empty());
        }
    }
}
