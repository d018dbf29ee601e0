//! §5 Q3 extension: differentially-private weight release. The paper lists
//! DP as the first privacy upgrade UnifyFL should gain; these tests pin the
//! semantics of the implemented Gaussian-mechanism release hook.

use unifyfl::core::byzantine::DpConfig;
use unifyfl::core::cluster::ClusterConfig;
use unifyfl::core::experiment::{run_experiment, ExperimentBuilder, ExperimentConfig, Mode};
use unifyfl::core::policy::AggregationPolicy;
use unifyfl::core::scoring::ScorerKind;
use unifyfl::core::RunState;
use unifyfl::data::{Partition, SyntheticConfig, WorkloadConfig};
use unifyfl::sim::DeviceProfile;
use unifyfl::tensor::ModelSpec;

fn workload() -> WorkloadConfig {
    let mut dataset = SyntheticConfig::cifar10_like(450);
    dataset.input = unifyfl::tensor::zoo::InputKind::Flat(16);
    dataset.n_classes = 4;
    dataset.noise_scale = 0.8;
    WorkloadConfig {
        name: "dp-extension".into(),
        model: ModelSpec::mlp(16, vec![16], 4),
        dataset,
        rounds: 5,
        local_epochs: 1,
        batch_size: 16,
        learning_rate: 0.05,
    }
}

fn config(dp: Option<DpConfig>) -> ExperimentConfig {
    let clusters = (0..3)
        .map(|i| {
            let mut c = ClusterConfig::edge(format!("org-{i}"), DeviceProfile::edge_cpu())
                .with_policy(AggregationPolicy::All);
            c.dp = dp;
            c
        })
        .collect();
    ExperimentBuilder::quickstart()
        .seed(42)
        .label("dp")
        .workload(workload())
        .partition(Partition::Iid)
        .mode(Mode::Sync)
        .scorer(ScorerKind::Accuracy)
        .clusters(clusters)
        .config()
        .clone()
}

fn mean_global(r: &unifyfl::core::ExperimentReport) -> f64 {
    r.mean_global_accuracy_pct(|_| true)
}

#[test]
fn moderate_dp_noise_costs_little_accuracy() {
    let clear = run_experiment(&config(None)).unwrap();
    let dp = run_experiment(&config(Some(DpConfig::new(50.0, 0.05)))).unwrap();
    let (a, b) = (mean_global(&clear), mean_global(&dp));
    assert!(
        b > a - 15.0,
        "moderate DP ({b:.1}%) should stay near the clear run ({a:.1}%)"
    );
}

#[test]
fn heavy_dp_noise_degrades_more_than_light_noise() {
    let light = run_experiment(&config(Some(DpConfig::new(50.0, 0.02)))).unwrap();
    let heavy = run_experiment(&config(Some(DpConfig::new(50.0, 2.0)))).unwrap();
    assert!(
        mean_global(&light) > mean_global(&heavy),
        "privacy/utility trade-off: light {:.1}% vs heavy {:.1}%",
        mean_global(&light),
        mean_global(&heavy)
    );
}

#[test]
fn peers_never_see_exact_weights_under_dp() {
    let cfg = config(Some(DpConfig::new(50.0, 0.1)));
    let (_, fed) = RunState::new(&cfg).unwrap().finish();

    // Every on-chain model must differ from the submitter's true weights.
    let entries: Vec<(String, unifyfl::chain::types::Address)> = fed
        .contract()
        .entries()
        .iter()
        .map(|e| (e.cid.clone(), e.submitter))
        .collect();
    assert!(!entries.is_empty());
    for (cid_str, submitter) in entries {
        let cid: unifyfl::storage::Cid = cid_str.parse().unwrap();
        let released = fed.fetch_peers(0, [cid]).peers.pop().expect("fetchable");
        let owner = fed
            .clusters
            .iter()
            .find(|c| c.address() == submitter)
            .unwrap();
        // The release is close (same model) but never bit-identical.
        assert_ne!(released, owner.weights().to_vec());
    }
}
