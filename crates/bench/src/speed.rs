//! The deterministic remains of the speed bench: the allocation probes
//! `tests/alloc_gates.rs` gates in tier-1, and the configuration the
//! fan-out's grain is sized against.
//!
//! Host time — run walls, speed-ups, kernel ratios, phase attribution —
//! is measured by `crates/benchmark` (`train_heavy`, `service_burst`, the
//! layer ladder and the step trace), and lane-count identity is proven by
//! `tests/engine_parallel.rs`. What is left here holds on every host:
//!
//! - [`measure_train_batch_allocs`] counts heap allocations across a
//!   window of warmed-up training batches under the counting allocator
//!   ([`crate::alloc`]), for the quickstart MLP and for the paper's CNN;
//!   both are gated at **zero**, proving the arena path (and the
//!   convolution's in-layer scratch) really removed per-batch allocation.
//! - [`measure_fit_alloc_bytes`] counts the heap bytes one warm fit
//!   requests on the path a run takes (`FlServer::run_round`), gated under
//!   [`FIT_ALLOC_BUDGET`] — the weights it returns and their aggregate —
//!   so a per-fit flat-view buffer, velocity or gradient scratch cannot
//!   come back unnoticed.
//! - [`measure_round_peak_bytes`] reads the peak live heap of a warm
//!   60-client and a warm 120-client round; their difference is gated to
//!   the fit results of the extra clients, so a resident model per client
//!   cannot come back unnoticed.
//! - [`measure_warm_get_alloc_bytes`] counts the heap bytes requested by
//!   a window of warm storage fetches of one release, gated under
//!   [`WARM_GET_ALLOC_BUDGET`] — less than one release — so a fetch path
//!   that copies resident content again cannot come back unnoticed.
//! - [`quickstart_config`] is the three-cluster Sync run whose rounds must
//!   fork per cluster and stay inline per client (asserted below): the
//!   shape a `Host`-over-`One` speed-up depends on.
//!
//! The probes read process-wide counters, so they mean something only in
//! a process that installed [`crate::alloc::CountingAllocator`] and runs
//! nothing else meanwhile — `tests/alloc_gates.rs`, a `harness = false`
//! target, is that process; anywhere else they answer `None`.

use unifyfl_core::cluster::ClusterConfig;
use unifyfl_core::experiment::{ExperimentBuilder, ExperimentConfig, Lanes, Mode};
use unifyfl_core::service::RunState;
use unifyfl_data::SyntheticConfig;
use unifyfl_fl::{FitConfig, FlClient, FlServer, InMemoryClient, StrategyKind};
use unifyfl_sim::DeviceProfile;
use unifyfl_storage::{IpfsNetwork, LinkProfile};
use unifyfl_tensor::optim::Sgd;
use unifyfl_tensor::zoo::{InputKind, ModelSpec};
use unifyfl_tensor::{weights_to_bytes, Tensor};

/// Counts heap allocations across a window of steady-state training
/// batches of `batch` samples on `spec`'s model: `train_batch` (forward,
/// loss, backward through the arena) and `Sgd::step_model` (the
/// parameters stepped where they live) — the two calls
/// `InMemoryClient::fit` makes per batch, not a copy of what they do.
/// Warm-up batches first fill the arena pool, optimizer state, and scratch
/// buffers; the counter delta is then taken over [`ALLOC_PROBE_BATCHES`]
/// further batches.
///
/// Returns `None` when [`crate::alloc::CountingAllocator`] is not the
/// process's global allocator, so the zero gate can never pass vacuously
/// against a dead counter.
pub fn measure_train_batch_allocs(spec: &ModelSpec, batch: usize) -> Option<u64> {
    const WARMUP_BATCHES: usize = 8;
    if !crate::alloc::is_counting() {
        return None;
    }
    let mut model = spec.build(7);
    let x = probe_input(spec.input(), batch);
    let labels: Vec<usize> = (0..batch).map(|i| i % spec.classes()).collect();
    let mut opt = Sgd::new(0.05, 0.0);
    let mut step = |model: &mut unifyfl_tensor::Sequential| {
        let _loss = model.train_batch(&x, &labels);
        opt.step_model(model);
    };
    for _ in 0..WARMUP_BATCHES {
        step(&mut model);
    }
    let before = crate::alloc::allocation_count();
    for _ in 0..ALLOC_PROBE_BATCHES {
        step(&mut model);
    }
    Some(crate::alloc::allocation_count() - before)
}

/// Heap bytes one warm fit of the paper's edge workload ([`edge_fit`]: 12
/// batches) requests on the path a run takes: a one-client
/// `FlServer::run_round`, its second, so the lane's training shell is
/// built and warm. What the round allocates is the weights the fit returns
/// and the weights the aggregation returns (≈ 250 KB each) plus two
/// shuffled index lists; the batches are gathered into the shell, the
/// velocity is the shell's, the mean accumulates a block at a time.
/// Anything parameter-sized beyond that — a flat-view buffer, a gradient
/// scratch, a model-sized accumulator — pushes it over
/// [`FIT_ALLOC_BUDGET`].
///
/// Returns `None` when the counting allocator is not installed, as
/// [`measure_train_batch_allocs`] does.
pub fn measure_fit_alloc_bytes() -> Option<u64> {
    if !crate::alloc::is_counting() {
        return None;
    }
    let (client, config, init) = edge_fit(7);
    let clients: Vec<Box<dyn FlClient>> = vec![Box::new(client)];
    let mut server = FlServer::new(StrategyKind::FedAvg.build(), clients, init);
    let mut round = || server.run_round(config.epochs, config.batch_size, config.learning_rate);
    // The first round builds the shell and warms its arena and scratch.
    round();
    let before = crate::alloc::bytes_requested();
    round();
    Some(crate::alloc::bytes_requested() - before)
}

/// Peak live heap bytes over one warm Sync round of 3 clusters ×
/// `clients_per_cluster` clients of the paper's CNN (the second round:
/// every shell is built, every arena warm), over a dataset whose size does
/// not depend on the client count. At `Lanes::One` every cluster and
/// every client fit computes on the stepping thread, one at a time, so the
/// live set is the same on every host: what a round holds is the lane's
/// shells, one cluster's fit results (a weight vector per client) and what
/// the stores keep — and nothing model-sized per client, which
/// [`ROUND_PEAK_SLACK`] holds it to.
///
/// Returns `None` when the counting allocator is not installed, as
/// [`measure_train_batch_allocs`] does.
pub fn measure_round_peak_bytes(clients_per_cluster: usize) -> Option<u64> {
    if !crate::alloc::is_counting() {
        return None;
    }
    let mut workload = unifyfl_data::WorkloadConfig::cifar10().scaled(10);
    workload.dataset.n_samples = 1_200;
    workload.rounds = 2;
    let clusters = (0..3)
        .map(|i| {
            let mut c = ClusterConfig::edge(format!("agg-{i}"), DeviceProfile::edge_cpu());
            c.n_clients = clients_per_cluster;
            c
        })
        .collect();
    let mut config = ExperimentBuilder::quickstart()
        .mode(Mode::Sync)
        .workload(workload)
        .clusters(clusters)
        .config()
        .clone();
    config.lanes = Lanes::One;
    let mut state = RunState::new(&config).expect("the footprint configuration is valid");
    let barrier = |state: &mut RunState| loop {
        let fired = state.step().expect("two rounds have two barriers");
        if fired.event.label() == "round_barrier" {
            break;
        }
    };
    barrier(&mut state);
    crate::alloc::reset_peak();
    barrier(&mut state);
    Some(crate::alloc::peak_bytes())
}

/// How far the peak of [`measure_round_peak_bytes`] may grow per extra
/// client beyond the weight vector its fit returns (≈ 250 KB for the
/// 62 K-parameter CNN): a sixteenth of that, for the client's bookkeeping.
/// A resident model per client adds ≥ 2 × 250 KB (weights and gradients)
/// and reads ≈ 3.6× the budget.
pub const ROUND_PEAK_SLACK: f64 = 1.0 / 16.0;

/// One client of the paper's edge workload (Table 4: the 62 K-parameter
/// CNN, batch 5, 2 local epochs, lr 0.01) over a 30-sample `cifar10_like`
/// shard — 12 batches a fit — with the instructions to fit it and initial
/// weights to start from. Shared by the allocation probe above and the
/// `fl/fit_cnn_30x5_2_epochs` micro-bench, so both measure the same fit.
pub fn edge_fit(seed: u64) -> (InMemoryClient, FitConfig, Vec<f32>) {
    let spec = ModelSpec::small_cnn(10);
    let shard = SyntheticConfig::cifar10_like(30).generate(seed);
    let init = spec.build(seed).flat_params();
    let config = FitConfig {
        epochs: 2,
        batch_size: 5,
        learning_rate: 0.01,
        round: 0,
    };
    (InMemoryClient::new(spec, shard, seed), config, init)
}

/// What one warm fit of [`measure_fit_alloc_bytes`] may request from the
/// heap: it requests 489 KB, and 738 KB with one more parameter-sized
/// buffer.
pub const FIT_ALLOC_BUDGET: u64 = 700 * 1024;

/// Steady-state batches the allocation probe measures over.
pub const ALLOC_PROBE_BATCHES: usize = 32;

/// Heap bytes requested by [`WARM_GETS`] fetches of a 150 KB release
/// (37,764 weights, `wan_transfer`'s model) that the fetching node already
/// holds: every one is a fetch-cache hit, which hands on the resident
/// buffer instead of copying it, so the whole window must stay far under
/// the size of *one* release. A fetch path that clones the content again
/// reads ≥ 15 MB here.
///
/// Returns `None` when the counting allocator is not installed, as
/// [`measure_train_batch_allocs`] does.
pub fn measure_warm_get_alloc_bytes() -> Option<u64> {
    if !crate::alloc::is_counting() {
        return None;
    }
    let net = IpfsNetwork::new();
    let (publisher, fetcher) = (
        net.add_node(LinkProfile::lan()),
        net.add_node(LinkProfile::lan()),
    );
    let release: Vec<f32> = (0..37_764).map(|i| ((i as f32) * 0.37).sin()).collect();
    let cid = publisher.add(&weights_to_bytes(&release)).cid;
    fetcher.get(cid).expect("published content is fetchable");
    let before = crate::alloc::bytes_requested();
    for _ in 0..WARM_GETS {
        let warm = fetcher.get(cid).expect("resident content is fetchable");
        assert!(warm.local_hit, "the probe must stay off the wire");
    }
    Some(crate::alloc::bytes_requested() - before)
}

/// Warm fetches the storage allocation probe measures over.
pub const WARM_GETS: usize = 100;

/// What [`WARM_GETS`] warm fetches may request from the heap in total:
/// under half of one 150 KB release.
pub const WARM_GET_ALLOC_BUDGET: u64 = 64 * 1024;

/// Deterministic `batch`-sample input of the given kind for the probes.
fn probe_input(kind: InputKind, batch: usize) -> Tensor {
    let shape = match kind {
        InputKind::Flat(d) => vec![batch, d],
        InputKind::Image { c, h, w } => vec![batch, c, h, w],
    };
    let data = (0..batch * kind.features())
        .map(|i| ((i as f32) * 0.37).sin())
        .collect();
    Tensor::from_vec(shape, data)
}

/// The 3-aggregator quickstart configuration, phase-locked (Sync) so the
/// per-round fan-out is exercised, with the sample and round counts scaled
/// up (same model, same 3-cluster shape) so per-round compute dominates
/// federation setup.
pub fn quickstart_config(seed: u64) -> ExperimentConfig {
    let mut config = unifyfl_core::experiment::ExperimentBuilder::quickstart()
        .seed(seed)
        .mode(Mode::Sync)
        .rounds(10)
        .label("quickstart-3agg-sync")
        .config()
        .clone();
    config.workload.dataset.n_samples *= 6;
    config
}

#[cfg(test)]
mod tests {
    use super::*;
    use unifyfl_core::experiment::run_experiment;

    #[test]
    fn quickstart_pair_reports_are_identical() {
        // On the one configuration where the lane settings provably take
        // different paths (below), they still agree byte for byte.
        let run = |lanes| {
            let mut config = quickstart_config(42);
            config.lanes = lanes;
            run_experiment(&config).expect("speed config is valid")
        };
        let (sequential, parallel) = (run(Lanes::One), run(Lanes::Host));
        assert_eq!(sequential.aggregators.len(), 3);
        assert_eq!(format!("{sequential:?}"), format!("{parallel:?}"));
    }

    #[test]
    fn alloc_probe_refuses_to_run_without_the_counting_allocator() {
        // Library test binaries use the system allocator, so the probes
        // must decline rather than report a vacuous zero.
        assert_eq!(
            measure_train_batch_allocs(&ModelSpec::small_cnn(10), 5),
            None
        );
        assert_eq!(measure_fit_alloc_bytes(), None);
        assert_eq!(measure_round_peak_bytes(2), None);
        assert_eq!(measure_warm_get_alloc_bytes(), None);
    }

    #[test]
    fn quickstart_pair_straddles_the_fan_out_grain() {
        // What a parallel-over-sequential speed-up on this run rests on:
        // one cluster's round fits inline under any lane setting, the
        // three-cluster phase forks. If a grain or sizing change moves
        // either side, a comparison of the lane settings would measure
        // Host ≡ One (or nested forks on both arms).
        use unifyfl_core::service::RunState;
        use unifyfl_core::step::train_work;
        use unifyfl_fl::fanout::forks;
        let config = quickstart_config(42);
        let mut state = RunState::new(&config).expect("speed config is valid");
        let fed = state.federation();
        let epochs = config.workload.local_epochs;
        for cluster in &fed.clusters {
            let clients = cluster.config().n_clients;
            assert!(!forks(clients, cluster.fit_flops(epochs)), "inline round");
        }
        let phase: f64 = fed
            .clusters
            .iter()
            .map(|c| train_work(c, &config.workload, &fed.global_test))
            .sum();
        assert!(forks(fed.clusters.len(), phase), "forking phase");
    }
}
