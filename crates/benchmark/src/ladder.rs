//! The layer ladder: each layer's public leaf functions timed in
//! isolation, on inputs sized from the workload being measured (its model,
//! batch size, clients per cluster, release-blob size, fleet size, events
//! and transactions per run). Runs only in the traced repetition.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use unifyfl_chain::orchestrator::{calls, OrchestrationMode, Score, UnifyFlContract};
use unifyfl_chain::types::{Address, Transaction};
use unifyfl_chain::{sha256, Blockchain, CliqueConfig};
use unifyfl_core::experiment::{ExperimentConfig, ExperimentReport};
use unifyfl_data::{Dataset, Partition};
use unifyfl_fl::{evaluate_weights, FitConfig, FlClient, FlServer, InMemoryClient, StrategyKind};
use unifyfl_sim::{EventQueue, SimTime};
use unifyfl_storage::chunker::chunk_default;
use unifyfl_storage::{Cid, GossipTopology, IpfsNetwork, IpfsNode, LinkProfile, NodeId};
use unifyfl_tensor::optim::Sgd;
use unifyfl_tensor::weights::quantize_release;
use unifyfl_tensor::zoo::{Architecture, ModelSpec};
use unifyfl_tensor::{
    delta_from_bytes, delta_to_bytes, weights_from_bytes, weights_to_bytes, Tensor,
};

use crate::stats;

/// Wall-clock budget of one timed leaf (calibration call excluded).
pub const LEAF_BUDGET_SECS: f64 = 0.04;
/// Batches the budget is split into; the median batch is reported.
const LEAF_BATCHES: usize = 5;
/// Distinct blobs per storage leaf, so every timed fetch is a first fetch.
const BLOB_VARIANTS: usize = 32;

/// Median seconds per call of `f`, over [`LEAF_BATCHES`] batches sized to
/// share `budget_secs`. A call longer than a batch's share is timed once
/// more and that single sample is returned.
pub(crate) fn secs_per_call(budget_secs: f64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    let once = start.elapsed().as_secs_f64().max(1e-9);
    let per_batch = (budget_secs / LEAF_BATCHES as f64 / once).floor() as usize;
    if per_batch == 0 {
        let start = Instant::now();
        f();
        return start.elapsed().as_secs_f64();
    }
    let samples: Vec<f64> = (0..LEAF_BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            start.elapsed().as_secs_f64() / per_batch as f64
        })
        .collect();
    stats::median(&samples)
}

/// Mean seconds of `f(i)` over `0..n`, each call timed on its own (for
/// leaves that consume their input: a first fetch, a block to seal).
fn mean_secs_over(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|i| {
            let start = Instant::now();
            f(i);
            start.elapsed().as_secs_f64()
        })
        .collect();
    stats::mean(&samples)
}

fn mb_per_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs
}

/// `(inputs, outputs)` of the Dense layer with the most weights.
fn widest_dense(spec: &ModelSpec) -> (usize, usize) {
    let mut dims: Vec<(usize, usize)> = Vec::new();
    match &spec.arch {
        Architecture::Mlp {
            input_dim,
            hidden,
            classes,
        } => {
            let mut prev = *input_dim;
            for &h in hidden.iter().chain(std::iter::once(classes)) {
                dims.push((prev, h));
                prev = h;
            }
        }
        Architecture::SmallCnn {
            h,
            w,
            conv_channels,
            hidden,
            classes,
            ..
        } => {
            dims.push((conv_channels * h * w, *hidden));
            dims.push((*hidden, *classes));
        }
        // A later architecture still has an input and an output width.
        #[allow(unreachable_patterns)]
        _ => dims.push((spec.input().features(), spec.classes())),
    }
    dims.into_iter()
        .max_by_key(|(i, o)| i * o)
        .expect("a model has at least one dense layer")
}

fn filled(rows: usize, cols: usize, salt: u64) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(salt);
            ((h >> 40) % 2001) as f32 / 1000.0 - 1.0
        })
        .collect();
    Tensor::from_vec(vec![rows, cols], data)
}

/// Sizes and data the leaves are run at, all taken from one workload.
pub struct LadderInputs<'a> {
    /// The workload's (first) experiment config.
    pub config: &'a ExperimentConfig,
    /// That experiment's report (for per-run counts).
    pub report: &'a ExperimentReport,
    /// Events one run of it fires.
    pub events: usize,
    /// Wall-clock budget per timed leaf ([`LEAF_BUDGET_SECS`] outside the
    /// smoke test).
    pub budget_secs: f64,
}

/// The data pipeline of `Federation::new`, replayed with the same seeds so
/// the ladder trains on a client shard the real run also trains on.
struct Shards {
    global_test: Dataset,
    clients: Vec<Dataset>,
    generate_secs: f64,
    partition_secs: f64,
}

fn shards(config: &ExperimentConfig) -> Shards {
    let workload = &config.workload;
    let start = Instant::now();
    let full = workload.dataset.generate(config.seed);
    let generate_secs = start.elapsed().as_secs_f64();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xFEDE);
    let (pool, global_test) = full.split(0.15, &mut rng);
    let start = Instant::now();
    let parts = config
        .partition
        .split(&pool, config.clusters.len(), &mut rng);
    let partition_secs = start.elapsed().as_secs_f64();
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(1000));
    let (train, _local_test) = parts[0].split(0.15, &mut rng);
    let clients = Partition::Iid.split(&train, config.clusters[0].n_clients, &mut rng);
    Shards {
        global_test,
        clients,
        generate_secs,
        partition_secs,
    }
}

/// Runs every leaf and returns `(metric name, value)` pairs.
pub fn run(inputs: &LadderInputs<'_>) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let config = inputs.config;
    let workload = &config.workload;
    let spec = &workload.model;
    let seed = config.seed;
    let budget = inputs.budget_secs;

    // ---- data ----------------------------------------------------------
    let shards = shards(config);
    out.push(("data.generate_ms", shards.generate_secs * 1e3));
    out.push(("data.partition_ms", shards.partition_secs * 1e3));

    // ---- tensor: kernels, one batch, the flat view ----------------------
    let batch = workload.batch_size;
    let (din, dout) = widest_dense(spec);
    let (x, w, g) = (
        filled(batch, din, 1),
        filled(din, dout, 2),
        filled(batch, dout, 3),
    );
    let mut fwd = Tensor::zeros(vec![batch, dout]);
    let mut grad_w = Tensor::zeros(vec![din, dout]);
    let mut grad_in = Tensor::zeros(vec![batch, din]);
    let secs = secs_per_call(budget, || {
        x.matmul_into(black_box(&w), &mut fwd);
        x.matmul_tn_into(black_box(&g), &mut grad_w);
        g.matmul_nt_into(black_box(&w), &mut grad_in);
    });
    black_box((&fwd, &grad_w, &grad_in));
    out.push((
        "tensor.matmul_gflops",
        (3 * 2 * batch * din * dout) as f64 / secs / 1e9,
    ));

    let mut rng = StdRng::seed_from_u64(seed);
    let (bx, labels) = shards.clients[0]
        .batches(batch, &mut rng)
        .into_iter()
        .next()
        .expect("a client shard has a batch");
    let mut model = spec.build(seed);
    let mut opt = Sgd::new(workload.learning_rate, 0.0);
    let (mut params, mut grads) = (Vec::new(), Vec::new());
    // The per-batch loop of `InMemoryClient::fit`.
    let secs = secs_per_call(budget, || {
        black_box(model.train_batch(&bx, &labels));
        model.flat_grads_into(&mut grads);
        model.flat_params_into(&mut params);
        opt.step(&mut params, &grads);
        model.set_flat_params(&params);
    });
    out.push(("tensor.train_batch_us", secs * 1e6));
    let secs = secs_per_call(budget, || {
        black_box(model.evaluate_batch(&bx, &labels));
    });
    out.push(("tensor.eval_batch_us", secs * 1e6));
    let secs = secs_per_call(budget, || {
        model.flat_params_into(&mut params);
        model.set_flat_params(black_box(&params));
    });
    out.push(("tensor.flat_roundtrip_us", secs * 1e6));

    // ---- fl: one client, one cluster round, aggregation, evaluation -----
    let init = spec.build(seed).flat_params();
    let fit = FitConfig {
        epochs: workload.local_epochs,
        batch_size: batch,
        learning_rate: workload.learning_rate,
        round: 1,
    };
    let mut client = InMemoryClient::new(spec.clone(), shards.clients[0].clone(), seed);
    let mut fitted = None;
    let secs = secs_per_call(budget, || fitted = Some(client.fit(&init, &fit)));
    let fitted = fitted.expect("fit ran");
    out.push((
        "fl.fit_samples_per_s",
        (fitted.num_examples * workload.local_epochs) as f64 / secs,
    ));

    let clients: Vec<Box<dyn FlClient>> = shards
        .clients
        .iter()
        .enumerate()
        .map(|(i, shard)| {
            Box::new(InMemoryClient::new(
                spec.clone(),
                shard.clone(),
                seed.wrapping_add(i as u64 + 1),
            )) as Box<dyn FlClient>
        })
        .collect();
    let mut server = FlServer::new(StrategyKind::FedAvg.build(), clients, init.clone());
    let secs = secs_per_call(budget, || {
        black_box(server.run_round(workload.local_epochs, batch, workload.learning_rate));
    });
    out.push(("fl.server_round_ms", secs * 1e3));

    let updates: Vec<(Vec<f32>, usize)> = shards
        .clients
        .iter()
        .map(|shard| (fitted.weights.clone(), shard.len()))
        .collect();
    let mut strategy = config.clusters[0].strategy.build();
    let secs = secs_per_call(budget, || {
        black_box(strategy.aggregate(&init, &updates));
    });
    out.push(("fl.aggregate_us", secs * 1e6));
    let secs = secs_per_call(budget, || {
        black_box(evaluate_weights(spec, &fitted.weights, &shards.global_test));
    });
    out.push(("fl.evaluate_ms", secs * 1e3));

    // ---- tensor: the release path (quantize, codec, delta) ---------------
    let bits = config.clusters[0].release_mantissa_bits;
    let secs = secs_per_call(budget, || {
        black_box(quantize_release(&fitted.weights, bits));
    });
    let full_len = fitted.weights.len() * 4;
    out.push(("tensor.quantize_mb_s", mb_per_s(full_len, secs)));
    let base = quantize_release(&init, bits);
    let release = quantize_release(&fitted.weights, bits);
    let blob = weights_to_bytes(&release);
    let secs = secs_per_call(budget, || {
        let bytes = weights_to_bytes(black_box(&release));
        black_box(weights_from_bytes(&bytes).expect("codec round-trips"));
    });
    out.push(("tensor.weights_codec_mb_s", mb_per_s(blob.len(), secs)));
    let secs = secs_per_call(budget, || {
        black_box(delta_to_bytes(&base, &release));
    });
    out.push(("tensor.delta_encode_mb_s", mb_per_s(blob.len(), secs)));
    let delta = delta_to_bytes(&base, &release);
    let secs = secs_per_call(budget, || {
        black_box(delta_from_bytes(&base, &delta).expect("delta applies"));
    });
    out.push(("tensor.delta_decode_mb_s", mb_per_s(blob.len(), secs)));
    out.push(("tensor.delta_ratio", delta.len() as f64 / blob.len() as f64));

    storage(&mut out, inputs, &base, &release);
    chain(&mut out, inputs, &blob);

    // ---- sim: the event queue at this run's event count -----------------
    let n = inputs.events.max(1);
    let secs = secs_per_call(budget, || {
        let mut queue = EventQueue::new();
        for i in 0..n as u64 {
            let at = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44;
            queue.schedule_keyed(SimTime::from_millis(at), i % 7, i);
        }
        while let Some(event) = queue.pop() {
            black_box(event);
        }
    });
    out.push(("sim.queue_events_per_s", n as f64 / secs));
    out
}

/// A release blob per variant, each differing from `release` in a few
/// weights so every variant (and every chunk of it) has its own CID.
fn release_variants(release: &[f32]) -> Vec<Vec<f32>> {
    (0..BLOB_VARIANTS)
        .map(|k| {
            let mut w = release.to_vec();
            // One touched weight per KiB keeps every chunk distinct.
            for j in (k % 256..w.len()).step_by(256) {
                w[j] += (k + 1) as f32;
            }
            w
        })
        .collect()
}

fn reconstruct(base_blob: &[u8], delta_blob: &[u8]) -> Option<Vec<u8>> {
    let base = weights_from_bytes(base_blob).ok()?;
    Some(weights_to_bytes(&delta_from_bytes(&base, delta_blob).ok()?))
}

fn storage(
    out: &mut Vec<(&'static str, f64)>,
    inputs: &LadderInputs<'_>,
    base: &[f32],
    release: &[f32],
) {
    let (config, budget) = (inputs.config, inputs.budget_secs);
    let variants = release_variants(release);
    let blobs: Vec<Vec<u8>> = variants.iter().map(|w| weights_to_bytes(w)).collect();
    let blob_len = blobs[0].len();
    let secs = secs_per_call(budget, || {
        black_box(chunk_default(black_box(&blobs[0])));
    });
    out.push(("storage.chunk_cid_mb_s", mb_per_s(blob_len, secs)));

    let link = config.clusters[0].link.unwrap_or(LinkProfile::lan());
    let net = IpfsNetwork::new();
    net.configure_transfer(config.transfer, config.seed);
    let publisher = net.add_node(link);
    let fetcher = net.add_node(link);
    let mut cids: Vec<Cid> = Vec::with_capacity(blobs.len());
    let secs = mean_secs_over(blobs.len(), |k| cids.push(publisher.add(&blobs[k]).cid));
    out.push(("storage.add_us", secs * 1e6));
    let get = |node: &IpfsNode, cid: Cid| {
        black_box(node.get(cid).expect("published content is fetchable"));
    };
    let secs = mean_secs_over(cids.len(), |k| get(&fetcher, cids[k]));
    out.push(("storage.get_cold_us", secs * 1e6));
    let secs = mean_secs_over(cids.len(), |k| get(&fetcher, cids[k]));
    out.push(("storage.get_warm_us", secs * 1e6));

    // Delta fetches: the fetcher holds the base, the publisher offers each
    // variant both whole and as a delta against that base.
    let delta_fetcher = net.add_node(link);
    let base_cid = publisher.add(&weights_to_bytes(base)).cid;
    get(&delta_fetcher, base_cid);
    let delta_cids: Vec<Cid> = variants
        .iter()
        .map(|w| publisher.add(&delta_to_bytes(base, w)).cid)
        .collect();
    let secs = mean_secs_over(cids.len(), |k| {
        black_box(
            delta_fetcher
                .get_with_delta(cids[k], base_cid, delta_cids[k], reconstruct)
                .expect("delta fetch falls back at worst"),
        );
    });
    out.push(("storage.get_delta_us", secs * 1e6));

    // Routed fetches: the same blobs over a gossip overlay as wide as the
    // workload's fleet, pulled by the node farthest from the publisher.
    let n = config.clusters.len();
    let gossip = config.gossip.unwrap_or_default();
    let shards = config.sharding.as_ref().map_or(1, |s| s.shards);
    let neighborhoods: Vec<usize> = (0..n).map(|i| i % shards).collect();
    let topology = GossipTopology::derive(&gossip, config.seed, &neighborhoods);
    let far = topology
        .distances_from(NodeId(0))
        .iter()
        .enumerate()
        .max_by_key(|(_, d)| **d)
        .map_or(n - 1, |(i, _)| i);
    let overlay = IpfsNetwork::new();
    overlay.configure_transfer(config.transfer, config.seed);
    let nodes: Vec<IpfsNode> = (0..n).map(|_| overlay.add_node(link)).collect();
    overlay.install_topology(gossip, topology);
    let routed: Vec<Cid> = blobs.iter().map(|b| nodes[0].add(b).cid).collect();
    let secs = mean_secs_over(routed.len(), |k| get(&nodes[far], routed[k]));
    out.push(("storage.get_routed_us", secs * 1e6));
}

/// A private chain with the orchestrator deployed in Async mode (scorers
/// are assigned at submission, so one driver serves every workload), fed
/// the workload's transactions per run at its transactions per block.
fn chain(out: &mut Vec<(&'static str, f64)>, inputs: &LadderInputs<'_>, blob: &[u8]) {
    let budget = inputs.budget_secs;
    let secs = secs_per_call(budget, || {
        black_box(sha256(black_box(blob)));
    });
    out.push(("chain.sha256_mb_s", mb_per_s(blob.len(), secs)));

    let stats = inputs.report.chain;
    let blocks = stats.blocks.max(1) as usize;
    let per_block = (stats.txs as usize).div_ceil(blocks).max(1);
    let members: Vec<Address> = inputs
        .config
        .clusters
        .iter()
        .map(|c| Address::from_label(&c.name))
        .collect();
    let orch = Address::from_label("unifyfl-orchestrator");
    let mut chain = Blockchain::new(CliqueConfig::default(), members.clone());
    chain.deploy(
        orch,
        Box::new(UnifyFlContract::new(orch, OrchestrationMode::Async)),
    );
    let mut nonces = vec![0u64; members.len()];
    let mut call = |from: usize, input: Vec<u8>| {
        let tx = Transaction::call(members[from], orch, nonces[from], input);
        nonces[from] += 1;
        tx
    };
    for i in 0..members.len() {
        chain.submit(call(i, calls::register()));
    }
    let at = chain.next_seal_time();
    chain.seal_next(at).expect("registration block seals");

    // Releases are submitted round-robin; each sealed release's assigned
    // scorers then queue their scores, as the engines do.
    let mut pending: std::collections::VecDeque<Transaction> = Default::default();
    let (mut submit_secs, mut seal_secs) = (Vec::new(), Vec::new());
    let mut released = 0usize;
    for _ in 0..blocks.saturating_sub(1).max(1) {
        let mut new_cids = Vec::new();
        for _ in 0..per_block {
            let tx = pending.pop_front().unwrap_or_else(|| {
                let cid = Cid::for_data(&released.to_le_bytes()).to_string();
                let tx = call(released % members.len(), calls::submit_model(&cid));
                released += 1;
                new_cids.push(cid);
                tx
            });
            let start = Instant::now();
            chain.submit(tx);
            submit_secs.push(start.elapsed().as_secs_f64());
        }
        let at = chain.next_seal_time();
        let start = Instant::now();
        chain.seal_next(at).expect("ladder block seals");
        seal_secs.push(start.elapsed().as_secs_f64());
        let contract: &UnifyFlContract = chain.view(orch).expect("orchestrator deployed");
        let scores: Vec<(usize, String)> = new_cids
            .iter()
            .filter_map(|cid| contract.entry(cid))
            .flat_map(|entry| {
                entry.scorers.iter().map(|scorer| {
                    let who = members
                        .iter()
                        .position(|m| m == scorer)
                        .expect("scorers are members");
                    (who, entry.cid.clone())
                })
            })
            .collect();
        for (who, cid) in scores {
            pending.push_back(call(who, calls::submit_score(&cid, Score::from_f64(0.5))));
        }
    }
    out.push(("chain.submit_tx_us", stats::mean(&submit_secs) * 1e6));
    out.push(("chain.seal_us", stats::mean(&seal_secs) * 1e6));
    let contract: &UnifyFlContract = chain.view(orch).expect("orchestrator deployed");
    let secs = secs_per_call(budget, || {
        black_box(contract.latest_models_with_scores(Some(members[0])));
    });
    out.push(("chain.query_us", secs * 1e6));
    let secs = secs_per_call(budget, || {
        chain.verify().expect("ladder chain verifies");
    });
    out.push(("chain.verify_ms", secs * 1e3));
}
