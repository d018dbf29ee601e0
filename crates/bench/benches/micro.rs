//! Criterion micro-benchmarks of the substrates.
//!
//! These quantify the building blocks the system-level harness composes:
//! SHA-256 hashing (block sizes, one 150 KB release, and each compression
//! path by name at four message sizes), Merkle roots,
//! base58/CID handling, chunking, block sealing (bare, and under a
//! 480-entry orchestrator log), the storage fetch kernels the coordination
//! workloads live in (a routed one-leaf delta fetch, a local read, a warm
//! and a three-leaf cold fetch of a release), the weight codec and the
//! delta codec (both tagged modes) on a release, tensor matmul, the paper
//! CNN's convolution (vectorised vs the scalar reference loops), a full
//! training step of each model class, a ReLU and a whole client fit on
//! input that changes
//! every iteration, one FL server round at the three benchmark shapes
//! that straddle the fan-out's work grain, the cost model's parameter
//! count, MultiKRUM scoring and policy selection.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

use unifyfl_chain::chain::Blockchain;
use unifyfl_chain::clique::CliqueConfig;
use unifyfl_chain::hash::{compress_path, sha256, sha256_scalar};
use unifyfl_chain::merkle::merkle_root;
use unifyfl_chain::orchestrator::{calls, OrchestrationMode, UnifyFlContract};
use unifyfl_chain::types::{Address, Transaction};
use unifyfl_core::policy::{AggregationPolicy, ScoredCandidate};
use unifyfl_core::scoring::multikrum_scores;
use unifyfl_data::{Partition, SyntheticConfig};
use unifyfl_fl::{FedAvg, FlClient, FlServer, InMemoryClient};
use unifyfl_sim::SimTime;
use unifyfl_storage::chunker::chunk;
use unifyfl_storage::cid::{base58_encode, Cid};
use unifyfl_storage::{
    GossipConfig, GossipTopology, IpfsNetwork, IpfsNode, LinkProfile, TransferConfig,
};
use unifyfl_tensor::arena::Arena;
use unifyfl_tensor::layers::{Conv2d, Layer};
use unifyfl_tensor::weights::quantize_release;
use unifyfl_tensor::zoo::{InputKind, ModelSpec};
use unifyfl_tensor::{
    delta_from_bytes, delta_to_bytes, weights_from_bytes, weights_to_bytes, Tensor,
};

fn bench_hashing(c: &mut Criterion) {
    // One `wan_transfer` release: what every wire receipt hashes.
    let release = weights_to_bytes(&release_weights(0));
    let mut g = c.benchmark_group("sha256");
    for size in [64usize, 4096, 262_144] {
        let data = vec![0xabu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("{size}B"), |b| b.iter(|| sha256(black_box(&data))));
    }
    // The same digest by compression path, at the message sizes the
    // coordination workloads hash: one block, a `sharded_fleet` release,
    // that workload's contract-state encoding, a `wan_transfer` release.
    // `sha256` runs the path this CPU selects; the scalar path is timed
    // beside it when that is another one, so the per-call cost of
    // detection and of packing the state for the hardware rounds shows at
    // 64 B and the bulk rate at 150 KB.
    for (label, size) in [
        ("64B", 64),
        ("1.4KB", 1_400),
        ("83KB", 83_000),
        ("150KB", release.len()),
    ] {
        let data = &release[..size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("{}/{label}", compress_path()), |b| {
            b.iter(|| sha256(black_box(data)))
        });
        if compress_path() != "scalar" {
            g.bench_function(format!("scalar/{label}"), |b| {
                b.iter(|| sha256_scalar(black_box(data)))
            });
        }
    }
    g.finish();
    c.bench_function("chain/sha256_150k", |b| {
        b.iter(|| sha256(black_box(&release)))
    });
}

/// A `wan_transfer`-sized model (37,764 weights, a 151 KB release) at the
/// release precision of 7 mantissa bits. Weights are hashed from their index
/// and each `round` scales every one by its own factor within ±0.4% — about
/// one release ulp — so which bytes of a word change from round to round is
/// as unpredictable as after an SGD step: the regime the TAIL2 delta mode
/// wins, at a delta ratio near 0.22.
fn release_weights(round: u64) -> Vec<f32> {
    let unit = |i: u64| {
        let mut z = i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    };
    let raw: Vec<f32> = (0..37_764u64)
        .map(|i| {
            (0..round).fold(unit(i) * 0.1, |w, r| {
                w * (1.0 + 4.0e-3 * unit(i ^ ((r + 1) << 32)))
            })
        })
        .collect();
    quantize_release(&raw, 7)
}

fn bench_delta(c: &mut Criterion) {
    let (base, new) = (release_weights(0), release_weights(1));
    let blob = delta_to_bytes(&base, &new);
    assert_eq!(blob[4], 3, "quantised drift encodes as TAIL2");
    c.bench_function("tensor/delta_encode_38k_tail2", |b| {
        b.iter(|| delta_to_bytes(black_box(&base), black_box(&new)))
    });
    c.bench_function("tensor/delta_decode_38k_tail2", |b| {
        b.iter(|| delta_from_bytes(black_box(&base), black_box(&blob)).unwrap())
    });
    // Full-precision weights drifting by 10⁻⁴: shared high bytes and no
    // zero tail, the regime the TAIL mode wins.
    let base: Vec<f32> = (0..37_764).map(|i| 0.5 + (i as f32).sin() * 0.1).collect();
    let new: Vec<f32> = base.iter().map(|w| w + w * 1.0e-4).collect();
    let blob = delta_to_bytes(&base, &new);
    assert_eq!(blob[4], 2, "full-precision drift encodes as TAIL");
    c.bench_function("tensor/delta_decode_38k_tail", |b| {
        b.iter(|| delta_from_bytes(black_box(&base), black_box(&blob)).unwrap())
    });
    // The weight codec every fetch decodes through, and every delta
    // reconstruction twice: one release encoded, then decoded.
    let release = release_weights(0);
    c.bench_function("tensor/weights_codec_150k", |b| {
        b.iter(|| weights_from_bytes(&weights_to_bytes(black_box(&release))).unwrap())
    });
}

fn bench_merkle(c: &mut Criterion) {
    let txs: Vec<Vec<u8>> = (0..256).map(|i| format!("tx-{i}").into_bytes()).collect();
    c.bench_function("merkle_root/256_txs", |b| {
        b.iter(|| merkle_root(txs.iter().map(Vec::as_slice)))
    });
}

fn bench_cid(c: &mut Criterion) {
    let data = vec![7u8; 1024];
    c.bench_function("cid/for_data_1KiB", |b| {
        b.iter(|| Cid::for_data(black_box(&data)))
    });
    let mh = Cid::for_data(&data).multihash();
    c.bench_function("base58/encode_34B", |b| {
        b.iter(|| base58_encode(black_box(&mh)))
    });
}

fn bench_chunking(c: &mut Criterion) {
    let data = vec![3u8; 4 * 1024 * 1024];
    let mut g = c.benchmark_group("chunker");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("4MiB_default_chunks", |b| {
        b.iter(|| chunk(black_box(&data), 256 * 1024))
    });
    g.finish();
}

fn bench_block_sealing(c: &mut Criterion) {
    c.bench_function("chain/seal_block_50_txs", |b| {
        b.iter_with_setup(
            || {
                let signers = vec![Address::from_label("s0"), Address::from_label("s1")];
                let mut chain = Blockchain::new(CliqueConfig::default(), signers);
                let user = Address::from_label("user");
                for n in 0..50 {
                    chain.submit(Transaction::call(
                        user,
                        Address::from_label("nowhere"),
                        n,
                        vec![0u8; 64],
                    ));
                }
                chain
            },
            |mut chain| {
                chain.seal_next(SimTime::from_secs(5)).unwrap();
                chain
            },
        )
    });
}

/// What one block costs once the contract carries a run's worth of state:
/// 120 aggregators, 480 model entries (`sharded_fleet`'s log at the end of
/// a run). The block itself is empty, so this is the state root — the
/// whole contract state re-encoded and hashed — plus the seal.
fn bench_block_sealing_under_state(c: &mut Criterion) {
    let members: Vec<Address> = (0..120)
        .map(|i| Address::from_label(&format!("agg-{i}")))
        .collect();
    let orch = Address::from_label("unifyfl-orchestrator");
    let mut chain = Blockchain::new(CliqueConfig::default(), members.clone());
    chain.deploy(
        orch,
        Box::new(UnifyFlContract::new(orch, OrchestrationMode::Async)),
    );
    for member in &members {
        chain.submit(Transaction::call(*member, orch, 0, calls::register()));
    }
    for release in 0..480usize {
        let member = members[release % members.len()];
        let nonce = 1 + (release / members.len()) as u64;
        let cid = Cid::for_data(&release.to_le_bytes()).to_string();
        chain.submit(Transaction::call(
            member,
            orch,
            nonce,
            calls::submit_model(&cid),
        ));
    }
    let at = chain.next_seal_time();
    chain.seal_next(at).unwrap();
    let contract: &UnifyFlContract = chain.view(orch).unwrap();
    assert_eq!(contract.entries().len(), 480);
    c.bench_function("chain/seal_block_480_entries", |b| {
        b.iter(|| {
            let at = chain.next_seal_time();
            chain.seal_next(at).unwrap();
        })
    });
}

/// A 1.4 KB model blob (one leaf), distinct per `variant`.
fn model_blob(variant: u32) -> Vec<u8> {
    (0..350u32)
        .flat_map(|i| (i ^ variant.wrapping_mul(0x9E37_79B9)).to_le_bytes())
        .collect()
}

fn bench_storage_fetch(c: &mut Criterion) {
    // Toy delta: the full new blob (the storage layer only cares that the
    // reconstruction hashes to the requested CID).
    let reconstruct = |_base: &[u8], delta: &[u8]| Some(delta[1..].to_vec());

    // One-leaf delta fetch over a 40-node overlay (4 neighborhoods of 10),
    // publisher and fetcher in different neighborhoods. Every iteration
    // publishes a fresh release first, untimed, so every timed fetch is a
    // first fetch: base read locally, delta blob routed in, reconstruction
    // verified and stored.
    let net = IpfsNetwork::new();
    net.configure_transfer(TransferConfig::default(), 42);
    let nodes: Vec<IpfsNode> = (0..40).map(|_| net.add_node(LinkProfile::lan())).collect();
    let gossip = GossipConfig::default();
    let neighborhoods: Vec<usize> = (0..40).map(|i| i / 10).collect();
    net.install_topology(gossip, GossipTopology::derive(&gossip, 42, &neighborhoods));
    let (publisher, fetcher) = (&nodes[0], &nodes[25]);
    let base = publisher.add(&model_blob(0)).cid;
    fetcher.get(base).unwrap();
    let mut variant = 0u32;
    c.bench_function("storage/get_with_delta_1k4_routed", |b| {
        b.iter_with_setup(
            || {
                variant += 1;
                let blob = model_blob(variant);
                let mut delta = vec![0xD1];
                delta.extend_from_slice(&blob);
                (publisher.add(&blob).cid, publisher.add(&delta).cid)
            },
            |(cid, delta)| {
                fetcher
                    .get_with_delta(cid, base, delta, reconstruct)
                    .unwrap()
            },
        )
    });
    assert_eq!(net.transfer_stats().delta_fallbacks, 0);

    // The local read under every fast-path hit and every delta base: root
    // plus one leaf out of the node's own blockstore, fetch cache off.
    let local = IpfsNetwork::new();
    local.configure_transfer(
        TransferConfig {
            cache_bytes: 0,
            ..TransferConfig::default()
        },
        42,
    );
    let node = local.add_node(LinkProfile::lan());
    let cid = node.add(&model_blob(7)).cid;
    c.bench_function("storage/read_local_1k4", |b| {
        b.iter(|| node.get(black_box(cid)).unwrap())
    });

    // A release-sized fetch, warm (the fetch-cache hit every fetch-ahead
    // probe and every repeat pull takes) and cold over three leaves (600 KB
    // at the default 256 KiB chunk — the multi-leaf reassembly none of the
    // benchmark's workloads reaches).
    let net = IpfsNetwork::new();
    net.configure_transfer(TransferConfig::default(), 42);
    let (publisher, fetcher) = (
        net.add_node(LinkProfile::lan()),
        net.add_node(LinkProfile::lan()),
    );
    let release = publisher.add(&weights_to_bytes(&release_weights(0))).cid;
    fetcher.get(release).unwrap();
    c.bench_function("storage/get_warm_150k", |b| {
        b.iter(|| fetcher.get(black_box(release)).unwrap())
    });
    let mut variant = 0u32;
    c.bench_function("storage/get_cold_600k_3_leaves", |b| {
        b.iter_with_setup(
            || {
                variant += 1;
                let blob: Vec<u8> = (0..150_000u32)
                    .flat_map(|i| (i ^ variant.wrapping_mul(0x9E37_79B9)).to_le_bytes())
                    .collect();
                publisher.add(&blob).cid
            },
            |cid| fetcher.get(cid).unwrap(),
        )
    });
}

fn bench_tensor(c: &mut Criterion) {
    let a = Tensor::from_vec(
        vec![64, 128],
        (0..64 * 128).map(|i| (i % 7) as f32).collect(),
    );
    let b_ = Tensor::from_vec(
        vec![128, 64],
        (0..64 * 128).map(|i| (i % 5) as f32).collect(),
    );
    c.bench_function("tensor/matmul_64x128x64", |b| {
        b.iter(|| a.matmul(black_box(&b_)))
    });

    let spec = ModelSpec::mlp(64, vec![128], 10);
    let mut model = spec.build(1);
    let x = Tensor::from_vec(vec![32, 64], vec![0.1; 32 * 64]);
    let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();
    c.bench_function("model/train_batch_32x64_mlp", |b| {
        b.iter(|| model.train_batch(black_box(&x), black_box(&labels)))
    });
}

/// The paper's edge workload (Table 4): `[5, 3, 8, 8]` batches through a
/// 16-channel 3×3 same-padded convolution.
fn bench_conv(c: &mut Criterion) {
    let x = Tensor::from_vec(
        vec![5, 3, 8, 8],
        (0..5 * 3 * 64).map(|i| (i as f32 * 0.37).sin()).collect(),
    );
    let mut layer = Conv2d::new(3, 16, 3, 1, &mut StdRng::seed_from_u64(1));
    let mut arena = Arena::new();
    // The output gradient a ReLU hands back: about half exact zeros.
    let mut g = layer.forward(&x, true, &mut arena);
    g.data_mut().iter_mut().for_each(|v| *v = v.max(0.0));

    c.bench_function("conv/forward_5x3x8x8_to_16", |b| {
        b.iter(|| {
            let out = layer.forward(black_box(&x), true, &mut arena);
            arena.recycle(out);
        })
    });
    c.bench_function("conv/forward_naive_5x3x8x8_to_16", |b| {
        b.iter(|| layer.forward_naive(black_box(&x)))
    });
    c.bench_function("conv/backward_params_5x3x8x8_to_16", |b| {
        b.iter(|| layer.backward(black_box(&g), false, &mut arena))
    });
    c.bench_function("conv/backward_5x3x8x8_to_16", |b| {
        b.iter(|| {
            let gin = layer.backward(black_box(&g), true, &mut arena);
            arena.recycle(gin.expect("asked for the input gradient"));
        })
    });
    c.bench_function("conv/backward_naive_5x3x8x8_to_16", |b| {
        b.iter(|| layer.backward_naive(black_box(&g)))
    });

    let mut model = ModelSpec::small_cnn(10).build(1);
    let labels: Vec<usize> = (0..5).map(|i| i % 10).collect();
    c.bench_function("model/train_batch_5x3x8x8_cnn", |b| {
        b.iter(|| model.train_batch(black_box(&x), black_box(&labels)))
    });
    c.bench_function("model/evaluate_batch_5x3x8x8_cnn", |b| {
        b.iter(|| model.evaluate_batch(black_box(&x), black_box(&labels)))
    });
}

/// Two families of training benches, and why they disagree. The kernels
/// above time **one input repeated**: after a few iterations the branch
/// predictor has learned where that input's zeros and signs fall, so a loop
/// whose cost depends on them (a `if x < 0.0` store, a `if l == 0.0` skip)
/// looks free. A training run never repeats a batch — shuffled samples,
/// weights moving under SGD — so the same loop there pays a misprediction
/// on about every other element. These benches feed **fresh input every
/// iteration**: a ReLU over a rotating pool of activations (next to the
/// same ReLU on one repeated tensor), and a whole client fit on a real
/// shard (Table 4: batch 5, 2 local epochs; reshuffled every epoch, the
/// weights carried from one iteration's fit into the next). Code that is
/// indifferent to where the zeros fall reads the same in both families.
fn bench_fresh_input(c: &mut Criterion) {
    use rand::Rng;
    use unifyfl_tensor::layers::Relu;

    // 64 tensors of 5,120 coin-toss signs: more history than a predictor
    // holds.
    let mut rng = StdRng::seed_from_u64(1);
    let pool: Vec<Tensor> = (0..64)
        .map(|_| {
            let data = (0..5 * 1024).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            Tensor::from_vec(vec![5, 1024], data)
        })
        .collect();
    let mut relu = Relu::new();
    let mut arena = Arena::new();
    let mut relu_step = |x: &Tensor| {
        let out = relu.forward(black_box(x), true, &mut arena);
        let gin = relu.backward(&out, true, &mut arena);
        arena.recycle(gin.expect("asked for the input gradient"));
        arena.recycle(out);
    };
    c.bench_function("tensor/relu_5x1024_repeated_input", |b| {
        b.iter(|| relu_step(&pool[0]))
    });
    let mut next = 0;
    c.bench_function("tensor/relu_5x1024_fresh_input", |b| {
        b.iter(|| {
            next = (next + 1) % pool.len();
            relu_step(&pool[next])
        })
    });

    // On a kept shell, as a server's lane fits its clients: `fit` alone
    // would build a model per call.
    let (mut client, config, mut weights) = unifyfl_bench::speed::edge_fit(1);
    let mut shell = unifyfl_fl::TrainShell::default();
    c.bench_function("fl/fit_cnn_30x5_2_epochs", |b| {
        b.iter(|| {
            weights = client
                .fit_in(&mut shell, black_box(&weights), &config)
                .weights
        })
    });
}

/// One `FlServer::run_round` (one epoch) over 3 clients of `samples`
/// quickstart-task samples each, at the per-cluster shapes of the three
/// coordination workloads: `sharded_fleet` (≈ 6 KFLOP a round) and
/// `service_burst` (≈ 0.33 MFLOP) sit under the fan-out's grain and fit
/// inline, `wan_transfer` (≈ 24 MFLOP) sits over it and forks — kernels on
/// both sides of the constant in `unifyfl_fl::fanout`.
fn bench_run_round(c: &mut Criterion) {
    for (samples, hidden, batch, name) in [
        (1, vec![16], 8, "fl/run_round_3x1_mlp16x16x4"),
        (36, vec![24], 16, "fl/run_round_3x36_mlp16x24x4"),
        (36, vec![256, 128], 16, "fl/run_round_3x36_mlp16x256x128x4"),
    ] {
        let mut task = SyntheticConfig::cifar10_like(3 * samples);
        task.input = InputKind::Flat(16);
        task.n_classes = 4;
        let spec = ModelSpec::mlp(16, hidden, 4);
        let clients = Partition::Iid
            .split(&task.generate(1), 3, &mut StdRng::seed_from_u64(1))
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                Box::new(InMemoryClient::new(spec.clone(), shard, i as u64)) as Box<dyn FlClient>
            })
            .collect();
        let weights = spec.build(1).flat_params();
        let mut server = FlServer::new(Box::new(FedAvg::new()), clients, weights);
        c.bench_function(name, |b| b.iter(|| server.run_round(1, batch, 0.05)));
    }
}

/// The parameter count under every virtual-time price (`train_duration`,
/// `fetch_duration`, the resource bursts): a closed form, not a model build.
fn bench_cost_params(c: &mut Criterion) {
    let spec = ModelSpec::small_cnn(10);
    c.bench_function("zoo/cost_params_small_cnn", |b| {
        b.iter(|| black_box(&spec).cost_params())
    });
}

fn bench_scoring(c: &mut Criterion) {
    let models: Vec<Vec<f32>> = (0..8)
        .map(|i| (0..10_000).map(|j| ((i * j) % 13) as f32 * 0.01).collect())
        .collect();
    c.bench_function("scoring/multikrum_8x10k", |b| {
        b.iter(|| multikrum_scores(black_box(&models), 2))
    });
}

fn bench_policy(c: &mut Criterion) {
    let candidates: Vec<ScoredCandidate> = (0..64)
        .map(|index| ScoredCandidate {
            index,
            score: (index as f64 * 37.0) % 1.0,
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(1);
    c.bench_function("policy/top8_of_64", |b| {
        b.iter(|| AggregationPolicy::TopK(8).select(black_box(&candidates), None, &mut rng))
    });
}

criterion_group!(
    benches,
    bench_hashing,
    bench_merkle,
    bench_cid,
    bench_chunking,
    bench_block_sealing,
    bench_block_sealing_under_state,
    bench_storage_fetch,
    bench_delta,
    bench_tensor,
    bench_conv,
    bench_fresh_input,
    bench_run_round,
    bench_cost_params,
    bench_scoring,
    bench_policy
);
criterion_main!(benches);
