//! The intra-cluster FL server: one aggregator driving its local clients,
//! mirroring Flower's round loop (`configure_fit → fit → aggregate_fit`).
//!
//! In UnifyFL each organization keeps running exactly this single-cluster
//! loop; the cross-silo layer (crate `unifyfl-core`) wraps it with the
//! blockchain/IPFS workflow without touching the clients — the paper's
//! "clients remain unaffected" property (§3.4.5).

use crate::client::{FitConfig, FlClient};
use crate::fanout::{fan_out, train_flops, Lanes, Payload};
use crate::shell::TrainShell;
use crate::strategy::Strategy;

/// Report of one completed intra-cluster round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReport {
    /// Round number.
    pub round: u64,
    /// Mean client training loss (final local epoch), example-weighted.
    pub train_loss: f64,
    /// Total examples across participating clients.
    pub total_examples: usize,
    /// Per-client example counts (FedAvg weights used).
    pub client_examples: Vec<usize>,
}

/// Prefixes a client fit's panic payload with the client index when the
/// payload is a plain message (`String` or `&str` — what `panic!` and
/// assertion macros produce); any other payload type is passed through
/// untouched so typed panics stay downcastable for the original caller.
fn contextualize_panic(client: usize, payload: Payload) -> Payload {
    let payload = match payload.downcast::<String>() {
        Ok(msg) => return Box::new(format!("client {client} fit panicked: {msg}")),
        Err(payload) => payload,
    };
    match payload.downcast::<&'static str>() {
        Ok(msg) => Box::new(format!("client {client} fit panicked: {msg}")),
        Err(payload) => payload,
    }
}

/// A single-cluster FL server.
pub struct FlServer {
    strategy: Box<dyn Strategy>,
    clients: Vec<Box<dyn FlClient>>,
    /// The training shells of [`FlServer::run_round`]: one per lane the
    /// widest round so far fanned out over (one, for rounds that fit
    /// inline), built by the first fit a lane runs, warm for every fit
    /// after it, this round and the next. Stays empty in a server whose
    /// rounds all run on a caller's shells ([`FlServer::run_round_on`]).
    shells: Vec<TrainShell>,
    weights: Vec<f32>,
    round: u64,
}

impl FlServer {
    /// Creates a server with initial `weights` (from the cluster's model
    /// spec) and its client fleet.
    ///
    /// # Panics
    ///
    /// Panics if `clients` is empty.
    pub fn new(
        strategy: Box<dyn Strategy>,
        clients: Vec<Box<dyn FlClient>>,
        weights: Vec<f32>,
    ) -> Self {
        assert!(!clients.is_empty(), "server needs at least one client");
        FlServer {
            strategy,
            clients,
            shells: Vec::new(),
            weights,
            round: 0,
        }
    }

    /// Current global (cluster-local) weights.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Overwrites the server weights (used after cross-silo aggregation).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the current weights.
    pub fn set_weights(&mut self, weights: Vec<f32>) {
        assert_eq!(
            weights.len(),
            self.weights.len(),
            "weight vector length mismatch"
        );
        self.weights = weights;
    }

    /// Completed round count.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Applies a label-rotation domain drift to every client's local data
    /// (see [`FlClient::rotate_labels`]). The server weights are left
    /// untouched — the model now faces a shifted task, which is the point.
    pub fn rotate_client_labels(&mut self, shift: usize) {
        for client in &mut self.clients {
            client.rotate_labels(shift);
        }
    }

    /// Runs one FL round: every client fits from the current weights, the
    /// strategy aggregates, and the server adopts the result. The fits run
    /// on the server's own training shells, over [`Lanes::Host`].
    pub fn run_round(
        &mut self,
        epochs: usize,
        batch_size: usize,
        learning_rate: f32,
    ) -> RoundReport {
        let mut shells = std::mem::take(&mut self.shells);
        let report = self.run_round_on(&mut shells, Lanes::Host, epochs, batch_size, learning_rate);
        self.shells = shells;
        report
    }

    /// [`FlServer::run_round`] over `lanes` on training shells the caller
    /// owns — one per fan-out lane, grown here to as many as this round
    /// forks. A caller that steps many servers one after another (a
    /// federation's compute lane) lends them all the same shells, so what
    /// stays resident follows how many fits run at once, not how many
    /// servers or clients there are. The round is the same bit for bit.
    pub fn run_round_on(
        &mut self,
        shells: &mut Vec<TrainShell>,
        lanes: Lanes,
        epochs: usize,
        batch_size: usize,
        learning_rate: f32,
    ) -> RoundReport {
        self.round += 1;
        let config = FitConfig {
            epochs,
            batch_size,
            learning_rate,
            round: self.round,
        };
        let weights = &self.weights;
        // Clients are independent, so their fits go through the one
        // fan-out: inline when the round is too small to pay for a fork,
        // on bounded lanes otherwise (wall-clock parallelism only —
        // *virtual* time is charged separately by the simulation layer),
        // each lane fitting its clients one after another on its own shell.
        // A panicking fit is resumed with its original payload, the client
        // index attached when it is a plain message, once every lane has
        // finished.
        let samples: usize = self.clients.iter().map(|c| c.num_examples()).sum();
        let flops = train_flops(weights.len(), samples, epochs.max(1));
        let results = fan_out(&mut self.clients, shells, lanes, flops, |shell, client| {
            client.fit_in(shell, weights, &config)
        })
        .unwrap_or_else(|(i, payload)| std::panic::resume_unwind(contextualize_panic(i, payload)));

        let client_examples: Vec<usize> = results.iter().map(|r| r.num_examples).collect();
        let total_examples: usize = client_examples.iter().sum();
        let train_loss = results
            .iter()
            .map(|r| r.train_loss * r.num_examples as f64)
            .sum::<f64>()
            / total_examples.max(1) as f64;

        let updates: Vec<(Vec<f32>, usize)> = results
            .into_iter()
            .map(|r| (r.weights, r.num_examples))
            .collect();
        self.weights = self.strategy.aggregate(&self.weights, &updates);

        RoundReport {
            round: self.round,
            train_loss,
            total_examples,
            client_examples,
        }
    }
}

impl std::fmt::Debug for FlServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlServer")
            .field("strategy", &self.strategy.name())
            .field("clients", &self.clients.len())
            .field("round", &self.round)
            .field("params", &self.weights.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::InMemoryClient;
    use crate::strategy::{FedAvg, FedYogi};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use unifyfl_data::{Partition, SyntheticConfig};
    use unifyfl_tensor::zoo::ModelSpec;

    fn cluster(strategy: Box<dyn Strategy>, seed: u64) -> (FlServer, unifyfl_data::Dataset) {
        let mut cfg = SyntheticConfig::cifar10_like(600);
        cfg.input = unifyfl_tensor::zoo::InputKind::Flat(16);
        cfg.n_classes = 4;
        cfg.noise_scale = 0.5;
        cfg.label_noise = 0.0;
        let data = cfg.generate(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let (train, test) = data.split(0.2, &mut rng);
        let shards = Partition::Iid.split(&train, 3, &mut rng);
        let spec = ModelSpec::mlp(16, vec![32], 4);
        let clients: Vec<Box<dyn FlClient>> = shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                Box::new(InMemoryClient::new(spec.clone(), shard, seed + i as u64))
                    as Box<dyn FlClient>
            })
            .collect();
        let weights = spec.build(seed).flat_params();
        (FlServer::new(strategy, clients, weights), test)
    }

    #[test]
    fn rounds_improve_accuracy() {
        let (mut server, test) = cluster(Box::new(FedAvg::new()), 1);
        let spec = ModelSpec::mlp(16, vec![32], 4);
        let before = crate::client::evaluate_weights(&spec, server.weights(), &test);
        for _ in 0..6 {
            server.run_round(2, 16, 0.05);
        }
        let after = crate::client::evaluate_weights(&spec, server.weights(), &test);
        assert!(
            after.accuracy > before.accuracy + 0.3,
            "{} -> {}",
            before.accuracy,
            after.accuracy
        );
    }

    #[test]
    fn fedyogi_also_learns() {
        let (mut server, test) = cluster(Box::new(FedYogi::new()), 2);
        let spec = ModelSpec::mlp(16, vec![32], 4);
        for _ in 0..8 {
            server.run_round(2, 16, 0.05);
        }
        let after = crate::client::evaluate_weights(&spec, server.weights(), &test);
        assert!(after.accuracy > 0.5, "accuracy {}", after.accuracy);
    }

    #[test]
    fn report_carries_round_metadata() {
        let (mut server, _) = cluster(Box::new(FedAvg::new()), 3);
        let r1 = server.run_round(1, 16, 0.05);
        let r2 = server.run_round(1, 16, 0.05);
        assert_eq!(r1.round, 1);
        assert_eq!(r2.round, 2);
        assert_eq!(r1.client_examples.len(), 3);
        assert_eq!(r1.total_examples, 480);
        assert!(r1.train_loss.is_finite());
        assert_eq!(server.round(), 2);
    }

    #[test]
    fn set_weights_overrides_model() {
        let (mut server, _) = cluster(Box::new(FedAvg::new()), 4);
        let zeros = vec![0.0f32; server.weights().len()];
        server.set_weights(zeros.clone());
        assert_eq!(server.weights(), zeros.as_slice());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_weights_rejects_wrong_len() {
        let (mut server, _) = cluster(Box::new(FedAvg::new()), 5);
        server.set_weights(vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn empty_cluster_rejected() {
        let _ = FlServer::new(Box::new(FedAvg::new()), vec![], vec![0.0]);
    }

    #[test]
    fn client_panic_resumes_with_index_context() {
        struct Bomb;
        impl crate::client::FlClient for Bomb {
            fn fit(&mut self, _w: &[f32], _c: &FitConfig) -> crate::client::FitResult {
                panic!("non-finite loss on shard");
            }
            fn num_examples(&self) -> usize {
                1
            }
        }
        let (server, _) = cluster(Box::new(FedAvg::new()), 7);
        let mut clients: Vec<Box<dyn FlClient>> = server
            .clients
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                if i == 1 {
                    Box::new(Bomb) as Box<dyn FlClient>
                } else {
                    c
                }
            })
            .collect();
        let weights = server.weights;
        let mut server = FlServer::new(
            Box::new(FedAvg::new()),
            std::mem::take(&mut clients),
            weights,
        );
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            server.run_round(1, 16, 0.05);
        }))
        .expect_err("the client panic must propagate");
        let msg = err
            .downcast_ref::<String>()
            .expect("message payloads stay strings");
        assert!(
            msg.contains("client 1") && msg.contains("non-finite loss on shard"),
            "payload must carry index and original message: {msg}"
        );
    }

    /// Threads that ran a fit, in completion order.
    type ThreadLog = std::sync::Arc<std::sync::Mutex<Vec<std::thread::ThreadId>>>;

    /// A client that only records which thread fitted it, claiming
    /// `examples` local samples (which is all the work estimate reads).
    struct Probe {
        examples: usize,
        panics: bool,
        fitted_on: ThreadLog,
    }

    impl FlClient for Probe {
        fn fit(&mut self, w: &[f32], _c: &FitConfig) -> crate::client::FitResult {
            self.fitted_on
                .lock()
                .unwrap()
                .push(std::thread::current().id());
            if self.panics {
                panic!("probe down");
            }
            crate::client::FitResult {
                weights: w.to_vec(),
                num_examples: self.examples,
                train_loss: 0.0,
            }
        }
        fn num_examples(&self) -> usize {
            self.examples
        }
    }

    /// A 64-client server of probes over 10 parameters — client `i`
    /// claiming `examples + i` samples — and the log of fitting threads.
    /// `panicking` clients panic in `fit`.
    fn probe_server(examples: usize, panicking: &[usize]) -> (FlServer, ThreadLog) {
        let fitted_on = ThreadLog::default();
        let clients = (0..64)
            .map(|i| {
                Box::new(Probe {
                    examples: examples + i,
                    panics: panicking.contains(&i),
                    fitted_on: fitted_on.clone(),
                }) as Box<dyn FlClient>
            })
            .collect();
        let server = FlServer::new(Box::new(FedAvg::new()), clients, vec![0.0; 10]);
        (server, fitted_on)
    }

    #[test]
    fn a_round_under_the_grain_fits_every_client_on_the_caller() {
        // 2,016 samples × 60 FLOP ≈ 0.12 MFLOP: an order under the grain.
        let (mut server, fitted_on) = probe_server(0, &[]);
        server.run_round(1, 16, 0.05);
        let caller = std::thread::current().id();
        let fitted_on = fitted_on.lock().unwrap();
        assert_eq!(fitted_on.len(), 64);
        assert!(fitted_on.iter().all(|id| *id == caller));
    }

    #[test]
    fn a_round_over_the_grain_forks_within_the_lane_cap() {
        // 64 clients × 10,000 samples × 60 FLOP ≈ 38 MFLOP claimed.
        let (mut server, fitted_on) = probe_server(10_000, &[]);
        let report = server.run_round(1, 16, 0.05);
        let in_order: Vec<usize> = (10_000..10_064).collect();
        assert_eq!(report.client_examples, in_order, "index order");
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads: std::collections::HashSet<_> =
            fitted_on.lock().unwrap().iter().copied().collect();
        assert!(
            threads.contains(&std::thread::current().id()),
            "caller runs"
        );
        if cores == 1 {
            assert_eq!(threads.len(), 1, "a 1-core host runs inline");
        } else {
            assert!(threads.len() > 1, "{cores} cores must fork");
            assert!(threads.len() <= 2 * cores, "two lanes per core at most");
        }
    }

    #[test]
    fn a_round_over_the_grain_on_one_lane_fits_every_client_on_the_caller() {
        // The same 38 MFLOP round `run_round` forks on a second core.
        let (mut server, fitted_on) = probe_server(10_000, &[]);
        let mut shells = Vec::new();
        let report = server.run_round_on(&mut shells, Lanes::One, 1, 16, 0.05);
        let in_order: Vec<usize> = (10_000..10_064).collect();
        assert_eq!(report.client_examples, in_order, "index order");
        let caller = std::thread::current().id();
        let fitted_on = fitted_on.lock().unwrap();
        assert_eq!(fitted_on.len(), 64);
        assert!(fitted_on.iter().all(|id| *id == caller));
        assert_eq!(shells.len(), 1, "one lane, one shell");
    }

    #[test]
    fn the_lowest_panicking_client_is_named_inline_and_forked() {
        // Under the grain and over it, in the caller's own chunk (client 0)
        // and in a later one (client 40, first panic of two).
        for examples in [0, 10_000] {
            for (panicking, first) in [(&[0, 50][..], 0), (&[40, 63][..], 40)] {
                let (mut server, _) = probe_server(examples, panicking);
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    server.run_round(1, 16, 0.05);
                }))
                .expect_err("the client panic must propagate");
                assert_eq!(
                    err.downcast_ref::<String>().map(String::as_str),
                    Some(format!("client {first} fit panicked: probe down").as_str()),
                );
            }
        }
    }

    #[test]
    fn a_forked_round_on_kept_shells_is_bitwise_the_one_lane_round_on_fresh_ones() {
        // N lanes against one: the server fits six CNN clients (≈ 130
        // MFLOP a round, far over the grain: as many lanes as the host
        // gives, each reusing its shell from client to client and from
        // round to round) and the reference fits twins of them one after
        // another, every fit on a transient shell of its own, then
        // aggregates the same way. On a 1-core host the server's side is
        // one lane too, and the case reduces to shell reuse.
        let spec = ModelSpec::small_cnn(10);
        let shards: Vec<_> = (0..6)
            .map(|i| SyntheticConfig::cifar10_like(30).generate(40 + i))
            .collect();
        let fleet = || -> Vec<Box<dyn FlClient>> {
            shards
                .iter()
                .enumerate()
                .map(|(i, shard)| {
                    Box::new(InMemoryClient::new(spec.clone(), shard.clone(), i as u64))
                        as Box<dyn FlClient>
                })
                .collect()
        };
        let init = spec.build(1).flat_params();
        let mut server = FlServer::new(Box::new(FedAvg::new()), fleet(), init.clone());
        let (mut twins, mut weights) = (fleet(), init);
        for round in 1..=2 {
            let report = server.run_round(2, 5, 0.01);
            let config = FitConfig {
                epochs: 2,
                batch_size: 5,
                learning_rate: 0.01,
                round,
            };
            let updates: Vec<(Vec<f32>, usize)> = twins
                .iter_mut()
                .map(|twin| twin.fit(&weights, &config))
                .map(|fit| (fit.weights, fit.num_examples))
                .collect();
            weights = FedAvg::new().aggregate(&weights, &updates);
            assert_eq!(report.total_examples, 180);
            assert_eq!(server.weights().len(), weights.len());
            for (a, b) in server.weights().iter().zip(&weights) {
                assert_eq!(a.to_bits(), b.to_bits(), "round {round}");
            }
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let lanes = if cores == 1 { 1 } else { 6.min(2 * cores) };
        assert_eq!(server.shells.len(), 6usize.div_ceil(6usize.div_ceil(lanes)));
    }

    #[test]
    fn typed_panic_payloads_pass_through_undisturbed() {
        // A non-string payload must stay downcastable to its original type.
        let payload = contextualize_panic(0, Box::new(42u32));
        assert_eq!(payload.downcast_ref::<u32>(), Some(&42));
        let payload = contextualize_panic(3, Box::new("static message"));
        let msg = payload.downcast_ref::<String>().unwrap();
        assert_eq!(msg, "client 3 fit panicked: static message");
    }
}
