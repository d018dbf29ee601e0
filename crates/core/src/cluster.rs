//! A participating FL cluster: one organization's aggregator, its client
//! fleet, its IPFS node and its blockchain account.
//!
//! The cluster implements the six-step workflow of Figure 4: run a local
//! Flower-style round, store the aggregated weights on IPFS, register the
//! CID on-chain, score peer models when assigned, pull scored peer models,
//! filter them through its aggregation policy and merge them into the
//! global model used for the next round.
//!
//! All virtual-time costs (training, scoring, transfers) are computed from
//! the cluster's [`DeviceProfile`]s and the model's *cost* parameter count,
//! so the paper's 138 M-parameter VGG16 is charged at full size even though
//! the trained proxy is smaller (see ARCHITECTURE.md).

use rand::rngs::StdRng;
use rand::SeedableRng;
use unifyfl_chain::orchestrator::calls;
use unifyfl_chain::types::{Address, Transaction};
use unifyfl_chain::Score;
use unifyfl_data::Dataset;
use unifyfl_fl::fanout::{self, Lanes};
use unifyfl_fl::strategy::{precision_weighted_mean, weighted_mean};
use unifyfl_fl::{EvalShell, FlClient, FlServer, InMemoryClient, StrategyKind, TrainShell};
use unifyfl_sim::{DeviceProfile, SimDuration};
use unifyfl_storage::network::LinkProfile;
use unifyfl_storage::{Cid, IpfsNode};
use unifyfl_tensor::delta::delta_to_bytes;
use unifyfl_tensor::weights::quantize_release;
use unifyfl_tensor::weights_to_bytes;
use unifyfl_tensor::zoo::ModelSpec;

use crate::byzantine::{AttackKind, DpConfig};
use crate::experiment::ExperimentError;
use crate::policy::{AggregationPolicy, ScorePolicy};

/// A mid-run domain drift: at the start of `at_round`, the cluster's task
/// changes under it — every client's local labels (and the scorer holdout)
/// are rotated by `class_shift` classes. Models the paper's motivating
/// cross-silo reality that organizations' data distributions move (a
/// vehicle fleet crossing a border, a hospital's seasonal case mix); the
/// regroup machinery exists to chase exactly this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriftSpec {
    /// Global round at whose start the drift fires (1-based; fires once).
    pub at_round: u64,
    /// Label rotation applied, modulo the class count.
    pub class_shift: usize,
}

/// Static configuration of one cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Organization name (e.g. `"agg-1"`).
    pub name: String,
    /// Intra-cluster aggregation strategy (FedAvg / FedYogi).
    pub strategy: StrategyKind,
    /// Cross-silo aggregation policy.
    pub policy: AggregationPolicy,
    /// Score-reduction policy.
    pub score_policy: ScorePolicy,
    /// Number of FL clients in the cluster.
    pub n_clients: usize,
    /// Device profile of the client trainers (shared per cluster).
    pub client_device: DeviceProfile,
    /// Multiplier on this cluster's compute time (> 1 models a straggler).
    pub straggle_factor: f64,
    /// If set, the cluster is malicious and corrupts published weights.
    pub attack: Option<AttackKind>,
    /// If set, published weights are privatized with the Gaussian
    /// mechanism (clip + noise) before release (§5 Q3 extension).
    pub dp: Option<DpConfig>,
    /// Rounds during which the cluster ignores peers (Figure 7 warm-up,
    /// "each aggregator picks its own model for training").
    pub warmup_self_rounds: u64,
    /// Mantissa bits kept in *released* weights (1 ..= 23; 23 releases
    /// full `f32` precision). Releases are precision-bounded before
    /// serialization — the bandwidth-aware publish path: the dropped bits
    /// make round-over-round deltas small on the wire, and the default of
    /// 7 matches bfloat16, the precision models are routinely trained and
    /// exchanged at. Applies after any DP or attack transform; local
    /// training always runs at full precision.
    pub release_mantissa_bits: u32,
    /// Elastic membership: if set, the cluster is *not* a founding member —
    /// it sits out until this virtual-time offset from federation setup,
    /// then registers on-chain, bootstraps from the latest scored releases
    /// and participates from there. `None` (the default) is a founder.
    pub joins_at: Option<SimDuration>,
    /// Explicit storage-link override for this cluster's IPFS node. `None`
    /// (the default) derives the link from
    /// [`ClusterConfig::client_device`]; set it to model WAN-attached
    /// silos whose storage path is slower than their compute fabric.
    pub link: Option<LinkProfile>,
    /// Mid-run domain drift, if the cluster's data distribution shifts
    /// during the run. `None` (the default) keeps the task static.
    pub drift: Option<DriftSpec>,
}

impl ClusterConfig {
    /// An honest GPU-cluster organization with the pick-All policy.
    pub fn gpu(name: impl Into<String>) -> Self {
        ClusterConfig {
            name: name.into(),
            strategy: StrategyKind::FedAvg,
            policy: AggregationPolicy::All,
            score_policy: ScorePolicy::Mean,
            n_clients: 3,
            client_device: DeviceProfile::gpu_node(),
            straggle_factor: 1.0,
            attack: None,
            dp: None,
            warmup_self_rounds: 0,
            release_mantissa_bits: 7,
            joins_at: None,
            link: None,
            drift: None,
        }
    }

    /// An honest edge organization on the given device profile.
    pub fn edge(name: impl Into<String>, device: DeviceProfile) -> Self {
        ClusterConfig {
            client_device: device,
            ..ClusterConfig::gpu(name)
        }
    }

    /// Sets the aggregation policy (builder style).
    pub fn with_policy(mut self, policy: AggregationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the strategy (builder style).
    pub fn with_strategy(mut self, strategy: StrategyKind) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the score-reduction policy (builder style).
    pub fn with_score_policy(mut self, score_policy: ScorePolicy) -> Self {
        self.score_policy = score_policy;
        self
    }

    /// Makes the cluster an elastic joiner arriving `joins_at` after
    /// federation setup (builder style).
    pub fn joining_at(mut self, joins_at: SimDuration) -> Self {
        self.joins_at = Some(joins_at);
        self
    }

    /// Overrides the cluster's storage-link profile (builder style).
    pub fn with_link(mut self, link: LinkProfile) -> Self {
        self.link = Some(link);
        self
    }

    /// Schedules a mid-run domain drift (builder style).
    pub fn with_drift(mut self, drift: DriftSpec) -> Self {
        self.drift = Some(drift);
        self
    }
}

/// Per-round record of what a cluster did.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRoundRecord {
    /// Global round index (1-based).
    pub round: u64,
    /// Number of peer models merged this round.
    pub peers_merged: usize,
    /// Accuracy of the *local* model (after local training, before
    /// publishing) on the global test set.
    pub local_accuracy: f64,
    /// Loss of the local model on the global test set.
    pub local_loss: f64,
    /// Accuracy of the *global* (merged) model on the global test set.
    pub global_accuracy: f64,
    /// Loss of the global model on the global test set.
    pub global_loss: f64,
    /// Virtual time at which this round completed for the cluster.
    pub completed_at_secs: f64,
}

/// A live cluster node.
pub struct ClusterNode {
    config: ClusterConfig,
    address: Address,
    spec: ModelSpec,
    server: FlServer,
    /// Scorer holdout: the cluster's local test shard (§3.1.2 "score them
    /// with their test set").
    local_test: Dataset,
    ipfs: IpfsNode,
    nonce: u64,
    rng: StdRng,
    /// Samples held by the cluster's clients (sum).
    train_samples: usize,
    /// CID of the most recently published model, if any.
    last_published: Option<Cid>,
    /// The most recent *release* (CID + released weight values): the delta
    /// base for the next publish. Seeded with the federation's shared
    /// initial model so even round-1 publishes have a base every peer
    /// holds.
    last_release: (Cid, Vec<f32>),
    /// Delta reference produced by the latest [`ClusterNode::store_model`],
    /// consumed by the next [`ClusterNode::submit_model_tx`].
    pending_delta: Option<(Cid, Cid)>,
    /// Model submissions that carried a delta reference.
    delta_publishes: u64,
    /// Submissions without one (no usable base, or an unchanged
    /// re-release).
    full_publishes: u64,
    /// Whether the configured [`DriftSpec`] already fired (it fires once).
    drifted: bool,
    /// History of per-round records.
    pub records: Vec<ClusterRoundRecord>,
}

impl ClusterNode {
    /// Assembles a cluster from its shard: splits a scorer holdout, deals
    /// the rest to `n_clients` clients (IID within the organization), and
    /// initializes the FL server with spec-seeded weights shared by the
    /// whole federation.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::ShardTooSmall`] if the shard, less its scorer
    /// holdout, cannot give each client one sample. Every caller validates
    /// first, so `n_clients ≥ 1`.
    pub(crate) fn try_new(
        config: ClusterConfig,
        spec: ModelSpec,
        shard: &Dataset,
        init_weights: Vec<f32>,
        ipfs: IpfsNode,
        seed: u64,
    ) -> Result<Self, ExperimentError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let (train, local_test) = shard.split(0.15, &mut rng);
        if train.len() < config.n_clients {
            return Err(ExperimentError::ShardTooSmall {
                cluster: config.name,
                samples: train.len(),
                clients: config.n_clients,
            });
        }
        let client_shards = unifyfl_data::Partition::Iid.split(&train, config.n_clients, &mut rng);
        let train_samples = train.len();
        let clients: Vec<Box<dyn FlClient>> = client_shards
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                Box::new(InMemoryClient::new(
                    spec.clone(),
                    s,
                    seed.wrapping_add(i as u64 + 1),
                )) as Box<dyn FlClient>
            })
            .collect();
        // Publish the shared initial model as this node's first release:
        // every cluster adds the identical blob (identical CID), so the
        // round-1 publish can already travel as a delta and every peer
        // already holds its base.
        let init_release = quantize_release(&init_weights, config.release_mantissa_bits);
        let init_receipt = ipfs.add(&weights_to_bytes(&init_release));

        let server = FlServer::new(config.strategy.build(), clients, init_weights);
        let address = Address::from_label(&config.name);
        Ok(ClusterNode {
            config,
            address,
            spec,
            server,
            local_test,
            ipfs,
            nonce: 0,
            rng,
            train_samples,
            last_published: None,
            last_release: (init_receipt.cid, init_release),
            pending_delta: None,
            delta_publishes: 0,
            full_publishes: 0,
            drifted: false,
            records: Vec::new(),
        })
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The cluster's on-chain address.
    pub fn address(&self) -> Address {
        self.address
    }

    /// The model spec the federation trains.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// Current global (post-merge) weights.
    pub fn weights(&self) -> &[f32] {
        self.server.weights()
    }

    /// The scorer holdout shard.
    pub fn local_test(&self) -> &Dataset {
        &self.local_test
    }

    /// CID of the most recently published model.
    pub fn last_published(&self) -> Option<Cid> {
        self.last_published
    }

    /// Training samples across the cluster's clients.
    pub fn train_samples(&self) -> usize {
        self.train_samples
    }

    /// The cluster's IPFS node handle.
    pub fn ipfs(&self) -> &IpfsNode {
        &self.ipfs
    }

    /// The aggregation policy currently in force at `round` (the Figure 7
    /// warm-up forces `SelfOnly` for the first `warmup_self_rounds`).
    pub fn effective_policy(&self, round: u64) -> AggregationPolicy {
        if round <= self.config.warmup_self_rounds {
            AggregationPolicy::SelfOnly
        } else {
            self.config.policy
        }
    }

    /// Deterministic per-cluster RNG (policy sampling).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Fires the configured [`DriftSpec`] if `round` has reached it (at
    /// most once per run): every client's labels and the scorer holdout
    /// rotate together, so the cluster trains *and* scores on the shifted
    /// task from this round on. Returns whether the drift fired now.
    pub fn maybe_drift(&mut self, round: u64) -> bool {
        let Some(drift) = self.config.drift else {
            return false;
        };
        if self.drifted || round < drift.at_round {
            return false;
        }
        self.drifted = true;
        self.server.rotate_client_labels(drift.class_shift);
        self.local_test = self.local_test.rotate_labels(drift.class_shift);
        true
    }

    // ---- virtual-time cost model -------------------------------------

    /// Time for one local FL round (all clients share the cluster's
    /// device, so the costs add).
    pub fn train_duration(&self, epochs: usize) -> SimDuration {
        let flops = self.spec.flops_per_train_sample()
            * self.train_samples as f64
            * epochs as f64
            * self.config.straggle_factor;
        self.config.client_device.compute_time(flops)
    }

    /// Time to fetch one peer model of the federation's (virtual) size.
    pub fn fetch_duration(&self) -> SimDuration {
        self.config
            .client_device
            .transfer_time(self.spec.wire_bytes())
            + SimDuration::from_millis(20) // DHT provider lookup
    }

    /// Time to store the local model on IPFS (hashing + local writes; no
    /// upload — peers pay the transfer on fetch).
    pub fn publish_duration(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.spec.wire_bytes() as f64 / 1.0e9)
    }

    /// Time to score one model: inference over the local test shard.
    pub fn score_duration(&self) -> SimDuration {
        let flops = self.spec.flops_per_eval_sample()
            * self.local_test.len() as f64
            * self.config.straggle_factor;
        self.config.client_device.compute_time(flops)
    }

    // ---- real work estimates ------------------------------------------

    /// Estimated real FLOPs of one local round's client fits. Unlike the
    /// virtual-time model above this counts the *trained* parameters (the
    /// VGG16 proxy charges 138 M for an MLP of under 100 K): it sizes the
    /// wall-clock fan-out ([`unifyfl_fl::fanout`]) and never reaches a
    /// report.
    pub fn fit_flops(&self, epochs: usize) -> f64 {
        fanout::train_flops(self.weights().len(), self.train_samples, epochs)
    }

    /// Estimated real FLOPs of one inference pass of the cluster's model
    /// over `samples` samples (see [`ClusterNode::fit_flops`]).
    pub fn eval_flops(&self, samples: usize) -> f64 {
        fanout::eval_flops(self.weights().len(), samples)
    }

    // ---- protocol steps ----------------------------------------------

    /// Step 1: run one local FL round (clients train, strategy aggregates),
    /// the fits over `lanes` on the training shells of the lane the cluster
    /// is computing on.
    pub fn run_local_round(
        &mut self,
        shells: &mut Vec<TrainShell>,
        lanes: Lanes,
        epochs: usize,
        batch: usize,
        lr: f32,
    ) {
        self.server.run_round_on(shells, lanes, epochs, batch, lr);
    }

    /// Steps 1–2: serialize the local model (corrupting it first if this
    /// cluster is malicious, then bounding it to the release precision)
    /// and store it on IPFS — the full blob *and* a delta blob against the
    /// previous release, so peers holding the base can fetch a fraction of
    /// the bytes. Returns the CID to register on-chain via
    /// [`ClusterNode::submit_model_tx`], which also carries the
    /// `(base_cid, delta_cid)` reference.
    ///
    /// Splitting storage from submission matters: a straggler stores its
    /// model but only builds the transaction when a submission window is
    /// actually open, so its account nonce never gaps.
    pub fn store_model(&mut self, round: u64) -> Cid {
        let release_seed = round ^ self.address.0[0] as u64;
        // Honest organizations may privatize the released weights (DP);
        // a malicious one corrupts whatever it would have released. Either
        // way the release is precision-bounded last.
        let mut weights = match &self.config.dp {
            Some(dp) => dp.privatize(self.server.weights(), release_seed),
            None => self.server.weights().to_vec(),
        };
        if let Some(attack) = &self.config.attack {
            weights = attack.corrupt(&weights, release_seed);
        }
        let weights = quantize_release(&weights, self.config.release_mantissa_bits);
        let bytes = weights_to_bytes(&weights);
        let receipt = self.ipfs.add(&bytes);

        // Re-releasing identical weights (a straggler re-storing its held
        // model) leaves the blob, CID and any pending delta reference in
        // place.
        let (base_cid, base_weights) = &self.last_release;
        if *base_cid != receipt.cid {
            let delta_receipt = self.ipfs.add(&delta_to_bytes(base_weights, &weights));
            self.pending_delta = Some((*base_cid, delta_receipt.cid));
            self.last_release = (receipt.cid, weights);
        }
        self.last_published = Some(receipt.cid);
        receipt.cid
    }

    /// Step 3: the transaction registering `cid` on-chain — `submitModel`,
    /// or `submitModelDelta` carrying the `(base_cid, delta_cid)`
    /// reference when [`ClusterNode::store_model`] produced one. Must
    /// follow the `store_model` call that returned `cid` (the pending
    /// reference is consumed).
    pub fn submit_model_tx(&mut self, orchestrator: Address, cid: &Cid) -> Transaction {
        // Counting here, not in `store_model`, keeps the counters aligned
        // with on-chain submissions: a straggler re-stores its held model
        // every window it misses but submits it exactly once.
        let call = match self.pending_delta.take() {
            Some((base, delta)) => {
                self.delta_publishes += 1;
                calls::submit_model_delta(&cid.to_string(), &base.to_string(), &delta.to_string())
            }
            None => {
                self.full_publishes += 1;
                calls::submit_model(&cid.to_string())
            }
        };
        self.next_tx(orchestrator, call)
    }

    /// Model submissions that carried an on-chain delta reference vs.
    /// full-only submissions (together they count every
    /// [`ClusterNode::submit_model_tx`] built).
    pub fn publish_counts(&self) -> (u64, u64) {
        (self.delta_publishes, self.full_publishes)
    }

    /// Publishes arbitrary weights through the cluster's IPFS node as a
    /// release blob (precision-bounded like any release) and returns its
    /// CID. Used by shard representatives to seal a shard release; the
    /// cluster's own release lineage (delta bases, last-published CID) is
    /// deliberately untouched.
    pub fn publish_release_blob(&self, weights: &[f32]) -> Cid {
        let release = quantize_release(weights, self.config.release_mantissa_bits);
        self.ipfs.add(&weights_to_bytes(&release)).cid
    }

    /// Scores a peer model on the local test shard (accuracy scoring), on
    /// the evaluation shell of the lane the cluster is computing on.
    pub fn score_weights(&self, shell: &mut EvalShell, weights: &[f32]) -> f64 {
        shell
            .evaluate(&self.spec, weights, &self.local_test)
            .accuracy
    }

    /// Builds the `submitScore` transaction for a scored model.
    pub fn score_tx(&mut self, orchestrator: Address, cid: &Cid, score: f64) -> Transaction {
        self.next_tx(
            orchestrator,
            calls::submit_score(&cid.to_string(), Score::from_f64(score)),
        )
    }

    /// Builds the `register` transaction.
    pub fn register_tx(&mut self, orchestrator: Address) -> Transaction {
        self.next_tx(orchestrator, calls::register())
    }

    /// Builds an arbitrary orchestrator call (phase driving).
    pub fn next_tx(&mut self, orchestrator: Address, input: Vec<u8>) -> Transaction {
        let tx = Transaction::call(self.address, orchestrator, self.nonce, input);
        self.nonce += 1;
        tx
    }

    /// Step 5: merge selected peer weights with the current global model
    /// (equal-weight parameter mean, the paper's aggregation of aggregated
    /// models) and adopt the result.
    ///
    /// Returns the number of peers merged. Takes the fetched vectors by
    /// value: they go into the mean as they are and are dropped with it.
    pub fn merge_peers(&mut self, peers: Vec<Vec<f32>>) -> usize {
        if peers.is_empty() {
            return 0;
        }
        let n = peers.len();
        let mut updates: Vec<(Vec<f32>, usize)> = peers.into_iter().map(|w| (w, 1)).collect();
        updates.push((self.server.weights().to_vec(), 1));
        let merged = weighted_mean(self.server.weights(), &updates);
        self.server.set_weights(merged);
        n
    }

    /// Step 5 under Unify-style adaptive weighting: each peer carries the
    /// *precision* of its on-chain scores (inverse scorer-disagreement
    /// variance) and contributes proportionally — releases the scorers
    /// agree on pull harder than contested ones. The cluster's own model
    /// enters at the mean peer precision, mirroring [`Self::merge_peers`]
    /// where self is one equal participant.
    ///
    /// Returns the number of peers merged; by value, as [`Self::merge_peers`].
    pub fn merge_peers_weighted(&mut self, mut peers: Vec<(Vec<f32>, f64)>) -> usize {
        if peers.is_empty() {
            return 0;
        }
        let n = peers.len();
        let self_precision = peers.iter().map(|(_, p)| *p).sum::<f64>() / n as f64;
        peers.push((self.server.weights().to_vec(), self_precision));
        let merged = precision_weighted_mean(self.server.weights(), &peers);
        self.server.set_weights(merged);
        n
    }

    /// Replaces the cluster's global weights outright (used by the
    /// centralized HBFL baseline, where the reducer's model is pushed down
    /// verbatim).
    ///
    /// # Panics
    ///
    /// Panics if the length does not match the model.
    pub fn adopt_weights(&mut self, weights: Vec<f32>) {
        self.server.set_weights(weights);
    }

    /// Appends a round record.
    pub fn record(&mut self, record: ClusterRoundRecord) {
        self.records.push(record);
    }

    /// Post-training (local) accuracy and loss of the last recorded round;
    /// zeros before any.
    pub fn last_local(&self) -> (f64, f64) {
        let last = self.records.last();
        last.map_or((0.0, 0.0), |r| (r.local_accuracy, r.local_loss))
    }

    /// Post-merge (global) accuracy and loss of the last recorded round;
    /// zeros before any.
    pub fn last_global(&self) -> (f64, f64) {
        let last = self.records.last();
        last.map_or((0.0, 0.0), |r| (r.global_accuracy, r.global_loss))
    }
}

impl std::fmt::Debug for ClusterNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterNode")
            .field("name", &self.config.name)
            .field("policy", &self.config.policy)
            .field("strategy", &self.config.strategy)
            .field("clients", &self.config.n_clients)
            .field("rounds", &self.records.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unifyfl_data::SyntheticConfig;
    use unifyfl_storage::{IpfsNetwork, LinkProfile};
    use unifyfl_tensor::zoo::InputKind;

    fn setup(attack: Option<AttackKind>) -> (ClusterNode, Dataset) {
        let mut cfg = SyntheticConfig::cifar10_like(400);
        cfg.input = InputKind::Flat(16);
        cfg.n_classes = 4;
        cfg.noise_scale = 0.4;
        cfg.label_noise = 0.0;
        let data = cfg.generate(3);
        let spec = ModelSpec::mlp(16, vec![32], 4);
        let net = IpfsNetwork::new();
        let node = net.add_node(LinkProfile::lan());
        let mut config = ClusterConfig::gpu("test-cluster");
        config.attack = attack;
        let init = spec.build(99).flat_params();
        let cluster = ClusterNode::try_new(config, spec, &data, init, node, 7).unwrap();
        (cluster, data)
    }

    #[test]
    fn construction_splits_holdout_and_clients() {
        let (cluster, data) = setup(None);
        assert!(!cluster.local_test().is_empty());
        assert_eq!(
            cluster.train_samples() + cluster.local_test().len(),
            data.len()
        );
    }

    #[test]
    fn local_round_changes_weights() {
        let (mut cluster, _) = setup(None);
        let before = cluster.weights().to_vec();
        cluster.run_local_round(&mut Vec::new(), Lanes::Host, 1, 16, 0.05);
        assert_ne!(cluster.weights(), before.as_slice());
    }

    #[test]
    fn publish_stores_on_ipfs_and_increments_nonce() {
        let (mut cluster, _) = setup(None);
        let orch = Address::from_label("orch");
        let cid = cluster.store_model(1);
        assert_eq!(cluster.last_published(), Some(cid));
        assert!(cluster.ipfs().has_local(cid));
        let tx = cluster.submit_model_tx(orch, &cid);
        assert_eq!(tx.nonce, 0);
        cluster.run_local_round(&mut Vec::new(), Lanes::Host, 1, 16, 0.05);
        let cid2 = cluster.store_model(2);
        let tx2 = cluster.submit_model_tx(orch, &cid2);
        assert_eq!(tx2.nonce, 1);
    }

    #[test]
    fn storing_without_submitting_does_not_consume_nonce() {
        // A straggler stores its model but never gets to submit; its next
        // transaction must still use the unconsumed nonce.
        let (mut cluster, _) = setup(None);
        let orch = Address::from_label("orch");
        let _cid = cluster.store_model(1);
        let tx = cluster.next_tx(orch, vec![0x01]);
        assert_eq!(tx.nonce, 0);
    }

    #[test]
    fn malicious_cluster_publishes_corrupted_weights() {
        let (mut honest, _) = setup(None);
        let (mut evil, _) = setup(Some(AttackKind::SignFlip));
        // Same data/seed: identical local weights, different published CIDs.
        honest.run_local_round(&mut Vec::new(), Lanes::Host, 1, 16, 0.05);
        evil.run_local_round(&mut Vec::new(), Lanes::Host, 1, 16, 0.05);
        assert_eq!(honest.weights(), evil.weights());
        let cid_h = honest.store_model(1);
        let cid_e = evil.store_model(1);
        assert_ne!(cid_h, cid_e, "attack must change the published bytes");
    }

    #[test]
    fn merge_peers_averages_models() {
        let (mut cluster, _) = setup(None);
        let n = cluster.weights().len();
        cluster.server.set_weights(vec![0.0; n]);
        let merged = cluster.merge_peers(vec![vec![3.0; n]]);
        assert_eq!(merged, 1);
        assert!(cluster.weights().iter().all(|w| (*w - 1.5).abs() < 1e-6));
        // Empty merge is a no-op.
        assert_eq!(cluster.merge_peers(Vec::new()), 0);
    }

    #[test]
    fn merge_peers_weighted_favors_high_precision() {
        let (mut cluster, _) = setup(None);
        let n = cluster.weights().len();
        cluster.server.set_weights(vec![0.0; n]);
        // Peer precisions 3:1; self enters at their mean (2). Total 6 →
        // merged = (3·6 + 1·0 + 2·0) / 6 = 3.
        let merged = cluster.merge_peers_weighted(vec![(vec![6.0; n], 3.0), (vec![0.0; n], 1.0)]);
        assert_eq!(merged, 2);
        assert!(
            cluster.weights().iter().all(|w| (*w - 3.0).abs() < 1e-5),
            "{:?}",
            &cluster.weights()[..4.min(n)]
        );
        // Equal precisions reduce to the plain equal-weight merge.
        cluster.server.set_weights(vec![0.0; n]);
        cluster.merge_peers_weighted(vec![(vec![3.0; n], 5.0)]);
        assert!(cluster.weights().iter().all(|w| (*w - 1.5).abs() < 1e-6));
        assert_eq!(cluster.merge_peers_weighted(Vec::new()), 0);
    }

    #[test]
    fn drift_fires_once_and_rotates_the_task() {
        let (cluster, data) = setup(None);
        let mut cfg = cluster.config().clone();
        cfg.drift = Some(DriftSpec {
            at_round: 3,
            class_shift: 1,
        });
        let spec = cluster.spec().clone();
        let net = IpfsNetwork::new();
        let init = spec.build(99).flat_params();
        let mut c =
            ClusterNode::try_new(cfg, spec, &data, init, net.add_node(LinkProfile::lan()), 7)
                .unwrap();
        let before = c.local_test().class_histogram();
        assert!(!c.maybe_drift(1), "too early");
        assert!(!c.maybe_drift(2), "too early");
        assert!(c.maybe_drift(3), "fires at its round");
        assert!(!c.maybe_drift(4), "fires only once");
        let after = c.local_test().class_histogram();
        assert_ne!(before, after, "holdout labels rotated");
        for (cls, &count) in before.iter().enumerate() {
            assert_eq!(after[(cls + 1) % before.len()], count);
        }
    }

    #[test]
    fn drift_degrades_a_trained_model() {
        let (mut cluster, _) = setup(None);
        for _ in 0..5 {
            cluster.run_local_round(&mut Vec::new(), Lanes::Host, 2, 16, 0.05);
        }
        let mut shell = EvalShell::default();
        let before = cluster.score_weights(&mut shell, cluster.weights());
        cluster.config.drift = Some(DriftSpec {
            at_round: 1,
            class_shift: 2,
        });
        assert!(cluster.maybe_drift(1));
        let after = cluster.score_weights(&mut shell, cluster.weights());
        assert!(
            after < before - 0.2,
            "trained model must crater on the rotated task: {before} -> {after}"
        );
    }

    #[test]
    fn score_is_higher_for_trained_model() {
        let (mut cluster, _) = setup(None);
        let mut shell = EvalShell::default();
        let init_score = cluster.score_weights(&mut shell, cluster.weights());
        for _ in 0..5 {
            cluster.run_local_round(&mut Vec::new(), Lanes::Host, 2, 16, 0.05);
        }
        let trained_score = cluster.score_weights(&mut shell, cluster.weights());
        assert!([init_score, trained_score]
            .iter()
            .all(|s| (0.0..=1.0).contains(s)));
        assert!(
            trained_score > init_score + 0.15,
            "{init_score} -> {trained_score}"
        );
    }

    #[test]
    fn durations_scale_with_straggle_factor() {
        // Use a spec with a large *virtual* parameter count so durations
        // are comfortably above millisecond resolution.
        let mut cfg = SyntheticConfig::cifar10_like(400);
        cfg.input = InputKind::Flat(16);
        cfg.n_classes = 4;
        let data = cfg.generate(3);
        let mut spec = ModelSpec::mlp(16, vec![32], 4);
        spec.virtual_params = Some(100_000_000);
        let net = IpfsNetwork::new();
        let init = spec.build(99).flat_params();
        let fast = ClusterNode::try_new(
            ClusterConfig::gpu("fast"),
            spec.clone(),
            &data,
            init.clone(),
            net.add_node(LinkProfile::lan()),
            7,
        )
        .unwrap();
        let mut slow_cfg = ClusterConfig::gpu("slow");
        slow_cfg.straggle_factor = 3.0;
        let slow = ClusterNode::try_new(
            slow_cfg,
            spec,
            &data,
            init,
            net.add_node(LinkProfile::lan()),
            7,
        )
        .unwrap();
        assert_eq!(
            slow.train_duration(2).as_millis(),
            fast.train_duration(2).as_millis() * 3
        );
        assert!(slow.score_duration() > fast.score_duration());
    }

    #[test]
    fn warmup_forces_self_policy() {
        let (cluster, data) = setup(None);
        let mut cfg = cluster.config().clone();
        cfg.warmup_self_rounds = 3;
        cfg.policy = AggregationPolicy::TopK(3);
        let spec = cluster.spec().clone();
        let net = IpfsNetwork::new();
        let init = spec.build(99).flat_params();
        let c = ClusterNode::try_new(cfg, spec, &data, init, net.add_node(LinkProfile::lan()), 7)
            .unwrap();
        assert_eq!(c.effective_policy(1), AggregationPolicy::SelfOnly);
        assert_eq!(c.effective_policy(3), AggregationPolicy::SelfOnly);
        assert_eq!(c.effective_policy(4), AggregationPolicy::TopK(3));
    }

    #[test]
    fn virtual_costs_use_cost_params() {
        // The proxy VGG16 charges 138M params even though it trains a small
        // MLP, so durations must dwarf the small model's.
        let (cluster, _data) = setup(None);
        let small_train = cluster.train_duration(2);
        let vgg_spec = ModelSpec::proxy_vgg16(4);
        // The 552 MB virtual wire size dominates the tiny model's training.
        let vgg_fetch = DeviceProfile::gpu_node().transfer_time(vgg_spec.wire_bytes());
        assert!(
            vgg_fetch > small_train,
            "552MB transfer dominates tiny training"
        );
    }
}
