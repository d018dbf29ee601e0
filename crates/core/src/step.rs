//! The reusable **round step**: one cluster's per-round work split into a
//! two-phase `prepare → compute → commit` pipeline shared by both
//! orchestration engines.
//!
//! The split exists so the engines can overlap wall-clock work without
//! changing results:
//!
//! - **Prepare** (phase A input gathering) runs sequentially in
//!   cluster-index order. It performs every *shared-state* read and
//!   side-effecting fetch: contract candidate queries, policy selection
//!   (which draws from the cluster's RNG), and IPFS fetches (which mutate
//!   per-node caches, global transfer counters and — under chaos — the
//!   fault injector's RNG stream). Keeping these in index order preserves
//!   the exact byte streams a fully sequential run would produce.
//! - **Compute** ([`compute_train`] / [`compute_scores`]) is pure with
//!   respect to everything except the cluster's own state: merging peers,
//!   local training, evaluation and peer-model scoring touch only one
//!   [`ClusterNode`] plus immutable shared references (workload, global
//!   test set) and the model shells of the [`Lane`] it runs on, which
//!   every pass overwrites before reading. So it goes through the one
//!   fan-out ([`compute_all`]) — inline when the phase is too small to pay
//!   for a fork and on one lane (`Lanes::One`, or `Host` on one
//!   core); on bounded lanes otherwise — with no effect on results.
//! - **Evaluation** is the half of a training round nothing downstream
//!   reads: its global-test accuracy and loss only fill the cluster's
//!   round record, which the report reads once the run is done. Every
//!   evaluation runs inline on its compute lane ([`Evals::Inline`]) except
//!   an Async training wake's two, which go to the run's
//!   [`EvalLane`] as weight snapshots ([`Evals::Deferred`]) when one
//!   evaluation reaches the fan-out grain and the lane setting allows a
//!   second lane ([`offloads`](unifyfl_fl::fanout::offloads)). Those
//!   results settle into their records
//!   before anything reads them (`Federation::settle_evals`), so where an
//!   evaluation ran shows in no byte of the run either.
//! - **Commit** (back in the engine) replays every federation mutation —
//!   chain transactions, storage publishes, fault logging, resource bursts
//!   and idle/straggler accounting — sequentially in cluster-index order,
//!   whatever the lane setting.
//!
//! Because prepare and commit are index-ordered and compute is
//! cluster-local, every lane setting produces a byte-identical
//! [`ExperimentReport`](crate::experiment::ExperimentReport) to
//! `Lanes::One` at the same seed (asserted in tier-1 by
//! `tests/engine_parallel.rs`).

use unifyfl_data::{Dataset, WorkloadConfig};
use unifyfl_fl::fanout::{fan_out, Lanes};
use unifyfl_fl::{EvalShell, TrainShell};
use unifyfl_storage::Cid;

use crate::cluster::ClusterNode;
use crate::experiment::ExperimentConfig;
use crate::federation::{EvalLane, EvalSlot, Federation, FetchedPeers, LinkModel};
use unifyfl_sim::SimDuration;

/// What a compute lane keeps warm from phase to phase: the models its
/// clusters' work is loaded into. A cluster owns weights, data and
/// records; the buffers that training and evaluation run on belong to the
/// lane, because a lane computes one cluster at a time — so a federation
/// holds lane-many of them however many clusters and clients it has.
///
/// The two kinds stay apart: an evaluation arena warms to a 256-sample
/// chunk, a training arena to one mini-batch, and a shell that served both
/// would hold the larger for every fit.
#[derive(Default)]
pub struct Lane {
    /// Every global-test and scoring pass made on this lane.
    pub eval: EvalShell,
    /// The training shells of whichever cluster's local round this lane
    /// is running: one per lane of *that* round's own fan-out.
    pub train: Vec<TrainShell>,
}

/// Phase-A inputs for one cluster's training round: the peer models its
/// policy selected (already fetched and validated) and the virtual time
/// the pulls cost.
#[derive(Debug)]
pub struct TrainInputs {
    /// Fetched, length-validated peer weight vectors to merge.
    pub peers: Vec<Vec<f32>>,
    /// Per-peer aggregation precisions (inverse on-chain score variance),
    /// index-aligned with `peers`. Present only when the topology enables
    /// [`adaptive_weighting`](crate::sharding::ShardConfig::adaptive_weighting);
    /// `None` selects the paper's equal-weight merge.
    pub precisions: Option<Vec<f64>>,
    /// Virtual duration of the pulls (`fetch_duration × peers`).
    pub pull: SimDuration,
}

/// The precision of a release given its raw per-scorer scores: the
/// inverse of the scorer-disagreement variance (population variance over
/// the scores, plus a small ε floor so unanimous verdicts stay finite).
/// More scorer agreement → higher precision → a larger share of the
/// adaptive merge.
pub fn score_precision(scores: &[f64]) -> f64 {
    const EPSILON: f64 = 1e-4;
    if scores.is_empty() {
        return 1.0 / EPSILON;
    }
    let n = scores.len() as f64;
    let mean = scores.iter().sum::<f64>() / n;
    let var = scores.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
    1.0 / (var + EPSILON)
}

/// The pure-compute result of one cluster's training round, handed to the
/// engine's commit step.
#[derive(Debug)]
pub struct TrainResult {
    /// Virtual pull duration, carried through from [`TrainInputs`].
    pub pull: SimDuration,
    /// Peer models merged.
    pub peers_merged: usize,
    /// Post-merge (global) accuracy on the global test set; NaN when the
    /// evaluation was [deferred](Evals::Deferred).
    pub global_accuracy: f64,
    /// Post-merge (global) loss on the global test set; NaN when deferred.
    pub global_loss: f64,
    /// Nominal local-training duration. The commit step stretches this
    /// under an injected latency spike.
    pub train: SimDuration,
    /// Post-training (local) accuracy on the global test set; NaN when
    /// deferred.
    pub local_accuracy: f64,
    /// Post-training (local) loss on the global test set; NaN when
    /// deferred.
    pub local_loss: f64,
}

/// Which of a training round's two global-test evaluations a result
/// belongs to, named after the record fields it fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EvalStage {
    /// Of the merged model, before local training.
    Global,
    /// Of the locally trained model.
    Local,
}

/// Where [`compute_train`]'s two global-test evaluations run.
pub enum Evals<'a> {
    /// On the compute lane's own shell, before the round step returns.
    Inline,
    /// On the run's eval lane, from snapshots of the cluster's weights:
    /// the round step returns NaN in their place, and the federation
    /// settles the lane's results into record `record` of cluster
    /// `cluster`.
    Deferred {
        /// The run's eval lane.
        lane: &'a mut EvalLane,
        /// The evaluated cluster's index.
        cluster: usize,
        /// Position the round's record takes in the cluster's history.
        record: usize,
    },
}

impl Evals<'_> {
    /// Evaluates `cluster`'s current weights on `global_test` as `stage`:
    /// now, on `shell`, or by handing a snapshot to the eval lane.
    fn evaluate(
        &mut self,
        stage: EvalStage,
        cluster: &ClusterNode,
        shell: &mut EvalShell,
        global_test: &Dataset,
    ) -> (f64, f64) {
        match self {
            Evals::Inline => {
                let eval = shell.evaluate(cluster.spec(), cluster.weights(), global_test);
                (eval.accuracy, eval.loss)
            }
            Evals::Deferred {
                lane,
                cluster: idx,
                record,
            } => {
                let slot = EvalSlot {
                    cluster: *idx,
                    record: *record,
                    stage,
                };
                lane.hand_off(slot, cluster.spec(), cluster.weights(), global_test);
                (f64::NAN, f64::NAN)
            }
        }
    }
}

/// Gathers one cluster's training-round inputs: queries the contract for
/// scored candidates, runs the aggregation policy (drawing from the
/// cluster's RNG) and fetches the selected peer models.
///
/// Shared-state side effects (RNG draws, transfer accounting, fault-roll
/// consumption) happen here, so engines must call this sequentially in
/// cluster-index order.
pub fn prepare_train(fed: &mut Federation, idx: usize, round: u64) -> TrainInputs {
    // Domain drift fires at the very top of the round, before any policy
    // or fetch decision: from here on the cluster trains, merges and
    // scores against its shifted task. A no-op for undrifted configs.
    fed.clusters[idx].maybe_drift(round);
    let adaptive = fed
        .shard_topology()
        .is_some_and(|topology| topology.config.adaptive_weighting);
    let policy = fed.clusters[idx].effective_policy(round);
    let candidates = fed.candidates_for(idx);
    let scored = fed.scored_candidates(idx, &candidates);
    let self_score = fed.self_score_of(idx);
    let selected = {
        let cluster = &mut fed.clusters[idx];
        policy.select(&scored, self_score, cluster.rng())
    };

    let FetchedPeers { peers, kept, cost } =
        fed.fetch_peers(idx, selected.iter().map(|&i| candidates[i].cid));
    let precisions = adaptive.then(|| {
        kept.iter()
            .map(|&k| score_precision(&candidates[selected[k]].scores))
            .collect()
    });
    TrainInputs {
        peers,
        precisions,
        pull: cost,
    }
}

/// Merges the prepared peers into the cluster's model; returns how many
/// it merged.
fn merge(cluster: &mut ClusterNode, inputs: TrainInputs) -> usize {
    match inputs.precisions {
        Some(precisions) => {
            cluster.merge_peers_weighted(inputs.peers.into_iter().zip(precisions).collect())
        }
        None => cluster.merge_peers(inputs.peers),
    }
}

/// Merges the prepared peers into the cluster's model and evaluates the
/// result on the global test set, inline. Cluster-local; returns
/// `(peers_merged, global_accuracy, global_loss)`.
pub fn merge_eval(
    cluster: &mut ClusterNode,
    shell: &mut EvalShell,
    inputs: TrainInputs,
    global_test: &Dataset,
) -> (usize, f64, f64) {
    let merged = merge(cluster, inputs);
    let eval = shell.evaluate(cluster.spec(), cluster.weights(), global_test);
    (merged, eval.accuracy, eval.loss)
}

/// Estimated real FLOPs of [`compute_train`], for [`compute_all`]: the
/// local round's fits plus the global-test evaluations on either side.
pub fn train_work(cluster: &ClusterNode, workload: &WorkloadConfig, global_test: &Dataset) -> f64 {
    cluster.fit_flops(workload.local_epochs) + 2.0 * cluster.eval_flops(global_test.len())
}

/// One cluster's full training-round compute: merge, evaluate the global
/// model, train locally, evaluate the local model. Touches only the
/// cluster's own state plus immutable shared references, so it may run on
/// a lane of its own — the fits on that lane's shells, over the config's
/// [`Lanes`]. `evals` says where the two evaluations run: on the same lane's
/// eval shell ([`Evals::Inline`], every Sync round), or on the run's eval
/// lane while this one trains ([`Evals::Deferred`], an Async wake above
/// the grain) — the result then carries NaN for both until they settle.
pub fn compute_train(
    cluster: &mut ClusterNode,
    lane: &mut Lane,
    inputs: TrainInputs,
    config: &ExperimentConfig,
    global_test: &Dataset,
    mut evals: Evals<'_>,
) -> TrainResult {
    let (pull, workload) = (inputs.pull, &config.workload);
    let peers_merged = merge(cluster, inputs);
    let (global_accuracy, global_loss) =
        evals.evaluate(EvalStage::Global, cluster, &mut lane.eval, global_test);
    let train = cluster.train_duration(workload.local_epochs);
    cluster.run_local_round(
        &mut lane.train,
        config.lanes,
        workload.local_epochs,
        workload.batch_size,
        workload.learning_rate,
    );
    let (local_accuracy, local_loss) =
        evals.evaluate(EvalStage::Local, cluster, &mut lane.eval, global_test);
    TrainResult {
        pull,
        peers_merged,
        global_accuracy,
        global_loss,
        train,
        local_accuracy,
        local_loss,
    }
}

/// Commit-step effects common to both engines' training rounds, in the
/// exact sequence of the sequential reference: record the pull and
/// (nominal) training bursts, stretch `result.train` under an injected
/// latency spike (logging the fault), and record the aggregator burst.
/// Returns the publish duration for the engine's busy-time arithmetic.
pub fn commit_train_effects(
    fed: &mut Federation,
    idx: usize,
    round: u64,
    result: &mut TrainResult,
) -> SimDuration {
    fed.record_ipfs_burst(result.pull);
    fed.record_training_burst(result.train);
    let spike = fed
        .fault_plan()
        .map(|p| p.latency_factor(idx, round))
        .filter(|f| *f > 1.0);
    if let Some(factor) = spike {
        match fed.config().link_model {
            // Reference model: the spike hits the compute path.
            LinkModel::Nominal => {
                result.train = SimDuration::from_secs_f64(result.train.as_secs_f64() * factor);
                fed.log_fault(idx, round, "latency_spike", "training slowed");
            }
            // Physical link model: latency spikes are *network* events and
            // route through the same links the time model charges — the
            // round's transfers stretch instead of its training.
            LinkModel::Physical => {
                result.pull = SimDuration::from_secs_f64(result.pull.as_secs_f64() * factor);
                fed.log_fault(idx, round, "latency_spike", "transfers slowed");
            }
        }
    }
    let publish = fed.clusters[idx].publish_duration();
    fed.record_agg_burst(result.pull + publish);
    publish
}

/// One scoring duty, prepared for compute: either the score is already
/// known (MultiKRUM's full-round table) or the fetched weights await an
/// inference pass.
#[derive(Debug)]
pub enum ScoreInput {
    /// Score already determined at prepare time (MultiKRUM lookup).
    Ready(f64),
    /// Fetched peer weights to score with the cluster's holdout shard.
    Weights(Vec<f32>),
}

/// A scoring task assigned to a cluster for the round.
#[derive(Debug)]
pub struct ScoreTask {
    /// The model to score.
    pub cid: Cid,
    /// How the score is obtained.
    pub input: ScoreInput,
    /// Virtual fetch cost the commit step charges for this task: the
    /// nominal per-model fetch under [`LinkModel::Nominal`], the storage
    /// layer's physical elapsed under [`LinkModel::Physical`] (zero for
    /// MultiKRUM table lookups — those weights moved once, federation-wide).
    pub fetch_cost: SimDuration,
}

/// A scored model ready to commit: the compute result of one scoring task,
/// carrying its prepare-time fetch cost through to the clock walk.
#[derive(Debug)]
pub struct ScoredModel {
    /// The scored model.
    pub cid: Cid,
    /// Its score.
    pub score: f64,
    /// Fetch cost carried through from [`ScoreTask::fetch_cost`].
    pub fetch_cost: SimDuration,
}

/// Gathers one cluster's scoring tasks for the models in `cids` (the
/// assignments it holds): per model either looks the score up in the
/// MultiKRUM table or fetches the weights through
/// [`Federation::fetch_peers`], one model per call so each task keeps its
/// own cost (fetch side effects — so engines call this sequentially in
/// cluster-index order). A model the fetch skips — unavailable, corrupt or
/// of the wrong length — gets no task, so it is never scored.
pub fn prepare_scoring(
    fed: &Federation,
    idx: usize,
    cids: impl IntoIterator<Item = Cid>,
    krum: Option<&(Vec<Cid>, Vec<f64>)>,
) -> Vec<ScoreTask> {
    let task = |cid: Cid| {
        let (input, fetch_cost) = match krum {
            Some((cids, scores)) => {
                let pos = cids.iter().position(|c| *c == cid);
                (
                    ScoreInput::Ready(pos.map(|p| scores[p]).unwrap_or(0.0)),
                    fed.fetch_cost(idx, SimDuration::ZERO),
                )
            }
            None => {
                let FetchedPeers {
                    mut peers, cost, ..
                } = fed.fetch_peers(idx, [cid]);
                (ScoreInput::Weights(peers.pop()?), cost)
            }
        };
        Some(ScoreTask {
            cid,
            input,
            fetch_cost,
        })
    };
    cids.into_iter().filter_map(task).collect()
}

/// Estimated real FLOPs of [`compute_scores`], for [`compute_all`]: one
/// inference pass over the holdout shard per fetched model.
pub fn scoring_work(cluster: &ClusterNode, tasks: &[ScoreTask]) -> f64 {
    let passes = tasks
        .iter()
        .filter(|t| matches!(t.input, ScoreInput::Weights(_)))
        .count();
    passes as f64 * cluster.eval_flops(cluster.local_test().len())
}

/// Scores the prepared tasks: the compute half of a scoring duty
/// (inference over the cluster's holdout shard, on the lane's shell).
/// Cluster-local and read-only, so it fans out per cluster.
pub fn compute_scores(
    cluster: &ClusterNode,
    shell: &mut EvalShell,
    tasks: Vec<ScoreTask>,
) -> Vec<ScoredModel> {
    tasks
        .into_iter()
        .map(|t| {
            let score = match t.input {
                ScoreInput::Ready(s) => s,
                ScoreInput::Weights(w) => cluster.score_weights(shell, &w),
            };
            ScoredModel {
                cid: t.cid,
                score,
                fetch_cost: t.fetch_cost,
            }
        })
        .collect()
}

/// Books one scored model in both modes' commit order — the scoring
/// burst (fetch plus inference), then the IPFS burst — and returns the
/// time the duty kept the scorer busy: fetch plus inference.
pub fn book_score(fed: &mut Federation, idx: usize, scored: &ScoredModel) -> SimDuration {
    let busy = scored.fetch_cost + fed.clusters[idx].score_duration();
    fed.record_scoring_burst(busy);
    fed.record_ipfs_burst(scored.fetch_cost);
    busy
}

/// Runs the clusters' compute closures (phase A of the round step) over at
/// most `cap`'s lanes. `inputs` is index-aligned with `clusters`; `None`
/// slots (inactive clusters) are skipped. Results come back in index
/// order, and — compute being cluster-local — are identical under any
/// [`Lanes`], as is every downstream report byte.
///
/// The active slots go to the workspace's one fan-out
/// ([`unifyfl_fl::fanout`]): `flops` estimates one slot's work, and a phase
/// whose slots sum below the fan-out's grain — or on one lane, or with ≤ 1
/// active cluster — runs inline on the caller's thread in cluster-index
/// order; above it the slots are split into contiguous chunks over bounded
/// lanes, the caller taking the first.
///
/// `lanes` is the fan-out's lane state — the federation's, kept warm from
/// phase to phase; it must hold at least the caller's own (index 0), which
/// is all an inline phase uses.
///
/// A panicking compute (e.g. a client fit) is re-raised with its original
/// payload after every lane has finished.
pub fn compute_all<I, R, F>(
    clusters: &mut [ClusterNode],
    lanes: &mut Vec<Lane>,
    inputs: Vec<Option<I>>,
    cap: Lanes,
    flops: impl Fn(&ClusterNode, &I) -> f64,
    f: F,
) -> Vec<Option<R>>
where
    I: Send,
    R: Send,
    F: Fn(&mut ClusterNode, &mut Lane, I) -> R + Sync,
{
    debug_assert_eq!(clusters.len(), inputs.len(), "inputs are index-aligned");
    let total: f64 = clusters
        .iter()
        .zip(&inputs)
        .filter_map(|(cluster, input)| Some(flops(cluster, input.as_ref()?)))
        .sum();
    let mut results: Vec<Option<R>> = inputs.iter().map(|_| None).collect();
    // Only the active slots are fanned out, so the lanes are balanced over
    // real work; each keeps its cluster index to land its result.
    let mut active: Vec<(usize, &mut ClusterNode, Option<I>)> = clusters
        .iter_mut()
        .zip(inputs)
        .enumerate()
        .filter_map(|(idx, (cluster, input))| Some((idx, cluster, Some(input?))))
        .collect();
    let computed = fan_out(
        &mut active,
        lanes,
        cap,
        total,
        |lane, (idx, cluster, input)| {
            let input = input.take().expect("each slot runs once");
            (*idx, f(cluster, lane, input))
        },
    )
    .unwrap_or_else(|(_, payload)| std::panic::resume_unwind(payload));
    for (idx, result) in computed {
        results[idx] = Some(result);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;

    #[test]
    fn score_precision_is_inverse_disagreement() {
        // Unanimous scorers: variance 0 → the ε ceiling.
        assert!((score_precision(&[0.7, 0.7, 0.7]) - 1e4).abs() < 1e-6);
        assert!((score_precision(&[]) - 1e4).abs() < 1e-6);
        // Contested release: much lower precision.
        let contested = score_precision(&[0.1, 0.9]);
        assert!(contested < 10.0, "{contested}");
        assert!(score_precision(&[0.5, 0.6]) > contested);
    }

    fn test_clusters(n: usize) -> Vec<ClusterNode> {
        clusters_of(n, vec![8])
    }

    /// `n` three-client clusters of an 8-in, 2-out MLP with `hidden`
    /// layers, over 120 samples.
    fn clusters_of(n: usize, hidden: Vec<usize>) -> Vec<ClusterNode> {
        use crate::policy::AggregationPolicy;
        use unifyfl_data::SyntheticConfig;
        use unifyfl_sim::DeviceProfile;
        use unifyfl_storage::{IpfsNetwork, LinkProfile};
        use unifyfl_tensor::zoo::{InputKind, ModelSpec};

        let mut cfg = SyntheticConfig::cifar10_like(120);
        cfg.input = InputKind::Flat(8);
        cfg.n_classes = 2;
        let data = cfg.generate(5);
        let spec = ModelSpec::mlp(8, hidden, 2);
        let net = IpfsNetwork::new();
        let init = spec.build(5).flat_params();
        (0..n)
            .map(|i| {
                ClusterNode::try_new(
                    ClusterConfig::edge(format!("c{i}"), DeviceProfile::edge_cpu())
                        .with_policy(AggregationPolicy::All),
                    spec.clone(),
                    &data,
                    init.clone(),
                    net.add_node(LinkProfile::lan()),
                    100 + i as u64,
                )
                .unwrap()
            })
            .collect()
    }

    /// The lane state a federation starts with: the caller's own lane.
    fn lanes() -> Vec<Lane> {
        vec![Lane::default()]
    }

    /// A work estimate far above the fan-out's grain: the phase forks
    /// wherever the host has a second core.
    fn heavy(_: &ClusterNode, _: &u32) -> f64 {
        1.0e12
    }

    #[test]
    fn compute_all_forks_only_above_the_grain() {
        let caller = std::thread::current().id();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut clusters = test_clusters(6);
        let threads = |clusters: &mut [ClusterNode], flops: fn(&ClusterNode, &u32) -> f64| {
            let inputs: Vec<Option<u32>> = (0..6).map(Some).collect();
            compute_all(
                clusters,
                &mut lanes(),
                inputs,
                Lanes::Host,
                flops,
                |_cluster, _, _| std::thread::current().id(),
            )
            .into_iter()
            .flatten()
            .collect::<std::collections::HashSet<_>>()
        };
        // A few KFLOP per slot: the whole phase stays on the caller.
        let light = threads(&mut clusters, |cluster, _| cluster.eval_flops(1));
        assert_eq!(light, std::collections::HashSet::from([caller]));
        let forked = threads(&mut clusters, heavy);
        assert!(forked.contains(&caller), "the caller takes the first chunk");
        assert_eq!(forked.len() > 1, cores > 1, "{cores} cores");
        assert!(forked.len() <= 2 * cores);
    }

    #[test]
    fn compute_all_skips_none_slots_and_orders_results() {
        let mut clusters = test_clusters(3);
        // Index-aligned inputs with a skipped middle slot; results come
        // back in index order with the None preserved.
        let inputs = vec![Some(10u32), None, Some(30u32)];
        let results = compute_all(
            &mut clusters,
            &mut lanes(),
            inputs,
            Lanes::Host,
            heavy,
            |cluster, _, v| (cluster.config().name.clone(), v + 1),
        );
        assert_eq!(results.len(), 3);
        assert_eq!(results[0], Some(("c0".to_owned(), 11)));
        assert_eq!(results[1], None);
        assert_eq!(results[2], Some(("c2".to_owned(), 31)));
    }

    #[test]
    fn compute_all_chunks_across_more_clusters_than_cores() {
        // Far more slots than any host has cores: every chunk must come
        // back in index order regardless of how the cap splits them.
        let mut clusters = test_clusters(7);
        let inputs: Vec<Option<u32>> = (0..7).map(|i| (i % 2 == 0).then_some(i)).collect();
        let results = compute_all(
            &mut clusters,
            &mut lanes(),
            inputs,
            Lanes::Host,
            heavy,
            |_cluster, _, v| v * 10,
        );
        let expected: Vec<Option<u32>> = (0..7).map(|i| (i % 2 == 0).then_some(i * 10)).collect();
        assert_eq!(results, expected);
    }

    #[test]
    fn compute_all_runs_single_active_slot_inline() {
        // One active cluster takes the inline path (threads <= 1); the
        // observable contract is unchanged.
        let mut clusters = test_clusters(3);
        let inputs = vec![None, Some(7u32), None];
        let results = compute_all(
            &mut clusters,
            &mut lanes(),
            inputs,
            Lanes::Host,
            heavy,
            |_cluster, _, v| v + 1,
        );
        assert_eq!(results, vec![None, Some(8), None]);
    }

    #[test]
    fn compute_all_sequential_engine_runs_inline_in_index_order() {
        // The reference, one lane, never spawns, however many slots are
        // active: every closure runs on the caller's thread, in order.
        let mut clusters = test_clusters(4);
        let caller = std::thread::current().id();
        let order = std::sync::Mutex::new(Vec::new());
        let inputs: Vec<Option<u32>> = (0..4).map(Some).collect();
        let results = compute_all(
            &mut clusters,
            &mut lanes(),
            inputs,
            Lanes::One,
            heavy,
            |_cluster, _, v| {
                assert_eq!(std::thread::current().id(), caller);
                order.lock().unwrap().push(v);
                v + 1
            },
        );
        assert_eq!(results, vec![Some(1), Some(2), Some(3), Some(4)]);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(Lanes::default(), Lanes::Host);
    }

    #[test]
    fn compute_train_on_one_lane_never_leaves_the_stepping_thread() {
        // The cluster's fits are far over the grain, so the lane setting
        // alone decides whether they fork. A fan-out grows the lane's
        // training shells to the chunks it ran, and every chunk past the
        // first runs on a thread of its own: one shell is one thread.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let global_test = test_clusters(1)[0].local_test().clone();
        let shells_after = |lanes: Lanes| {
            let mut cluster = clusters_of(1, vec![256, 128]).remove(0);
            assert!(cluster.fit_flops(1) > 1.0e7, "{}", cluster.fit_flops(1));
            let mut config = ExperimentConfig {
                lanes,
                ..ExperimentConfig::default()
            };
            config.workload.local_epochs = 1;
            let mut lane = Lane::default();
            let inputs = TrainInputs {
                peers: Vec::new(),
                precisions: None,
                pull: SimDuration::ZERO,
            };
            compute_train(
                &mut cluster,
                &mut lane,
                inputs,
                &config,
                &global_test,
                Evals::Inline,
            );
            lane.train.len()
        };
        assert_eq!(shells_after(Lanes::One), 1);
        assert_eq!(shells_after(Lanes::Host) > 1, cores > 1, "{cores} cores");
    }

    #[test]
    fn compute_all_repropagates_panics_after_joining() {
        let mut clusters = test_clusters(4);
        let inputs = vec![Some(0u32), Some(1u32), Some(2u32), Some(3u32)];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            compute_all(
                &mut clusters,
                &mut lanes(),
                inputs,
                Lanes::Host,
                heavy,
                |_cluster, _, v| {
                    if v == 1 {
                        panic!("compute failed for cluster 1");
                    }
                    v
                },
            )
        }));
        let payload = caught.expect_err("the worker panic must re-raise");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(
            msg.contains("cluster 1"),
            "original payload survives: {msg}"
        );
    }
}
