//! The parallel two-phase engine's correctness contract: at the same seed
//! it must produce an [`ExperimentReport`] **byte-identical** (full Debug
//! serialization, chaos and transfer sections included) to the sequential
//! reference engine — for sync and async orchestration, on the happy path
//! and under chaos, through the straggler carryover path and under
//! MultiKRUM scoring.
//!
//! An Async run above the fan-out grain adds the eval lane: under
//! `Engine::Parallel` on a host with a second core its global-test
//! evaluations run on a thread of the run's own and settle at the end, and
//! the report and trace must still be the inline reference's, through a
//! checkpoint and resume too; dropping such a run mid-flight must return.
//!
//! Also home to the `matmul_tn`/`matmul_nt` bit-exactness proptests: the
//! fused kernels the per-cluster threads run in dense-layer backward must
//! match the naive `transpose().matmul()` formulation bit for bit, or
//! released weight CIDs would drift between engine-equal runs.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use unifyfl::core::cluster::ClusterConfig;
use unifyfl::core::events::{encode_trace, Event};
use unifyfl::core::experiment::{
    run_experiment, Engine, ExperimentBuilder, ExperimentConfig, ExperimentReport, LinkModel, Mode,
};
use unifyfl::core::scoring::ScorerKind;
use unifyfl::core::service::{RunCheckpoint, RunState};
use unifyfl::core::{ChaosConfig, FaultEvent, FaultKind};
use unifyfl::sim::{DeviceProfile, SimDuration};
use unifyfl::storage::LinkProfile;
use unifyfl::tensor::zoo::ModelSpec;
use unifyfl::tensor::Tensor;

/// Runs `config` under both engines and returns the two reports.
fn both_engines(mut config: ExperimentConfig) -> (ExperimentReport, ExperimentReport) {
    config.engine = Engine::Sequential;
    let sequential = run_experiment(&config).expect("sequential run");
    config.engine = Engine::Parallel;
    let parallel = run_experiment(&config).expect("parallel run");
    (sequential, parallel)
}

/// Asserts full-report equality via the Debug serialization (every field,
/// every counter — the same check `quickstart_smoke` uses for seed
/// determinism).
fn assert_identical(label: &str, sequential: &ExperimentReport, parallel: &ExperimentReport) {
    assert_eq!(
        format!("{sequential:?}"),
        format!("{parallel:?}"),
        "{label}: parallel engine diverged from the sequential reference"
    );
}

#[test]
fn sync_reports_are_byte_identical() {
    let config = ExperimentBuilder::quickstart()
        .seed(41)
        .rounds(3)
        .mode(Mode::Sync)
        .config()
        .clone();
    let (s, p) = both_engines(config);
    assert_identical("sync happy path", &s, &p);
    // Sanity: the run actually did federated work.
    assert!(s.aggregators.iter().all(|a| a.rounds == 3));
    assert!(s.chain.txs > 0);
}

#[test]
fn async_reports_are_byte_identical() {
    let config = ExperimentBuilder::quickstart()
        .seed(43)
        .rounds(3)
        .mode(Mode::Async)
        .config()
        .clone();
    let (s, p) = both_engines(config);
    assert_identical("async happy path", &s, &p);
    assert!(s.aggregators.iter().all(|a| a.rounds == 3));
}

#[test]
fn sync_chaos_reports_are_byte_identical() {
    // Every fault family at once: a crash, a latency spike, clock skew,
    // plus probabilistic storage (fetch/chunk loss) and chain (missed
    // seals, dropped txs) injection. This stresses exactly the orderings
    // the two-phase split must preserve: fault-roll consumption during
    // phase-A fetches, fault-log sequencing during phase-B commits, and
    // retransmission timing across phase boundaries.
    let chaos = ChaosConfig {
        fetch_failure_prob: 0.25,
        chunk_loss_prob: 0.15,
        chunk_retries: 2,
        missed_seal_prob: 0.15,
        dropped_tx_prob: 0.2,
        ..ChaosConfig::scripted(vec![
            FaultEvent {
                cluster: 0,
                round: 2,
                kind: FaultKind::Crash { down_rounds: 1 },
            },
            FaultEvent {
                cluster: 1,
                round: 2,
                kind: FaultKind::LatencySpike { factor: 3.0 },
            },
            FaultEvent {
                cluster: 2,
                round: 1,
                kind: FaultKind::ClockSkew {
                    skew: SimDuration::from_secs(30),
                },
            },
        ])
    };
    let config = ExperimentBuilder::quickstart()
        .seed(47)
        .rounds(4)
        .mode(Mode::Sync)
        .chaos(chaos)
        .config()
        .clone();
    let (s, p) = both_engines(config);
    assert_identical("sync chaos", &s, &p);
    // The faults really fired (otherwise this test proves nothing).
    assert!(s.chaos.enabled);
    assert!(s.chaos.crashes_fired > 0, "crash must fire");
    assert!(s.chaos.skews_fired > 0, "skew must fire");
    assert!(
        s.chaos.fetch_failures + s.chaos.chunk_losses > 0,
        "storage faults must fire"
    );
    assert!(
        s.chaos.missed_seals + s.chaos.dropped_txs > 0,
        "chain faults must fire"
    );
}

#[test]
fn async_chaos_reports_are_byte_identical() {
    let chaos = ChaosConfig {
        fetch_failure_prob: 0.2,
        dropped_tx_prob: 0.15,
        ..ChaosConfig::scripted(vec![FaultEvent {
            cluster: 1,
            round: 2,
            kind: FaultKind::Crash { down_rounds: 1 },
        }])
    };
    let config = ExperimentBuilder::quickstart()
        .seed(53)
        .rounds(3)
        .mode(Mode::Async)
        .chaos(chaos)
        .config()
        .clone();
    let (s, p) = both_engines(config);
    assert_identical("async chaos", &s, &p);
    assert!(s.chaos.enabled && s.chaos.crashes_fired > 0);
}

#[test]
fn sync_straggler_carryover_reports_are_byte_identical() {
    // A 50x straggler exercises the carryover commit path (store-and-hold,
    // next-round submission, no pull/train) in both engines.
    let mut config = ExperimentBuilder::quickstart()
        .seed(59)
        .rounds(4)
        .mode(Mode::Sync)
        .config()
        .clone();
    config.clusters[2].straggle_factor = 50.0;
    let (s, p) = both_engines(config);
    assert_identical("sync straggler", &s, &p);
    assert!(
        s.aggregators[2].straggler_rounds > 0,
        "the slow cluster must actually straggle"
    );
}

#[test]
fn sync_multikrum_reports_are_byte_identical() {
    // MultiKRUM adds the full-round fetch pass at scoring-phase start and
    // the Ready-score path through the scoring step.
    let config = ExperimentBuilder::quickstart()
        .seed(61)
        .rounds(3)
        .mode(Mode::Sync)
        .scorer(ScorerKind::MultiKrum)
        .config()
        .clone();
    let (s, p) = both_engines(config);
    assert_identical("sync multikrum", &s, &p);
}

#[test]
fn sync_multikrum_partial_round_reports_are_byte_identical() {
    // A straggler shrinks the MultiKRUM submission set below the cluster
    // count from round 2 on, so the Byzantine bound must be derived from
    // the models actually scored (5 clusters, 4 submissions → f = 0,
    // admissible) rather than the federation size (f = 1, inadmissible
    // for 4 models).
    use unifyfl::sim::DeviceProfile;
    let mut clusters: Vec<ClusterConfig> = (0..5)
        .map(|i| ClusterConfig::edge(format!("agg-{i}"), DeviceProfile::edge_cpu()))
        .collect();
    clusters[4].straggle_factor = 50.0;
    let config = ExperimentBuilder::quickstart()
        .seed(71)
        .rounds(3)
        .mode(Mode::Sync)
        .scorer(ScorerKind::MultiKrum)
        .clusters(clusters)
        .config()
        .clone();
    let (s, p) = both_engines(config);
    assert_identical("sync multikrum partial round", &s, &p);
    assert!(
        s.aggregators[4].straggler_rounds > 0,
        "the slow cluster must straggle so the round is partial"
    );
}

#[test]
fn heterogeneous_cluster_counts_stay_identical() {
    // 5 clusters (odd, > cpu parity) through the sync engine.
    use unifyfl::sim::DeviceProfile;
    let clusters: Vec<ClusterConfig> = (0..5)
        .map(|i| ClusterConfig::edge(format!("agg-{i}"), DeviceProfile::edge_cpu()))
        .collect();
    let config = ExperimentBuilder::quickstart()
        .seed(67)
        .rounds(2)
        .mode(Mode::Sync)
        .clusters(clusters)
        .config()
        .clone();
    let (s, p) = both_engines(config);
    assert_identical("sync 5 clusters", &s, &p);
    assert_eq!(s.aggregators.len(), 5);
}

/// Three WAN clusters of the benchmark's `wan_transfer` MLP
/// (16→256→128→4) over three Async rounds: one global-test evaluation is
/// ≈ 6.8 MFLOP, above the fan-out grain, so under `Engine::Parallel` on a
/// host with a second core every training wake hands its two evaluations
/// to the eval lane.
fn eval_lane_config() -> ExperimentConfig {
    let clusters = (0..3)
        .map(|i| {
            ClusterConfig::edge(format!("wan-{i}"), DeviceProfile::edge_cpu())
                .with_link(LinkProfile::wan())
        })
        .collect();
    let mut config = ExperimentBuilder::quickstart()
        .seed(42)
        .rounds(3)
        .mode(Mode::Async)
        .clusters(clusters)
        .link_model(LinkModel::Physical)
        .fetch_ahead(true)
        .config()
        .clone();
    config.workload.model = ModelSpec::mlp(16, vec![256, 128], 4);
    config.workload.dataset.n_samples = 600;
    config
}

/// Whether this host runs the eval lane for [`eval_lane_config`] under
/// `Engine::Parallel`: the evaluation is above the grain, so it comes down
/// to a second core (`taskset -c 0` takes it away).
fn host_runs_the_lane() -> bool {
    std::thread::available_parallelism().is_ok_and(|n| n.get() > 1)
}

/// Runs `config` through the stepping route: its report, its encoded trace
/// and how many evaluations it handed to the eval lane.
fn traced_run(config: &ExperimentConfig) -> (String, String, u64) {
    let mut state = RunState::new(config).expect("valid configuration");
    while state.step().is_some() {}
    let trace = encode_trace(state.trace());
    let (report, fed) = state.finish();
    (format!("{report:?}"), trace, fed.deferred_evals())
}

/// Steps `state` until `wakes` cluster wakes have fired, cutting the run
/// right after one: by then clusters have trained, and the lane may still
/// hold what the last wake handed it.
fn step_through_wakes(state: &mut RunState, wakes: usize) {
    let mut fired = 0;
    while fired < wakes {
        let record = state.step().expect("the run outlasts the cut");
        fired += usize::from(matches!(record.event, Event::ClusterWake { .. }));
    }
}

#[test]
fn eval_lane_runs_match_the_inline_reference_byte_for_byte() {
    let mut config = eval_lane_config();
    config.engine = Engine::Sequential;
    let (s_report, s_trace, s_deferred) = traced_run(&config);
    config.engine = Engine::Parallel;
    let (p_report, p_trace, p_deferred) = traced_run(&config);
    assert_eq!(s_report, p_report, "deferred evaluations moved the report");
    assert_eq!(s_trace, p_trace, "deferred evaluations moved the trace");
    assert!(!s_report.contains("NaN"), "every record settled");
    // The reference evaluates inline; Parallel hands both evaluations of
    // every training wake (3 clusters × 3 rounds) to the lane — unless the
    // host has one core, where no lane starts at all.
    assert_eq!(s_deferred, 0);
    let expected = if host_runs_the_lane() { 2 * 3 * 3 } else { 0 };
    assert_eq!(p_deferred, expected);
}

#[test]
fn eval_lane_records_read_mid_run_are_settled() {
    // A read through `RunState::federation` mid-run sees the records the
    // inline reference holds at the same event, not placeholders.
    let records_after = |engine, events| {
        let mut config = eval_lane_config();
        config.engine = engine;
        let mut state = RunState::new(&config).expect("valid configuration");
        for _ in 0..events {
            state.step().expect("the run outlasts the cut");
        }
        let fed = state.federation();
        let records: Vec<_> = fed.clusters.iter().map(|c| c.records.clone()).collect();
        format!("{records:?}")
    };
    for events in [12, 30] {
        let inline = records_after(Engine::Sequential, events);
        assert!(inline.contains("round: 1"), "{events} events train a round");
        assert_eq!(records_after(Engine::Parallel, events), inline);
    }
}

#[test]
fn eval_lane_resumed_checkpoint_matches_the_uninterrupted_run() {
    let config = eval_lane_config();
    let (uninterrupted, _, _) = traced_run(&config);
    let mut state = RunState::new(&config).expect("valid configuration");
    step_through_wakes(&mut state, 5);
    let snapshot = state.checkpoint();
    drop(state);
    let checkpoint =
        RunCheckpoint::from_encoded_trace(snapshot.config.clone(), &snapshot.encoded_trace())
            .expect("an encoded trace decodes");
    let resumed = RunState::resume(&checkpoint).expect("the checkpoint replays");
    assert_eq!(format!("{:?}", resumed.run_to_completion()), uninterrupted);
}

#[test]
fn dropping_a_run_with_the_eval_lane_busy_returns_promptly() {
    let config = eval_lane_config();
    let mut state = RunState::new(&config).expect("valid configuration");
    step_through_wakes(&mut state, 6);
    let started = Instant::now();
    drop(state);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "dropping took {:?}",
        started.elapsed()
    );
}

proptest! {
    /// `matmul_tn` must match `transpose().matmul()` bit for bit on
    /// arbitrary shapes and values (including exact zeros, which both
    /// kernels skip).
    #[test]
    fn matmul_tn_is_bit_exact(
        k in 1usize..8,
        m in 1usize..8,
        n in 1usize..8,
        seed in any::<u64>(),
    ) {
        let (a, b) = random_operands(k * m, k * n, seed);
        let a = Tensor::from_vec(vec![k, m], a);
        let b = Tensor::from_vec(vec![k, n], b);
        let fused = a.matmul_tn(&b);
        let naive = a.transpose().matmul(&b);
        prop_assert_eq!(fused.shape(), naive.shape());
        for (x, y) in fused.data().iter().zip(naive.data()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// `matmul_nt` must match `matmul(&rhs.transpose())` bit for bit.
    #[test]
    fn matmul_nt_is_bit_exact(
        m in 1usize..8,
        k in 1usize..8,
        n in 1usize..8,
        seed in any::<u64>(),
    ) {
        let (a, b) = random_operands(m * k, n * k, seed);
        let a = Tensor::from_vec(vec![m, k], a);
        let b = Tensor::from_vec(vec![n, k], b);
        let fused = a.matmul_nt(&b);
        let naive = a.matmul(&b.transpose());
        prop_assert_eq!(fused.shape(), naive.shape());
        for (x, y) in fused.data().iter().zip(naive.data()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

/// Deterministic pseudo-random operand buffers with a sprinkling of exact
/// zeros (the kernels' skip branch) and awkward magnitudes.
fn random_operands(len_a: usize, len_b: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64*; map to a value in roughly [-4, 4] with zeros.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let v = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as i32;
        if v % 7 == 0 {
            0.0f32
        } else {
            (v % 1000) as f32 * 0.008
        }
    };
    let a = (0..len_a).map(|_| next()).collect();
    let b = (0..len_b).map(|_| next()).collect();
    (a, b)
}
