//! Service tier — the determinism and resume contract of the daemon layer
//! (`core::service`).
//!
//! Two properties make the service safe to run as middleware:
//!
//! 1. **Isolation** — a run's report is a pure function of its
//!    configuration. Stepping it in bounded slices interleaved with dozens
//!    of concurrent neighbours on a shared worker pool must produce a
//!    report **byte-identical** (full `Debug` rendering, chaos and
//!    transfer sections included) to running it alone, across seeds,
//!    modes, lane settings and chaos.
//! 2. **Resume identity** — a checkpoint (config + fired-event trace)
//!    taken at *any* event boundary, rebuilt in a fresh process-state and
//!    replay-verified, must complete to a report byte-identical to the
//!    uninterrupted run.
//!
//! Both properties are proptest-pinned here, the second also through a
//! full service restart.

use proptest::prelude::*;
use unifyfl::core::experiment::{run_experiment, ExperimentBuilder, ExperimentConfig, Mode};
use unifyfl::core::service::{ExperimentService, RunCheckpoint, RunState, ServiceConfig};
use unifyfl::core::{ChaosConfig, Lanes};

fn mild_chaos() -> ChaosConfig {
    ChaosConfig {
        crash_prob: 0.2,
        spike_prob: 0.2,
        spike_factor: 1.5,
        fetch_failure_prob: 0.2,
        missed_seal_prob: 0.1,
        ..ChaosConfig::default()
    }
}

fn config(seed: u64, mode: Mode, chaos: bool, lanes: Lanes) -> ExperimentConfig {
    let mut builder = ExperimentBuilder::quickstart()
        .seed(seed)
        .rounds(2)
        .mode(mode)
        .lanes(lanes)
        .label(format!("svc-{seed}-{mode}"));
    if chaos {
        builder = builder.chaos(mild_chaos());
    }
    builder.config().clone()
}

fn debug(report: &unifyfl::core::ExperimentReport) -> String {
    format!("{report:?}")
}

/// Steps a fresh run `cut` events in, snapshots it, resumes from the
/// snapshot and completes — the "interrupt here" experiment.
fn resume_from_cut(config: &ExperimentConfig, cut: usize) -> String {
    let mut state = RunState::new(config).expect("valid config");
    for _ in 0..cut {
        state.step();
    }
    let checkpoint = state.checkpoint();
    drop(state);
    let resumed = RunState::resume(&checkpoint).expect("replay verifies");
    debug(&resumed.run_to_completion())
}

fn total_events(config: &ExperimentConfig) -> usize {
    let mut state = RunState::new(config).expect("valid config");
    let mut n = 0;
    while state.step().is_some() {
        n += 1;
    }
    n
}

proptest! {
    /// Isolation: solo vs. interleaved with concurrent decoys on a shared
    /// pool, across seeds × sync/async × chaos on/off.
    #[test]
    fn report_is_byte_identical_solo_vs_under_concurrent_load(
        seed in any::<u64>(),
        mode_idx in 0usize..2,
        chaos in any::<bool>(),
    ) {
        let mode = [Mode::Sync, Mode::Async][mode_idx];
        let target = config(seed, mode, chaos, Lanes::Host);
        let solo = run_experiment(&target).expect("valid config");

        // Odd slice size + several workers: the target's events interleave
        // with the decoys' at arbitrary boundaries.
        let service = ExperimentService::start(ServiceConfig {
            max_in_flight: 4,
            queue_depth: 8,
            worker_threads: 3,
            slice_events: 7,
        })
        .expect("valid service config");
        let decoys: Vec<_> = (1..=3u64)
            .map(|i| {
                let decoy_mode = [Mode::Async, Mode::Sync][mode_idx];
                let cfg = config(seed.wrapping_add(i), decoy_mode, !chaos, Lanes::Host);
                service.submit(cfg).expect("admitted")
            })
            .collect();
        let handle = service.submit(target).expect("admitted");
        let outcome = handle.wait();
        let report = outcome.report().expect("target completes");
        prop_assert_eq!(
            debug(report),
            debug(&solo),
            "concurrent load must not leak into a run (seed {}, {}, chaos {})",
            seed,
            mode,
            chaos
        );
        for decoy in decoys {
            prop_assert!(decoy.wait().is_completed(), "decoys complete too");
        }
        service.shutdown();
    }

    /// Resume identity at a random cut, across seeds × lane settings: a
    /// checkpoint taken after `cut` events completes to the solo report.
    #[test]
    fn checkpoint_at_a_random_event_resumes_to_the_solo_report(
        seed in any::<u64>(),
        engine_idx in 0usize..2,
        cut_raw in any::<u16>(),
    ) {
        let lanes = [Lanes::One, Lanes::Host][engine_idx];
        let mode = [Mode::Sync, Mode::Async][(seed % 2) as usize];
        let cfg = config(seed, mode, seed.is_multiple_of(3), lanes);
        let solo = debug(&run_experiment(&cfg).expect("valid config"));
        let total = total_events(&cfg);
        prop_assert!(total > 0, "a run fires events");
        let cut = cut_raw as usize % (total + 1);
        prop_assert_eq!(
            resume_from_cut(&cfg, cut),
            solo,
            "resume must be identical (seed {}, {}, {:?}, cut {}/{})",
            seed,
            mode,
            lanes,
            cut,
            total
        );
    }
}

/// The acceptance bar's headline scenario, pinned: one target interleaved
/// with **50** concurrent neighbours is byte-identical to the target
/// running alone.
#[test]
fn run_alongside_fifty_others_is_byte_identical_to_solo() {
    let target = config(42, Mode::Sync, true, Lanes::Host);
    let solo = run_experiment(&target).expect("valid config");

    let service = ExperimentService::start(ServiceConfig {
        max_in_flight: 8,
        queue_depth: 48,
        worker_threads: 4,
        slice_events: 5,
    })
    .expect("valid service config");
    // Submit the target first so it executes while the burst lands.
    let handle = service.submit(target).expect("admitted");
    let decoys: Vec<_> = (0..50u64)
        .map(|i| {
            let mode = if i.is_multiple_of(2) {
                Mode::Async
            } else {
                Mode::Sync
            };
            let cfg = config(1000 + i, mode, i.is_multiple_of(3), Lanes::Host);
            service.submit(cfg).expect("within bounds")
        })
        .collect();
    let report = handle.wait();
    assert_eq!(
        debug(report.report().expect("target completes")),
        debug(&solo),
        "fifty concurrent neighbours must not change a single byte"
    );
    let mut completed = 0;
    for decoy in decoys {
        if decoy.wait().is_completed() {
            completed += 1;
        }
    }
    assert_eq!(completed, 50, "every neighbour completes");
    service.shutdown();
}

/// Checkpoint-at-every-event resume identity, pinned for both modes with
/// chaos armed: interrupting at *any* of the run's event boundaries —
/// including before the first event and after the last — resumes to the
/// byte-identical report.
#[test]
fn checkpoint_at_every_event_resumes_identically() {
    for mode in [Mode::Sync, Mode::Async] {
        let cfg = config(7, mode, true, Lanes::Host);
        let solo = debug(&run_experiment(&cfg).expect("valid config"));
        let total = total_events(&cfg);
        assert!(total > 0, "{mode}: a run fires events");
        for cut in 0..=total {
            assert_eq!(
                resume_from_cut(&cfg, cut),
                solo,
                "{mode}: resume from cut {cut}/{total} must be identical"
            );
        }
    }
}

/// A checkpoint survives the text codec: persist the trace as text,
/// decode it back, resume through a service — still byte-identical.
#[test]
fn checkpoint_round_trips_through_text_and_a_fresh_service() {
    let cfg = config(21, Mode::Async, true, Lanes::Host);
    let solo = debug(&run_experiment(&cfg).expect("valid config"));
    let total = total_events(&cfg);
    let mut state = RunState::new(&cfg).expect("valid config");
    for _ in 0..total / 2 {
        state.step();
    }
    let persisted = state.checkpoint().encoded_trace();
    drop(state); // nothing survives but config + text

    let checkpoint =
        RunCheckpoint::from_encoded_trace(cfg, &persisted).expect("persisted trace decodes");
    let service = ExperimentService::start(ServiceConfig {
        max_in_flight: 1,
        queue_depth: 0,
        worker_threads: 1,
        slice_events: 16,
    })
    .expect("valid service config");
    let outcome = service.resume(checkpoint).expect("admitted").wait();
    assert_eq!(
        debug(outcome.report().expect("resumed run completes")),
        solo,
        "a text-persisted checkpoint must resume byte-identically"
    );
    service.shutdown();
}
