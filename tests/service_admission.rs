//! Service tier — admission control and backpressure edges of
//! [`unifyfl::core::service::ExperimentService`].
//!
//! The daemon's inlet is bounded: at most `max_in_flight` runs execute
//! concurrently and at most `queue_depth` submissions wait behind them.
//! Everything past that bound must be a **typed** rejection — never a
//! hang, never a panic — and a draining shutdown must hand every admitted
//! but unfinished run back as a flagged partial (an
//! [`RunOutcome::Interrupted`] checkpoint) rather than silently dropping
//! it.
//!
//! These tests run the service with `worker_threads: 0` (a paused pool)
//! wherever they need deterministic occupancy: nothing executes, so the
//! in-flight and queued populations are exactly what admission decided.

use proptest::prelude::*;
use unifyfl::core::experiment::{ExperimentBuilder, ExperimentConfig};
use unifyfl::core::service::{ExperimentService, RunOutcome, ServiceConfig, ServiceError};
use unifyfl::storage::LinkProfile;

fn tiny(seed: u64) -> ExperimentConfig {
    ExperimentBuilder::quickstart()
        .seed(seed)
        .rounds(2)
        .config()
        .clone()
}

fn paused(max_in_flight: usize, queue_depth: usize) -> ExperimentService {
    ExperimentService::start(ServiceConfig {
        max_in_flight,
        queue_depth,
        worker_threads: 0,
        slice_events: 8,
    })
    .expect("valid service config")
}

proptest! {
    /// Admission admits exactly `max_in_flight + queue_depth` submissions
    /// and rejects the next with [`ServiceError::Saturated`] echoing the
    /// configured bounds — for every small bound combination.
    #[test]
    fn capacity_is_exactly_in_flight_plus_queue_depth(
        max_in_flight in 1usize..4,
        queue_depth in 0usize..4,
        seed in any::<u64>(),
    ) {
        let service = paused(max_in_flight, queue_depth);
        let capacity = max_in_flight + queue_depth;
        for i in 0..capacity {
            prop_assert!(
                service.submit(tiny(seed.wrapping_add(i as u64))).is_ok(),
                "submission {}/{} is within bounds",
                i + 1,
                capacity
            );
        }
        match service.submit(tiny(seed.wrapping_add(capacity as u64))) {
            Err(ServiceError::Saturated {
                max_in_flight: reported_in_flight,
                queue_depth: reported_depth,
            }) => {
                prop_assert_eq!(reported_in_flight, max_in_flight);
                prop_assert_eq!(reported_depth, queue_depth);
            }
            other => prop_assert!(false, "expected Saturated, got {:?}", other.map(|h| h.id())),
        }
        // Shutdown drains every admitted run as a flagged partial.
        let drained = service.shutdown();
        prop_assert_eq!(drained.len(), capacity);
        for (id, outcome) in drained {
            match outcome {
                RunOutcome::Interrupted(checkpoint) => {
                    prop_assert_eq!(
                        checkpoint.events_fired(),
                        0,
                        "{}: paused runs never fired an event",
                        id
                    );
                }
                other => prop_assert!(false, "{}: expected Interrupted, got {:?}", id, other),
            }
        }
    }
}

/// A saturated service regains capacity as runs finish: the queue head is
/// promoted, and a follow-up submission is admitted again.
#[test]
fn capacity_returns_as_runs_complete() {
    let service = ExperimentService::start(ServiceConfig {
        max_in_flight: 1,
        queue_depth: 1,
        worker_threads: 1,
        slice_events: 64,
    })
    .expect("valid service config");
    let first = service.submit(tiny(1)).expect("in-flight slot free");
    let second = service.submit(tiny(2)).expect("queue slot free");
    // The bound may already have cleared (runs are tiny); only a genuine
    // Saturated error is asserted on, completion always is.
    let third = service.submit(tiny(3));
    if let Err(err) = &third {
        assert!(
            matches!(
                err,
                ServiceError::Saturated {
                    max_in_flight: 1,
                    queue_depth: 1
                }
            ),
            "only Saturated is an acceptable rejection, got {err}"
        );
    }
    assert!(first.wait().is_completed());
    assert!(second.wait().is_completed());
    let retry = service
        .submit(tiny(3))
        .expect("capacity must return once the burst drains");
    assert!(retry.wait().is_completed());
    service.shutdown();
}

/// Submissions after shutdown are a typed [`ServiceError::ShuttingDown`],
/// and a second shutdown is idempotent: it re-reports the same outcome
/// table without panicking or changing it.
#[test]
fn shutdown_closes_the_inlet_and_is_idempotent() {
    let service = paused(2, 2);
    let handle = service.submit(tiny(9)).expect("admitted before shutdown");
    let drained = service.shutdown();
    assert_eq!(drained.len(), 1);
    match service.submit(tiny(10)) {
        Err(ServiceError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {:?}", other.map(|h| h.id())),
    }
    let again = service.shutdown();
    assert_eq!(
        again.len(),
        1,
        "a second shutdown re-reports the same outcome table"
    );
    assert_eq!(again[0].0, handle.id());
    assert!(
        matches!(again[0].1, RunOutcome::Interrupted(_)),
        "the drained partial's outcome is unchanged"
    );
}

/// Two `shutdown()` calls racing on one service both drain: the second
/// waits for the first instead of checkpointing runs the first caller's
/// workers are still stepping, so both see the same all-`Completed` table
/// and no handle reports `Interrupted` for a run that later completes.
#[test]
fn concurrent_shutdowns_drain_every_run_exactly_once() {
    let service = ExperimentService::start(ServiceConfig {
        max_in_flight: 2,
        queue_depth: 4,
        worker_threads: 1,
        slice_events: 1,
    })
    .expect("valid service config");
    let handles: Vec<_> = (0..6)
        .map(|i| service.submit(tiny(30 + i)).expect("within bounds"))
        .collect();
    let barrier = std::sync::Barrier::new(2);
    let tables: Vec<Vec<bool>> = std::thread::scope(|s| {
        let stops: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    let table = service.shutdown();
                    table.iter().map(|(_, o)| o.is_completed()).collect()
                })
            })
            .collect();
        stops.into_iter().map(|t| t.join().unwrap()).collect()
    });
    for table in &tables {
        assert_eq!(table, &vec![true; 6], "a drain completes every run");
    }
    for handle in &handles {
        assert!(handle.wait().is_completed(), "{}", handle.id());
    }
}

/// An invalid configuration is rejected eagerly with
/// [`ServiceError::Invalid`] and consumes no admission capacity.
#[test]
fn invalid_submission_is_rejected_without_consuming_capacity() {
    let service = paused(1, 0);
    // One structural hole, then the knobs that used to pass admission and
    // abort on a worker (a `Failed` run that had held an in-flight slot).
    let edits: [fn(&mut ExperimentConfig); 8] = [
        |c| c.clusters.truncate(1),
        |c| c.clusters[0].n_clients = 0,
        |c| c.workload.batch_size = 0,
        |c| c.workload.learning_rate = f32::NAN,
        |c| c.workload.learning_rate = f32::INFINITY,
        |c| c.workload.dataset.n_classes = 0,
        |c| c.workload.local_epochs = 0,
        |c| {
            c.clusters[0].link = Some(LinkProfile {
                bandwidth_bps: 0.0,
                ..LinkProfile::wan()
            })
        },
    ];
    for (i, edit) in edits.into_iter().enumerate() {
        let mut broken = tiny(4);
        edit(&mut broken);
        match service.submit(broken) {
            Err(ServiceError::Invalid(_)) => {}
            other => panic!(
                "edit {i}: expected Invalid, got {:?}",
                other.map(|h| h.id())
            ),
        }
    }
    // The slot the invalid submission did NOT consume is still free.
    service
        .submit(tiny(5))
        .expect("capacity untouched by the rejected submission");
    let drained = service.shutdown();
    assert_eq!(drained.len(), 1, "only the valid submission was admitted");
}

/// Drained partials from a paused service resume to the same report a
/// fresh run produces: a queued-but-never-started run loses nothing.
#[test]
fn drained_partials_resume_to_the_full_report() {
    let config = tiny(11);
    let solo = unifyfl::core::run_experiment(&config).expect("valid config");

    let service = paused(1, 0);
    let handle = service.submit(config).expect("admitted");
    let drained = service.shutdown();
    assert_eq!(drained.len(), 1);
    let (id, outcome) = &drained[0];
    assert_eq!(*id, handle.id());
    let checkpoint = outcome
        .checkpoint()
        .expect("paused run drains as a partial");

    let fresh = ExperimentService::start(ServiceConfig {
        max_in_flight: 1,
        queue_depth: 0,
        worker_threads: 1,
        slice_events: 16,
    })
    .expect("valid service config");
    let resumed = fresh
        .resume(checkpoint.clone())
        .expect("partial re-admitted")
        .wait();
    let report = resumed.report().expect("resumed partial completes");
    assert_eq!(
        format!("{report:?}"),
        format!("{solo:?}"),
        "a drained partial must resume to the uninterrupted report"
    );
    fresh.shutdown();
}

/// Service-level knob validation is typed and names the offending knob;
/// no threads are spawned for a config that never validates.
#[test]
fn service_config_validation_is_typed() {
    for (config, knob) in [
        (
            ServiceConfig {
                max_in_flight: 0,
                ..ServiceConfig::default()
            },
            "max_in_flight",
        ),
        (
            ServiceConfig {
                slice_events: 0,
                ..ServiceConfig::default()
            },
            "slice_events",
        ),
    ] {
        match ExperimentService::start(config) {
            Err(ServiceError::InvalidService(named)) => assert_eq!(named, knob),
            other => panic!(
                "expected InvalidService({knob}), got {:?}",
                other.map(|_| "service")
            ),
        }
    }
}
