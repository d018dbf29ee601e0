//! Tier-1: every workload runs end to end at shrunken sizes, untraced and
//! traced, passes its own correctness checks, and emits exactly the
//! catalogue's metrics with finite values.

use unifyfl_benchmark::metrics::{per_layer, END_TO_END};
use unifyfl_benchmark::run::{run, Options};
use unifyfl_benchmark::workloads::Workload;

fn smoke(workload: Workload, traced: bool) {
    let outcome = run(&Options {
        workload,
        seed: 42,
        // One operation (a plain and a spanned one when traced).
        seconds: 1e-3,
        traced,
        smoke: true,
    });
    let name = workload.name();
    assert!(outcome.attempted >= 1, "{name}: nothing attempted");
    assert_eq!(outcome.failed, 0, "{name}: {:?}", outcome.failures);
    let expected: Vec<&str> = if traced {
        per_layer().iter().map(|d| d.name).collect()
    } else {
        END_TO_END.iter().map(|d| d.name).collect()
    };
    let emitted: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        emitted, expected,
        "{name}: emitted names differ from the catalogue"
    );
    for (metric, value) in &outcome.metrics {
        assert!(value.is_finite(), "{name}: {metric} = {value}");
        if !traced {
            assert!(*value > 0.0, "{name}: end-to-end {metric} = {value}");
        }
    }
    assert_eq!(outcome.trace.is_some(), traced);
    if let Some(trace) = &outcome.trace {
        assert!(trace.spans().iter().any(|s| s.name == "op"));
        assert!(trace.spans().iter().any(|s| s.name == "burst"));
    }
}

#[test]
fn train_heavy_smoke() {
    smoke(Workload::TrainHeavy, false);
    smoke(Workload::TrainHeavy, true);
}

#[test]
fn wan_transfer_smoke() {
    smoke(Workload::WanTransfer, false);
    smoke(Workload::WanTransfer, true);
}

#[test]
fn sharded_fleet_smoke() {
    smoke(Workload::ShardedFleet, false);
    smoke(Workload::ShardedFleet, true);
}

#[test]
fn service_burst_smoke() {
    smoke(Workload::ServiceBurst, false);
    smoke(Workload::ServiceBurst, true);
}

#[test]
fn full_size_inputs_are_a_function_of_the_seed() {
    for workload in Workload::ALL {
        let render = |seed| format!("{:?}", workload.configs(seed, false));
        assert_eq!(render(7), render(7), "{}", workload.name());
        assert_ne!(render(7), render(8), "{}", workload.name());
        assert_eq!(workload.configs(7, false).len(), workload.burst_size(false));
    }
}
