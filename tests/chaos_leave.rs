//! Chaos tier — scenario family 2: a cluster leaves the federation
//! permanently (silo churn, the defining hazard of cross-silo FL).
//!
//! The leaver stops producing records at its departure round; the
//! survivors keep training against its last on-chain contribution and must
//! still converge. Both engines are exercised.

use unifyfl::core::experiment::{ExperimentBuilder, ExperimentReport, Mode};
use unifyfl::core::{ChaosConfig, FaultEvent, FaultKind};

const LEAVER: usize = 1;
const LEAVE_ROUND: u64 = 3;
const ROUNDS: usize = 5;

fn leave_config() -> ChaosConfig {
    ChaosConfig::scripted(vec![FaultEvent {
        cluster: LEAVER,
        round: LEAVE_ROUND,
        kind: FaultKind::Leave,
    }])
}

fn run(mode: Mode) -> ExperimentReport {
    ExperimentBuilder::quickstart()
        .seed(11)
        .rounds(ROUNDS)
        .mode(mode)
        .label("chaos-leave")
        .chaos(leave_config())
        .run()
        .expect("chaos config is valid")
}

fn assert_leave_fired(report: &ExperimentReport) {
    assert!(report.chaos.enabled);
    assert_eq!(report.chaos.leaves_fired, 1, "the scripted leave fired");
    let rec = report
        .chaos
        .records
        .iter()
        .find(|r| r.kind == "leave")
        .expect("leave recorded");
    assert_eq!(rec.round, LEAVE_ROUND);
    assert_eq!(rec.cluster, report.aggregators[LEAVER].name);
    assert!(rec.outcome.contains("left"));

    // The leaver's history stops at its last completed round; survivors
    // run the full schedule.
    assert_eq!(report.aggregators[LEAVER].rounds, LEAVE_ROUND - 1);
    for (i, agg) in report.aggregators.iter().enumerate() {
        if i != LEAVER {
            assert_eq!(agg.rounds, ROUNDS as u64, "{} unaffected", agg.name);
        }
    }
}

#[test]
fn sync_federation_survives_a_permanent_leave() {
    let report = run(Mode::Sync);
    assert_leave_fired(&report);
    // Survivors converge: final global beats their first round, and the
    // federation's mean survivor accuracy clears the random-guess floor
    // (4-class task ⇒ 25%) with margin.
    for (i, agg) in report.aggregators.iter().enumerate() {
        if i == LEAVER {
            continue;
        }
        let first = agg.curve.first().unwrap();
        assert!(
            agg.global_accuracy_pct > first.global_accuracy_pct,
            "{} must still learn",
            agg.name
        );
    }
    let survivor_mean = report.mean_global_accuracy_pct(|i| i != LEAVER);
    assert!(survivor_mean > 40.0, "degraded but useful: {survivor_mean}");
}

#[test]
fn async_federation_survives_a_permanent_leave() {
    let report = run(Mode::Async);
    assert_leave_fired(&report);
    for (i, agg) in report.aggregators.iter().enumerate() {
        if i == LEAVER {
            continue;
        }
        let first = agg.curve.first().unwrap();
        assert!(agg.global_accuracy_pct > first.global_accuracy_pct);
    }
    // The chain kept sealing and carrying transactions throughout.
    assert!(report.chain.blocks > 0);
    assert!(report.chain.txs > 0);
}

#[test]
fn leave_is_seed_deterministic() {
    let a = run(Mode::Async);
    let b = run(Mode::Async);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}
