//! Unit tests of the contract, call by call.

use std::collections::HashMap;

use unifyfl_sim::SimTime;

use super::*;
use crate::contract::{CallContext, Contract, ContractError};
use crate::types::Address;

fn ctx(sender: Address, entropy: u64) -> CallContext {
    CallContext {
        sender,
        block_number: 1,
        timestamp: SimTime::ZERO,
        entropy,
    }
}

fn aggs(n: usize) -> Vec<Address> {
    (0..n)
        .map(|i| Address::from_label(&format!("agg-{i}")))
        .collect()
}

fn registered(mode: OrchestrationMode, n: usize) -> (UnifyFlContract, Vec<Address>) {
    let mut c = UnifyFlContract::new(Address::from_label("orchestrator"), mode);
    let a = aggs(n);
    for (i, agg) in a.iter().enumerate() {
        c.execute(&ctx(*agg, i as u64), &calls::register()).unwrap();
    }
    (c, a)
}

#[test]
fn register_rejects_duplicates() {
    let (mut c, a) = registered(OrchestrationMode::Sync, 2);
    let err = c.execute(&ctx(a[0], 0), &calls::register()).unwrap_err();
    assert!(err.to_string().contains("already registered"));
    assert_eq!(c.aggregators().len(), 2);
}

#[test]
fn unregistered_sender_cannot_submit() {
    let (mut c, _) = registered(OrchestrationMode::Async, 3);
    let outsider = Address::from_label("outsider");
    let err = c
        .execute(&ctx(outsider, 0), &calls::submit_model("QmX"))
        .unwrap_err();
    assert!(err.to_string().contains("not a registered aggregator"));
}

#[test]
fn sync_full_round_lifecycle() {
    let (mut c, a) = registered(OrchestrationMode::Sync, 4);

    // Submitting before startTraining reverts.
    let err = c
        .execute(&ctx(a[0], 0), &calls::submit_model("QmA"))
        .unwrap_err();
    assert!(err.to_string().contains("submission window closed"));

    c.execute(&ctx(a[0], 0), &calls::start_training()).unwrap();
    assert_eq!(c.round(), 1);
    assert_eq!(c.phase(), Phase::Training);

    for (i, agg) in a.iter().enumerate() {
        c.execute(
            &ctx(*agg, i as u64),
            &calls::submit_model(&format!("Qm{i}")),
        )
        .unwrap();
    }

    // Scoring before startScoring reverts.
    let err = c
        .execute(
            &ctx(a[1], 0),
            &calls::submit_score("Qm0", Score::from_f64(0.5)),
        )
        .unwrap_err();
    assert!(err.to_string().contains("scoring window closed"));

    let out = c.execute(&ctx(a[0], 99), &calls::start_scoring()).unwrap();
    let assignments: Vec<ScorersAssigned> = out
        .logs
        .iter()
        .filter(|l| l.is_event(events::SCORERS_ASSIGNED))
        .map(|l| ScorersAssigned::decode(&l.data).unwrap())
        .collect();
    assert_eq!(assignments.len(), 4);
    for asg in &assignments {
        // Majority of 4 = 3 scorers, never including the submitter.
        assert_eq!(asg.scorers.len(), 3);
        let submitter = c.entry(&asg.cid).unwrap().submitter;
        assert!(!asg.scorers.contains(&submitter));
    }

    // Each assigned scorer scores each model.
    for asg in &assignments {
        for scorer in &asg.scorers {
            c.execute(
                &ctx(*scorer, 0),
                &calls::submit_score(&asg.cid, Score::from_f64(0.42)),
            )
            .unwrap();
        }
    }
    assert!(c.entries().iter().all(ModelEntry::fully_scored));

    c.execute(&ctx(a[0], 0), &calls::end_scoring()).unwrap();
    assert_eq!(c.phase(), Phase::Idle);

    // Late score after window closes reverts (§3.2).
    let late_scorer = assignments[0].scorers[0];
    let err = c
        .execute(
            &ctx(late_scorer, 0),
            &calls::submit_score(&assignments[0].cid, Score::from_f64(0.9)),
        )
        .unwrap_err();
    assert!(err.to_string().contains("scoring window closed"));

    // Every other aggregator's latest model is now visible.
    let latest = c.latest_models_with_scores(Some(a[0]));
    assert_eq!(latest.len(), 3);
    assert!(latest.iter().all(|e| e.scoring_closed));
}

#[test]
fn an_earlier_rounds_entry_cannot_be_scored_in_a_later_scoring_phase() {
    // §3.2: once round 1's scoring window closes, its entries take no more
    // scores, even while round 2's scoring phase is open and the sender
    // is an assigned scorer that has not yet scored the entry. The
    // contract's phase check passes here; only the entry's own closed
    // window can refuse the call.
    let (mut c, a) = registered(OrchestrationMode::Sync, 3);
    c.execute(&ctx(a[0], 0), &calls::start_training()).unwrap();
    c.execute(&ctx(a[0], 0), &calls::submit_model("QmRound1"))
        .unwrap();
    c.execute(&ctx(a[0], 1), &calls::start_scoring()).unwrap();
    let late = c.entry("QmRound1").unwrap().scorers[0];
    c.execute(&ctx(a[0], 0), &calls::end_scoring()).unwrap();

    c.execute(&ctx(a[0], 0), &calls::start_training()).unwrap();
    c.execute(&ctx(a[1], 0), &calls::submit_model("QmRound2"))
        .unwrap();
    c.execute(&ctx(a[0], 2), &calls::start_scoring()).unwrap();
    assert_eq!((c.round(), c.phase()), (2, Phase::Scoring));

    let entry = c.entry("QmRound1").unwrap();
    assert!(entry.scorers.contains(&late) && entry.scores.is_empty());
    let err = c
        .execute(
            &ctx(late, 0),
            &calls::submit_score("QmRound1", Score::from_f64(0.9)),
        )
        .unwrap_err();
    assert!(err.to_string().contains("scoring window closed"), "{err}");
    assert!(c.entry("QmRound1").unwrap().scores.is_empty());
}

#[test]
fn sync_straggler_must_wait_for_next_round() {
    let (mut c, a) = registered(OrchestrationMode::Sync, 3);
    c.execute(&ctx(a[0], 0), &calls::start_training()).unwrap();
    c.execute(&ctx(a[0], 0), &calls::submit_model("QmFast"))
        .unwrap();
    c.execute(&ctx(a[0], 1), &calls::start_scoring()).unwrap();

    // Straggler a[1] tries to submit during scoring: rejected.
    let err = c
        .execute(&ctx(a[1], 0), &calls::submit_model("QmLate"))
        .unwrap_err();
    assert!(err.to_string().contains("submission window closed"));

    c.execute(&ctx(a[0], 0), &calls::end_scoring()).unwrap();
    c.execute(&ctx(a[0], 0), &calls::start_training()).unwrap();
    // Next round it succeeds.
    c.execute(&ctx(a[1], 0), &calls::submit_model("QmLate"))
        .unwrap();
    assert_eq!(c.entry("QmLate").unwrap().round, 2);
}

#[test]
fn async_assigns_scorers_immediately() {
    let (mut c, a) = registered(OrchestrationMode::Async, 4);
    let out = c
        .execute(&ctx(a[2], 7), &calls::submit_model("QmAsync"))
        .unwrap();
    let asg = out
        .logs
        .iter()
        .find(|l| l.is_event(events::SCORERS_ASSIGNED))
        .map(|l| ScorersAssigned::decode(&l.data).unwrap())
        .expect("immediate assignment");
    assert_eq!(asg.scorers.len(), 3);
    assert!(!asg.scorers.contains(&a[2]));

    // Scores are accepted right away — no phase gate in async mode.
    c.execute(
        &ctx(asg.scorers[0], 0),
        &calls::submit_score("QmAsync", Score::from_f64(0.3)),
    )
    .unwrap();
    assert_eq!(c.entry("QmAsync").unwrap().scores.len(), 1);
}

#[test]
fn async_rejects_phase_calls() {
    let (mut c, a) = registered(OrchestrationMode::Async, 3);
    assert!(c.execute(&ctx(a[0], 0), &calls::start_training()).is_err());
    assert!(c.execute(&ctx(a[0], 0), &calls::start_scoring()).is_err());
    assert!(c.execute(&ctx(a[0], 0), &calls::end_scoring()).is_err());
}

#[test]
fn only_assigned_scorers_may_score() {
    let (mut c, a) = registered(OrchestrationMode::Async, 5);
    let out = c
        .execute(&ctx(a[0], 3), &calls::submit_model("QmZ"))
        .unwrap();
    let asg = out
        .logs
        .iter()
        .find(|l| l.is_event(events::SCORERS_ASSIGNED))
        .map(|l| ScorersAssigned::decode(&l.data).unwrap())
        .unwrap();
    let unassigned = a
        .iter()
        .find(|x| **x != a[0] && !asg.scorers.contains(x))
        .expect("5 aggs, 3 scorers: someone is unassigned");
    let err = c
        .execute(&ctx(*unassigned, 0), &calls::submit_score("QmZ", Score(1)))
        .unwrap_err();
    assert!(err.to_string().contains("not an assigned scorer"));
}

#[test]
fn duplicate_scores_rejected() {
    let (mut c, a) = registered(OrchestrationMode::Async, 3);
    let out = c
        .execute(&ctx(a[0], 3), &calls::submit_model("QmZ"))
        .unwrap();
    let asg = out
        .logs
        .iter()
        .find(|l| l.is_event(events::SCORERS_ASSIGNED))
        .map(|l| ScorersAssigned::decode(&l.data).unwrap())
        .unwrap();
    let scorer = asg.scorers[0];
    c.execute(&ctx(scorer, 0), &calls::submit_score("QmZ", Score(5)))
        .unwrap();
    let err = c
        .execute(&ctx(scorer, 0), &calls::submit_score("QmZ", Score(6)))
        .unwrap_err();
    assert!(err.to_string().contains("already submitted"));
}

#[test]
fn duplicate_cid_rejected() {
    let (mut c, a) = registered(OrchestrationMode::Async, 3);
    c.execute(&ctx(a[0], 0), &calls::submit_model("QmDup"))
        .unwrap();
    let err = c
        .execute(&ctx(a[1], 1), &calls::submit_model("QmDup"))
        .unwrap_err();
    assert!(err.to_string().contains("already submitted"));
}

#[test]
fn indexed_queries_answer_what_a_scan_of_the_log_answers() {
    // An async log with interleaved submitters, reverted submissions
    // (which must leave the indexes alone) and partial scoring.
    let (mut c, a) = registered(OrchestrationMode::Async, 4);
    for i in 0..12u64 {
        let who = a[(i % 3) as usize];
        let cid = format!("Qm{i}");
        c.execute(&ctx(who, i), &calls::submit_model(&cid)).unwrap();
        assert!(c.execute(&ctx(who, i), &calls::submit_model(&cid)).is_err());
        if i % 2 == 0 {
            let scorer = c.entry(&cid).unwrap().scorers[0];
            c.execute(&ctx(scorer, 0), &calls::submit_score(&cid, Score(i)))
                .unwrap();
        }
    }
    assert_eq!(c.entries().len(), 12);
    for (i, e) in c.entries().iter().enumerate() {
        assert_eq!(c.entry(&e.cid), Some(e), "first match of a scan");
        // Async rounds are per-submitter submission counters.
        assert_eq!(e.round, i as u64 / 3 + 1);
    }
    assert_eq!(c.entry("QmNever"), None);
    for viewer in [None, Some(a[0]), Some(a[3])] {
        let scanned: Vec<&ModelEntry> = c
            .aggregators()
            .iter()
            .filter(|agg| viewer != Some(**agg))
            .filter_map(|agg| {
                c.entries()
                    .iter()
                    .rev()
                    .find(|e| e.submitter == *agg && !e.scores.is_empty())
            })
            .collect();
        assert_eq!(c.latest_models_with_scores(viewer), scanned);
    }
}

#[test]
fn malformed_cid_rejected() {
    let (mut c, a) = registered(OrchestrationMode::Async, 3);
    assert!(c.execute(&ctx(a[0], 0), &calls::submit_model("")).is_err());
    let long = "Q".repeat(200);
    assert!(c
        .execute(&ctx(a[0], 0), &calls::submit_model(&long))
        .is_err());
}

#[test]
fn scorer_sampling_is_entropy_deterministic() {
    let (c, a) = registered(OrchestrationMode::Sync, 5);
    let s1 = c.sample_scorers(a[0], 123);
    let s2 = c.sample_scorers(a[0], 123);
    let s3 = c.sample_scorers(a[0], 456);
    assert_eq!(s1, s2);
    // Majority of 5 = 3.
    assert_eq!(s1.len(), 3);
    // Different entropy usually samples differently; at minimum it must
    // stay a valid subset.
    assert!(s3.iter().all(|s| a.contains(s) && *s != a[0]));
}

#[test]
fn score_fixed_point_round_trips() {
    for v in [0.0, 0.25, 0.5, 0.333333, 1.0] {
        let s = Score::from_f64(v);
        assert!((s.to_f64() - v).abs() < 1e-6);
    }
    assert_eq!(Score::from_f64(-1.0), Score(0));
    assert_eq!(Score::from_f64(f64::NAN), Score(0));
}

#[test]
fn submit_model_delta_records_the_reference() {
    let (mut c, a) = registered(OrchestrationMode::Async, 3);
    c.execute(&ctx(a[0], 0), &calls::submit_model("QmBase"))
        .unwrap();
    let out = c
        .execute(
            &ctx(a[0], 1),
            &calls::submit_model_delta("QmNew", "QmBase", "QmDelta"),
        )
        .unwrap();
    // A delta submission is a full model submission: scorers assigned
    // (async), events emitted.
    assert!(out
        .logs
        .iter()
        .any(|l| l.is_event(events::SCORERS_ASSIGNED)));
    let entry = c.entry("QmNew").unwrap();
    let delta = entry.delta.as_ref().expect("delta reference recorded");
    assert_eq!(delta.base_cid, "QmBase");
    assert_eq!(delta.delta_cid, "QmDelta");
    // A plain submission has no reference.
    assert!(c.entry("QmBase").unwrap().delta.is_none());
}

#[test]
fn submit_model_delta_rejects_malformed_references() {
    let (mut c, a) = registered(OrchestrationMode::Async, 3);
    let err = c
        .execute(&ctx(a[0], 0), &calls::submit_model_delta("QmX", "", "QmD"))
        .unwrap_err();
    assert!(err.to_string().contains("malformed delta reference"));
    let err = c
        .execute(
            &ctx(a[0], 0),
            &calls::submit_model_delta("QmX", "QmX", "QmD"),
        )
        .unwrap_err();
    assert!(err.to_string().contains("must not alias"));
    let long = "Q".repeat(200);
    let err = c
        .execute(
            &ctx(a[0], 0),
            &calls::submit_model_delta("QmX", "QmB", &long),
        )
        .unwrap_err();
    assert!(err.to_string().contains("malformed delta reference"));
    assert!(c.entries().is_empty(), "nothing recorded on revert");
}

#[test]
fn state_digest_covers_delta_references() {
    let (mut c1, a) = registered(OrchestrationMode::Async, 3);
    let (mut c2, _) = registered(OrchestrationMode::Async, 3);
    c1.execute(&ctx(a[0], 0), &calls::submit_model("QmSame"))
        .unwrap();
    c2.execute(
        &ctx(a[0], 0),
        &calls::submit_model_delta("QmSame", "QmB", "QmD"),
    )
    .unwrap();
    assert_ne!(
        c1.state_digest(),
        c2.state_digest(),
        "replicas disagreeing on delta refs must diverge"
    );
}

#[test]
fn state_digest_tracks_mutations() {
    let (mut c, a) = registered(OrchestrationMode::Async, 3);
    let d1 = c.state_digest();
    c.execute(&ctx(a[0], 0), &calls::submit_model("QmD"))
        .unwrap();
    let d2 = c.state_digest();
    assert_ne!(d1, d2);
}

#[test]
fn unknown_tag_is_invalid_input() {
    let (mut c, a) = registered(OrchestrationMode::Sync, 2);
    let err = c.execute(&ctx(a[0], 0), &[0xEE]).unwrap_err();
    assert!(matches!(err, ContractError::InvalidInput(_)));
}

#[test]
fn majority_size_matches_paper_formula() {
    // Paper: majority of (N/2 + 1) scorers.
    for n in 2..=9usize {
        let (c, a) = registered(OrchestrationMode::Sync, n);
        let scorers = c.sample_scorers(a[0], 1);
        let expected = (n / 2 + 1).min(n - 1);
        assert_eq!(scorers.len(), expected, "n={n}");
    }
}

/// A 6-aggregator contract split into two shards of three (even
/// indices shard 0, odd shard 1).
fn sharded(mode: OrchestrationMode, k: Option<usize>) -> (UnifyFlContract, Vec<Address>) {
    let a = aggs(6);
    let map: HashMap<Address, u32> = a
        .iter()
        .enumerate()
        .map(|(i, addr)| (*addr, (i % 2) as u32))
        .collect();
    let mut c =
        UnifyFlContract::new(Address::from_label("orchestrator"), mode).with_sharding(map, k);
    for (i, agg) in a.iter().enumerate() {
        c.execute(&ctx(*agg, i as u64), &calls::register()).unwrap();
    }
    (c, a)
}

#[test]
fn sharded_sampling_stays_intra_shard_and_honors_k() {
    let (c, a) = sharded(OrchestrationMode::Sync, None);
    // Shard majority of 3 = 2 scorers, all from the submitter's shard.
    let scorers = c.sample_scorers(a[0], 7);
    assert_eq!(scorers.len(), 2);
    assert!(scorers.iter().all(|s| c.shard_of(*s) == 0 && *s != a[0]));

    let (c, a) = sharded(OrchestrationMode::Sync, Some(1));
    assert_eq!(c.sample_scorers(a[1], 7).len(), 1);
    // k larger than the shard pool clamps to the pool.
    let (c, a) = sharded(OrchestrationMode::Sync, Some(10));
    assert_eq!(c.sample_scorers(a[1], 7).len(), 2);
}

#[test]
fn empty_topology_matches_unsharded_sampling() {
    // shards = 1 with no k override must be byte-identical to the flat
    // contract — the equivalence discipline the engines rely on.
    let (flat, a) = registered(OrchestrationMode::Sync, 5);
    let mut c = UnifyFlContract::new(Address::from_label("orchestrator"), OrchestrationMode::Sync)
        .with_sharding(HashMap::new(), None);
    for (i, agg) in a.iter().enumerate() {
        c.execute(&ctx(*agg, i as u64), &calls::register()).unwrap();
    }
    for entropy in [1u64, 99, 12345] {
        assert_eq!(
            c.sample_scorers(a[0], entropy),
            flat.sample_scorers(a[0], entropy)
        );
    }
}

#[test]
fn latest_models_view_is_intra_shard() {
    let (mut c, a) = sharded(OrchestrationMode::Async, None);
    for (i, agg) in a.iter().enumerate() {
        c.execute(
            &ctx(*agg, i as u64 + 10),
            &calls::submit_model(&format!("QmS{i}")),
        )
        .unwrap();
    }
    // Score every entry so it becomes visible.
    let cids: Vec<(String, Address)> = c
        .entries()
        .iter()
        .map(|e| (e.cid.clone(), e.scorers[0]))
        .collect();
    for (cid, scorer) in cids {
        c.execute(&ctx(scorer, 0), &calls::submit_score(&cid, Score(5)))
            .unwrap();
    }
    // Viewer a[0] (shard 0) sees only its shard peers a[2], a[4].
    let latest = c.latest_models_with_scores(Some(a[0]));
    assert_eq!(latest.len(), 2);
    assert!(latest
        .iter()
        .all(|e| c.shard_of(e.submitter) == 0 && e.submitter != a[0]));
}

#[test]
fn shard_release_lifecycle_and_digest() {
    let (mut c, a) = sharded(OrchestrationMode::Async, None);
    let d0 = c.state_digest();
    // Only a member of the shard may seal it.
    let err = c
        .execute(&ctx(a[1], 0), &calls::submit_shard_release(0, 1, "QmR0"))
        .unwrap_err();
    assert!(err.to_string().contains("not a member"));

    c.execute(&ctx(a[0], 0), &calls::submit_shard_release(0, 1, "QmR0"))
        .unwrap();
    c.execute(&ctx(a[1], 0), &calls::submit_shard_release(1, 1, "QmR1"))
        .unwrap();
    // Re-sealing the same epoch reverts.
    let err = c
        .execute(&ctx(a[2], 0), &calls::submit_shard_release(0, 1, "QmDup"))
        .unwrap_err();
    assert!(err.to_string().contains("already sealed"));

    c.execute(&ctx(a[2], 0), &calls::submit_shard_release(0, 2, "QmR0b"))
        .unwrap();
    assert_eq!(c.shard_releases().len(), 3);
    assert_eq!(c.latest_shard_release(0).unwrap().cid, "QmR0b");
    assert_eq!(c.latest_shard_release(1).unwrap().cid, "QmR1");
    assert!(c.latest_shard_release(2).is_none());
    // Releases are replicated state: the digest must cover them.
    assert_ne!(c.state_digest(), d0);
}

#[test]
fn update_sharding_replaces_the_map_without_touching_the_digest() {
    let (mut c, a) = sharded(OrchestrationMode::Sync, None);
    let d0 = c.state_digest();
    assert_eq!(c.shard_of(a[1]), 1);

    // An unregistered sender may not regroup.
    let stranger = Address::from_label("stranger");
    let err = c
        .execute(&ctx(stranger, 0), &calls::update_sharding(1, &[]))
        .unwrap_err();
    assert!(err.to_string().contains("not a registered"));

    // Regroup: swap a[0] and a[1] across shards.
    let members: Vec<(Address, u32)> = a
        .iter()
        .enumerate()
        .map(|(i, addr)| {
            let shard = match i {
                0 => 1u32,
                1 => 0,
                other => (other % 2) as u32,
            };
            (*addr, shard)
        })
        .collect();
    let out = c
        .execute(&ctx(a[0], 5), &calls::update_sharding(1, &members))
        .unwrap();
    assert_eq!(out.logs.len(), 1);
    assert_eq!(c.shard_of(a[0]), 1);
    assert_eq!(c.shard_of(a[1]), 0);
    // Scorer sampling follows the new map.
    let scorers = c.sample_scorers(a[0], 7);
    assert!(scorers.iter().all(|s| c.shard_of(*s) == 1 && *s != a[0]));
    // Like the deploy-time map, the regrouped map is topology
    // configuration — the replicated-state digest is unchanged.
    assert_eq!(c.state_digest(), d0);
}
