//! The discrete-event orchestration kernel.
//!
//! Both orchestration engines are policies over one scheduler: a typed
//! [`Event`] stream drained in `(time, key, FIFO)` order from
//! [`unifyfl_sim::EventQueue`], one event per
//! [`RunState::step`](crate::service::RunState::step) — the one
//! queue-draining loop every run takes. The **sync** engine is a *barrier-event*
//! policy — per-cluster completion events are released at the phase-window
//! boundaries, so every cluster's effects commit at the barrier no matter
//! when its work nominally finished — and the **async** engine is a
//! *no-barrier* policy — each cluster's next action fires at its own
//! virtual clock, tie-broken by cluster index. Elastic membership enters
//! as a third event source ([`Event::MembershipChange`]): a cluster
//! configured with [`ClusterConfig::joins_at`](crate::cluster::ClusterConfig::joins_at)
//! registers and bootstraps mid-run when its join event fires.
//!
//! # Determinism contract
//!
//! The kernel replays the exact mutation order of the pre-kernel reference
//! loops: sync schedules its per-cluster `TrainingDone` / `ScoresDue`
//! events at the window close in cluster-index order (FIFO at equal times
//! ⇒ index-order commits), and async schedules each `ClusterWake` keyed by
//! cluster index (⇒ the reference's `min_by_key((clock, idx))` selection).
//! Chain sealing stays *lazy* — blocks seal when virtual time passes their
//! slot during a chain-driving call — because block contents must match
//! the reference's submission interleaving byte for byte; the explicit
//! [`Event::SealSlot`] event is the end-of-run catch-up drain, not a
//! per-period ticker. Every fired event lands in the run's trace
//! ([`EventRecord`]), which `tests/event_kernel.rs` pins bit-for-bit
//! across replays.

use unifyfl_sim::{EventQueue, SimTime};

use crate::federation::Federation;
use crate::orchestration::EngineOutcome;

/// One typed orchestration event.
///
/// `ReleasePublished` from the paper-side vocabulary is not a separate
/// variant: publishing is the tail of [`Event::TrainingDone`] (sync) and of
/// a training [`Event::ClusterWake`] (async), committed atomically with the
/// round's other effects so chain transaction order stays pinned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// A configured cluster joins the federation: register on-chain,
    /// bootstrap from the latest scored releases, start participating.
    MembershipChange {
        /// Joining cluster index.
        cluster: usize,
    },
    /// Sync: open a round's training phase (submit `startTraining`, size
    /// the window, run the two-phase prepare/compute fan-out).
    OpenTraining {
        /// 1-based round.
        round: u64,
    },
    /// Sync barrier policy: one cluster's training outcome commits —
    /// carryover/crash/leave handling, model publish, submission or
    /// straggler hold. Released at the training-window close.
    TrainingDone {
        /// Cluster index.
        cluster: usize,
        /// 1-based round.
        round: u64,
    },
    /// Sync: the training window closes; open scoring (submit
    /// `startScoring`, collect assignments, prepare/compute scores).
    StartScoring {
        /// 1-based round.
        round: u64,
    },
    /// Sync barrier policy: one cluster's scores commit — the clock walk
    /// over its scored models, in-window submissions and window
    /// rejections. Released at the scoring-window close.
    ScoresDue {
        /// Cluster index.
        cluster: usize,
        /// 1-based round.
        round: u64,
    },
    /// Sync: the scoring window closes (`endScoring`); gates the next
    /// round's `OpenTraining`.
    RoundBarrier {
        /// 1-based round.
        round: u64,
    },
    /// Async no-barrier policy: a free-running cluster acts — serve a
    /// scoring duty, absorb a scheduled fault, or run (and publish) its
    /// next training round — then reschedules at its advanced clock.
    ClusterWake {
        /// Cluster index.
        cluster: usize,
    },
    /// Seal every chain slot due up to the event time (the end-of-run
    /// catch-up; mid-run sealing stays lazy, see the module docs).
    SealSlot,
    /// Two-tier topology: each shard's representative seals the shard's
    /// release (merge of its latest scored models), publishes it and
    /// submits it on-chain. Fires on the slower inter-shard cadence.
    ShardSealDue {
        /// 1-based inter-shard exchange epoch.
        epoch: u64,
    },
    /// Two-tier topology: sealed shard releases become visible across
    /// shards — every live cluster fetches the other shards' releases and
    /// folds them into its weights. Follows the epoch's [`Event::ShardSealDue`].
    ShardExchange {
        /// 1-based inter-shard exchange epoch.
        epoch: u64,
    },
    /// Gossip dissemination: one cluster prefetches the epoch's sealed
    /// shard releases along the storage overlay, so the following
    /// [`Event::ShardExchange`] is served locally. Scheduled at the same
    /// instant as the exchange but strictly before it (the kernel pops
    /// same-time events FIFO); charges no virtual time — the transfer
    /// overlaps the idle window the exchange would otherwise spend
    /// fetching.
    PrefetchDue {
        /// Cluster doing the prefetch.
        cluster: usize,
        /// 1-based inter-shard exchange epoch being prefetched.
        epoch: u64,
    },
    /// Fetch/compute overlap: one cluster warms its storage node's cache
    /// with the candidate models the *next* round will pull, while the
    /// current round's compute is still (virtually) running. Scheduled at
    /// the next round's open instant but strictly before its
    /// [`Event::OpenTraining`] / the cluster's training
    /// [`Event::ClusterWake`] (same-time FIFO), and charges no virtual
    /// time — under [`LinkModel::Physical`](crate::federation::LinkModel)
    /// the warmed cache turns the round's pulls into local hits, hiding
    /// transfer behind `train_secs`. Only scheduled when
    /// [`fetch_ahead`](crate::experiment::ExperimentConfig::fetch_ahead)
    /// is enabled, so the default trace is untouched.
    FetchAhead {
        /// Cluster whose node is warmed.
        cluster: usize,
        /// 1-based round being warmed (the round about to open).
        round: u64,
    },
    /// Topology epochs: re-cluster the federation by weight-space distance
    /// — derive the next epoch's [`ShardTopology`](crate::sharding::ShardTopology)
    /// from the clusters' current weights and re-install the gossip
    /// neighborhoods. Fires on the `regroup` cadence (sync: at the
    /// round barrier; async: virtual-time cadence like
    /// [`Event::ShardSealDue`]) and only when regrouping is configured, so
    /// the default trace is untouched.
    RegroupDue {
        /// 1-based topology epoch being derived.
        epoch: u64,
    },
}

impl Event {
    /// Short stable label (for traces and debugging).
    pub fn label(&self) -> &'static str {
        match self {
            Event::MembershipChange { .. } => "membership_change",
            Event::OpenTraining { .. } => "open_training",
            Event::TrainingDone { .. } => "training_done",
            Event::StartScoring { .. } => "start_scoring",
            Event::ScoresDue { .. } => "scores_due",
            Event::RoundBarrier { .. } => "round_barrier",
            Event::ClusterWake { .. } => "cluster_wake",
            Event::SealSlot => "seal_slot",
            Event::ShardSealDue { .. } => "shard_seal_due",
            Event::ShardExchange { .. } => "shard_exchange",
            Event::PrefetchDue { .. } => "prefetch_due",
            Event::FetchAhead { .. } => "fetch_ahead",
            Event::RegroupDue { .. } => "regroup_due",
        }
    }

    /// The cluster the event concerns, if it is cluster-scoped.
    pub fn cluster(&self) -> Option<usize> {
        match self {
            Event::MembershipChange { cluster }
            | Event::TrainingDone { cluster, .. }
            | Event::ScoresDue { cluster, .. }
            | Event::ClusterWake { cluster }
            | Event::PrefetchDue { cluster, .. }
            | Event::FetchAhead { cluster, .. } => Some(*cluster),
            _ => None,
        }
    }
}

/// One fired event in a run's trace: what fired, and when. The trace is a
/// pure function of the experiment configuration — replaying a run yields
/// the identical record sequence bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Virtual instant the event fired.
    pub at: SimTime,
    /// The event.
    pub event: Event,
}

/// An orchestration policy over the kernel: seeds the queue, handles each
/// drained event (scheduling follow-ups as it goes), and finally folds the
/// drained run into its outcome. Object-safe, so a resumable run
/// ([`crate::service::RunState`], whose `step` is the one queue-draining
/// loop) holds either engine behind the trait.
pub(crate) trait EventPolicy {
    /// Schedules the initial events.
    fn seed(&mut self, fed: &mut Federation, queue: &mut EventQueue<Event>);
    /// Handles one fired event at virtual time `at`.
    fn handle(
        &mut self,
        fed: &mut Federation,
        queue: &mut EventQueue<Event>,
        at: SimTime,
        event: Event,
    );
    /// Consumes the drained policy: runs the final merge over the
    /// still-participating clusters — `wave` of them at a time, the
    /// policy's own sizing when `None` — and assembles the outcome.
    fn finish(self: Box<Self>, fed: &mut Federation, wave: Option<usize>) -> EngineOutcome;
}

// ---------------------------------------------------------------------
// Trace serialization: the checkpoint wire format.
// ---------------------------------------------------------------------

/// Error decoding a serialized event trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDecodeError {
    /// 1-based line the decoder choked on.
    pub line: usize,
    /// What was wrong with it.
    pub reason: String,
}

impl std::fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for TraceDecodeError {}

/// Serializes a fired-event trace to a line-oriented text form: one event
/// per line as `<millis> <label> [args…]`, the persistence half of a
/// [`crate::service::RunCheckpoint`]. The encoding is lossless —
/// [`decode_trace`] round-trips it exactly — and stable, so checkpoints
/// survive process restarts.
pub fn encode_trace(trace: &[EventRecord]) -> String {
    let mut out = String::new();
    for record in trace {
        out.push_str(&record.at.as_millis().to_string());
        out.push(' ');
        out.push_str(record.event.label());
        match record.event {
            Event::MembershipChange { cluster } | Event::ClusterWake { cluster } => {
                out.push_str(&format!(" {cluster}"));
            }
            Event::OpenTraining { round }
            | Event::StartScoring { round }
            | Event::RoundBarrier { round } => {
                out.push_str(&format!(" {round}"));
            }
            Event::TrainingDone { cluster, round } | Event::ScoresDue { cluster, round } => {
                out.push_str(&format!(" {cluster} {round}"));
            }
            Event::SealSlot => {}
            Event::ShardSealDue { epoch }
            | Event::ShardExchange { epoch }
            | Event::RegroupDue { epoch } => {
                out.push_str(&format!(" {epoch}"));
            }
            Event::PrefetchDue { cluster, epoch } => {
                out.push_str(&format!(" {cluster} {epoch}"));
            }
            Event::FetchAhead { cluster, round } => {
                out.push_str(&format!(" {cluster} {round}"));
            }
        }
        out.push('\n');
    }
    out
}

/// Decodes a trace serialized by [`encode_trace`]. Blank lines are
/// ignored; anything else malformed is a [`TraceDecodeError`].
pub fn decode_trace(text: &str) -> Result<Vec<EventRecord>, TraceDecodeError> {
    let err = |line: usize, reason: &str| TraceDecodeError {
        line,
        reason: reason.to_owned(),
    };
    let mut trace = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let mut parts = raw.split_whitespace();
        let at = parts
            .next()
            .and_then(|t| t.parse::<u64>().ok())
            .map(SimTime::from_millis)
            .ok_or_else(|| err(line, "missing or non-numeric timestamp"))?;
        let label = parts.next().ok_or_else(|| err(line, "missing label"))?;
        let mut arg = |name: &str| -> Result<u64, TraceDecodeError> {
            parts
                .next()
                .and_then(|t| t.parse::<u64>().ok())
                .ok_or_else(|| err(line, &format!("missing or non-numeric {name}")))
        };
        let event = match label {
            "membership_change" => Event::MembershipChange {
                cluster: arg("cluster")? as usize,
            },
            "open_training" => Event::OpenTraining {
                round: arg("round")?,
            },
            "training_done" => Event::TrainingDone {
                cluster: arg("cluster")? as usize,
                round: arg("round")?,
            },
            "start_scoring" => Event::StartScoring {
                round: arg("round")?,
            },
            "scores_due" => Event::ScoresDue {
                cluster: arg("cluster")? as usize,
                round: arg("round")?,
            },
            "round_barrier" => Event::RoundBarrier {
                round: arg("round")?,
            },
            "cluster_wake" => Event::ClusterWake {
                cluster: arg("cluster")? as usize,
            },
            "seal_slot" => Event::SealSlot,
            "shard_seal_due" => Event::ShardSealDue {
                epoch: arg("epoch")?,
            },
            "shard_exchange" => Event::ShardExchange {
                epoch: arg("epoch")?,
            },
            "prefetch_due" => Event::PrefetchDue {
                cluster: arg("cluster")? as usize,
                epoch: arg("epoch")?,
            },
            "fetch_ahead" => Event::FetchAhead {
                cluster: arg("cluster")? as usize,
                round: arg("round")?,
            },
            "regroup_due" => Event::RegroupDue {
                epoch: arg("epoch")?,
            },
            other => return Err(err(line, &format!("unknown event label {other:?}"))),
        };
        if parts.next().is_some() {
            return Err(err(line, "trailing tokens"));
        }
        trace.push(EventRecord { at, event });
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn sample_trace() -> Vec<EventRecord> {
        let rec = |at: u64, event: Event| EventRecord {
            at: SimTime::from_millis(at),
            event,
        };
        vec![
            rec(0, Event::MembershipChange { cluster: 2 }),
            rec(10, Event::OpenTraining { round: 1 }),
            rec(
                25,
                Event::TrainingDone {
                    cluster: 0,
                    round: 1,
                },
            ),
            rec(25, Event::StartScoring { round: 1 }),
            rec(
                40,
                Event::ScoresDue {
                    cluster: 1,
                    round: 1,
                },
            ),
            rec(40, Event::RoundBarrier { round: 1 }),
            rec(55, Event::ClusterWake { cluster: 3 }),
            rec(55, Event::RegroupDue { epoch: 1 }),
            rec(60, Event::ShardSealDue { epoch: 1 }),
            rec(
                60,
                Event::PrefetchDue {
                    cluster: 1,
                    epoch: 1,
                },
            ),
            rec(60, Event::ShardExchange { epoch: 1 }),
            rec(
                70,
                Event::FetchAhead {
                    cluster: 2,
                    round: 3,
                },
            ),
            rec(99, Event::SealSlot),
        ]
    }

    #[test]
    fn trace_codec_round_trips_every_variant() {
        let trace = sample_trace();
        let text = encode_trace(&trace);
        assert_eq!(decode_trace(&text).expect("well-formed"), trace);
        // Stable line shape: millis, label, args.
        assert!(text.starts_with("0 membership_change 2\n"));
        assert!(text.contains("25 training_done 0 1\n"));
        assert!(text.ends_with("99 seal_slot\n"));
    }

    #[test]
    fn trace_codec_ignores_blank_lines_and_rejects_garbage() {
        let trace = sample_trace();
        let text = format!("\n{}\n", encode_trace(&trace));
        assert_eq!(decode_trace(&text).expect("blank lines ok"), trace);

        for (bad, reason_part) in [
            ("abc open_training 1", "timestamp"),
            ("5", "label"),
            ("5 no_such_event", "unknown event label"),
            ("5 open_training", "round"),
            ("5 seal_slot 7", "trailing"),
            ("5 training_done 0", "round"),
        ] {
            let e = decode_trace(bad).expect_err(bad);
            assert_eq!(e.line, 1, "{bad}");
            assert!(
                e.reason.contains(reason_part),
                "{bad}: {} should mention {reason_part}",
                e.reason
            );
            assert!(format!("{e}").contains("trace line 1"));
        }
    }

    #[test]
    fn labels_and_cluster_scope_are_stable() {
        let e = Event::TrainingDone {
            cluster: 3,
            round: 2,
        };
        assert_eq!(e.label(), "training_done");
        assert_eq!(e.cluster(), Some(3));
        assert_eq!(Event::SealSlot.label(), "seal_slot");
        assert_eq!(Event::SealSlot.cluster(), None);
        assert_eq!(Event::OpenTraining { round: 1 }.cluster(), None);
        assert_eq!(
            Event::MembershipChange { cluster: 0 }.label(),
            "membership_change"
        );
        assert_eq!(Event::ShardSealDue { epoch: 1 }.label(), "shard_seal_due");
        assert_eq!(Event::ShardExchange { epoch: 2 }.label(), "shard_exchange");
        assert_eq!(Event::ShardSealDue { epoch: 1 }.cluster(), None);
        assert_eq!(Event::ShardExchange { epoch: 1 }.cluster(), None);
        assert_eq!(Event::RegroupDue { epoch: 1 }.label(), "regroup_due");
        assert_eq!(Event::RegroupDue { epoch: 1 }.cluster(), None);
        assert_eq!(
            Event::PrefetchDue {
                cluster: 3,
                epoch: 1
            }
            .label(),
            "prefetch_due"
        );
        assert_eq!(
            Event::PrefetchDue {
                cluster: 3,
                epoch: 1
            }
            .cluster(),
            Some(3)
        );
        assert_eq!(
            Event::FetchAhead {
                cluster: 4,
                round: 2
            }
            .label(),
            "fetch_ahead"
        );
        assert_eq!(
            Event::FetchAhead {
                cluster: 4,
                round: 2
            }
            .cluster(),
            Some(4)
        );
    }

    proptest! {
        /// `decode_trace` never panics on text made of trace-like tokens: it
        /// decodes, or names the line, and what decodes re-encodes to itself.
        #[test]
        fn decode_trace_never_panics(
            tokens in proptest::collection::vec((0usize..12, any::<u64>()), 0..24),
        ) {
            const WORDS: [&str; 10] = [
                "seal_slot", "training_done", "open_training", "shard_exchange", "fetch_ahead",
                "-1", "18446744073709551616", "\n", "\t", "é",
            ];
            let text: String = tokens
                .iter()
                .map(|&(i, n)| WORDS.get(i).map_or(n.to_string(), |w| w.to_string()) + " ")
                .collect();
            if let Ok(trace) = decode_trace(&text) {
                prop_assert_eq!(decode_trace(&encode_trace(&trace)), Ok(trace));
            }
        }
    }
}
