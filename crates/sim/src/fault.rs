//! Deterministic fault injection: the federation's vocabulary for failure.
//!
//! Cross-silo deployments lose clusters mid-round, suffer latency spikes,
//! watch DHT fetches fail and sealers skip slots — none of which the
//! happy-path schedules exercise. This module defines the shared fault
//! vocabulary every layer consumes:
//!
//! - [`ChaosConfig`] — operator-facing knobs (scripted events + sampling
//!   probabilities), off by default;
//! - [`FaultPlan`] — the fully expanded, deterministic schedule derived
//!   from one seed via [`crate::SeedTree`]; same seed ⇒ byte-identical
//!   event sequence;
//! - [`FaultEvent`]/[`FaultKind`] — cluster-level faults indexed by the
//!   *round structure* (not wall time), so the Sync and Async engines
//!   apply the same plan consistently;
//! - [`FaultRecord`] — what actually happened when a fault fired, collected
//!   into the experiment report.
//!
//! Storage-level (fetch failure, chunk loss) and chain-level (missed seal,
//! dropped transaction) faults are rate-based; their injectors live in the
//! `storage` and `chain` crates and draw their own deterministic streams
//! from seeds this plan derives. The storage injector's caller-level retry
//! accounting splits by outcome (recovered vs. permanently failed), and
//! the bandwidth-aware transfer layer interacts with injection without
//! weakening it: a poisoned fetch can never populate the fetch cache, and
//! a fault hitting a delta-blob transfer is absorbed as a full-fetch
//! fallback rather than surfacing to the engine.
//!
//! Under the storage crate's gossip overlay, fetch-failure faults are
//! additionally rolled **per hop**: a routed fetch traverses intermediate
//! relays, and each relay edge draws its own failure sample from the same
//! deterministic stream, so an armed injector naturally turns long routes
//! into partitions — distant content fails more often than neighboring
//! content, with no topology-specific knobs. Fault-free runs charge hops
//! only in bytes and virtual time, never in results.

use crate::clock::SimDuration;
use crate::rng::SeedTree;

/// A cluster-level fault, scheduled against the round structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The cluster crashes at the start of the round and is down for
    /// `down_rounds` rounds (in-flight work is lost), then restarts.
    Crash {
        /// Number of consecutive rounds the cluster is unavailable.
        down_rounds: u64,
    },
    /// The cluster leaves the federation permanently at the round.
    Leave,
    /// The cluster's training time is multiplied by `factor` for the round
    /// (a co-tenant stealing the GPU, thermal throttling, …).
    LatencySpike {
        /// Multiplier on the round's training duration (≥ 1).
        factor: f64,
    },
    /// The cluster's clock runs behind the federation's by `skew` for the
    /// whole run: its submissions and scores arrive that much later.
    ClockSkew {
        /// How far behind the shared clock the cluster runs.
        skew: SimDuration,
    },
}

impl FaultKind {
    /// Short stable label used in fault records and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Crash { .. } => "crash",
            FaultKind::Leave => "leave",
            FaultKind::LatencySpike { .. } => "latency_spike",
            FaultKind::ClockSkew { .. } => "clock_skew",
        }
    }
}

/// One scheduled fault: which cluster, which round, what happens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Index of the afflicted cluster.
    pub cluster: usize,
    /// 1-based round at which the fault fires (for [`FaultKind::ClockSkew`]
    /// the skew applies from the first round regardless).
    pub round: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// Operator-facing chaos knobs. The default is fully quiescent (no faults).
/// Each knob's domain (every probability in `[0, 1]`, and so on) is
/// declared once, in the experiment layer's knob table, which validates a
/// configuration before any plan is expanded.
///
/// Scripted [`FaultEvent`]s fire exactly as written; the `*_prob` knobs
/// additionally sample faults per cluster-round from the plan seed, so a
/// single `(config, seed)` pair always expands to the same schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Faults that fire exactly as scripted.
    pub events: Vec<FaultEvent>,
    /// Per cluster-round probability of a crash.
    pub crash_prob: f64,
    /// How many rounds (≥ 1) a sampled crash keeps the cluster down.
    pub crash_down_rounds: u64,
    /// Per cluster-round probability of leaving permanently.
    pub leave_prob: f64,
    /// Per cluster-round probability of a training latency spike.
    pub spike_prob: f64,
    /// Multiplier applied by sampled latency spikes.
    pub spike_factor: f64,
    /// Probability a remote CID fetch fails outright (storage layer).
    pub fetch_failure_prob: f64,
    /// Probability an individual chunk transfer is lost (storage layer;
    /// lost chunks are retried with accounting).
    pub chunk_loss_prob: f64,
    /// Retry budget per chunk before the fetch errors out.
    pub chunk_retries: u32,
    /// Probability a due seal slot is missed (chain layer).
    pub missed_seal_prob: f64,
    /// Probability a cluster transaction is dropped in gossip and must be
    /// retransmitted (chain layer).
    pub dropped_tx_prob: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            events: Vec::new(),
            crash_prob: 0.0,
            crash_down_rounds: 1,
            leave_prob: 0.0,
            spike_prob: 0.0,
            spike_factor: 4.0,
            fetch_failure_prob: 0.0,
            chunk_loss_prob: 0.0,
            chunk_retries: 2,
            missed_seal_prob: 0.0,
            dropped_tx_prob: 0.0,
        }
    }
}

impl ChaosConfig {
    /// A plan made only of scripted events (the precise form chaos tests
    /// use).
    pub fn scripted(events: Vec<FaultEvent>) -> Self {
        ChaosConfig {
            events,
            ..ChaosConfig::default()
        }
    }

    /// True if no fault source is configured at all.
    pub fn is_quiescent(&self) -> bool {
        self.events.is_empty()
            && self.crash_prob == 0.0
            && self.leave_prob == 0.0
            && self.spike_prob == 0.0
            && self.fetch_failure_prob == 0.0
            && self.chunk_loss_prob == 0.0
            && self.missed_seal_prob == 0.0
            && self.dropped_tx_prob == 0.0
    }
}

/// The fully expanded, deterministic fault schedule for one run, and the
/// seed its storage and chain injector streams derive from. The layer
/// knobs those injectors run with stay in the [`ChaosConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Expands a [`ChaosConfig`] into a concrete schedule for `n_clusters`
    /// clusters over `rounds` rounds. Scripted events are kept verbatim;
    /// probabilistic faults are sampled per cluster-round from independent
    /// [`SeedTree`] streams, so expansion is a pure function of
    /// `(config, seed, n_clusters, rounds)` and two expansions from the
    /// same inputs are identical event for event.
    pub fn expand(config: &ChaosConfig, seed: u64, n_clusters: usize, rounds: u64) -> FaultPlan {
        use rand::Rng;
        let tree = SeedTree::new(seed);
        let mut events = config.events.clone();
        for cluster in 0..n_clusters {
            for round in 1..=rounds {
                let roll = |label: &str, prob: f64| -> bool {
                    prob > 0.0
                        && tree.rng(&format!("{label}/{cluster}/{round}")).gen::<f64>() < prob
                };
                if roll("crash", config.crash_prob) {
                    events.push(FaultEvent {
                        cluster,
                        round,
                        kind: FaultKind::Crash {
                            down_rounds: config.crash_down_rounds,
                        },
                    });
                }
                if roll("leave", config.leave_prob) {
                    events.push(FaultEvent {
                        cluster,
                        round,
                        kind: FaultKind::Leave,
                    });
                }
                if roll("spike", config.spike_prob) {
                    events.push(FaultEvent {
                        cluster,
                        round,
                        kind: FaultKind::LatencySpike {
                            factor: config.spike_factor.max(1.0),
                        },
                    });
                }
            }
        }
        // Canonical order: by round, then cluster, then kind label, keeping
        // the expansion byte-stable regardless of scripted-event order.
        events.sort_by(|a, b| {
            (a.round, a.cluster, a.kind.label()).cmp(&(b.round, b.cluster, b.kind.label()))
        });
        FaultPlan { seed, events }
    }

    /// The seed the plan (and its layer sub-streams) derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The expanded schedule, in canonical `(round, cluster)` order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Seed for the storage-layer fault stream.
    pub fn storage_seed(&self) -> u64 {
        SeedTree::new(self.seed).seed("storage-faults")
    }

    /// Seed for the chain-layer fault stream.
    pub fn chain_seed(&self) -> u64 {
        SeedTree::new(self.seed).seed("chain-faults")
    }

    /// True if the cluster is unavailable during `round` (covered by a
    /// crash window or already departed).
    pub fn is_down(&self, cluster: usize, round: u64) -> bool {
        self.has_left(cluster, round)
            || self.events.iter().any(|e| {
                e.cluster == cluster
                    && matches!(e.kind, FaultKind::Crash { down_rounds }
                        if e.round <= round && round < e.round + down_rounds)
            })
    }

    /// True if a crash window *starts* at exactly `(cluster, round)`.
    pub fn crash_starts(&self, cluster: usize, round: u64) -> bool {
        self.crash_down_rounds_at(cluster, round) > 0
    }

    /// Length of the crash window starting at exactly `(cluster, round)`
    /// (the longest, if several coincide); `0` when none starts there.
    pub fn crash_down_rounds_at(&self, cluster: usize, round: u64) -> u64 {
        self.events
            .iter()
            .filter(|e| e.cluster == cluster && e.round == round)
            .filter_map(|e| match e.kind {
                FaultKind::Crash { down_rounds } => Some(down_rounds),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// True if the cluster has permanently left by `round`.
    pub fn has_left(&self, cluster: usize, round: u64) -> bool {
        self.events
            .iter()
            .any(|e| e.cluster == cluster && e.round <= round && e.kind == FaultKind::Leave)
    }

    /// Combined training-latency multiplier for the cluster's `round`
    /// (product of all spikes covering it; `1.0` when unafflicted).
    pub fn latency_factor(&self, cluster: usize, round: u64) -> f64 {
        self.events
            .iter()
            .filter(|e| e.cluster == cluster && e.round == round)
            .filter_map(|e| match e.kind {
                FaultKind::LatencySpike { factor } => Some(factor),
                _ => None,
            })
            .product::<f64>()
            .max(1.0)
    }

    /// Removes and returns the cluster's faults scheduled for rounds
    /// before `first_round` — the rounds a mid-run joiner was not yet part
    /// of the federation for. The plan samples `0..n_clusters` uniformly
    /// (it has no knowledge of `joins_at`), so the engines call this at
    /// join time to deterministically skip pre-join faults, recording each
    /// as `"skipped: not yet joined"`. Clock skews are kept: a skew
    /// applies from the first round regardless of its nominal round, and
    /// takes effect when the joiner's clock starts.
    pub fn extract_pre_join(&mut self, cluster: usize, first_round: u64) -> Vec<FaultEvent> {
        let mut skipped = Vec::new();
        self.events.retain(|e| {
            let pre_join = e.cluster == cluster
                && e.round < first_round
                && !matches!(e.kind, FaultKind::ClockSkew { .. });
            if pre_join {
                skipped.push(*e);
            }
            !pre_join
        });
        skipped
    }

    /// Total clock skew afflicting the cluster (sum of scripted skews).
    pub fn clock_skew(&self, cluster: usize) -> SimDuration {
        self.events
            .iter()
            .filter(|e| e.cluster == cluster)
            .filter_map(|e| match e.kind {
                FaultKind::ClockSkew { skew } => Some(skew),
                _ => None,
            })
            .fold(SimDuration::ZERO, |acc, s| acc + s)
    }
}

/// What actually happened when a fault fired — one row of the experiment
/// report's chaos section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Name of the afflicted cluster.
    pub cluster: String,
    /// Round during which the fault fired.
    pub round: u64,
    /// Stable fault label (see [`FaultKind::label`]).
    pub kind: String,
    /// Observed outcome (e.g. `"round lost"`, `"left federation"`).
    pub outcome: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_config() -> ChaosConfig {
        ChaosConfig {
            events: vec![FaultEvent {
                cluster: 0,
                round: 2,
                kind: FaultKind::Leave,
            }],
            crash_prob: 0.3,
            crash_down_rounds: 2,
            spike_prob: 0.25,
            spike_factor: 5.0,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn default_is_quiescent_and_valid() {
        let cfg = ChaosConfig::default();
        assert!(cfg.is_quiescent());
        let plan = FaultPlan::expand(&cfg, 7, 4, 10);
        assert!(plan.events().is_empty());
        assert!(!plan.is_down(0, 1));
        assert_eq!(plan.latency_factor(0, 1), 1.0);
    }

    #[test]
    fn expansion_is_deterministic_per_seed() {
        let cfg = noisy_config();
        let a = FaultPlan::expand(&cfg, 42, 5, 8);
        let b = FaultPlan::expand(&cfg, 42, 5, 8);
        assert_eq!(a, b);
        let c = FaultPlan::expand(&cfg, 43, 5, 8);
        assert_ne!(a.events(), c.events(), "different seed, different plan");
    }

    #[test]
    fn crash_window_covers_down_rounds() {
        let plan = FaultPlan::expand(
            &ChaosConfig::scripted(vec![FaultEvent {
                cluster: 1,
                round: 3,
                kind: FaultKind::Crash { down_rounds: 2 },
            }]),
            0,
            3,
            10,
        );
        assert!(!plan.is_down(1, 2));
        assert!(plan.is_down(1, 3));
        assert!(plan.is_down(1, 4));
        assert!(!plan.is_down(1, 5), "restarted after the window");
        assert!(plan.crash_starts(1, 3));
        assert!(!plan.crash_starts(1, 4));
        assert!(!plan.is_down(0, 3), "other clusters unaffected");
    }

    #[test]
    fn leave_is_permanent() {
        let plan = FaultPlan::expand(
            &ChaosConfig::scripted(vec![FaultEvent {
                cluster: 2,
                round: 4,
                kind: FaultKind::Leave,
            }]),
            0,
            3,
            10,
        );
        assert!(!plan.has_left(2, 3));
        for round in 4..=10 {
            assert!(plan.has_left(2, round));
            assert!(plan.is_down(2, round));
        }
    }

    #[test]
    fn spikes_multiply_and_skews_accumulate() {
        let plan = FaultPlan::expand(
            &ChaosConfig::scripted(vec![
                FaultEvent {
                    cluster: 0,
                    round: 2,
                    kind: FaultKind::LatencySpike { factor: 3.0 },
                },
                FaultEvent {
                    cluster: 0,
                    round: 2,
                    kind: FaultKind::LatencySpike { factor: 2.0 },
                },
                FaultEvent {
                    cluster: 0,
                    round: 1,
                    kind: FaultKind::ClockSkew {
                        skew: SimDuration::from_secs(30),
                    },
                },
            ]),
            0,
            2,
            5,
        );
        assert_eq!(plan.latency_factor(0, 2), 6.0);
        assert_eq!(plan.latency_factor(0, 3), 1.0);
        assert_eq!(plan.clock_skew(0), SimDuration::from_secs(30));
        assert_eq!(plan.clock_skew(1), SimDuration::ZERO);
    }

    #[test]
    fn sampled_faults_scale_with_probability() {
        let cfg = ChaosConfig {
            crash_prob: 0.5,
            ..ChaosConfig::default()
        };
        let plan = FaultPlan::expand(&cfg, 9, 4, 50);
        let crashes = plan
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Crash { .. }))
            .count();
        // 200 cluster-rounds at p=0.5: comfortably between 60 and 140.
        assert!((60..=140).contains(&crashes), "got {crashes}");
    }

    #[test]
    fn extract_pre_join_skips_early_faults_but_keeps_skews() {
        let mut plan = FaultPlan::expand(
            &ChaosConfig::scripted(vec![
                FaultEvent {
                    cluster: 3,
                    round: 1,
                    kind: FaultKind::Crash { down_rounds: 4 },
                },
                FaultEvent {
                    cluster: 3,
                    round: 2,
                    kind: FaultKind::ClockSkew {
                        skew: SimDuration::from_secs(10),
                    },
                },
                FaultEvent {
                    cluster: 3,
                    round: 3,
                    kind: FaultKind::Leave,
                },
                FaultEvent {
                    cluster: 0,
                    round: 1,
                    kind: FaultKind::Leave,
                },
            ]),
            0,
            4,
            6,
        );
        // The round-1 crash window would otherwise leak into round 2
        // (`is_down` spans `down_rounds`; at round 3 the leave takes over).
        assert!(plan.is_down(3, 2));
        let skipped = plan.extract_pre_join(3, 3);
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].round, 1);
        assert_eq!(skipped[0].kind.label(), "crash");
        assert!(
            !plan.is_down(3, 2),
            "masked window no longer covers round 2"
        );
        assert!(plan.has_left(3, 3), "the round-3 leave stays");
        assert_eq!(plan.clock_skew(3), SimDuration::from_secs(10), "skew kept");
        assert!(plan.has_left(0, 1), "other clusters untouched");
    }

    #[test]
    fn layer_seeds_are_distinct_and_stable() {
        let plan = FaultPlan::expand(&ChaosConfig::default(), 11, 2, 2);
        assert_ne!(plan.storage_seed(), plan.chain_seed());
        let again = FaultPlan::expand(&ChaosConfig::default(), 11, 2, 2);
        assert_eq!(plan.storage_seed(), again.storage_seed());
    }
}
