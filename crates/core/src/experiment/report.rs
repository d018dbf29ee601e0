//! The report an experiment distills: one row per aggregator, plus the
//! chain, chaos and transfer sections.

use std::collections::BTreeMap;

use unifyfl_sim::fault::FaultRecord;
use unifyfl_sim::ResourceSummary;

use super::MembershipRecord;
use crate::cluster::ClusterNode;
use crate::federation::Federation;
use crate::orchestration::EngineOutcome;

/// A point on an accuracy-over-time curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// 1-based federation round the point belongs to. Under chaos a curve
    /// may have gaps (crashed rounds record nothing), so consumers must
    /// match on this rather than on curve position.
    pub round: u64,
    /// Virtual time (seconds).
    pub time_secs: f64,
    /// Global-model accuracy (percent).
    pub global_accuracy_pct: f64,
    /// Local-model accuracy (percent).
    pub local_accuracy_pct: f64,
}

/// One row of a results table: a single aggregator's outcome.
#[derive(Debug, Clone)]
pub struct AggregatorReport {
    /// Aggregator name.
    pub name: String,
    /// Aggregation policy (paper's "Policy" column).
    pub policy: String,
    /// Intra-cluster strategy (FedAvg / FedYogi).
    pub strategy: String,
    /// Total virtual time (paper's "Time" column, seconds).
    pub time_secs: f64,
    /// Final global-model accuracy (percent).
    pub global_accuracy_pct: f64,
    /// Final local-model accuracy (percent).
    pub local_accuracy_pct: f64,
    /// Final global-model loss.
    pub global_loss: f64,
    /// Final local-model loss.
    pub local_loss: f64,
    /// Rounds completed.
    pub rounds: u64,
    /// Rounds missed due to straggling (sync only).
    pub straggler_rounds: u64,
    /// Scores rejected by a closed scoring window (sync only).
    pub rejected_scores: u64,
    /// Accuracy-over-time curve (for Figure 7-style plots).
    pub curve: Vec<CurvePoint>,
}

/// Chain-level statistics of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChainStats {
    /// Blocks sealed.
    pub blocks: u64,
    /// Transactions executed.
    pub txs: u64,
    /// Transactions that reverted (stragglers, late scores).
    pub failed_txs: u64,
    /// Total gas consumed.
    pub gas_used: u64,
}

/// Chaos section of an experiment report: which faults were planned, which
/// fired, and what the injectors in every layer counted. All-zero (with
/// `enabled == false`) for happy-path runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosReport {
    /// True if a fault plan was installed for the run.
    pub enabled: bool,
    /// Events in the expanded fault schedule.
    pub planned_events: u64,
    /// Cluster-rounds lost to crashes (sync) or redone after crashes
    /// (async).
    pub crashes_fired: u64,
    /// Clusters that permanently left the federation.
    pub leaves_fired: u64,
    /// Training rounds slowed by latency spikes.
    pub spikes_fired: u64,
    /// Clock-skew fault records (one per skewed cluster at application,
    /// plus one per skew-caused window rejection).
    pub skews_fired: u64,
    /// Whole CID fetches that failed at the DHT (storage layer).
    pub fetch_failures: u64,
    /// Caller-level whole-fetch retries. Every retry resolves to exactly
    /// one of the two outcome counters below, so
    /// `fetch_retries == fetch_recoveries + fetch_permanent_failures`.
    pub fetch_retries: u64,
    /// Retried fetches that then succeeded (transient failure, recovered).
    pub fetch_recoveries: u64,
    /// Retried fetches that failed again and were abandoned for good.
    pub fetch_permanent_failures: u64,
    /// Individual chunk transfers lost (storage layer).
    pub chunk_losses: u64,
    /// Chunk retransmissions performed.
    pub chunk_retries: u64,
    /// Fetches abandoned after the chunk retry budget ran out.
    pub exhausted_fetches: u64,
    /// Seal slots skipped by injection (chain layer).
    pub missed_seals: u64,
    /// Transactions dropped in gossip (chain layer).
    pub dropped_txs: u64,
    /// Transactions retransmitted after a gossip drop.
    pub retried_txs: u64,
    /// Per-fault outcome records, in firing order.
    pub records: Vec<FaultRecord>,
}

/// Transfer section of an experiment report: what the bandwidth-aware
/// storage layer was configured to do and what it saved. For *fault-free*
/// runs this is the only report section allowed to differ between two
/// configurations that differ only in
/// [`ExperimentConfig::transfer`](super::ExperimentConfig::transfer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferReport {
    /// Chunk dedup enabled.
    pub dedup: bool,
    /// Delta fetch enabled.
    pub delta: bool,
    /// Fetch-cache byte budget (0 = disabled).
    pub cache_bytes: u64,
    /// Bytes a naive fetcher would have moved.
    pub logical_bytes: u64,
    /// Bytes actually moved on the wire.
    pub physical_bytes: u64,
    /// Blocks skipped because the fetcher already held them.
    pub dedup_chunks_skipped: u64,
    /// Bytes those skipped blocks would have cost.
    pub dedup_bytes_saved: u64,
    /// Fetches served from the assembled-content cache.
    pub cache_hits: u64,
    /// Cache lookups that missed.
    pub cache_misses: u64,
    /// Cache entries evicted to respect the byte budget.
    pub cache_evictions: u64,
    /// Bytes resident across node caches at the end of the run.
    pub cache_resident_bytes: u64,
    /// Fetches served by base + delta reconstruction.
    pub delta_fetches: u64,
    /// Delta fetches that fell back to a full transfer.
    pub delta_fallbacks: u64,
    /// Wire bytes saved by delta reconstruction.
    pub delta_bytes_saved: u64,
    /// Model submissions that carried an on-chain `(base, delta)`
    /// reference.
    pub delta_publishes: u64,
    /// Submissions without one (no usable base, or an unchanged
    /// re-release).
    pub full_publishes: u64,
    /// Remote fetches routed over the gossip overlay (0 = flat routing).
    pub routed_fetches: u64,
    /// Overlay hops those fetches traversed, summed per transfer branch.
    pub route_hops: u64,
    /// Bytes forwarded through intermediate relays (never retained).
    pub relayed_bytes: u64,
}

impl TransferReport {
    /// Wire-byte reduction factor: logical over physical bytes (1.0 when
    /// nothing moved).
    pub fn reduction_factor(&self) -> f64 {
        if self.physical_bytes == 0 {
            if self.logical_bytes == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.logical_bytes as f64 / self.physical_bytes as f64
        }
    }
}

/// The complete result of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Display label.
    pub label: String,
    /// Mode string (`"Sync"` / `"Async"`).
    pub mode: String,
    /// Scorer string (`"Accuracy"` / `"MultiKRUM"`).
    pub scorer: String,
    /// Partition string (`"IID"` / `"NIID α=…"`).
    pub partition: String,
    /// Per-aggregator rows.
    pub aggregators: Vec<AggregatorReport>,
    /// Resource summaries per process class (Table 7).
    pub resources: BTreeMap<String, ResourceSummary>,
    /// Chain statistics.
    pub chain: ChainStats,
    /// Total bytes resident across the storage fabric.
    pub storage_bytes: u64,
    /// Virtual end-to-end duration (seconds).
    pub wall_secs: f64,
    /// Fault-injection outcomes (all-zero for happy-path runs).
    pub chaos: ChaosReport,
    /// Transfer-layer accounting (bytes on the wire, dedup/delta/cache
    /// savings).
    pub transfer: TransferReport,
    /// Link time model the run was charged under (`"Nominal"` /
    /// `"Physical"`).
    pub link_model: String,
    /// Elastic-membership changes observed during the run (mid-run joins;
    /// empty for fixed-membership runs).
    pub membership: Vec<MembershipRecord>,
}

/// One round of a federation's accuracy curve over a set of aggregators
/// (see [`ExperimentReport::round_means`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundMean {
    /// 1-based federation round.
    pub round: u64,
    /// How many of the selected aggregators recorded the round.
    pub recorded: usize,
    /// Their mean global-model accuracy (percent).
    pub global_accuracy_pct: f64,
    /// The latest of their completion times (virtual seconds).
    pub time_secs: f64,
}

impl ExperimentReport {
    /// The mean accuracy curve of the aggregators `member` selects by
    /// index: one entry per round any of them recorded, in round order,
    /// averaged over the ones that recorded it. Chaos leaves gaps in
    /// curves (a crashed round records nothing), so points are matched by
    /// round number, never by position.
    pub fn round_means(&self, member: impl Fn(usize) -> bool) -> Vec<RoundMean> {
        let selected: Vec<&AggregatorReport> = self
            .aggregators
            .iter()
            .enumerate()
            .filter_map(|(i, a)| member(i).then_some(a))
            .collect();
        let mut rounds: Vec<u64> = selected
            .iter()
            .flat_map(|a| a.curve.iter().map(|p| p.round))
            .collect();
        rounds.sort_unstable();
        rounds.dedup();
        rounds
            .into_iter()
            .map(|round| {
                let points: Vec<&CurvePoint> = selected
                    .iter()
                    .filter_map(|a| a.curve.iter().find(|p| p.round == round))
                    .collect();
                let accuracy = points.iter().map(|p| p.global_accuracy_pct).sum::<f64>();
                RoundMean {
                    round,
                    recorded: points.len(),
                    global_accuracy_pct: accuracy / points.len() as f64,
                    time_secs: points.iter().map(|p| p.time_secs).fold(0.0, f64::max),
                }
            })
            .collect()
    }

    /// Mean final global-model accuracy (percent) of the aggregators
    /// `member` selects by index (NaN if it selects none).
    pub fn mean_global_accuracy_pct(&self, member: impl Fn(usize) -> bool) -> f64 {
        let selected: Vec<f64> = self
            .aggregators
            .iter()
            .enumerate()
            .filter_map(|(i, a)| member(i).then_some(a.global_accuracy_pct))
            .collect();
        selected.iter().sum::<f64>() / selected.len() as f64
    }

    /// This report with a default transfer section: the view that transfer,
    /// routing and fetch-ahead knobs must leave byte-identical in a
    /// fault-free run.
    pub fn without_transfer(&self) -> ExperimentReport {
        ExperimentReport {
            transfer: TransferReport::default(),
            ..self.clone()
        }
    }
}

pub(crate) fn build_report(fed: &Federation, outcome: EngineOutcome) -> ExperimentReport {
    let config = fed.config();
    let mut aggregators = Vec::with_capacity(fed.clusters.len());
    for (i, cluster) in fed.clusters.iter().enumerate() {
        let cfg = cluster.config();
        let curve = cluster
            .records
            .iter()
            .map(|r| CurvePoint {
                round: r.round,
                time_secs: r.completed_at_secs,
                global_accuracy_pct: r.global_accuracy * 100.0,
                local_accuracy_pct: r.local_accuracy * 100.0,
            })
            .collect();
        let (g_acc, g_loss) = outcome.final_global[i];
        let (l_acc, l_loss) = cluster.last_local();
        aggregators.push(AggregatorReport {
            name: cfg.name.clone(),
            policy: cfg.policy.to_string(),
            strategy: cfg.strategy.to_string(),
            time_secs: outcome.per_cluster_time[i].as_secs_f64(),
            global_accuracy_pct: g_acc * 100.0,
            local_accuracy_pct: l_acc * 100.0,
            global_loss: g_loss,
            local_loss: l_loss,
            rounds: cluster.records.len() as u64,
            straggler_rounds: outcome.straggler_rounds[i],
            rejected_scores: outcome.rejected_scores[i],
            curve,
        });
    }

    // Chain statistics from the sealed blocks.
    let mut chain = ChainStats {
        blocks: fed.chain.height(),
        ..ChainStats::default()
    };
    for b in 0..=fed.chain.height() {
        if let Some(receipts) = fed.chain.receipts(b) {
            chain.txs += receipts.len() as u64;
            chain.failed_txs += receipts.iter().filter(|r| !r.success).count() as u64;
            chain.gas_used += receipts.iter().map(|r| r.gas_used).sum::<u64>();
        }
    }

    ExperimentReport {
        label: config.label.clone(),
        mode: config.mode.to_string(),
        scorer: config.scorer.to_string(),
        partition: config.partition.to_string(),
        aggregators,
        resources: fed.resources.summaries(),
        chain,
        storage_bytes: fed.ipfs.total_bytes(),
        wall_secs: outcome.end_time.as_secs_f64(),
        chaos: build_chaos_report(fed),
        transfer: build_transfer_report(fed),
        link_model: config.link_model.to_string(),
        membership: fed.membership_records().to_vec(),
    }
}

fn build_transfer_report(fed: &Federation) -> TransferReport {
    let config = fed.config().transfer;
    let stats = fed.ipfs.transfer_stats();
    let (delta_publishes, full_publishes) = fed
        .clusters
        .iter()
        .map(ClusterNode::publish_counts)
        .fold((0, 0), |(d, f), (dd, ff)| (d + dd, f + ff));
    TransferReport {
        dedup: config.dedup,
        delta: config.delta,
        cache_bytes: config.cache_bytes,
        logical_bytes: stats.logical_bytes,
        physical_bytes: stats.physical_bytes,
        dedup_chunks_skipped: stats.dedup_chunks_skipped,
        dedup_bytes_saved: stats.dedup_bytes_saved,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        cache_evictions: stats.cache_evictions,
        cache_resident_bytes: stats.cache_resident_bytes,
        delta_fetches: stats.delta_fetches,
        delta_fallbacks: stats.delta_fallbacks,
        delta_bytes_saved: stats.delta_bytes_saved,
        delta_publishes,
        full_publishes,
        routed_fetches: stats.routed_fetches,
        route_hops: stats.route_hops,
        relayed_bytes: stats.relayed_bytes,
    }
}

fn build_chaos_report(fed: &Federation) -> ChaosReport {
    let Some(plan) = fed.fault_plan() else {
        return ChaosReport::default();
    };
    let records = fed.chaos_records().to_vec();
    let count = |kind: &str| records.iter().filter(|r| r.kind == kind).count() as u64;
    let storage = fed.ipfs.fault_stats().unwrap_or_default();
    let chain = fed.chain.fault_stats().unwrap_or_default();
    ChaosReport {
        enabled: true,
        planned_events: plan.planned(),
        crashes_fired: count("crash"),
        leaves_fired: count("leave"),
        spikes_fired: count("latency_spike"),
        skews_fired: count("clock_skew"),
        fetch_failures: storage.fetch_failures,
        fetch_retries: storage.fetch_retries,
        fetch_recoveries: storage.fetch_recoveries,
        fetch_permanent_failures: storage.fetch_permanent_failures,
        chunk_losses: storage.chunk_losses,
        chunk_retries: storage.chunk_retries,
        exhausted_fetches: storage.exhausted_fetches,
        missed_seals: chain.missed_seals,
        dropped_txs: chain.dropped_txs,
        retried_txs: fed.retried_txs(),
        records,
    }
}
