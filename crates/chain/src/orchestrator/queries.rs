//! Read-only views of the contract: what a silo can ask the chain, and
//! which entries `getLatestModelsWithScores` shows to whom.

use super::state::{ModelEntry, OrchestrationMode, Phase, ShardRelease, UnifyFlContract};
use crate::types::Address;

impl UnifyFlContract {
    /// The orchestration mode this deployment runs in.
    pub fn mode(&self) -> OrchestrationMode {
        self.mode
    }

    /// The shard an address belongs to (0 for unmapped addresses — the
    /// whole federation, when no topology was installed).
    pub fn shard_of(&self, addr: Address) -> u32 {
        self.shard_of.get(&addr).copied().unwrap_or(0)
    }

    /// Total scorer assignments handed out so far (the score-task count
    /// the scale bench asserts sub-quadratic growth on).
    pub fn assigned_score_tasks(&self) -> u64 {
        self.entries.iter().map(|e| e.scorers.len() as u64).sum()
    }

    /// All sealed shard releases, oldest first.
    pub fn shard_releases(&self) -> &[ShardRelease] {
        &self.shard_releases
    }

    /// The most recent sealed release of `shard` (highest epoch; latest
    /// submission wins a tie).
    pub fn latest_shard_release(&self, shard: u32) -> Option<&ShardRelease> {
        self.shard_releases
            .iter()
            .filter(|r| r.shard == shard)
            .max_by_key(|r| r.epoch)
    }

    /// Registered aggregators in registration order.
    pub fn aggregators(&self) -> &[Address] {
        &self.aggregators
    }

    /// Current sync round number (0 before the first `startTraining`).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Current sync phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// All model entries ever recorded, oldest first.
    pub fn entries(&self) -> &[ModelEntry] {
        &self.entries
    }

    /// Entry for a CID, if present.
    pub fn entry(&self, cid: &str) -> Option<&ModelEntry> {
        self.by_cid.get(cid).map(|&i| &self.entries[i])
    }

    /// Log positions of `submitter`'s entries, oldest first.
    fn positions_of(&self, submitter: Address) -> impl DoubleEndedIterator<Item = usize> + '_ {
        self.by_submitter
            .get(&submitter)
            .into_iter()
            .flatten()
            .copied()
    }

    /// `submitter`'s entries, oldest first.
    pub(super) fn entries_of(
        &self,
        submitter: Address,
    ) -> impl DoubleEndedIterator<Item = &ModelEntry> {
        self.positions_of(submitter).map(|i| &self.entries[i])
    }

    /// `getLatestModelsWithScores`: the most recent *scored* entry per
    /// aggregator (excluding `viewer`'s own model if provided), i.e. the set
    /// an aggregator pulls before its next round (§3.1.1). Under an
    /// installed shard topology the view is intra-shard: a viewer only sees
    /// peers of its own shard (cross-shard knowledge flows through sealed
    /// [`ShardRelease`]s instead).
    ///
    /// In sync mode an entry qualifies once its scoring window closed; in
    /// async mode once at least one score arrived (the paper's async
    /// aggregators use whatever scores exist when they pull).
    pub fn latest_models_with_scores(&self, viewer: Option<Address>) -> Vec<&ModelEntry> {
        self.latest_scored(viewer)
            .map(|i| &self.entries[i])
            .collect()
    }

    /// [`latest_models_with_scores`](Self::latest_models_with_scores) as
    /// positions in [`entries`](Self::entries), for a caller that keeps
    /// its own per-entry data beside the append-only log.
    pub fn latest_scored_positions(&self, viewer: Option<Address>) -> Vec<usize> {
        self.latest_scored(viewer).collect()
    }

    fn latest_scored(&self, viewer: Option<Address>) -> impl Iterator<Item = usize> + '_ {
        let viewer_shard = viewer.map(|v| self.shard_of(v));
        self.aggregators
            .iter()
            .filter(move |&&agg| {
                viewer != Some(agg) && viewer_shard.is_none_or(|vs| self.shard_of(agg) == vs)
            })
            .filter_map(|&agg| {
                self.positions_of(agg).rev().find(|&i| {
                    let e = &self.entries[i];
                    match self.mode {
                        OrchestrationMode::Sync => e.scoring_closed,
                        OrchestrationMode::Async => !e.scores.is_empty(),
                    }
                })
            })
    }
}
