//! The UnifyFL orchestration smart contract (Algorithm 1 of the paper).
//!
//! State machine deployed on the private chain that:
//!
//! 1. registers participating aggregators,
//! 2. opens training rounds (`startTraining`, emitting a `StartTraining`
//!    event every aggregator subscribes to),
//! 3. accepts model CIDs from valid trainers (`submitModelValidTrainer`),
//! 4. samples a **majority subset** (⌊n/2⌋ + 1) of peer aggregators as
//!    scorers — at `startScoring` in [`OrchestrationMode::Sync`], or
//!    immediately on submission in [`OrchestrationMode::Async`],
//! 5. accepts scores from valid scorers (`submitScoreValidScorer`),
//!    rejecting late scores once a sync scoring window closes (§3.2), and
//! 6. serves `getLatestModelsWithScores` as a view over finalized entries.
//!
//! Scores are stored as fixed-point millionths ([`Score`]) because a real
//! Solidity contract cannot hold floats; the conversion is lossless for the
//! `[0, 1]` accuracy range and the distance-based MultiKRUM scores used in
//! the evaluation.

use std::any::Any;
use std::collections::HashMap;
use std::fmt;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::codec::{DecodeError, Decoder, Encoder};
use crate::contract::{CallContext, CallOutcome, Contract, ContractError};
use crate::hash::{sha256, H256};
use crate::types::{Address, Log};

/// Synchronization mode of the orchestrator (§3.2 / §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrchestrationMode {
    /// Phase-locked rounds: all aggregators train, submit and score inside
    /// contract-enforced windows.
    Sync,
    /// Free-running: submissions are scored as they arrive; no windows.
    Async,
}

impl fmt::Display for OrchestrationMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrchestrationMode::Sync => write!(f, "sync"),
            OrchestrationMode::Async => write!(f, "async"),
        }
    }
}

/// Phase of the sync-mode round cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// No round open yet (before the first `startTraining`).
    Idle,
    /// Training/submission window: models may be submitted.
    Training,
    /// Scoring window: assigned scorers may submit scores.
    Scoring,
}

/// A model score in fixed-point millionths (1.0 → 1_000_000).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Score(pub u64);

impl Score {
    /// Converts from a float, clamping to `[0, u64::MAX/1e6]`.
    pub fn from_f64(v: f64) -> Self {
        if !v.is_finite() || v <= 0.0 {
            return Score(0);
        }
        Score((v * 1_000_000.0).round() as u64)
    }

    /// Converts back to a float.
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }
}

/// A bandwidth hint registered alongside a model submission: the model is
/// also available as a delta blob against an earlier base model, so a peer
/// holding `base_cid` can fetch `delta_cid` instead of the full weights.
///
/// The hint is advisory: content addressing makes the full CID the source
/// of truth, and a fetcher verifies any delta reconstruction against it
/// before trusting a single byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaRef {
    /// CID of the base model the delta was encoded against.
    pub base_cid: String,
    /// CID of the delta blob.
    pub delta_cid: String,
}

/// One submitted model and its scoring lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelEntry {
    /// IPFS content identifier of the serialized weights.
    pub cid: String,
    /// Aggregator that submitted the model.
    pub submitter: Address,
    /// Orchestrator round in which it was submitted (async: submission
    /// counter of the submitter).
    pub round: u64,
    /// Block number of the submission transaction.
    pub block: u64,
    /// Delta availability hint, when the submitter published one
    /// (`submitModelDelta`); `None` for plain submissions.
    pub delta: Option<DeltaRef>,
    /// Scorers assigned by the contract.
    pub scorers: Vec<Address>,
    /// Scores received so far, `(scorer, score)`.
    pub scores: Vec<(Address, Score)>,
    /// True once the scoring window for this entry closed (sync) — late
    /// scores revert.
    pub scoring_closed: bool,
}

impl ModelEntry {
    /// True if every assigned scorer has reported.
    pub fn fully_scored(&self) -> bool {
        self.scores.len() >= self.scorers.len()
    }

    /// Scores as floats, in submission order.
    pub fn score_values(&self) -> Vec<f64> {
        self.scores.iter().map(|(_, s)| s.to_f64()).collect()
    }
}

/// One sealed shard release: the representative-published merge of a
/// shard's latest scored models, exchanged across shards on the slower
/// inter-shard cadence of the two-tier topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRelease {
    /// Shard the release summarizes.
    pub shard: u32,
    /// Inter-shard exchange epoch (1-based).
    pub epoch: u64,
    /// IPFS content identifier of the sealed weights.
    pub cid: String,
    /// Representative that published and submitted it.
    pub submitter: Address,
    /// Block number of the submission transaction.
    pub block: u64,
}

/// ABI: call payload constructors and decoders.
pub mod calls {
    use super::*;

    pub(super) const TAG_REGISTER: u8 = 0x01;
    pub(super) const TAG_START_TRAINING: u8 = 0x02;
    pub(super) const TAG_SUBMIT_MODEL: u8 = 0x03;
    pub(super) const TAG_START_SCORING: u8 = 0x04;
    pub(super) const TAG_SUBMIT_SCORE: u8 = 0x05;
    pub(super) const TAG_END_SCORING: u8 = 0x06;
    pub(super) const TAG_SUBMIT_MODEL_DELTA: u8 = 0x07;
    pub(super) const TAG_SUBMIT_SHARD_RELEASE: u8 = 0x08;
    pub(super) const TAG_UPDATE_SHARDING: u8 = 0x09;

    /// `registerAggregator()` payload.
    pub fn register() -> Vec<u8> {
        vec![TAG_REGISTER]
    }

    /// `startTraining()` payload.
    pub fn start_training() -> Vec<u8> {
        vec![TAG_START_TRAINING]
    }

    /// `submitModelValidTrainer(cid)` payload.
    pub fn submit_model(cid: &str) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u8(TAG_SUBMIT_MODEL).put_str(cid);
        e.into_bytes()
    }

    /// `submitModelDelta(cid, base_cid, delta_cid)` payload: a model
    /// submission that also registers a delta-availability hint.
    pub fn submit_model_delta(cid: &str, base_cid: &str, delta_cid: &str) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u8(TAG_SUBMIT_MODEL_DELTA)
            .put_str(cid)
            .put_str(base_cid)
            .put_str(delta_cid);
        e.into_bytes()
    }

    /// `startScoring()` payload.
    pub fn start_scoring() -> Vec<u8> {
        vec![TAG_START_SCORING]
    }

    /// `submitScoreValidScorer(cid, score)` payload.
    pub fn submit_score(cid: &str, score: Score) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u8(TAG_SUBMIT_SCORE).put_str(cid).put_u64(score.0);
        e.into_bytes()
    }

    /// `endScoring()` payload (closes the sync scoring window).
    pub fn end_scoring() -> Vec<u8> {
        vec![TAG_END_SCORING]
    }

    /// `submitShardRelease(shard, epoch, cid)` payload: a shard
    /// representative seals its shard's release for an exchange epoch.
    pub fn submit_shard_release(shard: u32, epoch: u64, cid: &str) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u8(TAG_SUBMIT_SHARD_RELEASE)
            .put_u32(shard)
            .put_u64(epoch)
            .put_str(cid);
        e.into_bytes()
    }

    /// `updateSharding(epoch, members)` payload: replaces the contract's
    /// address → shard map with a freshly regrouped topology epoch, so
    /// scorer sampling and intra-shard visibility follow the new grouping
    /// from the next call on.
    pub fn update_sharding(epoch: u64, members: &[(Address, u32)]) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u8(TAG_UPDATE_SHARDING)
            .put_u64(epoch)
            .put_u32(members.len() as u32);
        for (addr, shard) in members {
            e.put_fixed(&addr.0).put_u32(*shard);
        }
        e.into_bytes()
    }
}

/// Event names emitted by the contract (topic 0 is the SHA-256 of these).
pub mod events {
    /// Emitted when an aggregator registers.
    pub const AGGREGATOR_REGISTERED: &str = "AggregatorRegistered";
    /// Emitted at the start of each sync training phase.
    pub const START_TRAINING: &str = "StartTraining";
    /// Emitted when a model CID is recorded.
    pub const MODEL_SUBMITTED: &str = "ModelSubmitted";
    /// Emitted when scorers are assigned to a model.
    pub const SCORERS_ASSIGNED: &str = "ScorersAssigned";
    /// Emitted at the start of each sync scoring phase.
    pub const START_SCORING: &str = "StartScoring";
    /// Emitted when a score is recorded.
    pub const SCORE_SUBMITTED: &str = "ScoreSubmitted";
    /// Emitted when a sync scoring window closes.
    pub const SCORING_CLOSED: &str = "ScoringClosed";
    /// Emitted when a shard representative seals a shard release.
    pub const SHARD_RELEASE_SUBMITTED: &str = "ShardReleaseSubmitted";
    /// Emitted when a regrouped topology epoch replaces the shard map.
    pub const SHARDING_UPDATED: &str = "ShardingUpdated";
}

/// Payload of a [`events::SCORERS_ASSIGNED`] log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScorersAssigned {
    /// Model being scored.
    pub cid: String,
    /// Assigned scorer addresses.
    pub scorers: Vec<Address>,
}

impl ScorersAssigned {
    /// Decodes the event payload.
    ///
    /// # Errors
    /// Returns [`DecodeError`] on malformed bytes.
    pub fn decode(data: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(data);
        let cid = d.take_str()?.to_owned();
        let n = d.take_u32()? as usize;
        // Sized from what the input can still hold, never from the count
        // it claims: a short payload must answer `Truncated`, not abort
        // on a 4-billion-entry reservation.
        let mut scorers = Vec::with_capacity(n.min(d.remaining() / 20));
        for _ in 0..n {
            let raw = d.take_fixed(20)?;
            let mut a = [0u8; 20];
            a.copy_from_slice(raw);
            scorers.push(Address(a));
        }
        d.finish()?;
        Ok(ScorersAssigned { cid, scorers })
    }

    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_str(&self.cid).put_u32(self.scorers.len() as u32);
        for s in &self.scorers {
            e.put_fixed(&s.0);
        }
        e.into_bytes()
    }
}

/// The deployed orchestrator contract.
#[derive(Debug)]
pub struct UnifyFlContract {
    address: Address,
    mode: OrchestrationMode,
    aggregators: Vec<Address>,
    round: u64,
    phase: Phase,
    entries: Vec<ModelEntry>,
    /// Derived index over the append-only `entries` log: CID → position.
    /// CIDs are unique (a duplicate submission reverts), so this is what
    /// `entry()`, the duplicate check and `submitScore` resolve through.
    /// Like `by_submitter` it is derivable from `entries` and therefore not
    /// part of the state digest.
    by_cid: HashMap<String, usize>,
    /// Derived index: submitter → positions of its entries, oldest first.
    by_submitter: HashMap<Address, Vec<usize>>,
    /// Deploy-time shard topology (address → shard); unknown addresses are
    /// shard 0, so an empty map is the single-shard (flat) federation.
    /// Like `mode`, this is deployment configuration, not mutable state,
    /// and therefore not part of the state digest.
    shard_of: HashMap<Address, u32>,
    /// Deploy-time override for scorers sampled per release; `None` keeps
    /// the paper's intra-shard majority (⌊n/2⌋ + 1).
    scorers_per_release: Option<usize>,
    shard_releases: Vec<ShardRelease>,
}

impl UnifyFlContract {
    /// Creates an orchestrator to be deployed at `address`.
    pub fn new(address: Address, mode: OrchestrationMode) -> Self {
        UnifyFlContract {
            address,
            mode,
            aggregators: Vec::new(),
            round: 0,
            phase: Phase::Idle,
            entries: Vec::new(),
            by_cid: HashMap::new(),
            by_submitter: HashMap::new(),
            shard_of: HashMap::new(),
            scorers_per_release: None,
            shard_releases: Vec::new(),
        }
    }

    /// Installs the two-tier shard topology at deployment: an address →
    /// shard map and an optional cap `k` on scorers sampled per release
    /// (bounding score cost at O(n·k) instead of the all-pairs O(n²)).
    /// An empty map with `k = None` is behaviorally identical to the
    /// unsharded contract.
    pub fn with_sharding(
        mut self,
        shard_of: HashMap<Address, u32>,
        scorers_per_release: Option<usize>,
    ) -> Self {
        self.shard_of = shard_of;
        self.scorers_per_release = scorers_per_release;
        self
    }

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
    fn entries_of(&self, submitter: Address) -> impl DoubleEndedIterator<Item = &ModelEntry> {
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

    /// Samples scorers for a submission from the submitter's shard, using
    /// block-derived entropy (deterministic per block): ⌊n/2⌋+1 of the
    /// shard's registered members by default, or the deploy-time
    /// `scorers_per_release` cap `k` when one is installed. Without a
    /// topology the shard is the whole federation, so this is the paper's
    /// global majority sample.
    fn sample_scorers(&self, submitter: Address, entropy: u64) -> Vec<Address> {
        let shard = self.shard_of(submitter);
        let members = self
            .aggregators
            .iter()
            .copied()
            .filter(|a| self.shard_of(*a) == shard);
        let mut pool: Vec<Address> = Vec::new();
        let mut shard_size = 0usize;
        for a in members {
            shard_size += 1;
            if a != submitter {
                pool.push(a);
            }
        }
        let majority = shard_size / 2 + 1;
        let take = self.scorers_per_release.unwrap_or(majority).min(pool.len());
        let mut rng = StdRng::seed_from_u64(entropy);
        pool.shuffle(&mut rng);
        pool.truncate(take);
        pool
    }

    fn require_registered(&self, who: Address) -> Result<(), ContractError> {
        if self.aggregators.contains(&who) {
            Ok(())
        } else {
            Err(ContractError::revert(format!(
                "{who} is not a registered aggregator"
            )))
        }
    }

    fn exec_register(&mut self, ctx: &CallContext) -> Result<CallOutcome, ContractError> {
        if self.aggregators.contains(&ctx.sender) {
            return Err(ContractError::revert("already registered"));
        }
        self.aggregators.push(ctx.sender);
        Ok(CallOutcome::new(
            vec![Log::event(
                self.address,
                events::AGGREGATOR_REGISTERED,
                vec![],
                ctx.sender.0.to_vec(),
            )],
            20_000,
        ))
    }

    fn exec_start_training(&mut self, ctx: &CallContext) -> Result<CallOutcome, ContractError> {
        self.require_registered(ctx.sender)?;
        if self.mode == OrchestrationMode::Async {
            return Err(ContractError::revert("async mode has no training phase"));
        }
        if self.phase == Phase::Scoring {
            return Err(ContractError::revert(
                "scoring phase still open; call endScoring first",
            ));
        }
        self.round += 1;
        self.phase = Phase::Training;
        let mut e = Encoder::new();
        e.put_u64(self.round);
        Ok(CallOutcome::new(
            vec![Log::event(
                self.address,
                events::START_TRAINING,
                vec![],
                e.into_bytes(),
            )],
            5_000,
        ))
    }

    fn exec_submit_model(
        &mut self,
        ctx: &CallContext,
        cid: &str,
        delta: Option<DeltaRef>,
    ) -> Result<CallOutcome, ContractError> {
        self.require_registered(ctx.sender)?;
        if cid.is_empty() || cid.len() > 128 {
            return Err(ContractError::revert("malformed CID"));
        }
        if let Some(d) = &delta {
            for part in [&d.base_cid, &d.delta_cid] {
                if part.is_empty() || part.len() > 128 {
                    return Err(ContractError::revert("malformed delta reference CID"));
                }
            }
            if d.base_cid == cid || d.delta_cid == cid {
                return Err(ContractError::revert(
                    "delta reference must not alias the model CID",
                ));
            }
        }
        if self.by_cid.contains_key(cid) {
            return Err(ContractError::revert("model CID already submitted"));
        }
        let round = match self.mode {
            OrchestrationMode::Sync => {
                if self.phase != Phase::Training {
                    // A straggler missed the window; it must resubmit next
                    // round (§3.2 "Stragglers").
                    return Err(ContractError::revert("submission window closed"));
                }
                if self.entries_of(ctx.sender).any(|e| e.round == self.round) {
                    return Err(ContractError::revert("already submitted this round"));
                }
                self.round
            }
            OrchestrationMode::Async => {
                // Async rounds are per-submitter submission counters.
                self.entries_of(ctx.sender).count() as u64 + 1
            }
        };

        let mut logs = Vec::new();
        let mut data = Encoder::new();
        data.put_str(cid).put_fixed(&ctx.sender.0).put_u64(round);
        logs.push(Log::event(
            self.address,
            events::MODEL_SUBMITTED,
            vec![],
            data.into_bytes(),
        ));

        let has_delta = delta.is_some();
        let mut entry = ModelEntry {
            cid: cid.to_owned(),
            submitter: ctx.sender,
            round,
            block: ctx.block_number,
            delta,
            scorers: Vec::new(),
            scores: Vec::new(),
            scoring_closed: false,
        };

        let mut gas = 40_000;
        if has_delta {
            // Two extra stored strings.
            gas += 10_000;
        }
        if self.mode == OrchestrationMode::Async {
            // Async: assign scorers immediately (§3.3, Figure 6 step 4).
            entry.scorers = self.sample_scorers(ctx.sender, ctx.entropy);
            gas += 5_000 * entry.scorers.len() as u64;
            logs.push(Log::event(
                self.address,
                events::SCORERS_ASSIGNED,
                vec![],
                ScorersAssigned {
                    cid: cid.to_owned(),
                    scorers: entry.scorers.clone(),
                }
                .encode(),
            ));
        }
        let position = self.entries.len();
        self.by_cid.insert(entry.cid.clone(), position);
        self.by_submitter
            .entry(entry.submitter)
            .or_default()
            .push(position);
        self.entries.push(entry);
        Ok(CallOutcome::new(logs, gas))
    }

    fn exec_start_scoring(&mut self, ctx: &CallContext) -> Result<CallOutcome, ContractError> {
        self.require_registered(ctx.sender)?;
        if self.mode == OrchestrationMode::Async {
            return Err(ContractError::revert("async mode has no scoring phase"));
        }
        if self.phase != Phase::Training {
            return Err(ContractError::revert("no training phase to close"));
        }
        self.phase = Phase::Scoring;

        let mut logs = Vec::new();
        let mut e = Encoder::new();
        e.put_u64(self.round);
        logs.push(Log::event(
            self.address,
            events::START_SCORING,
            vec![],
            e.into_bytes(),
        ));

        let round = self.round;
        // Assign scorers to every model submitted this round. Collect
        // (index, submitter) first to appease the borrow checker.
        let targets: Vec<(usize, Address, String)> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.round == round && e.scorers.is_empty())
            .map(|(i, e)| (i, e.submitter, e.cid.clone()))
            .collect();
        let mut gas = 5_000;
        for (i, submitter, cid) in targets {
            let scorers =
                self.sample_scorers(submitter, ctx.entropy.wrapping_add(i as u64 * 0x9e37));
            gas += 5_000 * scorers.len() as u64;
            logs.push(Log::event(
                self.address,
                events::SCORERS_ASSIGNED,
                vec![],
                ScorersAssigned {
                    cid,
                    scorers: scorers.clone(),
                }
                .encode(),
            ));
            self.entries[i].scorers = scorers;
        }
        Ok(CallOutcome::new(logs, gas))
    }

    fn exec_submit_score(
        &mut self,
        ctx: &CallContext,
        cid: &str,
        score: Score,
    ) -> Result<CallOutcome, ContractError> {
        self.require_registered(ctx.sender)?;
        if self.mode == OrchestrationMode::Sync && self.phase != Phase::Scoring {
            // §3.2: "if there is a delay in scoring … the blockchain will no
            // longer accept scores".
            return Err(ContractError::revert("scoring window closed"));
        }
        let entry = self
            .by_cid
            .get(cid)
            .map(|&i| &mut self.entries[i])
            .ok_or_else(|| ContractError::revert("unknown model CID"))?;
        if entry.scoring_closed {
            return Err(ContractError::revert("scoring window closed"));
        }
        if !entry.scorers.contains(&ctx.sender) {
            return Err(ContractError::revert("sender is not an assigned scorer"));
        }
        if entry.scores.iter().any(|(s, _)| *s == ctx.sender) {
            return Err(ContractError::revert("scorer already submitted"));
        }
        entry.scores.push((ctx.sender, score));

        let mut data = Encoder::new();
        data.put_str(cid).put_fixed(&ctx.sender.0).put_u64(score.0);
        Ok(CallOutcome::new(
            vec![Log::event(
                self.address,
                events::SCORE_SUBMITTED,
                vec![],
                data.into_bytes(),
            )],
            25_000,
        ))
    }

    fn exec_end_scoring(&mut self, ctx: &CallContext) -> Result<CallOutcome, ContractError> {
        self.require_registered(ctx.sender)?;
        if self.mode == OrchestrationMode::Async {
            return Err(ContractError::revert("async mode has no scoring phase"));
        }
        if self.phase != Phase::Scoring {
            return Err(ContractError::revert("no scoring phase open"));
        }
        self.phase = Phase::Idle;
        let round = self.round;
        for e in self.entries.iter_mut().filter(|e| e.round == round) {
            e.scoring_closed = true;
        }
        let mut e = Encoder::new();
        e.put_u64(round);
        Ok(CallOutcome::new(
            vec![Log::event(
                self.address,
                events::SCORING_CLOSED,
                vec![],
                e.into_bytes(),
            )],
            5_000,
        ))
    }

    fn exec_submit_shard_release(
        &mut self,
        ctx: &CallContext,
        shard: u32,
        epoch: u64,
        cid: &str,
    ) -> Result<CallOutcome, ContractError> {
        self.require_registered(ctx.sender)?;
        if cid.is_empty() || cid.len() > 128 {
            return Err(ContractError::revert("malformed CID"));
        }
        if self.shard_of(ctx.sender) != shard {
            return Err(ContractError::revert(
                "sender is not a member of the sealed shard",
            ));
        }
        if self
            .shard_releases
            .iter()
            .any(|r| r.shard == shard && r.epoch == epoch)
        {
            return Err(ContractError::revert("shard epoch already sealed"));
        }
        self.shard_releases.push(ShardRelease {
            shard,
            epoch,
            cid: cid.to_owned(),
            submitter: ctx.sender,
            block: ctx.block_number,
        });
        let mut data = Encoder::new();
        data.put_u32(shard)
            .put_u64(epoch)
            .put_str(cid)
            .put_fixed(&ctx.sender.0);
        Ok(CallOutcome::new(
            vec![Log::event(
                self.address,
                events::SHARD_RELEASE_SUBMITTED,
                vec![],
                data.into_bytes(),
            )],
            30_000,
        ))
    }

    fn exec_update_sharding(
        &mut self,
        ctx: &CallContext,
        epoch: u64,
        members: Vec<(Address, u32)>,
    ) -> Result<CallOutcome, ContractError> {
        self.require_registered(ctx.sender)?;
        // The map stays topology configuration (digest-excluded, like the
        // deploy-time one): regrouping moves clusters between shards, it
        // does not alter any round's recorded outcomes.
        self.shard_of = members.iter().copied().collect();
        let mut data = Encoder::new();
        data.put_u64(epoch).put_u32(members.len() as u32);
        Ok(CallOutcome::new(
            vec![Log::event(
                self.address,
                events::SHARDING_UPDATED,
                vec![],
                data.into_bytes(),
            )],
            20_000,
        ))
    }
}

impl Contract for UnifyFlContract {
    fn execute(&mut self, ctx: &CallContext, input: &[u8]) -> Result<CallOutcome, ContractError> {
        let mut d = Decoder::new(input);
        let tag = d.take_u8()?;
        match tag {
            calls::TAG_REGISTER => {
                d.finish()?;
                self.exec_register(ctx)
            }
            calls::TAG_START_TRAINING => {
                d.finish()?;
                self.exec_start_training(ctx)
            }
            calls::TAG_SUBMIT_MODEL => {
                let cid = d.take_str()?.to_owned();
                d.finish()?;
                self.exec_submit_model(ctx, &cid, None)
            }
            calls::TAG_SUBMIT_MODEL_DELTA => {
                let cid = d.take_str()?.to_owned();
                let base_cid = d.take_str()?.to_owned();
                let delta_cid = d.take_str()?.to_owned();
                d.finish()?;
                self.exec_submit_model(
                    ctx,
                    &cid,
                    Some(DeltaRef {
                        base_cid,
                        delta_cid,
                    }),
                )
            }
            calls::TAG_START_SCORING => {
                d.finish()?;
                self.exec_start_scoring(ctx)
            }
            calls::TAG_SUBMIT_SCORE => {
                let cid = d.take_str()?.to_owned();
                let score = Score(d.take_u64()?);
                d.finish()?;
                self.exec_submit_score(ctx, &cid, score)
            }
            calls::TAG_END_SCORING => {
                d.finish()?;
                self.exec_end_scoring(ctx)
            }
            calls::TAG_SUBMIT_SHARD_RELEASE => {
                let shard = d.take_u32()?;
                let epoch = d.take_u64()?;
                let cid = d.take_str()?.to_owned();
                d.finish()?;
                self.exec_submit_shard_release(ctx, shard, epoch, &cid)
            }
            calls::TAG_UPDATE_SHARDING => {
                let epoch = d.take_u64()?;
                let n = d.take_u32()? as usize;
                // As in `ScorersAssigned::decode`: 24 bytes a member.
                let mut members = Vec::with_capacity(n.min(d.remaining() / 24));
                for _ in 0..n {
                    let raw = d.take_fixed(20)?;
                    let mut a = [0u8; 20];
                    a.copy_from_slice(raw);
                    let shard = d.take_u32()?;
                    members.push((Address(a), shard));
                }
                d.finish()?;
                self.exec_update_sharding(ctx, epoch, members)
            }
            other => Err(DecodeError::UnknownTag(other).into()),
        }
    }

    fn state_digest(&self) -> H256 {
        let mut e = Encoder::new();
        e.put_u64(self.round)
            .put_u8(match self.phase {
                Phase::Idle => 0,
                Phase::Training => 1,
                Phase::Scoring => 2,
            })
            .put_u32(self.aggregators.len() as u32);
        for a in &self.aggregators {
            e.put_fixed(&a.0);
        }
        e.put_u32(self.entries.len() as u32);
        for entry in &self.entries {
            e.put_str(&entry.cid)
                .put_fixed(&entry.submitter.0)
                .put_u64(entry.round)
                .put_u8(entry.scoring_closed as u8);
            match &entry.delta {
                Some(d) => {
                    e.put_u8(1).put_str(&d.base_cid).put_str(&d.delta_cid);
                }
                None => {
                    e.put_u8(0);
                }
            }
            e.put_u32(entry.scores.len() as u32);
            for (s, v) in &entry.scores {
                e.put_fixed(&s.0).put_u64(v.0);
            }
        }
        e.put_u32(self.shard_releases.len() as u32);
        for r in &self.shard_releases {
            e.put_u32(r.shard)
                .put_u64(r.epoch)
                .put_str(&r.cid)
                .put_fixed(&r.submitter.0)
                .put_u64(r.block);
        }
        sha256(&e.into_bytes())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unifyfl_sim::SimTime;

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
        let mut c =
            UnifyFlContract::new(Address::from_label("orchestrator"), OrchestrationMode::Sync)
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
}
