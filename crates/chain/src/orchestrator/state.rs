//! The contract's replicated state and the transitions Algorithm 1 allows
//! on it: who may call what, in which phase, and what each call records.

use std::any::Any;
use std::collections::HashMap;
use std::fmt;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use super::events::{self, ScorersAssigned};
use crate::codec::Encoder;
use crate::contract::{CallContext, CallOutcome, Contract, ContractError};
use crate::hash::H256;
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

/// The deployed orchestrator contract.
#[derive(Debug)]
pub struct UnifyFlContract {
    pub(super) address: Address,
    pub(super) mode: OrchestrationMode,
    pub(super) aggregators: Vec<Address>,
    pub(super) round: u64,
    pub(super) phase: Phase,
    pub(super) entries: Vec<ModelEntry>,
    /// Derived index over the append-only `entries` log: CID → position.
    /// CIDs are unique (a duplicate submission reverts), so this is what
    /// `entry()`, the duplicate check and `submitScore` resolve through.
    /// Like `by_submitter` it is derivable from `entries` and therefore not
    /// part of the state digest.
    pub(super) by_cid: HashMap<String, usize>,
    /// Derived index: submitter → positions of its entries, oldest first.
    pub(super) by_submitter: HashMap<Address, Vec<usize>>,
    /// Deploy-time shard topology (address → shard); unknown addresses are
    /// shard 0, so an empty map is the single-shard (flat) federation.
    /// Like `mode`, this is deployment configuration, not mutable state,
    /// and therefore not part of the state digest.
    pub(super) shard_of: HashMap<Address, u32>,
    /// Deploy-time override for scorers sampled per release; `None` keeps
    /// the paper's intra-shard majority (⌊n/2⌋ + 1).
    pub(super) scorers_per_release: Option<usize>,
    pub(super) shard_releases: Vec<ShardRelease>,
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

    /// Samples scorers for a submission from the submitter's shard, using
    /// block-derived entropy (deterministic per block): ⌊n/2⌋+1 of the
    /// shard's registered members by default, or the deploy-time
    /// `scorers_per_release` cap `k` when one is installed. Without a
    /// topology the shard is the whole federation, so this is the paper's
    /// global majority sample.
    pub(super) fn sample_scorers(&self, submitter: Address, entropy: u64) -> Vec<Address> {
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

    pub(super) fn exec_register(
        &mut self,
        ctx: &CallContext,
    ) -> Result<CallOutcome, ContractError> {
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

    pub(super) fn exec_start_training(
        &mut self,
        ctx: &CallContext,
    ) -> Result<CallOutcome, ContractError> {
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

    pub(super) fn exec_submit_model(
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

    pub(super) fn exec_start_scoring(
        &mut self,
        ctx: &CallContext,
    ) -> Result<CallOutcome, ContractError> {
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

    pub(super) fn exec_submit_score(
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

    pub(super) fn exec_end_scoring(
        &mut self,
        ctx: &CallContext,
    ) -> Result<CallOutcome, ContractError> {
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

    pub(super) fn exec_submit_shard_release(
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

    pub(super) fn exec_update_sharding(
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
        self.dispatch(ctx, input)
    }

    fn state_digest(&self) -> H256 {
        self.digest()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
