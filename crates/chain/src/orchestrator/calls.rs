//! The ABI: how a call is spelled on the wire, and how `execute` reads one
//! back before handing it to the state machine.

use super::calls;
use super::state::{DeltaRef, Score, UnifyFlContract};
use crate::codec::{DecodeError, Decoder, Encoder};
use crate::contract::{CallContext, CallOutcome, ContractError};
use crate::types::Address;

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

impl UnifyFlContract {
    /// Decodes one call and runs it.
    pub(super) fn dispatch(
        &mut self,
        ctx: &CallContext,
        input: &[u8],
    ) -> Result<CallOutcome, ContractError> {
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
}
