//! What the contract emits: event names (topic 0 is the SHA-256 of
//! these) and the one structured log payload.

use crate::codec::{DecodeError, Decoder, Encoder};
use crate::types::Address;

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

/// Payload of a [`SCORERS_ASSIGNED`] log.
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

    pub(super) fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_str(&self.cid).put_u32(self.scorers.len() as u32);
        for s in &self.scorers {
            e.put_fixed(&s.0);
        }
        e.into_bytes()
    }
}
