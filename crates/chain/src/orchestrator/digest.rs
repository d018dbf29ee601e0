//! The state digest: which fields of the contract a block commits to, and
//! in what encoding.

use super::state::{Phase, UnifyFlContract};
use crate::codec::Encoder;
use crate::hash::{sha256, H256};

impl UnifyFlContract {
    /// SHA-256 over the canonical encoding of the replicated state.
    pub(super) fn digest(&self) -> H256 {
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
}
