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

pub mod calls;
mod digest;
pub mod events;
mod queries;
mod state;
#[cfg(test)]
mod tests;

pub use events::ScorersAssigned;
pub use state::{
    DeltaRef, ModelEntry, OrchestrationMode, Phase, Score, ShardRelease, UnifyFlContract,
};
