//! UnifyFL core: decentralized cross-silo federated learning.
//!
//! This crate composes the substrates (`unifyfl-chain`, `unifyfl-storage`,
//! `unifyfl-fl`, `unifyfl-sim`, `unifyfl-data`, `unifyfl-tensor`) into the
//! system the paper describes:
//!
//! - [`policy`] — aggregation policies (All / Self / Random-k / Top-k /
//!   Above-Average / Above-Median / Above-Self) and score-reduction
//!   policies (Mean / Median / Min / Max);
//! - [`scoring`] — accuracy scoring and MultiKRUM;
//! - [`cluster`] — a participating organization: FL server + clients,
//!   IPFS node, chain account, cost model;
//! - [`federation`] — the assembled system and chain-driving helpers,
//!   including the [`federation::LinkModel`] link time model;
//! - [`events`] — the discrete-event orchestration kernel: the typed
//!   event vocabulary and the policy trait both engines implement (the
//!   queue-draining loop is [`service::RunState::step`]);
//! - [`orchestration`] — the Sync (barrier-event) and Async (no-barrier)
//!   engine policies (Figures 5 & 6), including elastic membership;
//! - [`sharding`] — the two-tier shard topology: seeded balanced shard
//!   assignment, sampled scorer caps, inter-shard exchange cadence;
//! - [`step`] — the reusable two-phase round step both engines share, and
//!   the [`Engine`] selector (sequential reference vs. parallel phase-A
//!   compute; byte-identical results either way);
//! - [`byzantine`] — attacker models for the Figure 7 experiment;
//! - [`baseline`] — HBFL (centralized multilevel FL) and no-collaboration
//!   baselines;
//! - [`experiment`] — configuration, execution and reporting, including
//!   the [`ChaosConfig`] fault-injection knobs and the report's
//!   [`ChaosReport`] section, plus the [`TransferConfig`] fetch-side
//!   bandwidth knobs and the report's [`TransferReport`] section;
//! - [`service`] — the daemon layer: a backpressured
//!   [`ExperimentService`] running many experiments concurrently over a
//!   shared worker pool, with per-run [`service::RunState`] stepping and
//!   checkpoint/resume ([`service::RunCheckpoint`]);
//! - [`report`] — paper-style table rendering.
//!
//! # Example
//!
//! ```
//! use unifyfl_core::experiment::{ExperimentBuilder, Mode};
//! use unifyfl_core::policy::AggregationPolicy;
//!
//! let report = ExperimentBuilder::quickstart()
//!     .seed(7)
//!     .rounds(2)
//!     .mode(Mode::Sync)
//!     .policy_all(AggregationPolicy::TopK(2))
//!     .run()
//!     .expect("valid configuration");
//! assert_eq!(report.aggregators.len(), 3);
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod byzantine;
pub mod cluster;
pub mod events;
pub mod experiment;
pub mod federation;
pub mod orchestration;
pub mod policy;
pub mod report;
pub mod scoring;
pub mod service;
pub mod sharding;
pub mod step;

pub use byzantine::{AttackKind, DpConfig};
pub use cluster::{ClusterConfig, ClusterNode, DriftSpec};
pub use experiment::{
    run_experiment, AggregatorReport, ChaosReport, ExperimentBuilder, ExperimentConfig,
    ExperimentError, ExperimentReport, TransferReport, KNOBS,
};
pub use federation::Federation;
pub use orchestration::Mode;
pub use policy::{AggregationPolicy, ScorePolicy};
pub use scoring::ScorerKind;
pub use service::{
    ExperimentService, ResumeError, RunCheckpoint, RunHandle, RunId, RunOutcome, RunState,
    ServiceConfig, ServiceError,
};
pub use sharding::{ShardConfig, ShardTopology};
pub use step::Engine;
pub use unifyfl_sim::fault::{ChaosConfig, FaultEvent, FaultKind, FaultPlan, FaultRecord};
pub use unifyfl_storage::{GossipConfig, TransferConfig};
