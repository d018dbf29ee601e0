//! Blockchain substrate for the UnifyFL reproduction.
//!
//! The paper's decentralized orchestrator is a private Ethereum (Geth)
//! network running Clique Proof-of-Authority and a Solidity smart contract
//! (Algorithm 1). This crate rebuilds that substrate from scratch:
//!
//! - [`hash`] — SHA-256 (FIPS 180-4) and the [`hash::H256`] digest type;
//! - [`codec`] — canonical binary encoding for hashing structures;
//! - [`types`] — addresses, transactions, blocks, receipts, event logs;
//! - [`merkle`] — transaction Merkle roots and inclusion proofs;
//! - [`txpool`] — nonce-ordered pending-transaction pool;
//! - [`clique`] — the PoA engine (in-turn rotation, recency rule; the signer
//!   set is fixed at genesis);
//! - [`contract`] — the native deterministic-contract framework;
//! - [`chain`] — block production/validation and log queries;
//! - [`orchestrator`] — the UnifyFL orchestration contract itself.
//!
//! # Example: a private chain running the orchestrator
//!
//! ```
//! use unifyfl_chain::chain::Blockchain;
//! use unifyfl_chain::clique::CliqueConfig;
//! use unifyfl_chain::orchestrator::{calls, OrchestrationMode, UnifyFlContract};
//! use unifyfl_chain::types::{Address, Transaction};
//! use unifyfl_sim::SimTime;
//!
//! let org_a = Address::from_label("org-a");
//! let org_b = Address::from_label("org-b");
//! let mut chain = Blockchain::new(CliqueConfig::default(), vec![org_a, org_b]);
//!
//! let orch = Address::from_label("unifyfl-orchestrator");
//! chain.deploy(orch, Box::new(UnifyFlContract::new(orch, OrchestrationMode::Async)));
//!
//! chain.submit(Transaction::call(org_a, orch, 0, calls::register()));
//! chain.submit(Transaction::call(org_b, orch, 0, calls::register()));
//! chain.seal_next(SimTime::from_secs(5)).unwrap();
//!
//! let view: &UnifyFlContract = chain.view(orch).unwrap();
//! assert_eq!(view.aggregators().len(), 2);
//! ```

pub mod chain;
pub mod clique;
pub mod codec;
pub mod contract;
pub mod hash;
pub mod merkle;
pub mod orchestrator;
pub mod txpool;
pub mod types;

pub use chain::{Blockchain, ChainError, ChainFaultStats, ChainFaults};
pub use clique::{Clique, CliqueConfig};
pub use contract::{CallContext, CallOutcome, Contract, ContractError};
pub use hash::{sha256, H256};
pub use orchestrator::{OrchestrationMode, Score, UnifyFlContract};
pub use txpool::TxPool;
pub use types::{Address, Block, BlockHeader, Log, Receipt, Transaction};
