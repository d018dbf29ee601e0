//! Flower-like federated learning framework for the UnifyFL reproduction.
//!
//! The paper builds on the Flower framework: each organization runs an FL
//! server (the *aggregator*) over its own clients. This crate reproduces
//! that layer:
//!
//! - [`client`] — the [`client::FlClient`] trait and the
//!   [`client::InMemoryClient`] that trains a real model on its shard;
//! - [`shell`] — the model buffers a fit or an evaluation runs on, owned
//!   per fan-out lane ([`shell::TrainShell`]) and per evaluator
//!   ([`shell::EvalShell`]) rather than per client;
//! - [`strategy`] — [`strategy::FedAvg`] and [`strategy::FedYogi`]
//!   aggregation strategies behind a common trait;
//! - [`server`] — the [`server::FlServer`] round loop
//!   (configure → fit → aggregate);
//! - [`fanout`] — the one index-ordered fork-join the round loop fits its
//!   clients through (and `unifyfl-core` its clusters), inline below a
//!   work grain and on bounded lanes above it.
//!
//! UnifyFL's cross-silo layer (`unifyfl-core`) composes these servers with
//! the blockchain orchestrator and IPFS storage; the clients here are
//! untouched by that composition, matching §3.4.5 of the paper.

pub mod client;
pub mod fanout;
pub mod server;
pub mod shell;
pub mod strategy;

pub use client::{evaluate_weights, EvalResult, FitConfig, FitResult, FlClient, InMemoryClient};
pub use server::{FlServer, RoundReport};
pub use shell::{EvalShell, TrainShell};
pub use strategy::{FedAvg, FedYogi, Strategy, StrategyKind};
