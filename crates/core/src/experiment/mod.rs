//! The experiment driver: configuration, validation, execution, reporting.
//!
//! An [`ExperimentConfig`] fully describes one evaluation run (workload,
//! partition, mode, scorer, per-cluster policies/strategies/devices);
//! [`run_experiment`] builds the one [`RunState`](crate::service::RunState)
//! every run goes through — validate against [`KNOBS`] and the cross-knob
//! rules, assemble the [`Federation`](crate::federation::Federation), step
//! the matching engine policy — and distills an [`ExperimentReport`] whose
//! rows correspond one-to-one to the paper's Tables 5 and 6.

mod config;
mod error;
mod report;
#[cfg(test)]
mod tests;
mod validate;

pub use config::{ExperimentBuilder, ExperimentConfig};
pub use error::ExperimentError;
pub(crate) use report::build_report;
pub use report::{
    AggregatorReport, ChainStats, ChaosReport, CurvePoint, ExperimentReport, RoundMean,
    TransferReport,
};
pub use validate::{Domain, Knob, KNOBS, MAX_NOMINAL_HORIZON};

pub use crate::federation::{LinkModel, MembershipRecord};
pub use crate::orchestration::Mode;
pub use crate::step::Engine;

/// Runs an experiment end to end.
///
/// This is the batch entry point over the same poll-resumable machinery
/// the service layer uses: it builds a [`crate::service::RunState`] and
/// steps it to completion, so a blocking run, a daemon-hosted run and a
/// checkpoint-resumed run all execute the identical event sequence.
///
/// # Errors
///
/// Returns [`ExperimentError`] if the configuration is invalid.
pub fn run_experiment(config: &ExperimentConfig) -> Result<ExperimentReport, ExperimentError> {
    Ok(crate::service::RunState::new(config)?.run_to_completion())
}
