//! The repo's benchmark: four workloads, end-to-end metrics, a layer
//! ladder and a step trace that reconciles to the wall. See `README.md`
//! in this crate for what each number means and which should move which.
//!
//! Everything here measures the system from outside, through public
//! functions only (`RunState::{new, step, run_to_completion, resume}`,
//! `ExperimentService::{submit, resume}`, and the substrate crates' leaf
//! functions), so later PRs can reshape the internals without touching —
//! and without being able to touch — the yardstick.

#![warn(missing_docs)]

pub mod json;
pub mod ladder;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;

/// Seconds of operations one run measures when `--seconds` is not given;
/// equal to `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 30.0;

/// Reasons the environment would make the numbers meaningless. `is_set`
/// answers whether an environment variable is set; `debug` is whether the
/// binary was built with debug assertions.
pub fn hygiene_problems(is_set: impl Fn(&str) -> bool, debug: bool) -> Vec<String> {
    // Both variables switch the program onto a non-default path, so a run
    // under them measures a different system.
    let mut problems: Vec<String> = ["UNIFYFL_ENGINE", "UNIFYFL_SPEED_GATE"]
        .into_iter()
        .filter(|name| is_set(name))
        .map(|name| format!("{name} is set; unset it"))
        .collect();
    if debug {
        problems.push("built with debug assertions; build with --release".to_owned());
    }
    problems
}
