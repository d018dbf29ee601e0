//! Serve benchmark: the daemon layer ([`unifyfl_core::service`]) under
//! heavy synthetic submission load.
//!
//! A burst of tiny experiments is thrown at an [`ExperimentService`] all
//! at once — far past the in-flight bound, so most of the burst sits in
//! the admission queue — and every run is timed from its submission to
//! the completion of its report. The bench reports sustained throughput
//! (**experiments/sec**) and the p50/p99 **round latency** (a run's
//! submit→report latency divided by its round count), plus the
//! checkpoint/resume identity probe: a run interrupted halfway, restarted
//! through a *fresh* service, must produce a report byte-identical to the
//! uninterrupted run.
//!
//! Like the `speed` bench, the timings here are real elapsed time and
//! vary with the host; the `resume_identical` flag and the submission
//! accounting are deterministic. The `serve` binary emits
//! `BENCH_serve.json` (schema in `docs/BENCH.md`).

use std::time::Instant;

use unifyfl_core::experiment::{run_experiment, ExperimentBuilder, ExperimentConfig, Mode};
use unifyfl_core::service::{ExperimentService, RunState, ServiceConfig};

use crate::speed::available_threads;
use crate::{fixed, int, Json};

/// Rounds per synthetic submission — kept tiny so the bench measures the
/// service machinery, not model training.
pub const ROUNDS_PER_RUN: usize = 2;

/// The complete benchmark result.
pub struct ServeBench {
    /// Experiments submitted in the burst.
    pub submissions: usize,
    /// Runs that completed with a report (the rest failed — never
    /// expected here).
    pub completed: usize,
    /// The service's concurrent-runs bound.
    pub max_in_flight: usize,
    /// The service's admission-queue bound.
    pub queue_depth: usize,
    /// Submissions that were queued behind the in-flight bound when the
    /// burst finished arriving (`submissions − max_in_flight`).
    pub queued_after_inlet: usize,
    /// Worker threads the service ran.
    pub worker_threads: usize,
    /// Hardware threads the host advertised.
    pub hardware_threads: usize,
    /// Real elapsed seconds from the first submission to the last report.
    pub wall_secs: f64,
    /// Completed experiments per wall-clock second.
    pub experiments_per_sec: f64,
    /// Median per-round latency: a run's submit→report elapsed divided by
    /// [`ROUNDS_PER_RUN`], 50th percentile over the burst.
    pub round_latency_p50_secs: f64,
    /// 99th-percentile per-round latency over the burst.
    pub round_latency_p99_secs: f64,
    /// The checkpoint/resume identity probe: true iff a run interrupted
    /// mid-flight and resumed through a fresh service produced a report
    /// byte-identical to the uninterrupted run.
    pub resume_identical: bool,
}

fn tiny_config(seed: u64, index: usize) -> ExperimentConfig {
    // Alternate modes across the burst so both engine policies serve
    // concurrently.
    let mode = if index.is_multiple_of(2) {
        Mode::Sync
    } else {
        Mode::Async
    };
    ExperimentBuilder::quickstart()
        .seed(seed.wrapping_add(index as u64))
        .rounds(ROUNDS_PER_RUN)
        .mode(mode)
        .label(format!("serve-{index}"))
        .config()
        .clone()
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The checkpoint/resume identity probe: run a config solo, then step a
/// second instance halfway, checkpoint it, and finish it through a fresh
/// service. Byte-identical reports ⇒ true.
fn probe_resume_identity(seed: u64) -> bool {
    let config = tiny_config(seed.wrapping_add(0x5e27e), 0);
    let solo = run_experiment(&config).expect("probe config is valid");
    let total_events = {
        let mut state = RunState::new(&config).expect("probe config is valid");
        let mut n = 0usize;
        while state.step().is_some() {
            n += 1;
        }
        n
    };
    let mut state = RunState::new(&config).expect("probe config is valid");
    for _ in 0..total_events / 2 {
        state.step();
    }
    let checkpoint = state.checkpoint();
    drop(state); // the "interrupted" half-run is gone; only the snapshot survives

    let service = ExperimentService::start(ServiceConfig {
        max_in_flight: 1,
        queue_depth: 0,
        worker_threads: 1,
        slice_events: 16,
    })
    .expect("probe service config is valid");
    let handle = service.resume(checkpoint).expect("checkpoint admitted");
    let outcome = handle.wait();
    service.shutdown();
    match outcome.report() {
        Some(report) => format!("{report:?}") == format!("{solo:?}"),
        None => false,
    }
}

/// Runs a submission burst against a service sized `max_in_flight` /
/// `queue_depth` / `worker_threads`. Building block for [`run`] and the
/// tests; `submissions` must fit the admission bounds.
pub fn run_load(
    seed: u64,
    submissions: usize,
    max_in_flight: usize,
    queue_depth: usize,
    worker_threads: usize,
) -> ServeBench {
    let service = ExperimentService::start(ServiceConfig {
        max_in_flight,
        queue_depth,
        worker_threads,
        slice_events: 32,
    })
    .expect("serve bench service config is valid");

    let start = Instant::now();
    let submitted: Vec<_> = (0..submissions)
        .map(|i| {
            let handle = service
                .submit(tiny_config(seed, i))
                .expect("burst fits the admission bounds");
            (handle, Instant::now())
        })
        .collect();

    // One waiter per handle: each records the instant its report landed,
    // so latency covers queueing + execution, not the waiter's turn in
    // some polling loop.
    let results: Vec<(bool, f64)> = std::thread::scope(|scope| {
        let waiters: Vec<_> = submitted
            .iter()
            .map(|(handle, submitted_at)| {
                scope.spawn(move || {
                    let outcome = handle.wait();
                    (outcome.is_completed(), submitted_at.elapsed().as_secs_f64())
                })
            })
            .collect();
        waiters
            .into_iter()
            .map(|w| w.join().expect("waiter thread"))
            .collect()
    });
    let wall_secs = start.elapsed().as_secs_f64();
    service.shutdown();

    let completed = results.iter().filter(|(done, _)| *done).count();
    let mut round_latencies: Vec<f64> = results
        .iter()
        .map(|(_, latency)| latency / ROUNDS_PER_RUN as f64)
        .collect();
    round_latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));

    ServeBench {
        submissions,
        completed,
        max_in_flight,
        queue_depth,
        queued_after_inlet: submissions.saturating_sub(max_in_flight),
        worker_threads,
        hardware_threads: available_threads(),
        wall_secs,
        experiments_per_sec: if wall_secs > 0.0 {
            completed as f64 / wall_secs
        } else {
            0.0
        },
        round_latency_p50_secs: percentile(&round_latencies, 50.0),
        round_latency_p99_secs: percentile(&round_latencies, 99.0),
        resume_identical: probe_resume_identity(seed),
    }
}

/// The standard burst: 60 submissions against an 8-in-flight service, so
/// 52 sit queued when the burst lands — the ≥50-queued load the service
/// acceptance bar calls for.
pub fn run(seed: u64) -> ServeBench {
    let workers = available_threads().min(8);
    run_load(seed, 60, 8, 56, workers)
}

/// Renders the machine-readable `BENCH_serve.json` body.
pub fn render_json(bench: &ServeBench, seed: u64) -> Json {
    Json::obj([
        ("bench", Json::str("serve")),
        ("seed", int(seed)),
        ("submissions", int(bench.submissions)),
        ("completed", int(bench.completed)),
        ("max_in_flight", int(bench.max_in_flight)),
        ("queue_depth", int(bench.queue_depth)),
        ("queued_after_inlet", int(bench.queued_after_inlet)),
        ("worker_threads", int(bench.worker_threads)),
        ("hardware_threads", int(bench.hardware_threads)),
        ("rounds_per_run", int(ROUNDS_PER_RUN)),
        ("wall_secs", fixed(bench.wall_secs, 3)),
        ("experiments_per_sec", fixed(bench.experiments_per_sec, 3)),
        (
            "round_latency_p50_secs",
            fixed(bench.round_latency_p50_secs, 3),
        ),
        (
            "round_latency_p99_secs",
            fixed(bench.round_latency_p99_secs, 3),
        ),
        ("resume_identical", Json::Bool(bench.resume_identical)),
    ])
}

/// Renders the human-readable summary.
pub fn render(bench: &ServeBench) -> String {
    let ServeBench {
        submissions,
        queued_after_inlet,
        max_in_flight,
        worker_threads,
        hardware_threads,
        completed,
        wall_secs,
        experiments_per_sec,
        round_latency_p50_secs: p50,
        round_latency_p99_secs: p99,
        resume_identical,
        ..
    } = bench;
    format!(
        "Serve bench: {submissions} submissions ({queued_after_inlet} queued behind \
         {max_in_flight} in-flight slots), {worker_threads} worker thread(s) on \
         {hardware_threads} hardware thread(s)\n\
         completed {completed}/{submissions} in {wall_secs:.3}s — \
         {experiments_per_sec:.1} experiments/sec\n\
         round latency p50 {p50:.4}s | p99 {p99:.4}s\n\
         checkpoint/restart/resume byte-identical: {resume_identical}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_burst_completes_and_renders_well_formed_json() {
        // A scaled-down burst keeps tier-1 fast while exercising the whole
        // pipeline: queued admissions, concurrent service, waiters, the
        // resume probe and the JSON shape.
        let bench = run_load(7, 6, 2, 4, 2);
        assert_eq!(bench.completed, 6, "every submission must complete");
        assert_eq!(bench.queued_after_inlet, 4);
        assert!(bench.resume_identical, "resume must be byte-identical");
        assert!(bench.wall_secs > 0.0);
        assert!(bench.round_latency_p50_secs <= bench.round_latency_p99_secs);
        let text = render_json(&bench, 7).render();
        assert!(text.contains("\"bench\": \"serve\""));
        assert!(text.contains("\"experiments_per_sec\""));
        assert!(text.contains("\"round_latency_p99_secs\""));
        assert!(text.contains("\"resume_identical\": true"));
    }

    #[test]
    fn json_rendering_is_well_formed() {
        // Hand-built: the JSON shape must not depend on running a burst.
        let bench = ServeBench {
            submissions: 60,
            completed: 60,
            max_in_flight: 8,
            queue_depth: 64,
            queued_after_inlet: 52,
            worker_threads: 2,
            hardware_threads: 2,
            wall_secs: 1.2345,
            experiments_per_sec: 48.6,
            round_latency_p50_secs: 0.0104,
            round_latency_p99_secs: 0.0251,
            resume_identical: true,
        };
        let json = render_json(&bench, 42);
        let text = json.render();
        assert_eq!(Json::parse(&text).as_ref(), Ok(&json), "round-trips");
        assert!(text.starts_with("{\"bench\": \"serve\", \"seed\": 42, "));
        assert!(text.contains("\"wall_secs\": 1.235,"), "{text}");
        assert!(text.ends_with("\"resume_identical\": true}"));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 50.0), 2.0);
        assert_eq!(percentile(&sorted, 99.0), 4.0);
        assert_eq!(percentile(&sorted, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
