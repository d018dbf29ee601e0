//! One workload, one process: set-up, the timed section, the correctness
//! checks, and (traced repetition only) the step trace and layer ladder.
//!
//! Load shape: a closed loop driven by this one thread. Batch workloads
//! hand over one experiment at a time; `service_burst` submits a whole
//! burst and waits for all of it. The benchmark starts no threads of its
//! own; the program's stay at its defaults.
//!
//! Host-time metrics are fast deciles ([`FAST_PCT`]) of repeated samples
//! of identical work, not medians: see `Samples::run_secs` and the
//! crate's README for why.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use unifyfl_core::events::{decode_trace, encode_trace};
use unifyfl_core::experiment::{ExperimentConfig, ExperimentReport};
use unifyfl_core::service::{
    ExperimentService, RunCheckpoint, RunOutcome, RunState, ServiceConfig, ServiceError,
};

use crate::ladder::{self, LadderInputs};
use crate::metrics::{STEP_LABELS, STEP_METRICS};
use crate::stats;
use crate::trace::Recorder;
use crate::workloads::{first_round_only, Workload, RESUME_EVERY};

/// Times the whole set-up is repeated; `setup_s` is the fastest decile.
const SETUP_REPS: usize = 5;
/// Untimed bursts that warm a service during set-up.
const WARMUP_BURSTS: usize = 2;
/// The percentile of repeated samples of the same work that host-time
/// metrics report (nearest rank: the minimum of up to ten samples, the
/// second fastest of twenty). Every repetition does identical work, so a
/// sample can only be slower than the work takes, never faster: on a
/// shared host the fast end is the program and the rest is the neighbours.
pub const FAST_PCT: f64 = 10.0;
/// Bursts one service instance serves before it is drained and replaced,
/// so memory retained per finished run cannot grow with how many bursts
/// happen to fit into `--seconds`.
const SERVICE_BURSTS: usize = 16;
/// Failure messages kept for the operator (the count is always exact).
const MAX_FAILURE_NOTES: usize = 8;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Seconds of operations to measure.
    pub seconds: f64,
    /// `false`: end-to-end metrics, no spans. `true`: per-layer metrics.
    pub traced: bool,
    /// Shrunken sizes for the tier-1 smoke test.
    pub smoke: bool,
}

/// What a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted in the measured section.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    /// One line for the operator: sample counts and how noisy the host was.
    pub summary: String,
    /// `(name, value)` in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// The spans of a traced run.
    pub trace: Option<Recorder>,
}

/// Hardware threads of the host (1 if unknown).
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Worker threads the service is started with: the host's threads, at
/// most four.
pub fn worker_threads() -> usize {
    hardware_threads().min(4)
}

// Every knob is set today; the update keeps this compiling when the
// service grows one.
#[allow(clippy::needless_update)]
fn service_config() -> ServiceConfig {
    ServiceConfig {
        max_in_flight: 8,
        queue_depth: 56,
        worker_threads: worker_threads(),
        slice_events: 32,
        ..ServiceConfig::default()
    }
}

fn start_service() -> ExperimentService {
    ExperimentService::start(service_config()).expect("service sizing is valid")
}

/// The generated inputs of one operation.
struct Inputs {
    configs: Vec<ExperimentConfig>,
    /// Burst members that arrive as a half-run checkpoint.
    checkpoints: Vec<Option<RunCheckpoint>>,
    /// The uninterrupted report of each checkpointed member.
    uninterrupted: Vec<Option<String>>,
}

/// Runs `config` alone and returns its report and how many events fired.
fn run_counting(config: &ExperimentConfig) -> (ExperimentReport, usize) {
    let mut state = RunState::new(config).expect("workload configs are valid");
    let mut events = 0;
    while state.step().is_some() {
        events += 1;
    }
    (state.run_to_completion(), events)
}

/// A checkpoint of `config` after `events` events, round-tripped through
/// the text codec as a persisted checkpoint would be.
fn checkpoint_after(config: &ExperimentConfig, events: usize) -> RunCheckpoint {
    let mut state = RunState::new(config).expect("workload configs are valid");
    for _ in 0..events {
        state.step();
    }
    let snapshot = state.checkpoint();
    RunCheckpoint::from_encoded_trace(snapshot.config.clone(), &snapshot.encoded_trace())
        .expect("an encoded trace decodes")
}

/// One full set-up: generate the inputs, prepare the checkpoints, and run
/// the warm-up (the first federation round of every batch config, or
/// [`WARMUP_BURSTS`] bursts through a service that is then drained).
fn set_up(opts: &Options) -> Inputs {
    let configs = opts.workload.configs(opts.seed, opts.smoke);
    let mut inputs = Inputs {
        checkpoints: vec![None; configs.len()],
        uninterrupted: vec![None; configs.len()],
        configs,
    };
    if opts.workload == Workload::ServiceBurst {
        for i in (0..inputs.configs.len()).step_by(RESUME_EVERY) {
            let (report, events) = run_counting(&inputs.configs[i]);
            inputs.uninterrupted[i] = Some(format!("{report:?}"));
            inputs.checkpoints[i] = Some(checkpoint_after(&inputs.configs[i], events / 2));
        }
        let service = start_service();
        for _ in 0..WARMUP_BURSTS {
            burst(&service, &inputs, None);
        }
        service.shutdown();
    } else {
        for config in &inputs.configs {
            RunState::new(&first_round_only(config))
                .expect("workload configs are valid")
                .run_to_completion();
        }
    }
    inputs
}

/// [`FAST_PCT`] of unsorted samples.
fn fast(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    stats::sort(&mut sorted);
    stats::percentile(&sorted, FAST_PCT)
}

/// What one operation produced.
struct Op {
    /// Hand-off → last report, seconds.
    secs: f64,
    /// A stepped batch operation cut at every event: assembly, each
    /// `step()`, the report build. The segments add up to `secs`.
    segments: Vec<f64>,
    /// Submit → report per submission, seconds.
    latencies: Vec<f64>,
    /// Per submission: the report, or why there is none.
    reports: Vec<Result<ExperimentReport, String>>,
    saturated: u64,
}

/// A batch operation: what `run_experiment` is.
fn solo(config: &ExperimentConfig) -> Op {
    let start = Instant::now();
    let report = RunState::new(config)
        .map(RunState::run_to_completion)
        .map_err(|e| e.to_string());
    let secs = start.elapsed().as_secs_f64();
    Op {
        secs,
        segments: Vec::new(),
        latencies: vec![secs],
        reports: vec![report],
        saturated: 0,
    }
}

/// Cuts an interval into consecutive segments.
struct Cuts {
    last: Instant,
    segments: Vec<f64>,
}

impl Cuts {
    /// Ends the current segment now and starts the next.
    fn cut(&mut self) {
        let now = Instant::now();
        self.segments.push((now - self.last).as_secs_f64());
        self.last = now;
    }
}

/// The same operation driven one event at a time, as `run_to_completion`
/// does itself, with a clock reading after assembly, after every event
/// and after the report build.
fn solo_stepped(config: &ExperimentConfig) -> Op {
    let mut cuts = Cuts {
        last: Instant::now(),
        segments: Vec::new(),
    };
    let report = RunState::new(config)
        .map_err(|e| e.to_string())
        .map(|mut state| {
            cuts.cut();
            while state.step().is_some() {
                cuts.cut();
            }
            state.run_to_completion()
        });
    cuts.cut();
    let secs = cuts.segments.iter().sum();
    Op {
        secs,
        segments: cuts.segments,
        latencies: vec![secs],
        reports: vec![report],
        saturated: 0,
    }
}

/// The same operation with a span around assembly, every step (keyed by
/// the label of the event it fired) and the final report build.
fn solo_traced(config: &ExperimentConfig, rec: &mut Recorder, run: u32) -> Op {
    let op = rec.enter("op", run);
    let assemble = rec.enter("core.assemble", run);
    let built = RunState::new(config);
    rec.exit(assemble);
    let report = built.map_err(|e| e.to_string()).map(|mut state| {
        loop {
            let started = rec.now_ns();
            match state.step() {
                Some(fired) => rec.leaf(fired.event.label(), started, run),
                None => break,
            }
        }
        let finish = rec.enter("core.finish", run);
        let report = state.run_to_completion();
        rec.exit(finish);
        report
    });
    rec.exit(op);
    let secs = rec.spans()[op].duration_ns() as f64 / 1e9;
    Op {
        secs,
        segments: Vec::new(),
        latencies: vec![secs],
        reports: vec![report],
        saturated: 0,
    }
}

/// Where an operation records spans: a recorder and the operation's run
/// id, or `None` for the untraced path.
type Spans<'a> = Option<(&'a mut Recorder, u32)>;

fn enter(spans: &mut Spans<'_>, name: &'static str) -> Option<usize> {
    spans.as_mut().map(|(rec, run)| rec.enter(name, *run))
}

fn exit(spans: &mut Spans<'_>, span: Option<usize>) {
    if let (Some((rec, _)), Some(span)) = (spans.as_mut(), span) {
        rec.exit(span);
    }
}

/// A burst: submit every member at once (checkpointed members through
/// `resume`), then wait for each handle in submission order. A member's
/// latency runs from its own submission to the return of its `wait`.
fn burst(service: &ExperimentService, inputs: &Inputs, mut spans: Spans<'_>) -> Op {
    let root = enter(&mut spans, "burst");
    let start = Instant::now();
    let mut saturated = 0;
    let handles: Vec<_> = inputs
        .configs
        .iter()
        .zip(&inputs.checkpoints)
        .map(|(config, checkpoint)| {
            let span = enter(&mut spans, "core.service.submit");
            let submitted = Instant::now();
            let handle = match checkpoint {
                Some(checkpoint) => service.resume(checkpoint.clone()),
                None => service.submit(config.clone()),
            };
            exit(&mut spans, span);
            if matches!(handle, Err(ServiceError::Saturated { .. })) {
                saturated += 1;
            }
            (submitted, handle.map_err(|e| e.to_string()))
        })
        .collect();
    let mut latencies = Vec::with_capacity(handles.len());
    let reports = handles
        .into_iter()
        .map(|(submitted, handle)| {
            let span = enter(&mut spans, "core.service.wait");
            let outcome = handle.map(|h| h.wait());
            exit(&mut spans, span);
            latencies.push(submitted.elapsed().as_secs_f64());
            match outcome? {
                RunOutcome::Completed(report) => Ok(*report),
                RunOutcome::Interrupted(_) => Err("interrupted before completion".to_owned()),
                RunOutcome::Failed(why) => Err(format!("run failed: {why}")),
            }
        })
        .collect();
    let secs = start.elapsed().as_secs_f64();
    exit(&mut spans, root);
    Op {
        secs,
        segments: Vec::new(),
        latencies,
        reports,
        saturated,
    }
}

/// Virtual seconds until the federation-mean global accuracy first
/// reaches `target_pct`, stamped at the slowest cluster of that round.
fn time_to_target(report: &ExperimentReport, target_pct: f64) -> Option<f64> {
    // round → (accuracy sum, clusters, latest completion)
    let mut rounds: BTreeMap<u64, (f64, f64, f64)> = BTreeMap::new();
    for point in report.aggregators.iter().flat_map(|a| &a.curve) {
        let entry = rounds.entry(point.round).or_insert((0.0, 0.0, 0.0));
        entry.0 += point.global_accuracy_pct;
        entry.1 += 1.0;
        entry.2 = entry.2.max(point.time_secs);
    }
    rounds
        .values()
        .find(|(sum, n, _)| sum / n >= target_pct)
        .map(|&(_, _, at)| at)
}

fn mean_accuracy(report: &ExperimentReport) -> f64 {
    let accs: Vec<f64> = report
        .aggregators
        .iter()
        .map(|a| a.global_accuracy_pct)
        .collect();
    stats::mean(&accs)
}

/// The correctness checks, and the tally of operations that broke one.
struct Checker {
    target_pct: f64,
    /// `format!("{report:?}")` of every submission of the first operation.
    reference: Vec<String>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checker {
    fn new(opts: &Options) -> Checker {
        Checker {
            // The shrunken smoke runs are too short to learn anything.
            target_pct: if opts.smoke {
                0.0
            } else {
                opts.workload.target_accuracy_pct()
            },
            reference: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Checks one operation; a broken check fails the whole operation.
    fn check(&mut self, op: &Op, inputs: &Inputs) {
        self.attempted += 1;
        let problem = self.problem(op, inputs);
        if let Some(problem) = problem {
            self.failed += 1;
            if self.failures.len() < MAX_FAILURE_NOTES {
                self.failures
                    .push(format!("operation {}: {problem}", self.attempted));
            }
        }
    }

    fn problem(&mut self, op: &Op, inputs: &Inputs) -> Option<String> {
        if op.saturated > 0 {
            return Some(format!(
                "{} submissions were rejected as Saturated",
                op.saturated
            ));
        }
        let mut rendered = Vec::with_capacity(op.reports.len());
        for (i, report) in op.reports.iter().enumerate() {
            match report {
                Ok(report) => rendered.push(format!("{report:?}")),
                Err(why) => return Some(format!("submission {i} did not complete: {why}")),
            }
        }
        if !self.reference.is_empty() {
            // Every repetition must reproduce the first one exactly; the
            // first one passed the checks below.
            return (rendered != self.reference)
                .then(|| "report differs from the first repetition's".to_owned());
        }
        for (i, report) in op.reports.iter().flatten().enumerate() {
            if let Some(uninterrupted) = &inputs.uninterrupted[i] {
                if &rendered[i] != uninterrupted {
                    return Some(format!(
                        "resumed submission {i} differs from its uninterrupted run"
                    ));
                }
            }
            let t = &report.transfer;
            if t.physical_bytes > t.logical_bytes {
                return Some(format!(
                    "submission {i} moved {} physical bytes for {} logical",
                    t.physical_bytes, t.logical_bytes
                ));
            }
            if report.chain.failed_txs != 0 {
                return Some(format!(
                    "submission {i} has {} failed transactions on a fault-free run",
                    report.chain.failed_txs
                ));
            }
            if time_to_target(report, self.target_pct).is_none() {
                return Some(format!(
                    "submission {i} never reached {}% accuracy",
                    self.target_pct
                ));
            }
        }
        self.reference = rendered;
        None
    }
}

/// The samples of a measured section.
#[derive(Default)]
struct Samples {
    op_secs: Vec<f64>,
    /// Per operation, its segments (stepped batch operations only).
    segments: Vec<Vec<f64>>,
    /// Per operation, the median latency of its submissions.
    op_latency_p50: Vec<f64>,
    latencies: Vec<f64>,
    /// Cluster rounds one operation completes.
    rounds_per_op: u64,
    saturated: u64,
    /// The first operation's reports (every later one is checked equal).
    first: Vec<ExperimentReport>,
}

impl Samples {
    fn record(&mut self, op: Op) {
        self.op_secs.push(op.secs);
        self.segments.push(op.segments);
        self.op_latency_p50.push(stats::median(&op.latencies));
        self.latencies.extend(&op.latencies);
        self.saturated += op.saturated;
        self.rounds_per_op = op
            .reports
            .iter()
            .flatten()
            .flat_map(|r| &r.aggregators)
            .map(|a| a.rounds)
            .sum();
        if self.first.is_empty() {
            self.first = op.reports.into_iter().flatten().collect();
        }
    }

    fn busy_secs(&self) -> f64 {
        self.op_secs.iter().sum()
    }

    /// Host seconds of one operation with the neighbours' share taken
    /// out. Every repetition fires the same events in the same order, so
    /// event `k` has one sample per repetition; the operation is the sum
    /// over `k` of the fast sample of segment `k`. Interference shorter
    /// than an operation, which slows some part of every repetition, is
    /// dropped where it fell. Unstepped operations (bursts), or
    /// repetitions that disagree on the event count (a determinism
    /// failure, counted by the checker), fall back to whole operations.
    fn run_secs(&self) -> f64 {
        let events = self.segments[0].len();
        if events == 0 || self.segments.iter().any(|s| s.len() != events) {
            return fast(&self.op_secs);
        }
        let mut column = Vec::with_capacity(self.segments.len());
        (0..events)
            .map(|k| {
                column.clear();
                column.extend(self.segments.iter().map(|s| s[k]));
                fast(&column)
            })
            .sum()
    }
}

/// Peak resident set of this process, in MB (10⁶ bytes).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Runs the measured section: whole operations until `seconds` of them
/// have accumulated, a fresh service serving each block of
/// [`SERVICE_BURSTS`] bursts. With a recorder, plain and spanned
/// operations alternate — so both kinds see the same caches, allocator
/// state and host noise — and are returned apart as `(plain, spanned)`.
fn measure(
    opts: &Options,
    inputs: &Inputs,
    checker: &mut Checker,
    mut rec: Option<&mut Recorder>,
) -> (Samples, Samples) {
    let (mut plain, mut spanned) = (Samples::default(), Samples::default());
    let is_service = opts.workload == Workload::ServiceBurst;
    let needs_spanned = rec.is_some();
    // Stops before the operation that would overrun `seconds`, so a run
    // of 5 s operations lasts no longer than one of 5 ms ones.
    let enough = |plain: &Samples, spanned: &Samples| {
        let ops = plain.op_secs.len() + spanned.op_secs.len();
        let busy = plain.busy_secs() + spanned.busy_secs();
        ops > 0
            && busy + busy / ops as f64 > opts.seconds
            && !(needs_spanned && spanned.op_secs.is_empty())
    };
    let mut run_id = 0u32;
    while !enough(&plain, &spanned) {
        let service = is_service.then(start_service);
        for _ in 0..SERVICE_BURSTS {
            run_id += 1;
            let spans = rec
                .as_deref_mut()
                .filter(|_| run_id.is_multiple_of(2))
                .map(|rec| (rec, run_id));
            let with_spans = spans.is_some();
            let op = match (&service, spans) {
                (Some(service), spans) => burst(service, inputs, spans),
                (None, None) if needs_spanned => solo(&inputs.configs[0]),
                (None, None) => solo_stepped(&inputs.configs[0]),
                (None, Some((rec, run))) => solo_traced(&inputs.configs[0], rec, run),
            };
            checker.check(&op, inputs);
            if with_spans {
                spanned.record(op);
            } else {
                plain.record(op);
            }
            if enough(&plain, &spanned) {
                break;
            }
        }
        if let Some(service) = service {
            service.shutdown();
        }
    }
    (plain, spanned)
}

/// Runs one workload as the driver asks for it and returns its metrics.
pub fn run(opts: &Options) -> Outcome {
    if opts.traced {
        return run_traced(opts);
    }
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        inputs = Some(set_up(opts));
        setup_secs.push(start.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("set-up ran");
    let mut checker = Checker::new(opts);
    let (samples, _) = measure(opts, &inputs, &mut checker, None);

    let durations: Vec<f64> = samples.first.iter().map(|r| r.wall_secs).collect();
    let wire: u64 = samples
        .first
        .iter()
        .map(|r| r.transfer.physical_bytes)
        .sum();
    let run_secs = samples.run_secs();
    // One submission in flight: a batch operation's latency is its run.
    let latency_p50 = if opts.workload == Workload::ServiceBurst {
        fast(&samples.op_latency_p50)
    } else {
        run_secs
    };
    let metrics = vec![
        ("setup_s", fast(&setup_secs)),
        ("run_s", run_secs),
        (
            "cluster_rounds_per_s",
            samples.rounds_per_op as f64 / run_secs,
        ),
        ("peak_rss_mb", peak_rss_mb()),
        ("latency_p50_s", latency_p50),
        ("sim_duration_s", stats::mean(&durations)),
        ("sim_wire_mb", wire as f64 / 1e6),
    ];
    let median = stats::median(&samples.op_secs);
    let summary = format!(
        "{} operations of {} submissions in {:.1} s after {SETUP_REPS} set-ups; \
         median operation {median:.4} s, {:.1}% over run_s (the host's interference)",
        samples.op_secs.len(),
        inputs.configs.len(),
        samples.busy_secs(),
        100.0 * (median / run_secs - 1.0),
    );
    Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        failures: checker.failures,
        summary,
        metrics,
        trace: None,
    }
}

/// Per-run means read off the `op` spans of the step trace.
struct StepProfile {
    runs: f64,
    total_ns: f64,
    unattributed_ns: f64,
    assemble_ns: f64,
    finish_ns: f64,
    step_ns: Vec<f64>,
    step_n: Vec<f64>,
    op_secs: Vec<f64>,
}

fn step_profile(rec: &Recorder) -> StepProfile {
    let mut p = StepProfile {
        runs: 0.0,
        total_ns: 0.0,
        unattributed_ns: 0.0,
        assemble_ns: 0.0,
        finish_ns: 0.0,
        step_ns: vec![0.0; STEP_LABELS.len()],
        step_n: vec![0.0; STEP_LABELS.len()],
        op_secs: Vec::new(),
    };
    for (id, root) in rec.spans().iter().enumerate() {
        if root.parent.is_some() || root.name != "op" {
            continue;
        }
        p.runs += 1.0;
        p.total_ns += root.duration_ns() as f64;
        p.op_secs.push(root.duration_ns() as f64 / 1e9);
        p.unattributed_ns += rec.self_ns(id) as f64;
        for child in rec.children(id) {
            let ns = child.duration_ns() as f64;
            match child.name {
                "core.assemble" => p.assemble_ns += ns,
                "core.finish" => p.finish_ns += ns,
                label => match STEP_LABELS.iter().position(|l| *l == label) {
                    Some(i) => {
                        p.step_ns[i] += ns;
                        p.step_n[i] += 1.0;
                    }
                    // An event kind this catalogue does not know yet is
                    // nobody's: it shows up as unattributed.
                    None => p.unattributed_ns += ns,
                },
            }
        }
    }
    p
}

/// Trace codec and resume speed, on a checkpoint of `config` taken after
/// `events` events.
fn checkpoint_values(
    config: &ExperimentConfig,
    events: usize,
    budget_secs: f64,
) -> Vec<(&'static str, f64)> {
    let checkpoint = checkpoint_after(config, events);
    let encoded_len = encode_trace(&checkpoint.trace).len();
    let codec_secs = ladder::secs_per_call(budget_secs, || {
        let text = encode_trace(black_box(&checkpoint.trace));
        black_box(decode_trace(&text).expect("an encoded trace decodes"));
    });
    let start = Instant::now();
    let resumed = RunState::resume(&checkpoint);
    let resume_secs = start.elapsed().as_secs_f64();
    assert!(resumed.is_ok(), "a checkpoint of this run resumes");
    vec![
        (
            "core.trace_codec_mb_s",
            encoded_len as f64 / 1e6 / codec_secs,
        ),
        ("core.resume_events_per_s", events as f64 / resume_secs),
    ]
}

/// Exact counts and simulated outcomes of one operation's reports: counts
/// summed over a burst, accuracy and time-to-target averaged.
fn report_values(reports: &[ExperimentReport], target_pct: f64) -> Vec<(&'static str, f64)> {
    let sum = |f: &dyn Fn(&ExperimentReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let aggs = |f: &dyn Fn(&unifyfl_core::AggregatorReport) -> u64| {
        sum(&|r| r.aggregators.iter().map(f).sum())
    };
    let targets: Vec<f64> = reports
        .iter()
        .filter_map(|r| time_to_target(r, target_pct))
        .collect();
    let accuracies: Vec<f64> = reports.iter().map(mean_accuracy).collect();
    let hits = sum(&|r| r.transfer.cache_hits);
    let lookups = hits + sum(&|r| r.transfer.cache_misses);
    vec![
        ("core.straggler_rounds", aggs(&|a| a.straggler_rounds)),
        ("core.rejected_scores", aggs(&|a| a.rejected_scores)),
        ("sim_time_to_target_s", stats::mean(&targets)),
        ("sim_accuracy_pct", stats::mean(&accuracies)),
        (
            "storage.physical_bytes",
            sum(&|r| r.transfer.physical_bytes),
        ),
        ("storage.logical_bytes", sum(&|r| r.transfer.logical_bytes)),
        (
            "storage.cache_hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        ),
        ("storage.delta_fetches", sum(&|r| r.transfer.delta_fetches)),
        (
            "storage.delta_fallbacks",
            sum(&|r| r.transfer.delta_fallbacks),
        ),
        (
            "storage.dedup_chunks_skipped",
            sum(&|r| r.transfer.dedup_chunks_skipped),
        ),
        (
            "storage.routed_fetches",
            sum(&|r| r.transfer.routed_fetches),
        ),
        ("storage.route_hops", sum(&|r| r.transfer.route_hops)),
        ("storage.relayed_bytes", sum(&|r| r.transfer.relayed_bytes)),
        ("chain.txs", sum(&|r| r.chain.txs)),
        ("chain.blocks", sum(&|r| r.chain.blocks)),
        ("chain.failed_txs", sum(&|r| r.chain.failed_txs)),
        ("chain.gas_used", sum(&|r| r.chain.gas_used)),
    ]
}

/// The traced repetition: alternates untraced and traced operations for
/// `seconds`, then reads the per-layer metrics off the spans, the first
/// report and the layer ladder.
fn run_traced(opts: &Options) -> Outcome {
    let inputs = set_up(opts);
    let mut checker = Checker::new(opts);
    let mut rec = Recorder::new();
    let (plain, traced) = measure(opts, &inputs, &mut checker, Some(&mut rec));
    let mut saturated = plain.saturated + traced.saturated;
    // Run ids of the follow-up passes start above the measured section's.
    let mut run_id = (plain.op_secs.len() + traced.op_secs.len()) as u32;
    let is_service = opts.workload == Workload::ServiceBurst;

    // The step trace of a burst member is only visible from outside when
    // the member runs alone, so the burst's members are replayed solo; a
    // batch workload is pushed through a one-slot burst for the service
    // numbers instead.
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut service_latencies = plain.latencies.clone();
    service_latencies.extend(&traced.latencies);
    if is_service {
        for config in &inputs.configs {
            run_id += 1;
            solo_traced(config, &mut rec, run_id);
        }
    } else {
        let service = start_service();
        run_id += 1;
        let op = burst(&service, &inputs, Some((&mut rec, run_id)));
        service.shutdown();
        checker.check(&op, &inputs);
        saturated += op.saturated;
        service_latencies = op.latencies;
    }
    let profile = step_profile(&rec);
    let events = profile.step_n.iter().sum::<f64>() / profile.runs;
    let per_run = |ns: f64| ns / profile.runs;
    values.insert("core.traced_run_s", per_run(profile.total_ns) / 1e9);
    values.insert("core.assemble_ms", per_run(profile.assemble_ns) / 1e6);
    values.insert("core.finish_ms", per_run(profile.finish_ns) / 1e6);
    values.insert(
        "core.unattributed_pct",
        100.0 * profile.unattributed_ns / profile.total_ns,
    );
    values.insert(
        "core.events_per_s",
        events / (per_run(profile.total_ns) / 1e9),
    );
    for (i, (secs, count)) in STEP_METRICS.iter().enumerate() {
        values.insert(secs.name, per_run(profile.step_ns[i]) / 1e9);
        values.insert(count.name, per_run(profile.step_n[i]));
    }
    // Plain and spanned operations alternate, so both kinds meet the
    // same host; their fast samples are the two programs.
    values.insert(
        "trace_overhead_pct",
        100.0 * (fast(&traced.op_secs) / fast(&plain.op_secs) - 1.0),
    );

    // core::service, from the spans around submit/resume/wait.
    let submit_ns: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "core.service.submit")
        .map(|s| s.duration_ns() as f64)
        .collect();
    values.insert("core.service.submit_us", stats::mean(&submit_ns) / 1e3);
    stats::sort(&mut service_latencies);
    values.insert(
        "core.service.queue_wait_p50_ms",
        (stats::percentile(&service_latencies, 50.0) - stats::median(&profile.op_secs)) * 1e3,
    );
    values.insert(
        "core.service.latency_p99_ms",
        stats::percentile(&service_latencies, 99.0) * 1e3,
    );
    values.insert("core.service.saturated_n", saturated as f64);

    let config = &inputs.configs[0];
    let leaf_budget = if opts.smoke {
        1e-3
    } else {
        ladder::LEAF_BUDGET_SECS
    };
    values.extend(checkpoint_values(config, events as usize / 2, leaf_budget));
    values.extend(report_values(&plain.first, checker.target_pct));
    if let Some(report) = plain.first.first() {
        values.extend(ladder::run(&LadderInputs {
            config,
            report,
            events: events as usize,
            budget_secs: leaf_budget,
        }));
    }

    let metrics = crate::metrics::per_layer()
        .iter()
        .map(|def| (def.name, values.get(def.name).copied().unwrap_or(f64::NAN)))
        .collect();
    Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        failures: checker.failures,
        summary: format!(
            "{} plain and {} spanned operations",
            plain.op_secs.len(),
            traced.op_secs.len()
        ),
        metrics,
        trace: Some(rec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(segments: &[&[f64]]) -> Samples {
        Samples {
            op_secs: segments.iter().map(|s| s.iter().sum()).collect(),
            segments: segments.iter().map(|s| s.to_vec()).collect(),
            ..Samples::default()
        }
    }

    #[test]
    fn run_secs_drops_a_disturbance_where_it_fell() {
        // Each repetition was disturbed in another segment: no whole
        // repetition took 3 s, yet that is what the work takes.
        let s = samples(&[&[1.0, 5.0, 1.0], &[3.0, 1.0, 1.0], &[1.0, 1.0, 2.0]]);
        assert_eq!(s.run_secs(), 3.0);
    }

    #[test]
    fn run_secs_falls_back_to_whole_operations() {
        // Bursts carry no segments.
        let mut bursts = samples(&[&[], &[], &[]]);
        bursts.op_secs = vec![0.3, 0.2, 0.4];
        assert_eq!(bursts.run_secs(), 0.2);
        // Repetitions that fired different event counts cannot be aligned.
        assert_eq!(samples(&[&[1.0, 1.0], &[4.0]]).run_secs(), 2.0);
    }
}
