//! The service layer: run the federation as a daemon.
//!
//! Every other entry point in this crate is a *batch* runner — build an
//! [`ExperimentConfig`], block until the [`ExperimentReport`] comes back.
//! This module turns the same machinery into long-running middleware: an
//! [`ExperimentService`] accepts experiment submissions over time, runs up
//! to a bounded number of them concurrently on a shared worker pool, and
//! hands each caller a [`RunHandle`] to wait on. The shape follows the
//! backpressured actor loop common to networked middleware:
//!
//! - **inlet** — [`ExperimentService::submit`] is the admission gate.
//!   Up to [`ServiceConfig::max_in_flight`] runs execute at once; past
//!   that, up to [`ServiceConfig::queue_depth`] wait in a FIFO; past
//!   *that*, submission fails fast with [`ServiceError::Saturated`] so a
//!   flooded service sheds load instead of buffering unboundedly.
//! - **poll** — each run is a [`RunState`]: the poll-resumable event
//!   kernel ([`crate::events`]) plus the engine policy for the run's mode.
//!   Workers pull the admitted run with the *lowest virtual time* from a
//!   shared [`EventQueue`] scheduler, step it a bounded slice of events,
//!   and put it back — cooperative multitasking over virtual time, so no
//!   run can starve the pool.
//! - **effects outlet** — finished runs resolve their [`RunHandle`] with a
//!   [`RunOutcome`]: the report, a resumable checkpoint, or a captured
//!   failure. A panicking run is contained to its own slice and reported
//!   as [`RunOutcome::Failed`]; it never takes the service down.
//!
//! # Determinism and isolation
//!
//! A run's entire evolution is a pure function of its configuration: the
//! kernel, the policies, and every substrate below them derive all
//! randomness from the config seed, and no state is shared between runs.
//! Stepping a run in slices interleaved with 50 neighbours therefore
//! produces a report **byte-identical** to running it alone — the property
//! `tests/service_determinism.rs` pins across seeds, modes, engines and
//! chaos.
//!
//! # Checkpoint / resume
//!
//! The same purity makes checkpointing nearly free: a snapshot is just the
//! configuration plus the fired-event trace ([`RunCheckpoint`]). Resuming
//! rebuilds the federation from the config and replays the trace through
//! the live kernel, verifying every replayed event against the snapshot
//! (divergence is a typed error, not silent corruption), then continues
//! stepping as if never interrupted. [`ExperimentService::halt`] snapshots
//! every in-flight run this way; feeding the checkpoints back through
//! [`ExperimentService::resume`] on a fresh service completes them to
//! reports byte-identical to uninterrupted runs.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use unifyfl_sim::{EventQueue, SimTime};

use crate::events::{self, EventPolicy, EventRecord, Kernel, TraceDecodeError};
use crate::experiment::{self, ExperimentConfig, ExperimentError, ExperimentReport};
use crate::federation::Federation;
use crate::orchestration::policy_for;

/// One run of an experiment, stepped event by event.
///
/// This is the poll-resumable form of [`experiment::run_experiment`]: the
/// assembled [`Federation`], the engine policy for the configured mode,
/// and the event kernel, advanced one fired event per [`RunState::step`].
/// The blocking entry point is literally `RunState::new(..)?.run_to_completion()`,
/// so a stepped run and a batch run execute the same code and produce
/// byte-identical reports by construction.
pub struct RunState {
    config: ExperimentConfig,
    fed: Federation,
    policy: Box<dyn EventPolicy + Send>,
    kernel: Kernel,
}

impl RunState {
    /// Validates `config`, assembles the federation and builds the engine
    /// policy, ready to step. No events have fired yet.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError`] if the configuration is invalid.
    pub fn new(config: &ExperimentConfig) -> Result<RunState, ExperimentError> {
        let fed = Federation::assemble(config)?;
        let policy = policy_for(
            &fed,
            config.mode,
            &config.workload,
            config.scorer,
            config.window_margin,
            config.engine,
        );
        Ok(RunState {
            config: config.clone(),
            fed,
            policy,
            kernel: Kernel::new(),
        })
    }

    /// Rebuilds a run from a checkpoint: assembles a fresh federation from
    /// the snapshotted configuration and replays the snapshotted trace
    /// through the live kernel, verifying each replayed event against the
    /// record in the checkpoint. On success the run continues from exactly
    /// where the snapshot was taken.
    ///
    /// # Errors
    ///
    /// [`ResumeError::Invalid`] if the snapshotted configuration no longer
    /// validates; [`ResumeError::Diverged`] if replay fires an event that
    /// differs from the snapshot (a corrupted or mismatched trace).
    pub fn resume(checkpoint: &RunCheckpoint) -> Result<RunState, ResumeError> {
        let mut state = RunState::new(&checkpoint.config).map_err(ResumeError::Invalid)?;
        for (index, &expected) in checkpoint.trace.iter().enumerate() {
            let fired = state.step();
            if fired != Some(expected) {
                return Err(ResumeError::Diverged {
                    index,
                    expected,
                    fired,
                });
            }
        }
        Ok(state)
    }

    /// Fires the next event and returns its record, or `None` when the run
    /// has no live events left (it is complete).
    pub fn step(&mut self) -> Option<EventRecord> {
        self.kernel.step(&mut self.fed, self.policy.as_mut())
    }

    /// The configuration this run was built from.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Read-only view of the federation being run.
    pub fn federation(&self) -> &Federation {
        &self.fed
    }

    /// The events fired so far, in firing order.
    pub fn trace(&self) -> &[EventRecord] {
        self.kernel.trace()
    }

    /// The virtual instant of the most recently fired event (`t = 0`
    /// before any event fires). The service scheduler uses this to always
    /// step the furthest-behind run next.
    pub fn virtual_now(&self) -> SimTime {
        self.kernel
            .trace()
            .last()
            .map(|r| r.at)
            .unwrap_or(SimTime::ZERO)
    }

    /// Snapshots the run as its configuration plus fired-event trace —
    /// everything needed to [`RunState::resume`] it later, in this process
    /// or another.
    pub fn checkpoint(&self) -> RunCheckpoint {
        RunCheckpoint {
            config: self.config.clone(),
            trace: self.kernel.trace().to_vec(),
        }
    }

    /// Steps the run to completion and builds its report — the blocking
    /// batch semantics, usable on a fresh, partially stepped, or resumed
    /// run alike.
    pub fn run_to_completion(self) -> ExperimentReport {
        self.finish().0
    }

    /// [`RunState::run_to_completion`], also handing back the federation
    /// as the run — final merge included — left it: the chain to audit,
    /// the contract's entries, every cluster's weights and records, the
    /// storage fabric. The only way to hold a [`Federation`] outside this
    /// crate, so whatever is inspected went through validation and ran on
    /// the same route as every other run. (Read [`RunState::trace`] before
    /// finishing if the fired events are wanted too.)
    pub fn finish(self) -> (ExperimentReport, Federation) {
        self.finish_in_waves(None)
    }

    /// [`RunState::finish`] with the final merge's wave size stated, for
    /// the test that holds every size to the same report.
    pub(crate) fn finish_in_waves(mut self, wave: Option<usize>) -> (ExperimentReport, Federation) {
        while self.step().is_some() {}
        let RunState {
            config,
            mut fed,
            policy,
            ..
        } = self;
        let outcome = policy.finish(&mut fed, wave);
        let report = experiment::build_report(&config, &fed, outcome);
        (report, fed)
    }
}

impl std::fmt::Debug for RunState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunState")
            .field("label", &self.config.label)
            .field("seed", &self.config.seed)
            .field("events_fired", &self.kernel.trace().len())
            .field("virtual_now", &self.virtual_now())
            .finish_non_exhaustive()
    }
}

/// A resumable snapshot of a run: its configuration plus every event fired
/// so far. Because a run is a pure function of its configuration, this is
/// sufficient to reconstruct it exactly — see [`RunState::resume`].
#[derive(Debug, Clone)]
pub struct RunCheckpoint {
    /// The configuration the run was built from.
    pub config: ExperimentConfig,
    /// The events fired before the snapshot, in firing order.
    pub trace: Vec<EventRecord>,
}

impl RunCheckpoint {
    /// The number of events fired before the snapshot.
    pub fn events_fired(&self) -> usize {
        self.trace.len()
    }

    /// Renders the snapshot's trace in the line-oriented text codec
    /// ([`events::encode_trace`]) for persistence outside the process.
    pub fn encoded_trace(&self) -> String {
        events::encode_trace(&self.trace)
    }

    /// Rebuilds a checkpoint from a configuration and a trace previously
    /// rendered by [`RunCheckpoint::encoded_trace`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceDecodeError`] if the text is not a valid trace.
    pub fn from_encoded_trace(
        config: ExperimentConfig,
        text: &str,
    ) -> Result<RunCheckpoint, TraceDecodeError> {
        Ok(RunCheckpoint {
            config,
            trace: events::decode_trace(text)?,
        })
    }
}

/// Failure to resume a run from a [`RunCheckpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The snapshotted configuration no longer validates.
    Invalid(ExperimentError),
    /// Replay fired an event that differs from the snapshot: the trace
    /// does not belong to this configuration (or was corrupted). Carries
    /// the first diverging position, the snapshotted record, and what
    /// actually fired (`None` if the run ended early).
    Diverged {
        /// Zero-based index into the snapshot's trace.
        index: usize,
        /// The record the snapshot expected at `index`.
        expected: EventRecord,
        /// The record replay actually fired (`None`: run ended early).
        fired: Option<EventRecord>,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Invalid(err) => write!(f, "checkpoint config is invalid: {err}"),
            ResumeError::Diverged {
                index,
                expected,
                fired,
            } => write!(
                f,
                "replay diverged from checkpoint at event {index}: expected {expected:?}, fired {fired:?}"
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

/// Sizing knobs for an [`ExperimentService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Runs executing concurrently before submissions start queueing.
    /// Must be at least 1.
    pub max_in_flight: usize,
    /// Submissions held in FIFO order once `max_in_flight` is reached;
    /// past this bound [`ExperimentService::submit`] fails with
    /// [`ServiceError::Saturated`]. Zero is legal (reject immediately at
    /// the in-flight bound).
    pub queue_depth: usize,
    /// OS worker threads stepping runs. Zero is legal and leaves the
    /// service paused: submissions are admitted and queued but nothing
    /// executes until shutdown checkpoints them — useful for
    /// deterministic admission tests.
    pub worker_threads: usize,
    /// Events a worker fires on one run before putting it back and
    /// picking the furthest-behind run — the cooperative-multitasking
    /// quantum. Must be at least 1.
    pub slice_events: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            max_in_flight: 4,
            queue_depth: 16,
            worker_threads: 2,
            slice_events: 64,
        }
    }
}

impl ServiceConfig {
    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::InvalidService`] naming the offending knob.
    pub fn validate(&self) -> Result<(), ServiceError> {
        if self.max_in_flight == 0 {
            return Err(ServiceError::InvalidService("max_in_flight"));
        }
        if self.slice_events == 0 {
            return Err(ServiceError::InvalidService("slice_events"));
        }
        Ok(())
    }
}

/// Submission failure at the service inlet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The experiment configuration is invalid (rejected eagerly at the
    /// inlet, before consuming any capacity).
    Invalid(ExperimentError),
    /// A service sizing knob is out of range (the name of the knob).
    InvalidService(&'static str),
    /// Both the in-flight bound and the queue are full — the backpressure
    /// bound. Carries the limits that were hit.
    Saturated {
        /// The concurrent-runs bound that was full.
        max_in_flight: usize,
        /// The queue bound that was full.
        queue_depth: usize,
    },
    /// The service is shutting down and no longer accepts submissions.
    ShuttingDown,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Invalid(err) => write!(f, "invalid experiment config: {err}"),
            ServiceError::InvalidService(knob) => {
                write!(f, "service knob {knob} is out of range")
            }
            ServiceError::Saturated {
                max_in_flight,
                queue_depth,
            } => write!(
                f,
                "service saturated: {max_in_flight} runs in flight and {queue_depth} queued"
            ),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Opaque identifier of a submitted run, unique within its service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RunId(u64);

impl std::fmt::Display for RunId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "run-{}", self.0)
    }
}

/// How a submitted run ended.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The run drained every event; here is its report.
    Completed(Box<ExperimentReport>),
    /// The service stopped before the run finished. The partial progress
    /// is flagged as a resumable checkpoint — feed it back through
    /// [`ExperimentService::resume`] (or [`RunState::resume`]) to finish
    /// the run with a report byte-identical to an uninterrupted one.
    Interrupted(Box<RunCheckpoint>),
    /// The run panicked or failed to build; the service contained the
    /// failure to this run. Carries the captured message.
    Failed(String),
}

impl RunOutcome {
    /// The completed report, if the run finished.
    pub fn report(&self) -> Option<&ExperimentReport> {
        match self {
            RunOutcome::Completed(report) => Some(report),
            _ => None,
        }
    }

    /// The resumable checkpoint, if the run was interrupted.
    pub fn checkpoint(&self) -> Option<&RunCheckpoint> {
        match self {
            RunOutcome::Interrupted(checkpoint) => Some(checkpoint),
            _ => None,
        }
    }

    /// True if the run completed with a report.
    pub fn is_completed(&self) -> bool {
        matches!(self, RunOutcome::Completed(_))
    }
}

/// A caller's side of one submission: poll or block for its outcome.
///
/// Handles stay valid after the service shuts down (they share ownership
/// of the outcome table), so waiting never dangles.
#[derive(Clone)]
pub struct RunHandle {
    id: RunId,
    shared: Arc<Shared>,
}

impl RunHandle {
    /// The run's identifier.
    pub fn id(&self) -> RunId {
        self.id
    }

    /// Blocks until the run ends and returns its outcome.
    ///
    /// Note: on a paused service (`worker_threads == 0`) nothing ends a
    /// run until [`ExperimentService::shutdown`] checkpoints it, so call
    /// that first (or from another thread).
    pub fn wait(&self) -> RunOutcome {
        let mut st = lock(&self.shared.state);
        loop {
            if let RunPhase::Done(outcome) =
                &st.slots.get(&self.id).expect("handle has a slot").phase
            {
                return outcome.clone();
            }
            st = wait_on(&self.shared.done, st);
        }
    }
}

impl std::fmt::Debug for RunHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunHandle").field("id", &self.id).finish()
    }
}

/// Where a run came from: a fresh submission or a checkpoint. Kept so an
/// unstarted run can still be checkpointed at shutdown (a fresh run's
/// snapshot is just its config with an empty trace).
#[derive(Clone)]
enum RunSource {
    Fresh(ExperimentConfig),
    Resumed(RunCheckpoint),
}

fn source_checkpoint(source: &RunSource) -> RunCheckpoint {
    match source {
        RunSource::Fresh(config) => RunCheckpoint {
            config: config.clone(),
            trace: Vec::new(),
        },
        RunSource::Resumed(checkpoint) => checkpoint.clone(),
    }
}

/// A run's position in the service lifecycle.
enum RunPhase {
    /// Admitted or queued; the `RunState` has not been built yet.
    Waiting,
    /// Built and parked between slices.
    Ready(Box<RunState>),
    /// A worker holds the `RunState` and is stepping it.
    Leased,
    /// Ended; the outcome is ready for the handle.
    Done(RunOutcome),
}

struct Slot {
    source: RunSource,
    phase: RunPhase,
}

/// Mutable service state, guarded by [`Shared::state`].
struct ServiceState {
    slots: BTreeMap<RunId, Slot>,
    /// Admitted runs ready for a worker, ordered by virtual time (keyed
    /// by run id for deterministic ties) — the shared cross-run scheduler.
    scheduler: EventQueue<RunId>,
    /// Submissions waiting for an in-flight slot, FIFO.
    queued: VecDeque<RunId>,
    /// Admitted-but-not-done runs (never exceeds `max_in_flight`).
    in_flight: usize,
    next_id: u64,
    shutting_down: bool,
    halting: bool,
}

struct Shared {
    state: Mutex<ServiceState>,
    /// Signalled when the scheduler gains work or the service stops.
    work_ready: Condvar,
    /// Signalled when any run reaches [`RunPhase::Done`].
    done: Condvar,
}

/// Poison-tolerant lock: a panicking run must never wedge the service, so
/// lock poisoning (possible only via a panic inside a short critical
/// section, which would be a bug here anyway) is absorbed rather than
/// propagated.
fn lock(mutex: &Mutex<ServiceState>) -> MutexGuard<'_, ServiceState> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

fn wait_on<'a>(
    condvar: &Condvar,
    guard: MutexGuard<'a, ServiceState>,
) -> MutexGuard<'a, ServiceState> {
    condvar.wait(guard).unwrap_or_else(|e| e.into_inner())
}

/// The daemon: a bounded pool of workers stepping up to
/// [`ServiceConfig::max_in_flight`] experiments concurrently, with FIFO
/// queueing and typed load-shedding past the backpressure bound. See the
/// [module docs](self) for the full actor shape.
pub struct ExperimentService {
    config: ServiceConfig,
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl ExperimentService {
    /// Starts a service: spawns the worker pool and opens the inlet.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::InvalidService`] if a sizing knob is out of
    /// range.
    pub fn start(config: ServiceConfig) -> Result<ExperimentService, ServiceError> {
        config.validate()?;
        let shared = Arc::new(Shared {
            state: Mutex::new(ServiceState {
                slots: BTreeMap::new(),
                scheduler: EventQueue::new(),
                queued: VecDeque::new(),
                in_flight: 0,
                next_id: 0,
                shutting_down: false,
                halting: false,
            }),
            work_ready: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (0..config.worker_threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let slice = config.slice_events;
                std::thread::Builder::new()
                    .name(format!("unifyfl-serve-{i}"))
                    .spawn(move || worker_loop(&shared, slice))
                    .expect("spawn service worker thread")
            })
            .collect();
        Ok(ExperimentService {
            config,
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// The sizing knobs the service was started with.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// Submits a fresh experiment.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Invalid`] if the configuration fails validation
    /// (checked eagerly, consuming no capacity); [`ServiceError::Saturated`]
    /// past the backpressure bound; [`ServiceError::ShuttingDown`] after
    /// [`ExperimentService::shutdown`] / [`ExperimentService::halt`].
    pub fn submit(&self, config: ExperimentConfig) -> Result<RunHandle, ServiceError> {
        config.validate().map_err(ServiceError::Invalid)?;
        self.admit(RunSource::Fresh(config))
    }

    /// Submits a checkpointed run to be resumed and completed.
    ///
    /// # Errors
    ///
    /// Same admission errors as [`ExperimentService::submit`]. A trace
    /// that fails replay verification surfaces later as
    /// [`RunOutcome::Failed`] on the handle (the expensive check runs on a
    /// worker, not at the inlet).
    pub fn resume(&self, checkpoint: RunCheckpoint) -> Result<RunHandle, ServiceError> {
        checkpoint
            .config
            .validate()
            .map_err(ServiceError::Invalid)?;
        self.admit(RunSource::Resumed(checkpoint))
    }

    fn admit(&self, source: RunSource) -> Result<RunHandle, ServiceError> {
        let mut st = lock(&self.shared.state);
        if st.shutting_down {
            return Err(ServiceError::ShuttingDown);
        }
        if st.in_flight >= self.config.max_in_flight && st.queued.len() >= self.config.queue_depth {
            return Err(ServiceError::Saturated {
                max_in_flight: self.config.max_in_flight,
                queue_depth: self.config.queue_depth,
            });
        }
        let id = RunId(st.next_id);
        st.next_id += 1;
        st.slots.insert(
            id,
            Slot {
                source,
                phase: RunPhase::Waiting,
            },
        );
        if st.in_flight < self.config.max_in_flight {
            st.in_flight += 1;
            st.scheduler.schedule_keyed(SimTime::ZERO, id.0, id);
            self.shared.work_ready.notify_one();
        } else {
            st.queued.push_back(id);
        }
        Ok(RunHandle {
            id,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Stops the inlet and drains: in-flight and queued runs keep running
    /// to completion, then the workers exit. Returns every run's outcome
    /// in submission order. On a paused service (`worker_threads == 0`)
    /// nothing can complete, so pending runs are checkpointed as
    /// [`RunOutcome::Interrupted`] instead — a drain never hangs and never
    /// panics.
    pub fn shutdown(&self) -> Vec<(RunId, RunOutcome)> {
        self.stop(false)
    }

    /// Stops the inlet and interrupts: every run is checkpointed at its
    /// next slice boundary and reported as [`RunOutcome::Interrupted`].
    /// Returns every run's outcome in submission order.
    pub fn halt(&self) -> Vec<(RunId, RunOutcome)> {
        self.stop(true)
    }

    fn stop(&self, halting: bool) -> Vec<(RunId, RunOutcome)> {
        let workers = {
            let mut st = lock(&self.shared.state);
            st.shutting_down = true;
            st.halting |= halting;
            let mut workers = self.workers.lock().unwrap_or_else(|e| e.into_inner());
            if workers.is_empty() {
                // Paused service (or second stop call): nothing will ever
                // step the pending runs, so checkpoint them here.
                interrupt_pending(&mut st);
            }
            self.shared.work_ready.notify_all();
            self.shared.done.notify_all();
            std::mem::take(&mut *workers)
        };
        for worker in workers {
            let _ = worker.join();
        }
        let mut st = lock(&self.shared.state);
        // Safety net: if a worker died abnormally it may have left a
        // leased run behind; surface it as interrupted-from-source rather
        // than leaving its handle waiting forever.
        interrupt_pending(&mut st);
        self.shared.done.notify_all();
        st.slots
            .iter()
            .map(|(id, slot)| match &slot.phase {
                RunPhase::Done(outcome) => (*id, outcome.clone()),
                _ => unreachable!("interrupt_pending resolves every phase"),
            })
            .collect()
    }
}

impl Drop for ExperimentService {
    fn drop(&mut self) {
        // An un-shutdown service halts on drop so no handle hangs and no
        // worker thread leaks.
        self.stop(true);
    }
}

impl std::fmt::Debug for ExperimentService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentService")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// Checkpoints every run that has not ended and clears the scheduler —
/// used when no worker will ever run them (paused service, post-join
/// safety net).
fn interrupt_pending(st: &mut ServiceState) {
    st.scheduler.clear();
    st.queued.clear();
    st.in_flight = 0;
    for slot in st.slots.values_mut() {
        if matches!(slot.phase, RunPhase::Done(_)) {
            continue;
        }
        let checkpoint = match std::mem::replace(&mut slot.phase, RunPhase::Leased) {
            RunPhase::Ready(state) => state.checkpoint(),
            _ => source_checkpoint(&slot.source),
        };
        slot.phase = RunPhase::Done(RunOutcome::Interrupted(Box::new(checkpoint)));
    }
}

/// What a worker carries out of the lock for one slice.
enum Job {
    Build(Box<RunSource>),
    Step(Box<RunState>),
}

/// What came back from one unlocked slice.
enum SliceResult {
    Finished(RunOutcome),
    InProgress(Box<RunState>),
}

fn run_slice(job: Job, slice_events: usize) -> SliceResult {
    let mut state = match job {
        Job::Step(state) => state,
        Job::Build(source) => {
            let built = match *source {
                RunSource::Fresh(config) => RunState::new(&config).map_err(|e| e.to_string()),
                RunSource::Resumed(checkpoint) => {
                    RunState::resume(&checkpoint).map_err(|e| e.to_string())
                }
            };
            match built {
                Ok(state) => Box::new(state),
                Err(err) => return SliceResult::Finished(RunOutcome::Failed(err)),
            }
        }
    };
    for _ in 0..slice_events {
        if state.step().is_none() {
            return SliceResult::Finished(RunOutcome::Completed(Box::new(
                state.run_to_completion(),
            )));
        }
    }
    SliceResult::InProgress(state)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "run panicked".to_string()
    }
}

/// Marks a run done, promotes the next queued submission into the freed
/// in-flight slot, and wakes both the pool and any waiting handles.
fn finish_run(st: &mut ServiceState, shared: &Shared, id: RunId, outcome: RunOutcome) {
    let slot = st.slots.get_mut(&id).expect("finished run has a slot");
    slot.phase = RunPhase::Done(outcome);
    st.in_flight = st.in_flight.saturating_sub(1);
    if let Some(next) = st.queued.pop_front() {
        st.in_flight += 1;
        st.scheduler.schedule_keyed(SimTime::ZERO, next.0, next);
    }
    shared.work_ready.notify_all();
    shared.done.notify_all();
}

fn worker_loop(shared: &Shared, slice_events: usize) {
    let mut st = lock(&shared.state);
    loop {
        // Inlet side of the loop: wait for the lowest-virtual-time run.
        let id = loop {
            if let Some((_, id)) = st.scheduler.pop() {
                break id;
            }
            if st.shutting_down && st.in_flight == 0 && st.queued.is_empty() {
                return;
            }
            st = wait_on(&shared.work_ready, st);
        };
        let halting = st.halting;
        let slot = st.slots.get_mut(&id).expect("scheduled run has a slot");
        let job = match std::mem::replace(&mut slot.phase, RunPhase::Leased) {
            RunPhase::Ready(state) => {
                if halting {
                    let checkpoint = state.checkpoint();
                    finish_run(
                        &mut st,
                        shared,
                        id,
                        RunOutcome::Interrupted(Box::new(checkpoint)),
                    );
                    continue;
                }
                Job::Step(state)
            }
            RunPhase::Waiting => {
                if halting {
                    let checkpoint = source_checkpoint(&slot.source);
                    finish_run(
                        &mut st,
                        shared,
                        id,
                        RunOutcome::Interrupted(Box::new(checkpoint)),
                    );
                    continue;
                }
                Job::Build(Box::new(slot.source.clone()))
            }
            other => {
                // A stale schedule entry for an already-resolved run.
                slot.phase = other;
                continue;
            }
        };
        drop(st);

        // Poll side: step one bounded slice outside the lock, containing
        // any panic to this run.
        let result = catch_unwind(AssertUnwindSafe(|| run_slice(job, slice_events)));

        // Effects side: resolve, park-and-reschedule, or checkpoint.
        st = lock(&shared.state);
        match result {
            Err(payload) => {
                finish_run(
                    &mut st,
                    shared,
                    id,
                    RunOutcome::Failed(panic_message(payload)),
                );
            }
            Ok(SliceResult::Finished(outcome)) => finish_run(&mut st, shared, id, outcome),
            Ok(SliceResult::InProgress(state)) => {
                if st.halting {
                    let checkpoint = state.checkpoint();
                    finish_run(
                        &mut st,
                        shared,
                        id,
                        RunOutcome::Interrupted(Box::new(checkpoint)),
                    );
                } else {
                    let at = state.virtual_now();
                    st.slots.get_mut(&id).expect("leased run has a slot").phase =
                        RunPhase::Ready(state);
                    st.scheduler.schedule_keyed(at, id.0, id);
                    shared.work_ready.notify_one();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentBuilder;
    use crate::orchestration::Mode;

    fn tiny(seed: u64) -> ExperimentConfig {
        ExperimentBuilder::quickstart()
            .seed(seed)
            .rounds(2)
            .config()
            .clone()
    }

    #[test]
    fn mid_run_checkpoint_resumes_to_an_identical_report() {
        for mode in [Mode::Sync, Mode::Async] {
            let config = ExperimentBuilder::quickstart()
                .seed(11)
                .rounds(2)
                .mode(mode)
                .config()
                .clone();
            let solo = RunState::new(&config).expect("valid").run_to_completion();
            let mut state = RunState::new(&config).expect("valid");
            for _ in 0..5 {
                assert!(state.step().is_some(), "run ended before the checkpoint");
            }
            let checkpoint = state.checkpoint();
            assert_eq!(checkpoint.events_fired(), 5);
            let resumed = RunState::resume(&checkpoint)
                .expect("replay verifies")
                .run_to_completion();
            assert_eq!(format!("{solo:?}"), format!("{resumed:?}"), "{mode}");
        }
    }

    #[test]
    fn checkpoint_trace_round_trips_through_the_text_codec() {
        let config = tiny(3);
        let mut state = RunState::new(&config).expect("valid");
        for _ in 0..4 {
            state.step();
        }
        let checkpoint = state.checkpoint();
        let decoded = RunCheckpoint::from_encoded_trace(
            checkpoint.config.clone(),
            &checkpoint.encoded_trace(),
        )
        .expect("codec round-trips");
        assert_eq!(decoded.trace, checkpoint.trace);
    }

    #[test]
    fn resume_rejects_a_diverged_trace_with_a_typed_error() {
        let config = tiny(5);
        let mut state = RunState::new(&config).expect("valid");
        for _ in 0..3 {
            state.step();
        }
        let mut checkpoint = state.checkpoint();
        // Corrupt the second record's timestamp: replay must flag index 1.
        checkpoint.trace[1].at += unifyfl_sim::SimDuration::from_secs(999);
        let err = RunState::resume(&checkpoint).expect_err("divergence is typed");
        match err {
            ResumeError::Diverged { index, .. } => assert_eq!(index, 1),
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn service_completes_submissions_and_matches_solo_reports() {
        let service = ExperimentService::start(ServiceConfig {
            max_in_flight: 2,
            queue_depth: 8,
            worker_threads: 2,
            slice_events: 16,
        })
        .expect("valid service config");
        let configs: Vec<ExperimentConfig> = (0..4).map(|i| tiny(100 + i)).collect();
        let handles: Vec<RunHandle> = configs
            .iter()
            .map(|c| service.submit(c.clone()).expect("admitted"))
            .collect();
        for (config, handle) in configs.iter().zip(&handles) {
            let outcome = handle.wait();
            let report = outcome.report().expect("completed");
            let solo = experiment::run_experiment(config).expect("valid");
            assert_eq!(format!("{report:?}"), format!("{solo:?}"));
        }
        let outcomes = service.shutdown();
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes.iter().all(|(_, o)| o.is_completed()));
    }

    #[test]
    fn saturation_is_a_typed_rejection_and_shutdown_flags_partials() {
        // Paused pool: admissions park deterministically.
        let service = ExperimentService::start(ServiceConfig {
            max_in_flight: 1,
            queue_depth: 2,
            worker_threads: 0,
            slice_events: 1,
        })
        .expect("valid service config");
        for i in 0..3 {
            service.submit(tiny(i)).expect("within bounds");
        }
        let err = service.submit(tiny(99)).expect_err("past the bound");
        assert_eq!(
            err,
            ServiceError::Saturated {
                max_in_flight: 1,
                queue_depth: 2
            }
        );
        let outcomes = service.shutdown();
        assert_eq!(outcomes.len(), 3);
        for (_, outcome) in &outcomes {
            let checkpoint = outcome.checkpoint().expect("interrupted, not lost");
            assert_eq!(checkpoint.events_fired(), 0);
        }
        // The inlet stays closed afterwards.
        assert_eq!(
            service.submit(tiny(1)).expect_err("inlet closed"),
            ServiceError::ShuttingDown
        );
    }

    #[test]
    fn invalid_submission_is_rejected_eagerly_without_consuming_capacity() {
        let service = ExperimentService::start(ServiceConfig {
            max_in_flight: 1,
            queue_depth: 0,
            worker_threads: 0,
            slice_events: 1,
        })
        .expect("valid service config");
        let mut lonely = tiny(1);
        lonely.clusters.truncate(1);
        let mut unpriced = tiny(1);
        unpriced.workload.local_epochs = 0;
        let mut unplugged = tiny(1);
        unplugged.clusters[0].link = Some(unifyfl_storage::LinkProfile {
            bandwidth_bps: 0.0,
            ..unifyfl_storage::LinkProfile::wan()
        });
        for bad in [lonely, unpriced, unplugged] {
            match service.submit(bad) {
                Err(ServiceError::Invalid(_)) => {}
                other => panic!("expected Invalid, got {other:?}"),
            }
        }
        // The slot the invalid submission did not consume is still free.
        service.submit(tiny(2)).expect("capacity untouched");
    }

    #[test]
    fn service_config_validation_names_the_offending_knob() {
        let config = ServiceConfig {
            max_in_flight: 0,
            ..ServiceConfig::default()
        };
        assert_eq!(
            ExperimentService::start(config).expect_err("rejected"),
            ServiceError::InvalidService("max_in_flight")
        );
        let config = ServiceConfig {
            slice_events: 0,
            ..ServiceConfig::default()
        };
        assert_eq!(
            config.validate().expect_err("rejected"),
            ServiceError::InvalidService("slice_events")
        );
    }

    #[test]
    fn halt_checkpoints_in_flight_runs_that_resume_to_identical_reports() {
        let config = tiny(21);
        let solo = experiment::run_experiment(&config).expect("valid");
        let service = ExperimentService::start(ServiceConfig {
            max_in_flight: 2,
            queue_depth: 4,
            worker_threads: 1,
            slice_events: 2,
        })
        .expect("valid service config");
        let handle = service.submit(config).expect("admitted");
        let outcomes = service.halt();
        assert_eq!(outcomes.len(), 1);
        let outcome = handle.wait();
        match outcome {
            RunOutcome::Completed(report) => {
                // The single slice raced shutdown and finished the run —
                // legal; the report must still be the solo report.
                assert_eq!(format!("{report:?}"), format!("{solo:?}"));
            }
            RunOutcome::Interrupted(checkpoint) => {
                let resumed = RunState::resume(&checkpoint)
                    .expect("replay verifies")
                    .run_to_completion();
                assert_eq!(format!("{resumed:?}"), format!("{solo:?}"));
            }
            RunOutcome::Failed(message) => panic!("run failed: {message}"),
        }
    }

    /// `RunState::resume` over single-token mutations of a valid encoded
    /// quickstart checkpoint: every token of every line replaced by each of a
    /// few stand-ins. Each case fails to decode (a typed `TraceDecodeError`),
    /// fails to resume (a typed `ResumeError`), or resumes and finishes
    /// exactly as the uninterrupted run.
    #[test]
    fn resume_of_a_mutated_checkpoint_is_exact_or_a_typed_error() {
        let config = tiny(42);
        let whole = format!("{:?}", RunState::new(&config).unwrap().run_to_completion());
        let mut state = RunState::new(&config).unwrap();
        for _ in 0..12 {
            state.step();
        }
        let text = state.checkpoint().encoded_trace();
        let lines: Vec<Vec<&str>> = text.lines().map(|l| l.split(' ').collect()).collect();
        let stand_ins = ["", "0", "1", "7", "99999", "seal_slot", "x", "-1"];
        let (mut decoded, mut resumed) = (0, 0);
        for (i, line) in lines.iter().enumerate() {
            for j in 0..line.len() {
                for with in stand_ins {
                    let mut mutated = lines.clone();
                    mutated[i][j] = with;
                    let text: String = mutated.iter().map(|l| l.join(" ") + "\n").collect();
                    let case = format!("line {i} token {j} → {with:?}");
                    let parsed = RunCheckpoint::from_encoded_trace(config.clone(), &text);
                    let Ok(checkpoint) = parsed else { continue };
                    decoded += 1;
                    if let Ok(state) = RunState::resume(&checkpoint) {
                        resumed += 1;
                        assert_eq!(format!("{:?}", state.run_to_completion()), whole, "{case}");
                    }
                }
            }
        }
        let counts = format!("{decoded} decoded, {resumed} resumed");
        assert!(decoded > resumed && resumed > 0, "{counts}");
    }
}
