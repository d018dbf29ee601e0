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
//! - **poll** — each run is a [`RunState`]: the engine policy for the
//!   run's mode over its own event queue ([`crate::events`]), stepped one
//!   event at a time. Workers pull the admitted run with the *lowest
//!   virtual time* from a shared [`EventQueue`] scheduler, step it a
//!   bounded slice of events, and put it back — cooperative multitasking
//!   over virtual time, so no run can starve the pool.
//! - **effects outlet** — finished runs resolve their [`RunHandle`] with a
//!   [`RunOutcome`]: the report, a resumable checkpoint, or a captured
//!   failure. A panicking run is contained to its own slice and reported
//!   as [`RunOutcome::Failed`]; it never takes the service down.
//!
//! A run's whole life in the service — admit, lease, settle, interrupt,
//! complete — is one state machine behind one mutex, with no lock, condvar
//! or thread inside its transitions; the inlet, the workers and the stop
//! calls only lock, call one transition and wake every sleeper on the one
//! condvar. A fresh submission is a checkpoint with an empty trace, so
//! every run is built by [`RunState::resume`].
//!
//! A run panics outside the lock, so only a bug in a transition can
//! panic while holding it. That is not contained: the worker dies, the
//! lock is poisoned, and the dying worker wakes every sleeper on its way
//! out. Each waiter, stop call and worker then meets the poisoned lock and
//! panics too, so the failure is loud instead of a hang.
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
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use unifyfl_sim::{EventQueue, SimTime};

use crate::events::{self, Event, EventPolicy, EventRecord, TraceDecodeError};
use crate::experiment::{self, ExperimentConfig, ExperimentError, ExperimentReport};
use crate::federation::Federation;
use crate::orchestration::policy_for;

/// One run of an experiment, stepped event by event.
///
/// This is the poll-resumable form of [`experiment::run_experiment`]: the
/// assembled [`Federation`], the engine policy for the configured mode,
/// and the event queue the policy schedules into, advanced one fired event
/// per [`RunState::step`]. It is the only thing that drains an event queue:
/// the blocking entry point is literally
/// `RunState::new(..)?.run_to_completion()`, so a stepped, a batch, a
/// daemon-hosted and a resumed run execute the same loop and produce
/// byte-identical reports by construction.
pub struct RunState {
    fed: Federation,
    policy: Box<dyn EventPolicy + Send>,
    queue: EventQueue<Event>,
    trace: Vec<EventRecord>,
    /// Whether the policy has scheduled its initial events (on the first
    /// step).
    seeded: bool,
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
        let policy = policy_for(&fed);
        Ok(RunState {
            fed,
            policy,
            queue: EventQueue::new(),
            trace: Vec::new(),
            seeded: false,
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

    /// Fires the next event: seeds the queue on the first call, then pops
    /// one event, records it in the trace, and hands it to the policy
    /// (which may schedule follow-ups). Returns the event's record, or
    /// `None` when the run has no live events left (it is complete).
    pub fn step(&mut self) -> Option<EventRecord> {
        if !self.seeded {
            self.seeded = true;
            self.policy.seed(&mut self.fed, &mut self.queue);
        }
        let (at, event) = self.queue.pop()?;
        let record = EventRecord { at, event };
        self.trace.push(record);
        self.policy
            .handle(&mut self.fed, &mut self.queue, at, event);
        Some(record)
    }

    /// The configuration this run was built from (the federation's).
    pub fn config(&self) -> &ExperimentConfig {
        self.fed.config()
    }

    /// Read-only view of the federation being run. Settles the evaluations
    /// still on the run's eval lane first, so every round record read
    /// through it is final.
    pub fn federation(&mut self) -> &Federation {
        self.fed.settle_evals();
        &self.fed
    }

    /// The events fired so far, in firing order.
    pub fn trace(&self) -> &[EventRecord] {
        &self.trace
    }

    /// The virtual instant of the most recently fired event (`t = 0`
    /// before any event fires). The service scheduler uses this to always
    /// step the furthest-behind run next.
    pub fn virtual_now(&self) -> SimTime {
        self.trace.last().map_or(SimTime::ZERO, |r| r.at)
    }

    /// Snapshots the run as its configuration plus fired-event trace —
    /// everything needed to [`RunState::resume`] it later, in this process
    /// or another.
    pub fn checkpoint(&self) -> RunCheckpoint {
        RunCheckpoint {
            config: self.config().clone(),
            trace: self.trace.clone(),
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
            mut fed, policy, ..
        } = self;
        // The final merge's `last_global` fallback and the report read
        // the round records: every evaluation lands first.
        fed.settle_evals();
        let outcome = policy.finish(&mut fed, wave);
        let report = experiment::build_report(&fed, outcome);
        (report, fed)
    }
}

impl std::fmt::Debug for RunState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunState")
            .field("label", &self.config().label)
            .field("seed", &self.config().seed)
            .field("events_fired", &self.trace.len())
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
    ///
    /// # Panics
    ///
    /// If a service transition panicked (a bug in the service, not in a
    /// run), instead of waiting for an outcome that will never come.
    pub fn wait(&self) -> RunOutcome {
        let mut st = self.shared.lock();
        loop {
            if let RunPhase::Done(outcome) = &st.slots[&self.id] {
                return outcome.clone();
            }
            st = self.shared.wait(st);
        }
    }
}

impl std::fmt::Debug for RunHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunHandle").field("id", &self.id).finish()
    }
}

/// A run's position in the service lifecycle.
enum RunPhase {
    /// Admitted or queued and not built yet: the checkpoint it starts from
    /// (a fresh submission's trace is empty).
    Waiting(Box<RunCheckpoint>),
    /// Built and parked between slices.
    Ready(Box<RunState>),
    /// A worker holds the run and is stepping it.
    Leased,
    /// Ended; the outcome is ready for the handle.
    Done(RunOutcome),
}

/// The service's one state machine, guarded by [`Shared::state`]: every
/// change to a run's [`RunPhase`] and to the admission bookkeeping is one
/// of its methods, none of which locks, waits or signals.
struct ServiceState {
    max_in_flight: usize,
    queue_depth: usize,
    /// Every admitted run by id, ids dealt in admission order.
    slots: BTreeMap<RunId, RunPhase>,
    /// Admitted runs ready for a worker, ordered by virtual time (keyed
    /// by run id for deterministic ties) — the shared cross-run scheduler.
    scheduler: EventQueue<RunId>,
    /// Submissions waiting for an in-flight slot, FIFO; non-empty only
    /// while every slot is taken.
    queued: VecDeque<RunId>,
    /// Admitted-but-not-done runs (never exceeds `max_in_flight`).
    in_flight: usize,
    shutting_down: bool,
    halting: bool,
}

impl ServiceState {
    fn new(config: &ServiceConfig) -> ServiceState {
        ServiceState {
            max_in_flight: config.max_in_flight,
            queue_depth: config.queue_depth,
            slots: BTreeMap::new(),
            scheduler: EventQueue::new(),
            queued: VecDeque::new(),
            in_flight: 0,
            shutting_down: false,
            halting: false,
        }
    }

    fn phase(&mut self, id: RunId) -> &mut RunPhase {
        self.slots
            .get_mut(&id)
            .expect("every admitted run has a slot")
    }

    /// Admits a run: into a free in-flight slot, else to the back of the
    /// queue, else a typed rejection.
    fn admit(&mut self, checkpoint: RunCheckpoint) -> Result<RunId, ServiceError> {
        if self.shutting_down {
            return Err(ServiceError::ShuttingDown);
        }
        if self.in_flight >= self.max_in_flight && self.queued.len() >= self.queue_depth {
            return Err(ServiceError::Saturated {
                max_in_flight: self.max_in_flight,
                queue_depth: self.queue_depth,
            });
        }
        let id = RunId(self.slots.len() as u64);
        self.slots
            .insert(id, RunPhase::Waiting(Box::new(checkpoint)));
        if self.in_flight < self.max_in_flight {
            self.in_flight += 1;
            self.scheduler.schedule_keyed(SimTime::ZERO, id.0, id);
        } else {
            self.queued.push_back(id);
        }
        Ok(id)
    }

    /// Hands the lowest-virtual-time run to a worker: its phase (parked
    /// or unbuilt) leaves the table until the worker settles the slice.
    fn lease(&mut self) -> Option<(RunId, RunPhase)> {
        let (_, id) = self.scheduler.pop()?;
        Some((id, std::mem::replace(self.phase(id), RunPhase::Leased)))
    }

    /// Takes a slice back from its worker: a finished run completes; one
    /// still going is parked at its virtual time, or interrupted if the
    /// service is halting.
    fn settle(&mut self, id: RunId, slice: ControlFlow<RunOutcome, Box<RunState>>) {
        match slice {
            ControlFlow::Break(outcome) => self.complete(id, outcome),
            ControlFlow::Continue(state) => {
                let at = state.virtual_now();
                *self.phase(id) = RunPhase::Ready(state);
                if self.halting {
                    self.interrupt(id);
                } else {
                    self.scheduler.schedule_keyed(at, id.0, id);
                }
            }
        }
    }

    /// Ends an unbuilt or parked run as the checkpoint of its progress; a
    /// leased run is left to its worker and an ended one as it is.
    fn interrupt(&mut self, id: RunId) {
        let checkpoint = match std::mem::replace(self.phase(id), RunPhase::Leased) {
            RunPhase::Waiting(checkpoint) => checkpoint,
            RunPhase::Ready(state) => Box::new(state.checkpoint()),
            other => {
                *self.phase(id) = other;
                return;
            }
        };
        self.complete(id, RunOutcome::Interrupted(checkpoint));
    }

    /// Interrupts every run no worker holds. Only a stopped service does
    /// this and it admits nothing more, so the queue joins the runs in
    /// flight first.
    fn interrupt_all(&mut self) {
        self.in_flight += std::mem::take(&mut self.queued).len();
        let ids: Vec<RunId> = self.slots.keys().copied().collect();
        for id in ids {
            self.interrupt(id);
        }
        self.scheduler.clear();
    }

    /// Ends a run and hands its in-flight slot to the queue head.
    fn complete(&mut self, id: RunId, outcome: RunOutcome) {
        *self.phase(id) = RunPhase::Done(outcome);
        match self.queued.pop_front() {
            Some(next) => self.scheduler.schedule_keyed(SimTime::ZERO, next.0, next),
            None => self.in_flight -= 1,
        }
    }

    /// Closes the inlet; a halt also interrupts every run no worker holds
    /// (a leased one when its slice settles).
    fn stop(&mut self, halting: bool) {
        self.shutting_down = true;
        if halting {
            self.halting = true;
            self.interrupt_all();
        }
    }

    /// Stopped with nothing in flight (so nothing queued): workers exit.
    fn drained(&self) -> bool {
        self.shutting_down && self.in_flight == 0
    }
}

struct Shared {
    state: Mutex<ServiceState>,
    /// Notified after every transition: workers wait on it for work,
    /// handles and stop calls for runs to end.
    changed: Condvar,
}

impl Shared {
    /// Locks the state. A poisoned lock means a transition panicked, which
    /// is re-raised here rather than run on from a broken state.
    fn lock(&self) -> MutexGuard<'_, ServiceState> {
        self.state.lock().expect("a service transition panicked")
    }

    /// Waits for the next transition; a poisoned lock is re-raised.
    fn wait<'a>(&self, guard: MutexGuard<'a, ServiceState>) -> MutexGuard<'a, ServiceState> {
        self.changed
            .wait(guard)
            .expect("a service transition panicked")
    }
}

/// Held by each worker: however the worker exits, every sleeper wakes. It
/// matters when the worker unwinds out of a transition: each sleeper then
/// meets the poisoned lock instead of waiting forever.
struct WakeAllOnExit<'a>(&'a Condvar);

impl Drop for WakeAllOnExit<'_> {
    fn drop(&mut self) {
        self.0.notify_all();
    }
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
            state: Mutex::new(ServiceState::new(&config)),
            changed: Condvar::new(),
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
        self.resume(RunCheckpoint {
            config,
            trace: Vec::new(),
        })
    }

    /// Submits a checkpointed run to be resumed and completed; a
    /// checkpoint with an empty trace is a fresh submission.
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
        let id = self.shared.lock().admit(checkpoint)?;
        self.shared.changed.notify_all();
        Ok(RunHandle {
            id,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Stops the inlet and drains: in-flight and queued runs keep running
    /// to completion, then the workers exit. Returns every run's outcome
    /// in submission order. On a paused service (`worker_threads == 0`)
    /// nothing can complete, so pending runs are checkpointed as
    /// [`RunOutcome::Interrupted`] instead — a drain never hangs. It panics
    /// only if a service transition panicked (see the [module docs](self)).
    pub fn shutdown(&self) -> Vec<(RunId, RunOutcome)> {
        self.stop(false);
        self.outcomes()
    }

    /// Stops the inlet and interrupts: every run is checkpointed at its
    /// next slice boundary and reported as [`RunOutcome::Interrupted`].
    /// Returns every run's outcome in submission order.
    pub fn halt(&self) -> Vec<(RunId, RunOutcome)> {
        self.stop(true);
        self.outcomes()
    }

    fn stop(&self, halting: bool) {
        // No worker would ever end a paused service's runs: it stops as a
        // halt, checkpointing them in the same transition.
        self.shared
            .lock()
            .stop(halting || self.config.worker_threads == 0);
        self.shared.changed.notify_all();
        // The worker list stays locked until every worker is joined, so a
        // concurrent second stop waits for the first drain to finish.
        let mut workers = self.workers.lock().expect("no stop panics while joining");
        for worker in workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// Every run's outcome, once stopped.
    fn outcomes(&self) -> Vec<(RunId, RunOutcome)> {
        let st = self.shared.lock();
        st.slots
            .iter()
            .map(|(id, phase)| match phase {
                RunPhase::Done(outcome) => (*id, outcome.clone()),
                // A worker holds a run only inside its panic-contained slice.
                _ => unreachable!("a joined worker holds no run"),
            })
            .collect()
    }
}

impl Drop for ExperimentService {
    fn drop(&mut self) {
        // An un-shutdown service halts on drop so no handle hangs and no
        // worker thread leaks. After a transition panicked there is nothing
        // to halt, and stopping would panic again.
        if !self.shared.state.is_poisoned() {
            self.stop(true);
        }
    }
}

impl std::fmt::Debug for ExperimentService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentService")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// Steps a leased run one bounded slice outside the lock, building it
/// first if it is unbuilt: `Continue` with the run still going, or `Break`
/// with how it ended.
fn run_slice(job: RunPhase, slice_events: usize) -> ControlFlow<RunOutcome, Box<RunState>> {
    let mut state = match job {
        RunPhase::Ready(state) => state,
        // A fresh submission fails with its configuration error's own text.
        RunPhase::Waiting(checkpoint) => match RunState::resume(&checkpoint) {
            Ok(state) => Box::new(state),
            Err(ResumeError::Invalid(err)) if checkpoint.trace.is_empty() => {
                return ControlFlow::Break(RunOutcome::Failed(err.to_string()))
            }
            Err(err) => return ControlFlow::Break(RunOutcome::Failed(err.to_string())),
        },
        _ => unreachable!("only unbuilt and parked runs are scheduled"),
    };
    for _ in 0..slice_events {
        if state.step().is_none() {
            let report = state.run_to_completion();
            return ControlFlow::Break(RunOutcome::Completed(Box::new(report)));
        }
    }
    ControlFlow::Continue(state)
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

fn worker_loop(shared: &Shared, slice_events: usize) {
    let _wake = WakeAllOnExit(&shared.changed);
    let mut st = shared.lock();
    loop {
        let Some((id, job)) = st.lease() else {
            if st.drained() {
                return;
            }
            st = shared.wait(st);
            continue;
        };
        drop(st);
        let slice = catch_unwind(AssertUnwindSafe(|| run_slice(job, slice_events)))
            .unwrap_or_else(|panic| ControlFlow::Break(RunOutcome::Failed(panic_message(panic))));
        st = shared.lock();
        st.settle(id, slice);
        shared.changed.notify_all();
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

    /// A worker that panics inside a transition poisons the lock: a
    /// thread blocked in `RunHandle::wait` must wake and panic, not hang.
    /// A scheduled id without a slot, ahead of an admitted run, makes the
    /// worker's `lease` panic.
    #[test]
    fn a_panicking_transition_wakes_a_waiter_to_panic() {
        let service = ExperimentService::start(ServiceConfig {
            worker_threads: 1,
            ..ServiceConfig::default()
        })
        .expect("valid service config");
        let handle = {
            let mut st = service.shared.lock();
            st.scheduler
                .schedule_keyed(SimTime::ZERO, 0, RunId(u64::MAX));
            let checkpoint = RunCheckpoint {
                config: tiny(1),
                trace: Vec::new(),
            };
            let id = st.admit(checkpoint).expect("admitted");
            RunHandle {
                id,
                shared: Arc::clone(&service.shared),
            }
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let waited = catch_unwind(AssertUnwindSafe(|| handle.wait()));
            tx.send(waited.is_err()).expect("the test is listening");
        });
        let panicked = rx.recv_timeout(std::time::Duration::from_secs(10));
        assert_eq!(panicked, Ok(true), "the waiter must panic, not hang");
        waiter.join().expect("the waiter caught its panic");
    }

    /// The transitions driven from one seeded thread. Per seed: draw the
    /// bounds, then random steps — submit, resume an interrupted
    /// checkpoint, lease to one of three simulated workers, settle a held
    /// lease after a slice of 1–5 events, shut down or halt — holding the
    /// admission bounds after every step. Every admitted run ends exactly
    /// once, a stopped service drains within the step budget, and every
    /// outcome is (or resumes to) its solo run's report.
    #[test]
    fn seeded_transitions_end_every_run_once_as_its_solo_run() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const BUDGET: usize = 800;
        let solo: Vec<String> = (0..3)
            .map(|seed| {
                format!(
                    "{:?}",
                    RunState::new(&tiny(seed)).unwrap().run_to_completion()
                )
            })
            .collect();
        // Saturated, completed, drained, halted, resumed mid-run and completed.
        let mut seen = [0usize; 5];
        let mut checkpoints: Vec<RunCheckpoint> = Vec::new();
        for seed in 0..24 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (max_in_flight, queue_depth) = (rng.gen_range(1..=3), rng.gen_range(0..=2));
            let mut st = ServiceState::new(&ServiceConfig {
                max_in_flight,
                queue_depth,
                ..ServiceConfig::default()
            });
            let mut workers: [Option<(RunId, RunPhase)>; 3] = Default::default();
            let (mut seeds, mut resumed) = (Vec::new(), Vec::new());
            for step in 0.. {
                if st.drained() && workers.iter().all(Option::is_none) {
                    break;
                }
                assert!(step < BUDGET, "seed {seed}: not drained in {BUDGET} steps");
                let w = rng.gen_range(0..3);
                match rng.gen_range(0..12) {
                    0..=2 => {
                        let pooled = rng.gen_bool(0.3) && !checkpoints.is_empty();
                        let checkpoint = if pooled {
                            checkpoints.pop().unwrap()
                        } else {
                            RunCheckpoint {
                                config: tiny(rng.gen_range(0..3)),
                                trace: Vec::new(),
                            }
                        };
                        let full = st.in_flight >= max_in_flight && st.queued.len() >= queue_depth;
                        match st.admit(checkpoint.clone()) {
                            Ok(id) => {
                                assert!(!full, "seed {seed}: {id} admitted past the bound");
                                seeds.push(checkpoint.config.seed as usize);
                                if !checkpoint.trace.is_empty() {
                                    resumed.push(id);
                                }
                            }
                            Err(err) => {
                                let saturated = matches!(err, ServiceError::Saturated { .. });
                                assert_eq!(saturated, !st.shutting_down, "seed {seed}: {err}");
                                assert!(full || st.shutting_down, "seed {seed}: {err}");
                                seen[0] += usize::from(saturated);
                                if pooled {
                                    checkpoints.push(checkpoint);
                                }
                            }
                        }
                    }
                    3..=5 if workers[w].is_none() => workers[w] = st.lease(),
                    6..=10 => {
                        if let Some((id, job)) = workers[w].take() {
                            st.settle(id, run_slice(job, rng.gen_range(1..=5)));
                        }
                    }
                    11 if !st.shutting_down && (step > BUDGET / 2 || rng.gen_bool(0.2)) => {
                        let halting = rng.gen_bool(0.5);
                        st.stop(halting);
                        seen[2 + usize::from(halting)] += 1;
                    }
                    _ => {}
                }
                assert!(st.in_flight <= max_in_flight, "seed {seed} step {step}");
                assert!(st.queued.len() <= queue_depth, "seed {seed} step {step}");
            }
            assert_eq!(st.slots.len(), seeds.len());
            for (id, phase) in &st.slots {
                let solo = &solo[seeds[id.0 as usize]];
                let report = match phase {
                    RunPhase::Done(RunOutcome::Completed(report)) => {
                        seen[1] += 1;
                        seen[4] += usize::from(resumed.contains(id));
                        format!("{report:?}")
                    }
                    RunPhase::Done(RunOutcome::Interrupted(checkpoint)) => {
                        checkpoints.push((**checkpoint).clone());
                        let resumed = RunState::resume(checkpoint).unwrap();
                        format!("{:?}", resumed.run_to_completion())
                    }
                    RunPhase::Done(RunOutcome::Failed(why)) => panic!("seed {seed}: {why}"),
                    _ => panic!("seed {seed}: {id} never ended"),
                };
                assert_eq!(&report, solo, "seed {seed}: {id}");
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
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
