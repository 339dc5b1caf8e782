//! The backend seam of the execution layer (paper §III-B component 4).
//!
//! "The execution plugin binds the kernel plugins and the execution
//! pattern, and translates the tasks into executable units … forwarded to
//! the underlying runtime system, thus decoupling execution from the
//! expression of the application."
//!
//! Everything backend-*independent* — pattern driving, task tables, the
//! retry/backoff/kill-replace fault policy, graceful degradation, telemetry
//! subjects, and `TaskRecord`/`OverheadBreakdown` assembly — lives once in
//! [`crate::session::SessionEngine`]. Everything backend-*specific* — how
//! units run, what the clock is, when completions arrive — lives behind the
//! [`ExecutionBackend`] trait defined here. Two backends implement it: the
//! simulated one (virtual time, cost-modelled units late-bound across one or
//! more simulated clusters) and the local one (wall clock, real kernels
//! through the `fork://` service).
//!
//! The trait is deliberately synchronous and single-threaded: the session
//! engine drives it with a poll loop, and each [`ExecutionBackend::poll`]
//! call surfaces at most one timestep's worth of [`BackendEvent`]s. A due
//! batch is submitted one unit at a time: [`ExecutionBackend::open_batch`]
//! fixes what its units are bound against, [`ExecutionBackend::submit_unit`]
//! validates, binds and places each one as the session reaches it (a
//! refusal is a `None`, and the session fails that task in place), and
//! [`ExecutionBackend::seal_batch`] hands the accepted units to the runtime
//! as one submission. Placing a unit records nothing; only the seal does, so
//! a refused task's failure lands in the shared trace before the runtime's
//! records of its batch (the conformance suite pins that order).

use crate::compat::submit_legacy;
pub use crate::compat::UnitSpec;
use entk_kernels::KernelCall;
use entk_sim::{SimDuration, SimRng, SimTime};
use serde_json::Value;
use std::sync::Arc;

/// Sentinel batch id for retry resubmissions in scheduled batches. Retries
/// carry no pattern overhead, so trace derivations skip this batch and the
/// session records no `tasks_submitted` event for it.
pub const RETRY_BATCH: u64 = u64::MAX;

/// A state change surfaced by [`ExecutionBackend::poll`].
///
/// Unit events carry the backend's opaque unit `key` (assigned at
/// submission); batch/timeout/failure events echo session-side ids the
/// session previously scheduled through the backend's clock.
#[derive(Debug, Clone)]
pub enum BackendEvent {
    /// A unit began executing (maps to the task attempt's `exec_start`).
    UnitStarted {
        /// Backend unit key.
        key: u64,
        /// When execution began.
        time: SimTime,
    },
    /// A unit finished successfully; the session completes the task via
    /// [`ExecutionBackend::complete_unit`].
    UnitDone {
        /// Backend unit key.
        key: u64,
        /// Completion time.
        time: SimTime,
    },
    /// A unit failed or was cancelled; the session applies the fault policy.
    UnitFailed {
        /// Backend unit key.
        key: u64,
        /// When the failure was observed (the current step time).
        time: SimTime,
        /// Failure reason.
        reason: String,
    },
    /// A batch scheduled via [`ExecutionBackend::schedule_batch`] became
    /// due: the pattern overhead (or retry backoff) was paid.
    BatchReady {
        /// Spawn-batch id, or [`RETRY_BATCH`] for retry resubmissions.
        batch: u64,
        /// Task uids to submit.
        uids: Vec<u64>,
    },
    /// A kill-replace watchdog armed via [`ExecutionBackend::arm_timeout`]
    /// fired.
    TaskTimeout {
        /// The watched task.
        uid: u64,
    },
    /// A deferred kernel-binding failure scheduled via
    /// [`ExecutionBackend::schedule_deferred_failure`] became deliverable.
    DeferredFailure {
        /// The failed task.
        uid: u64,
    },
    /// The clock mark scheduled via
    /// [`ExecutionBackend::schedule_clock_mark`] was reached (teardown
    /// accounting).
    ClockMark,
}

/// Result of one [`ExecutionBackend::poll`] call.
#[derive(Debug)]
pub enum Poll {
    /// One timestep advanced; zero or more state changes surfaced.
    Events(Vec<BackendEvent>),
    /// Nothing left to process: the backend cannot make further progress.
    Drained,
}

/// Backend-side figures folded into the session's `ExecutionReport`.
#[derive(Debug, Clone)]
pub struct BackendStats {
    /// Resource label (e.g. `"xsede.comet"`, `"fork://localhost"`,
    /// `"federated:…"`).
    pub resource: String,
    /// Total cores behind the backend.
    pub cores: usize,
    /// Pilot submission overhead (first pilot: submitted → launched).
    pub runtime_pilot: SimDuration,
    /// Batch-queue wait (first pilot: launched → active).
    pub resource_wait: SimDuration,
    /// Discrete events processed (0 for real-time backends).
    pub events: u64,
}

/// What the backend knows about a finished unit, resolved at completion.
#[derive(Debug)]
pub struct UnitOutcome {
    /// When execution started; `None` keeps the instant the session took
    /// from [`BackendEvent::UnitStarted`].
    pub exec_start: Option<SimTime>,
    /// When execution stopped.
    pub exec_stop: Option<SimTime>,
    /// Semantic result: kernel output on success, failure reason otherwise.
    pub result: Result<Value, String>,
}

/// The resource-backend interface the [`crate::session::SessionEngine`]
/// drives.
///
/// A backend owns the clock, the runtime(s) executing units, and the
/// mapping from submitted units to opaque `u64` keys. It never touches
/// task records, retry policy, or the pattern — those are session
/// concerns. See the module docs for the poll/submit protocol.
pub trait ExecutionBackend {
    /// Current time on the backend's clock (virtual or wall).
    fn now(&self) -> SimTime;

    /// True when the backend models time (virtual clock, modeled overheads
    /// and backoff delays). Real-time backends return false and the session
    /// skips overhead sampling and backoff waits entirely.
    fn virtual_time(&self) -> bool;

    /// Starts the session: after `boot_delay` (the toolkit's init +
    /// resource-request overhead) the backend boots its resource(s) and
    /// submits pilots. Real-time backends reset their clock here.
    fn begin_session(&mut self, boot_delay: SimDuration);

    /// True when the allocation is usable per the backend's wait policy.
    fn allocation_ready(&self) -> bool;

    /// True when every pilot has failed or been cancelled: no capacity is
    /// left and none will come back.
    fn capacity_lost(&self) -> bool;

    /// True when every pilot reached a terminal state (shutdown complete).
    fn pilots_terminal(&self) -> bool;

    /// Advances the backend by one timestep and surfaces what changed.
    fn poll(&mut self) -> Poll;

    /// Opens a batch of `len` units: what binding sees (free cores, the
    /// batch size) is fixed here for the whole batch. Every open is
    /// followed by its [`Self::seal_batch`].
    fn open_batch(&mut self, _len: usize) {}

    /// Validates, binds and places one unit of the open batch, drawing its
    /// cost samples from `rng`. Returns its unit key, or `None` when the
    /// backend refuses it (unknown kernel, bad arguments, a binding it
    /// cannot run). By default one legacy prepare and commit per unit.
    fn submit_unit(
        &mut self,
        uid: u64,
        stage: &Arc<str>,
        kernel: &Arc<KernelCall>,
        rng: &mut SimRng,
    ) -> Option<u64> {
        submit_legacy(self, uid, stage, kernel, rng)
    }

    /// Submits the units placed since [`Self::open_batch`] to the
    /// runtime(s) as one submission.
    fn seal_batch(&mut self) {}

    /// The two-phase submission [`Self::submit_unit`] replaced, kept for
    /// backends built against it ([`crate::compat`]): `Some` refuses a spec.
    #[doc(hidden)]
    fn prepare_batch(&mut self, _specs: &[UnitSpec], _rng: &mut SimRng) -> Vec<Option<String>> {
        unimplemented!("a backend implements `submit_unit` or the legacy pair")
    }

    /// Second phase of [`Self::prepare_batch`]: `(uid, unit key)` pairs.
    #[doc(hidden)]
    fn commit_batch(&mut self) -> Vec<(u64, u64)> {
        unimplemented!("a backend implements `submit_unit` or the legacy pair")
    }

    /// Arms the kill-replace watchdog for a task. Backends that cannot
    /// interrupt running work treat this as a no-op.
    fn arm_timeout(&mut self, uid: u64, timeout: SimDuration);

    /// Cancels a unit if it is still running. Returns false when the unit
    /// is already terminal (or cannot be cancelled), in which case the
    /// session lets the normal completion path handle it.
    fn cancel_running_unit(&mut self, key: u64) -> bool;

    /// Resolves a finished unit: execution timestamps plus the semantic
    /// result. Simulated backends model-execute the kernel here (drawing
    /// from `rng`); real backends return the captured output.
    fn complete_unit(&mut self, key: u64, kernel: &KernelCall, rng: &mut SimRng) -> UnitOutcome;

    /// Schedules a [`BackendEvent::BatchReady`] after `delay` (pattern
    /// overhead, or retry backoff for [`RETRY_BATCH`]). Real-time backends
    /// deliver it at the next poll.
    fn schedule_batch(&mut self, delay: SimDuration, batch: u64, uids: Vec<u64>);

    /// Schedules a [`BackendEvent::DeferredFailure`] for the next timestep,
    /// so the pattern learns about a kernel-binding failure in a clean
    /// processing pass.
    fn schedule_deferred_failure(&mut self, uid: u64);

    /// Begins graceful shutdown: finish all pilots.
    fn begin_shutdown(&mut self);

    /// Schedules a [`BackendEvent::ClockMark`] after `delay`, advancing the
    /// clock across the teardown overhead.
    fn schedule_clock_mark(&mut self, delay: SimDuration);

    /// Backend-side report figures.
    fn stats(&self) -> BackendStats;

    /// Takes back the vector a [`Poll::Events`] carried, drained, so the
    /// next poll can reuse it instead of allocating. The default drops it.
    fn recycle_events(&mut self, _events: Vec<BackendEvent>) {}
}
