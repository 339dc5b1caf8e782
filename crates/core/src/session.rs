//! The backend-agnostic session engine.
//!
//! One implementation of the execution-plugin lifecycle (allocate → run →
//! deallocate) shared by every backend: pattern driving, the dense task
//! table, the retry/backoff/kill-replace fault policy, graceful
//! degradation, telemetry subjects, and `TaskRecord`/`OverheadBreakdown`
//! assembly. The backend-specific half — how units execute and what the
//! clock is — sits behind [`ExecutionBackend`]; see [`crate::backend`].

use crate::backend::{BackendEvent, ExecutionBackend, Poll, RETRY_BATCH};
use crate::error::EntkError;
use crate::fault::FaultConfig;
use crate::overheads::EntkOverheads;
use crate::pattern::ExecutionPattern;
use crate::report::{ExecutionReport, OverheadBreakdown, TaskRecord, TaskRecords};
use crate::task::{Task, TaskResult};
use entk_kernels::KernelCall;
use entk_sim::arena::Window;
use entk_sim::{SharedTelemetry, SimDuration, SimRng, SimTime, TraceKind};
use std::num::NonZeroU64;
use std::sync::Arc;

/// The per-attempt column of the task table, beside each task's
/// `TaskRecord`: what (re)submits the task and where its attempt runs.
struct Attempt {
    /// The kernel to (re)submit; released once the task is terminal, when
    /// nothing can submit it again.
    kernel: Option<Arc<KernelCall>>,
    /// Backend unit key of the current attempt and when it was submitted;
    /// taken on failure to account the attempt's wall time as failure-lost.
    current: Option<(u64, SimTime)>,
}

// A row is what every task of an ensemble keeps resident beside its record.
const _: () = assert!(std::mem::size_of::<Attempt>() <= 24);

/// Rows of the first block a trickle of small batches opens; each further
/// block of the same trickle is twice the last.
const TRICKLE_ROWS: usize = 16;

/// The task table, one `TaskRecord` per uid, with the attempt column beside
/// the rows of the tasks that may still be (re)submitted. Rows live in
/// blocks that never move, so no table is copied to grow: a batch that does
/// not fit the last block's room opens a new block, of the batch's exact
/// size or, for a trickle of small batches, of twice the trickle's last
/// block. A run's blocks freeze into the blocks every report shares.
#[derive(Default)]
struct TaskTable {
    /// The finished runs' blocks.
    frozen: TaskRecords,
    /// The running pattern's blocks.
    open: Vec<Vec<TaskRecord>>,
    /// Uid of each block's first row, frozen blocks first.
    starts: Vec<usize>,
    /// The attempt column of the blocks from `attempts_from` on.
    attempts: Vec<Vec<Attempt>>,
    attempts_from: usize,
    /// Rows of the last block if a trickle opened it, else 0.
    trickle: usize,
}

impl TaskTable {
    fn len(&self) -> usize {
        self.frozen.len() + self.open.iter().map(Vec::len).sum::<usize>()
    }

    /// Block and row of `uid`, by binary search over the block starts.
    fn locate(&self, uid: u64) -> Option<(usize, usize)> {
        let uid = usize::try_from(uid).ok()?;
        let block = self.starts.partition_point(|&s| s <= uid).checked_sub(1)?;
        let row = uid - self.starts[block];
        (row < self.block(block).len()).then_some((block, row))
    }

    fn block(&self, block: usize) -> &[TaskRecord] {
        match block.checked_sub(self.frozen.0.len()) {
            Some(open) => &self.open[open],
            None => &self.frozen.0[block],
        }
    }

    fn get(&self, uid: u64) -> Option<&TaskRecord> {
        let (block, row) = self.locate(uid)?;
        Some(&self.block(block)[row])
    }

    /// A row to write. A frozen row is first copied out of the reports that
    /// share its block, which only a task still live when its run ended, or
    /// a unit event that outlives its run, asks for.
    fn get_mut(&mut self, uid: u64) -> Option<&mut TaskRecord> {
        let (block, row) = self.locate(uid)?;
        Some(match block.checked_sub(self.frozen.0.len()) {
            Some(open) => &mut self.open[open][row],
            None => &mut Arc::make_mut(&mut self.frozen.0[block])[row],
        })
    }

    /// The stage and kernel of task `uid`, while it may be (re)submitted.
    fn submittable(&self, uid: u64) -> Option<(&Arc<str>, &Arc<KernelCall>)> {
        let (block, row) = self.locate(uid)?;
        let column = self.attempts.get(block.checked_sub(self.attempts_from)?)?;
        let kernel = column.get(row)?.kernel.as_ref()?;
        Some((&self.block(block)[row].stage, kernel))
    }

    /// The attempt row of task `uid`; `None` once its run ended.
    fn attempt(&mut self, uid: u64) -> Option<&mut Attempt> {
        let (block, row) = self.locate(uid)?;
        let column = block.checked_sub(self.attempts_from)?;
        self.attempts.get_mut(column)?.get_mut(row)
    }

    /// The last block's two columns, with room for `rows` more rows.
    fn room(&mut self, rows: usize) -> (&mut Vec<TaskRecord>, &mut Vec<Attempt>) {
        if !matches!(self.open.last(), Some(b) if b.capacity() - b.len() >= rows) {
            let trickle = (2 * self.trickle).max(TRICKLE_ROWS);
            self.trickle = if rows < trickle { trickle } else { 0 };
            let capacity = rows.max(self.trickle);
            self.starts.push(self.len());
            self.open.push(Vec::with_capacity(capacity));
            self.attempts.push(Vec::with_capacity(capacity));
        }
        let records = self.open.last_mut().expect("a block is open");
        (records, self.attempts.last_mut().expect("beside its block"))
    }

    /// Freezes the running pattern's blocks into the ones the reports
    /// share, without copying a row. Only a partly filled trickle block is
    /// shrunk. With `drop_attempts` (no task live) the attempt column goes
    /// too: nothing can (re)submit a task of the run.
    fn freeze(&mut self, drop_attempts: bool) {
        if let Some(last) = self.open.last_mut() {
            last.shrink_to_fit();
        }
        self.frozen.0.extend(self.open.drain(..).map(Arc::new));
        self.trickle = 0;
        if drop_attempts {
            self.attempts = Vec::new();
            self.attempts_from = self.starts.len();
        }
    }

    /// The records in uid order.
    fn rows(&self) -> impl Iterator<Item = &TaskRecord> {
        self.frozen.iter().chain(self.open.iter().flatten())
    }
}

/// The result a pattern receives for a task that failed terminally.
fn failed(record: &TaskRecord, reason: &str) -> TaskResult {
    TaskResult::failed(record.tag, record.stage.clone(), reason)
}

enum SessionState {
    Created,
    Allocated,
    Deallocated,
}

/// An event the session wants scheduled on the backend's clock. Collected
/// during processing and flushed in order at the end of each pass, so
/// queue-insertion order stays deterministic.
enum Outbound {
    Batch {
        delay: SimDuration,
        batch: u64,
        uids: Vec<u64>,
    },
    DeferredFailure {
        uid: u64,
    },
}

/// The backend-independent half of the execution layer.
///
/// Owns everything a session needs regardless of where units run: the
/// pattern-driving loop, the dense task table, retry/backoff/kill-replace
/// fault handling, graceful degradation when all capacity is lost,
/// telemetry, and report assembly. Drives any [`ExecutionBackend`] through
/// the same lifecycle; `ResourceHandle` pairs one engine with one backend.
pub struct SessionEngine {
    entk: EntkOverheads,
    fault: FaultConfig,
    /// Master stream: init/teardown/spawn overhead samples plus the cost
    /// and model-execution draws the backend takes through `&mut SimRng`
    /// arguments — one stream, in event order.
    rng: SimRng,
    /// Dedicated stream for retry-backoff jitter, so backoff draws never
    /// perturb kernel cost sampling.
    retry_rng: SimRng,
    /// Shared trace pipeline; the same handle the backend's layers
    /// record into, so all layers append to one interleaved record.
    telemetry: SharedTelemetry,
    /// The task table: the records the reports carry and the attempt
    /// column. `deallocate` moves its records into the session report.
    table: TaskTable,
    /// Backend unit key → uid of the task whose current attempt it runs,
    /// as a window of 8-byte slots over the keys in flight (the uid is
    /// stored plus one, so a vacant slot is the zero niche). A federation's
    /// members hand out keys at their own pace, so a new key may sit below
    /// the window.
    unit_to_task: Window<NonZeroU64>,
    /// Id of the next spawn batch; pairs `tasks_created`/`tasks_submitted`
    /// trace events so pattern overhead can be re-derived from the trace.
    next_batch: u64,
    live_tasks: usize,
    failed_tasks: usize,
    total_retries: u32,
    core_overhead: SimDuration,
    pattern_overhead: SimDuration,
    failure_lost: SimDuration,
    degraded: bool,
    clock_marked: bool,
    outbox: Vec<Outbound>,
    /// Task results awaiting delivery to the pattern.
    pending_results: Vec<TaskResult>,
    state: SessionState,
}

impl SessionEngine {
    /// Creates a session engine. `telemetry` must be the same pipeline the
    /// backend's layers record into (pass a disabled handle for real-time
    /// backends with no virtual-clock trace).
    pub fn new(
        entk: EntkOverheads,
        fault: FaultConfig,
        seed: u64,
        telemetry: SharedTelemetry,
    ) -> Self {
        SessionEngine {
            entk,
            fault,
            rng: SimRng::seed_from_u64(seed),
            retry_rng: SimRng::seed_from_u64(seed ^ 0xBAC0_0FF5),
            telemetry,
            table: TaskTable::default(),
            unit_to_task: Window::default(),
            next_batch: 0,
            live_tasks: 0,
            failed_tasks: 0,
            total_retries: 0,
            core_overhead: SimDuration::ZERO,
            pattern_overhead: SimDuration::ZERO,
            failure_lost: SimDuration::ZERO,
            degraded: false,
            clock_marked: false,
            outbox: Vec::new(),
            pending_results: Vec::new(),
            state: SessionState::Created,
        }
    }

    /// The shared cross-layer trace pipeline.
    pub fn telemetry(&self) -> &SharedTelemetry {
        &self.telemetry
    }

    // ---------------------------------------------------------- lifecycle

    /// Acquires resources: pays the toolkit init overhead, boots the
    /// backend, and waits (on the backend's clock) until the allocation is
    /// usable.
    pub fn allocate(&mut self, backend: &mut dyn ExecutionBackend) -> Result<(), EntkError> {
        if !matches!(self.state, SessionState::Created) {
            return Err(EntkError::Usage("allocate() called twice".into()));
        }
        self.telemetry
            .emit(backend.now(), TraceKind::SessionStart, 0);
        let init = if backend.virtual_time() {
            let init = self.entk.init.sample_duration(&mut self.rng)
                + self.entk.resource_request.sample_duration(&mut self.rng);
            self.core_overhead += init;
            init
        } else {
            SimDuration::ZERO
        };
        backend.begin_session(init);
        self.poll_until(backend, |_, b| b.allocation_ready() || b.capacity_lost())?;
        if !backend.allocation_ready() {
            return Err(EntkError::Resource("pilots failed to start".into()));
        }
        self.state = SessionState::Allocated;
        Ok(())
    }

    /// Polls the backend, applying what it surfaces, until `done` holds. A
    /// backend that drains first can never get there.
    fn poll_until(
        &mut self,
        backend: &mut dyn ExecutionBackend,
        done: impl Fn(&Self, &dyn ExecutionBackend) -> bool,
    ) -> Result<(), EntkError> {
        while !done(self, backend) {
            match backend.poll() {
                Poll::Events(events) => self.process_events(events, backend, None),
                Poll::Drained if done(self, backend) => break,
                Poll::Drained => {
                    return Err(EntkError::Runtime(
                        "simulation drained before reaching the expected state".into(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Runs an execution pattern to completion on the allocated backend.
    /// The report shares the session's records instead of copying them.
    pub fn run(
        &mut self,
        backend: &mut dyn ExecutionBackend,
        pattern: &mut dyn ExecutionPattern,
    ) -> Result<ExecutionReport, EntkError> {
        self.drive(backend, pattern)?;
        Ok(self.report(pattern.name(), backend, self.table.frozen.clone()))
    }

    /// [`Self::run`] without the report, for a caller that only reads the
    /// session report.
    pub fn drive(
        &mut self,
        backend: &mut dyn ExecutionBackend,
        pattern: &mut dyn ExecutionPattern,
    ) -> Result<(), EntkError> {
        if !matches!(self.state, SessionState::Allocated) {
            return Err(EntkError::Usage("run() requires allocate() first".into()));
        }
        let initial = pattern.on_start();
        if initial.is_empty() && !pattern.is_done() {
            return Err(EntkError::Usage(
                "pattern emitted no initial tasks but is not done".into(),
            ));
        }
        let now = backend.now();
        self.spawn_tasks(initial, now, backend.virtual_time());
        self.flush_outbox(backend);
        // The cheap live-task check short-circuits first: `is_done` may
        // cost O(pattern size) and this loop runs once per event.
        loop {
            if self.live_tasks == 0 && pattern.is_done() {
                break;
            }
            if backend.capacity_lost() {
                if self.fault.graceful {
                    self.degrade(backend, pattern);
                    break;
                }
                return Err(EntkError::Runtime(format!(
                    "all pilots terminated mid-run; pattern at: {}",
                    pattern.progress()
                )));
            }
            match backend.poll() {
                Poll::Events(events) => self.process_events(events, backend, Some(pattern)),
                Poll::Drained => {
                    if self.live_tasks == 0 && pattern.is_done() {
                        break;
                    }
                    return Err(EntkError::Runtime(format!(
                        "simulation drained before pattern completion: {}",
                        pattern.progress()
                    )));
                }
            }
        }
        // The run's records freeze into the blocks the reports share. With
        // no task live, its attempt rows go now rather than at `deallocate`.
        self.table.freeze(self.live_tasks == 0);
        Ok(())
    }

    /// Releases resources; returns the final session report (including
    /// teardown in the core overhead and total TTC).
    pub fn deallocate(
        &mut self,
        backend: &mut dyn ExecutionBackend,
    ) -> Result<ExecutionReport, EntkError> {
        if !matches!(self.state, SessionState::Allocated) {
            return Err(EntkError::Usage("deallocate() requires allocate()".into()));
        }
        backend.begin_shutdown();
        self.poll_until(backend, |_, b| b.pilots_terminal())?;
        if backend.virtual_time() {
            let teardown = self.entk.teardown.sample_duration(&mut self.rng);
            self.core_overhead += teardown;
            self.clock_marked = false;
            self.telemetry
                .emit(backend.now(), TraceKind::TeardownStart, 0);
            backend.schedule_clock_mark(teardown);
            // Do not drain to empty: background-load models keep the event
            // queue alive forever; stop once the teardown marker fires.
            self.poll_until(backend, |session, _| session.clock_marked)?;
        }
        self.state = SessionState::Deallocated;
        // Nothing runs after this, so the task table itself becomes the
        // session report's records instead of being copied into it.
        self.table.freeze(true);
        let records = std::mem::take(&mut self.table).frozen;
        self.unit_to_task = Window::default();
        Ok(self.report("session", backend, records))
    }

    // -------------------------------------------------------------- tasks

    /// Registers pattern-emitted tasks and schedules their submission after
    /// the EnTK pattern overhead (zero on real-time backends, which pay no
    /// modeled overheads).
    fn spawn_tasks(&mut self, tasks: Vec<Task>, now: SimTime, virtual_time: bool) {
        if tasks.is_empty() {
            return;
        }
        let delay = if virtual_time {
            let n = tasks.len() as f64;
            let per = self.entk.task_create_per_task.sample(&mut self.rng);
            let fixed = self.entk.task_submit_fixed.sample(&mut self.rng);
            let delay = SimDuration::from_secs_f64(fixed + per * n);
            self.pattern_overhead += delay;
            delay
        } else {
            SimDuration::ZERO
        };
        let batch = self.next_batch;
        self.next_batch += 1;
        self.telemetry.emit(now, TraceKind::TasksCreated, batch);
        let mut uids = Vec::with_capacity(tasks.len());
        let first = self.table.len() as u64;
        self.live_tasks += tasks.len();
        let (records, attempts) = self.table.room(tasks.len());
        for (uid, task) in (first..).zip(tasks) {
            records.push(TaskRecord {
                uid,
                tag: task.tag,
                stage: task.stage,
                created: now,
                exec_start: None,
                exec_stop: None,
                finished: None,
                success: false,
                retries: 0,
                lost_to_failures: SimDuration::ZERO,
            });
            attempts.push(Attempt {
                kernel: Some(task.kernel),
                current: None,
            });
            self.telemetry.emit(now, TraceKind::TaskCreated, uid);
            uids.push(uid);
        }
        self.outbox.push(Outbound::Batch { delay, batch, uids });
    }

    /// Submits a due batch one unit at a time. A task the backend refuses
    /// (unknown kernel, bad arguments, unrunnable binding) fails terminally
    /// in place, before the seal hands the accepted units to the runtime;
    /// the accepted tasks are then recorded submitted in batch order.
    fn submit_batch(&mut self, mut uids: Vec<u64>, backend: &mut dyn ExecutionBackend) {
        uids.retain(|&uid| self.table.submittable(uid).is_some());
        if uids.is_empty() {
            return;
        }
        let now = backend.now();
        backend.open_batch(uids.len());
        self.unit_to_task.reserve(uids.len());
        let mut accepted = 0;
        for i in 0..uids.len() {
            let uid = uids[i];
            let (stage, kernel) = self.table.submittable(uid).expect("kept above");
            let Some(key) = backend.submit_unit(uid, stage, kernel, &mut self.rng) else {
                // Terminal at once. The pattern learns about it through the
                // deferred-failure queue, in a clean processing pass.
                self.fail_task(uid, now);
                self.outbox.push(Outbound::DeferredFailure { uid });
                continue;
            };
            self.table.attempt(uid).expect("submittable").current = Some((key, now));
            self.unit_to_task
                .insert(key, NonZeroU64::MIN.saturating_add(uid));
            uids[accepted] = uid;
            accepted += 1;
        }
        backend.seal_batch();
        for &uid in &uids[..accepted] {
            self.telemetry.emit(now, TraceKind::TaskSubmitted, uid);
        }
    }

    /// Stamps task `uid` terminal at `now` and releases its kernel.
    fn finish(&mut self, uid: u64, now: SimTime, success: bool) -> &TaskRecord {
        if let Some(attempt) = self.table.attempt(uid) {
            attempt.kernel = None;
        }
        let record = self.table.get_mut(uid).expect("a known task");
        record.finished = Some(now);
        record.success = success;
        record
    }

    /// A task's terminal failure at `now`: finishes it, moves it from the
    /// live to the failed count and records it. `None` for an unknown uid.
    fn fail_task(&mut self, uid: u64, now: SimTime) -> Option<&TaskRecord> {
        if uid as usize >= self.table.len() {
            return None;
        }
        self.live_tasks -= 1;
        self.failed_tasks += 1;
        self.telemetry.emit(now, TraceKind::TaskFailed, uid);
        Some(self.finish(uid, now, false))
    }

    /// Kill-replace watchdog fired: cancel the running unit and retry. A
    /// watchdog is armed when an attempt starts executing and never
    /// disarmed, so one that outlived its attempt fires during a later one;
    /// only that of the attempt now executing (whose deadline has come) may
    /// kill. A queued attempt is not executing: its record's start is older.
    fn on_timeout(&mut self, uid: u64, backend: &mut dyn ExecutionBackend) {
        let Some(timeout) = self.fault.task_timeout else {
            return;
        };
        let Some((key, submitted)) = self.table.attempt(uid).and_then(|a| a.current) else {
            return;
        };
        let record = self.table.get(uid).filter(|r| r.finished.is_none());
        let started = record.and_then(|r| r.exec_start.filter(|&s| s >= submitted));
        if started.is_none_or(|s| backend.now() < s + timeout) {
            return;
        }
        if !backend.cancel_running_unit(key) {
            return; // already finishing; let the normal path handle it
        }
        self.unit_to_task.take(key);
        self.retry_or_fail(
            uid,
            "kill-replace: task exceeded timeout",
            backend.now(),
            backend.virtual_time(),
        );
    }

    /// The retry engine. Accounts the failed attempt's wall time (and any
    /// retry backoff) as failure-lost, then either resubmits the task after
    /// the backoff delay or reports terminal failure to the pattern once
    /// `max_retries` is exhausted.
    fn retry_or_fail(&mut self, uid: u64, reason: &str, now: SimTime, virtual_time: bool) {
        let backoff = self.fault.backoff;
        let max_retries = self.fault.max_retries;
        if uid as usize >= self.table.len() {
            return;
        }
        let lost = self
            .table
            .attempt(uid)
            .and_then(|a| a.current.take())
            .map(|(_, started)| now.saturating_since(started))
            .unwrap_or(SimDuration::ZERO);
        let record = self.table.get_mut(uid).expect("a known task");
        record.lost_to_failures += lost;
        self.failure_lost += lost;
        self.telemetry.emit(now, TraceKind::TaskAttemptFailed, uid);
        if record.retries < max_retries {
            record.retries += 1;
            // Real-time backends cannot honor a modeled backoff wait, so
            // retries resubmit immediately and no jitter is drawn.
            let delay = if virtual_time {
                backoff.delay(record.retries, &mut self.retry_rng)
            } else {
                SimDuration::ZERO
            };
            record.lost_to_failures += delay;
            self.failure_lost += delay;
            self.total_retries += 1;
            // Stamped at the instant the backoff completes, so the backoff
            // charge is recoverable from the trace as (task_retry −
            // task_attempt_failed) even if the resubmission never runs.
            self.telemetry.emit(now + delay, TraceKind::TaskRetry, uid);
            self.outbox.push(Outbound::Batch {
                delay,
                batch: RETRY_BATCH,
                uids: vec![uid],
            });
        } else if let Some(result) = self.fail_task(uid, now).map(|r| failed(r, reason)) {
            self.pending_results.push(result);
        }
    }

    /// Graceful degradation: the session lost every pilot mid-run and the
    /// fault policy asks to keep what we have. All live tasks fail in place
    /// and their results are delivered to the pattern; follow-up tasks it
    /// spawns fail the same way (there is nothing left to run them on),
    /// until the pattern stops emitting.
    fn degrade(&mut self, backend: &mut dyn ExecutionBackend, pattern: &mut dyn ExecutionPattern) {
        self.degraded = true;
        let now = backend.now();
        let virtual_time = backend.virtual_time();
        // Rounds are bounded: every round terminates all currently-live
        // tasks, and a pattern that keeps spawning replacements forever is
        // a bug we'd rather stop than loop on.
        for _ in 0..10_000 {
            // Uid order by construction: the table is indexed by uid.
            let live: Vec<u64> = (self.table.rows())
                .filter(|r| r.finished.is_none())
                .map(|r| r.uid)
                .collect();
            if live.is_empty() && self.pending_results.is_empty() {
                break;
            }
            for uid in live {
                let started = self.table.attempt(uid).and_then(|a| a.current.take());
                if started.is_some() {
                    self.telemetry.emit(now, TraceKind::TaskAttemptFailed, uid);
                }
                let lost = started
                    .map(|(_, s)| now.saturating_since(s))
                    .unwrap_or(SimDuration::ZERO);
                if let Some(record) = self.table.get_mut(uid) {
                    record.lost_to_failures += lost;
                }
                self.failure_lost += lost;
                let reason = "resource lost: all pilots terminated";
                if let Some(result) = self.fail_task(uid, now).map(|r| failed(r, reason)) {
                    self.pending_results.push(result);
                }
            }
            // The spawns below book pattern overhead, but their submission
            // events are discarded (`outbox.clear()`): that overhead is
            // never actually paid, so restore the accounted value after.
            let booked = self.pattern_overhead;
            self.deliver_results(pattern, now, virtual_time);
            self.pattern_overhead = booked;
            // Those spawns queued submission events that will never run.
            self.outbox.clear();
        }
    }

    // -------------------------------------------------------- event loop

    /// Applies one poll's worth of backend events, delivers queued results
    /// to the pattern (spawning follow-ups), and flushes newly scheduled
    /// work back onto the backend's clock — in that order, so trace records
    /// and queue insertions stay deterministic.
    fn process_events<'a, 'b>(
        &mut self,
        mut events: Vec<BackendEvent>,
        backend: &mut dyn ExecutionBackend,
        pattern: Option<&'a mut (dyn ExecutionPattern + 'b)>,
    ) {
        for event in events.drain(..) {
            match event {
                BackendEvent::BatchReady { batch, uids } => {
                    if batch != RETRY_BATCH {
                        self.telemetry
                            .emit(backend.now(), TraceKind::TasksSubmitted, batch);
                    }
                    self.submit_batch(uids, backend);
                }
                BackendEvent::TaskTimeout { uid } => self.on_timeout(uid, backend),
                BackendEvent::DeferredFailure { uid } => {
                    if let Some(record) = self.table.get(uid) {
                        let result = failed(record, "kernel binding failed");
                        self.pending_results.push(result);
                    }
                }
                BackendEvent::UnitStarted { key, time } => {
                    let uid = self.unit_to_task.get(key).map(|t| t.get() - 1);
                    let Some((uid, r)) = uid.and_then(|u| Some((u, self.table.get_mut(u)?))) else {
                        continue;
                    };
                    r.exec_start = Some(time);
                    if let Some(timeout) = self.fault.task_timeout {
                        backend.arm_timeout(uid, (time + timeout).saturating_since(backend.now()));
                    }
                }
                BackendEvent::UnitDone { key, time } => {
                    let Some(uid) = self.unit_to_task.take(key).map(|t| t.get() - 1) else {
                        continue;
                    };
                    self.complete_task(uid, key, time, backend);
                }
                BackendEvent::UnitFailed { key, time, reason } => {
                    let Some(uid) = self.unit_to_task.take(key).map(|t| t.get() - 1) else {
                        continue;
                    };
                    self.retry_or_fail(uid, &reason, time, backend.virtual_time());
                }
                BackendEvent::ClockMark => {
                    self.clock_marked = true;
                    self.telemetry
                        .emit(backend.now(), TraceKind::TeardownDone, 0);
                }
            }
        }
        backend.recycle_events(events);
        if let Some(p) = pattern {
            self.deliver_results(p, backend.now(), backend.virtual_time());
        }
        self.flush_outbox(backend);
    }

    /// Delivers queued results to the pattern, spawning follow-up tasks.
    /// Spawning queues no result, so the drained buffer goes back to be
    /// reused: one allocation per session instead of one per completion.
    fn deliver_results(
        &mut self,
        pattern: &mut dyn ExecutionPattern,
        now: SimTime,
        virtual_time: bool,
    ) {
        let mut results = std::mem::take(&mut self.pending_results);
        for result in results.drain(..) {
            let follow_ups = pattern.on_task_done(&result);
            self.spawn_tasks(follow_ups, now, virtual_time);
        }
        self.pending_results = results;
    }

    fn flush_outbox(&mut self, backend: &mut dyn ExecutionBackend) {
        for out in self.outbox.drain(..) {
            match out {
                Outbound::Batch { delay, batch, uids } => {
                    backend.schedule_batch(delay, batch, uids)
                }
                Outbound::DeferredFailure { uid } => backend.schedule_deferred_failure(uid),
            }
        }
    }

    fn complete_task(
        &mut self,
        uid: u64,
        key: u64,
        time: SimTime,
        backend: &mut dyn ExecutionBackend,
    ) {
        let attempt = self.table.attempt(uid);
        let Some(kernel) = attempt.and_then(|a| a.kernel.as_ref()) else {
            return;
        };
        let outcome = backend.complete_unit(key, kernel, &mut self.rng);
        let record = self.table.get_mut(uid).expect("a known task");
        record.exec_start = outcome.exec_start.or(record.exec_start);
        record.exec_stop = outcome.exec_stop;
        match outcome.result {
            Ok(output) => {
                let record = self.finish(uid, time, true);
                let result = TaskResult::ok(record.tag, record.stage.clone(), output);
                self.live_tasks -= 1;
                self.telemetry.emit(time, TraceKind::TaskDone, uid);
                self.pending_results.push(result);
            }
            Err(e) => {
                // Semantic failure after execution: retry path.
                self.retry_or_fail(uid, &e, time, backend.virtual_time());
            }
        }
    }

    // ------------------------------------------------------------- report

    /// The report over `tasks`, the task table's records in uid order.
    fn report(
        &self,
        pattern_name: &str,
        backend: &dyn ExecutionBackend,
        tasks: TaskRecords,
    ) -> ExecutionReport {
        let stats = backend.stats();
        ExecutionReport {
            pattern: pattern_name.to_string(),
            resource: stats.resource,
            cores: stats.cores,
            ttc: backend.now().saturating_since(SimTime::ZERO),
            overheads: OverheadBreakdown {
                core: self.core_overhead,
                pattern: self.pattern_overhead,
                runtime_pilot: stats.runtime_pilot,
                resource_wait: stats.resource_wait,
                failure_lost: self.failure_lost,
            },
            tasks,
            failed_tasks: self.failed_tasks,
            total_retries: self.total_retries,
            partial: self.degraded || self.failed_tasks > 0,
            events: stats.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pushes `n` rows as one batch, the way `spawn_tasks` does.
    fn push(table: &mut TaskTable, n: usize) {
        let first = table.len() as u64;
        let (records, attempts) = table.room(n);
        for uid in first..first + n as u64 {
            records.push(TaskRecord {
                uid,
                tag: uid,
                stage: Arc::from("s"),
                created: SimTime::ZERO,
                exec_start: None,
                exec_stop: None,
                finished: None,
                success: false,
                retries: 0,
                lost_to_failures: SimDuration::ZERO,
            });
            attempts.push(Attempt {
                kernel: None,
                current: Some((uid, SimTime::ZERO)),
            });
        }
    }

    fn capacities(table: &TaskTable) -> Vec<usize> {
        table.open.iter().map(Vec::capacity).collect()
    }

    #[test]
    fn a_row_never_moves_when_the_table_grows() {
        let mut table = TaskTable::default();
        push(&mut table, 1_000);
        let row0: *const TaskRecord = table.get(0).unwrap();
        for _ in 0..100 {
            push(&mut table, 1);
        }
        push(&mut table, 5_000);
        push(&mut table, 3);
        assert!(std::ptr::eq(row0, table.get(0).unwrap()));
        // A batch gets its exact size; a trickle starts small and doubles,
        // and starts small again after a batch.
        assert_eq!(capacities(&table), [1_000, 16, 32, 64, 5_000, 16]);
        assert_eq!(table.len(), 6_103);
    }

    #[test]
    fn lookups_cross_block_boundaries() {
        let mut table = TaskTable::default();
        for n in [7, 1, 1, 20, 40, 1] {
            push(&mut table, n);
        }
        let check = |table: &mut TaskTable, attempts: std::ops::Range<u64>| {
            for uid in 0..table.len() as u64 {
                assert_eq!(table.get(uid).map(|r| r.uid), Some(uid));
                let attempt = table.attempt(uid).and_then(|a| a.current);
                assert_eq!(
                    attempt.map(|(key, _)| key),
                    attempts.contains(&uid).then_some(uid)
                );
            }
            let past = table.len() as u64;
            assert!(table.get(past).is_none() && table.attempt(past).is_none());
        };
        check(&mut table, 0..70);
        // A run that ends with no task live takes its attempt column along;
        // the next run's rows follow in new blocks.
        table.freeze(true);
        check(&mut table, 0..0);
        push(&mut table, 3);
        push(&mut table, 30);
        check(&mut table, 70..103);
        table.get_mut(69).unwrap().retries = 5;
        assert_eq!(table.get(69).unwrap().retries, 5);
        table.attempt(102).unwrap().current = None;
        assert!(table.attempt(102).unwrap().current.is_none());
    }

    #[test]
    fn freeze_hands_each_block_to_the_reports_without_a_copy() {
        let mut table = TaskTable::default();
        push(&mut table, 100);
        push(&mut table, 1);
        push(&mut table, 1);
        let batch = table.open[0].as_ptr();
        table.freeze(true);
        // The batch block is the same memory; the partly filled trickle
        // block is shrunk to its rows.
        assert_eq!(table.frozen.0[0].as_ptr(), batch);
        assert_eq!(table.frozen.0[1].capacity(), 2);
        // A report is handles to the table's blocks.
        let report = table.frozen.clone();
        assert_eq!(report.len(), 102);
        for (block, ours) in report.0.iter().zip(&table.frozen.0) {
            assert!(Arc::ptr_eq(block, ours));
        }
        for uid in [0, 99, 100, 101] {
            assert!(std::ptr::eq(&report[uid], table.get(uid as u64).unwrap()));
        }
        // A row written after its run ended is copied out of the shared
        // block; the report keeps what it was handed.
        table.get_mut(100).unwrap().retries = 1;
        assert_eq!(report[100].retries, 0);
        assert!(std::ptr::eq(&report[0], table.get(0).unwrap()));
    }
}
