//! The backend-agnostic session engine.
//!
//! One implementation of the execution-plugin lifecycle (allocate → run →
//! deallocate) shared by every backend: pattern driving, the dense task
//! table, the retry/backoff/kill-replace fault policy, graceful
//! degradation, telemetry subjects, and `TaskRecord`/`OverheadBreakdown`
//! assembly. The backend-specific half — how units execute and what the
//! clock is — sits behind [`ExecutionBackend`]; see [`crate::backend`].

use crate::backend::{recycle, BackendEvent, ExecutionBackend, Poll, UnitSpec, RETRY_BATCH};
use crate::error::EntkError;
use crate::fault::FaultConfig;
use crate::overheads::EntkOverheads;
use crate::pattern::ExecutionPattern;
use crate::report::{ExecutionReport, OverheadBreakdown, TaskRecord, TaskRecords};
use crate::task::{Task, TaskResult};
use entk_kernels::KernelCall;
use entk_sim::{reserve_batch, SharedTelemetry, SimDuration, SimRng, SimTime, Subject};
use std::collections::VecDeque;
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
const _: () = assert!(std::mem::size_of::<Attempt>() <= 32);

/// The task table, one `TaskRecord` per uid: the finished runs' rows, as
/// the blocks every report shares, then the running pattern's rows.
#[derive(Default)]
struct TaskTable {
    frozen: TaskRecords,
    /// Uid of `current[0]`: the number of frozen rows.
    base: usize,
    current: Vec<TaskRecord>,
}

impl TaskTable {
    fn len(&self) -> usize {
        self.base + self.current.len()
    }

    fn get(&self, uid: u64) -> Option<&TaskRecord> {
        match (uid as usize).checked_sub(self.base) {
            Some(row) => self.current.get(row),
            None => self.frozen.iter().nth(uid as usize),
        }
    }

    /// A row to write. A frozen row is first copied out of the reports that
    /// share its block, which only a task still live when its run ended, or
    /// a unit event that outlives its run, asks for.
    fn get_mut(&mut self, uid: u64) -> Option<&mut TaskRecord> {
        if let Some(row) = (uid as usize).checked_sub(self.base) {
            return self.current.get_mut(row);
        }
        let mut row = uid as usize;
        for block in &mut self.frozen.0 {
            if row < block.len() {
                return Some(&mut Arc::make_mut(block)[row]);
            }
            row -= block.len();
        }
        None
    }

    /// Freezes the running pattern's rows into one block.
    fn freeze(&mut self) {
        if !self.current.is_empty() {
            let mut rows = std::mem::take(&mut self.current);
            rows.shrink_to_fit();
            self.base += rows.len();
            self.frozen.0.push(Arc::new(rows));
        }
    }
}

/// Backend unit key → uid of the task whose current attempt it runs: a
/// window of 8-byte slots from the least mapped key to the greatest
/// (`slots[i]` is key `base + i`; the uid is stored plus one, so an empty
/// slot is the zero niche). Leading empty slots leave on `take`, so the
/// map spans the keys in flight, not every key the session handed out.
#[derive(Default)]
struct UnitTasks {
    base: u64,
    slots: VecDeque<Option<NonZeroU64>>,
}

impl UnitTasks {
    fn insert(&mut self, key: u64, uid: u64) {
        if self.slots.is_empty() {
            self.base = key;
        }
        // A federation's members hand out keys at their own pace, so a new
        // key may sit below the window.
        while key < self.base {
            self.slots.push_front(None);
            self.base -= 1;
        }
        let idx = (key - self.base) as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, None);
        }
        self.slots[idx] = NonZeroU64::new(uid + 1);
    }

    fn get(&self, key: u64) -> Option<u64> {
        let slot = key.checked_sub(self.base)? as usize;
        Some(self.slots.get(slot).copied()??.get() - 1)
    }

    fn take(&mut self, key: u64) -> Option<u64> {
        let slot = key.checked_sub(self.base)? as usize;
        let uid = self.slots.get_mut(slot)?.take()?.get() - 1;
        while self.slots.front() == Some(&None) {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(uid)
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
    /// The task table: the records the reports carry. `deallocate` moves
    /// it into the session report.
    table: TaskTable,
    /// The per-attempt column of the task table, indexed by uid less
    /// `attempts_base`. A run ends with no task live, so its rows go with
    /// it and the column only ever covers the current run.
    attempts: Vec<Attempt>,
    attempts_base: usize,
    unit_to_task: UnitTasks,
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
    /// The unit specs of the batch being submitted, kept from one batch to
    /// the next.
    specs: Vec<UnitSpec>,
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
            attempts: Vec::new(),
            attempts_base: 0,
            unit_to_task: UnitTasks::default(),
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
            specs: Vec::new(),
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
            .record(backend.now(), "entk", "session_start", Subject::Session);
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
        // The run's records freeze into the block the reports share. With
        // no task live, nothing can (re)submit a task of this run, so its
        // attempt rows go now rather than at `deallocate`.
        self.table.freeze();
        if self.live_tasks == 0 {
            self.attempts_base = self.table.len();
            self.attempts = Vec::new();
        }
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
                .record(backend.now(), "entk", "teardown_start", Subject::Session);
            backend.schedule_clock_mark(teardown);
            // Do not drain to empty: background-load models keep the event
            // queue alive forever; stop once the teardown marker fires.
            self.poll_until(backend, |session, _| session.clock_marked)?;
        }
        self.state = SessionState::Deallocated;
        // Nothing runs after this, so the task table itself becomes the
        // session report's records instead of being copied into it.
        self.table.freeze();
        let records = std::mem::take(&mut self.table.frozen);
        self.attempts = Vec::new();
        self.unit_to_task = UnitTasks::default();
        Ok(self.report("session", backend, records))
    }

    // -------------------------------------------------------------- tasks

    /// The attempt row of task `uid`; `None` once its run ended.
    fn attempt(&mut self, uid: u64) -> Option<&mut Attempt> {
        let row = (uid as usize).checked_sub(self.attempts_base)?;
        self.attempts.get_mut(row)
    }

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
        self.telemetry
            .record(now, "entk", "tasks_created", Subject::Batch(batch));
        let mut uids = Vec::with_capacity(tasks.len());
        reserve_batch(&mut self.table.current, tasks.len());
        reserve_batch(&mut self.attempts, tasks.len());
        for task in tasks {
            let uid = self.table.len() as u64;
            self.live_tasks += 1;
            self.table.current.push(TaskRecord {
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
            self.attempts.push(Attempt {
                kernel: Some(task.kernel),
                current: None,
            });
            self.telemetry
                .record(now, "entk", "task_created", Subject::Task(uid));
            uids.push(uid);
        }
        self.outbox.push(Outbound::Batch { delay, batch, uids });
    }

    /// Binds a due batch to unit specs and submits them through the
    /// backend's prepare/commit protocol. Rejected tasks (unknown kernel,
    /// bad arguments, unrunnable binding) fail terminally before the
    /// runtime sees them, in batch order, exactly as the accounting and
    /// trace expect.
    fn submit_batch(&mut self, uids: Vec<u64>, backend: &mut dyn ExecutionBackend) {
        let now = backend.now();
        let mut specs = std::mem::take(&mut self.specs);
        specs.reserve(uids.len());
        specs.extend(uids.iter().filter_map(|&uid| {
            let row = (uid as usize).checked_sub(self.attempts_base)?;
            Some(UnitSpec {
                uid,
                stage: self.table.get(uid)?.stage.clone(),
                kernel: self.attempts[row].kernel.clone()?,
            })
        }));
        if !specs.is_empty() {
            self.submit_specs(&specs, now, backend);
        }
        recycle(&mut specs);
        self.specs = specs;
    }

    /// The prepare/commit half of [`Self::submit_batch`].
    fn submit_specs(
        &mut self,
        specs: &[UnitSpec],
        now: SimTime,
        backend: &mut dyn ExecutionBackend,
    ) {
        let verdicts = backend.prepare_batch(specs, &mut self.rng);
        debug_assert_eq!(verdicts.len(), specs.len());
        for (spec, verdict) in specs.iter().zip(&verdicts) {
            if verdict.is_some() {
                // A task failed before it could even be submitted (bad
                // kernel); it is terminal immediately. The pattern learns
                // about it through the deferred-failure queue, in a clean
                // processing pass.
                self.fail_unsubmittable(spec.uid, now);
            }
        }
        reserve_batch(&mut self.unit_to_task.slots, specs.len());
        for (uid, key) in backend.commit_batch() {
            let Some(attempt) = self.attempt(uid) else {
                continue;
            };
            attempt.current = Some((key, now));
            self.telemetry
                .record(now, "entk", "task_submitted", Subject::Task(uid));
            self.unit_to_task.insert(key, uid);
            if let Some(timeout) = self.fault.task_timeout {
                backend.arm_timeout(uid, timeout);
            }
        }
    }

    /// Stamps task `uid` terminal at `now` and releases its kernel.
    fn finish(&mut self, uid: u64, now: SimTime, success: bool) -> &TaskRecord {
        if let Some(attempt) = self.attempt(uid) {
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
        self.telemetry
            .record(now, "entk", "task_failed", Subject::Task(uid));
        Some(self.finish(uid, now, false))
    }

    /// Terminal failure for a task the backend refused to accept.
    fn fail_unsubmittable(&mut self, uid: u64, now: SimTime) {
        if self.fail_task(uid, now).is_some() {
            self.outbox.push(Outbound::DeferredFailure { uid });
        }
    }

    /// Kill-replace watchdog fired: cancel the running unit and retry. A
    /// watchdog is armed per attempt and never disarmed, so one that
    /// outlived its attempt fires during a later one; only the watchdog of
    /// the attempt now running (the one whose deadline has come) may kill.
    fn on_timeout(&mut self, uid: u64, backend: &mut dyn ExecutionBackend) {
        let Some(timeout) = self.fault.task_timeout else {
            return;
        };
        let Some((key, started)) = self.attempt(uid).and_then(|a| a.current) else {
            return;
        };
        let finished = self.table.get(uid).is_some_and(|r| r.finished.is_some());
        if finished || backend.now() < started + timeout {
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
            .attempt(uid)
            .and_then(|a| a.current.take())
            .map(|(_, started)| now.saturating_since(started))
            .unwrap_or(SimDuration::ZERO);
        let record = self.table.get_mut(uid).expect("a known task");
        record.lost_to_failures += lost;
        self.failure_lost += lost;
        self.telemetry
            .record(now, "entk", "task_attempt_failed", Subject::Task(uid));
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
            self.telemetry
                .record(now + delay, "entk", "task_retry", Subject::Task(uid));
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
            let rows = self.table.frozen.iter().chain(&self.table.current);
            let live: Vec<u64> = rows
                .filter(|r| r.finished.is_none())
                .map(|r| r.uid)
                .collect();
            if live.is_empty() && self.pending_results.is_empty() {
                break;
            }
            for uid in live {
                let started = self.attempt(uid).and_then(|a| a.current.take());
                if started.is_some() {
                    self.telemetry
                        .record(now, "entk", "task_attempt_failed", Subject::Task(uid));
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
                        self.telemetry.record(
                            backend.now(),
                            "entk",
                            "tasks_submitted",
                            Subject::Batch(batch),
                        );
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
                    let uid = self.unit_to_task.get(key);
                    if let Some(r) = uid.and_then(|uid| self.table.get_mut(uid)) {
                        r.exec_start = Some(time);
                    }
                }
                BackendEvent::UnitDone { key, time } => {
                    let Some(uid) = self.unit_to_task.take(key) else {
                        continue;
                    };
                    self.complete_task(uid, key, time, backend);
                }
                BackendEvent::UnitFailed { key, time, reason } => {
                    let Some(uid) = self.unit_to_task.take(key) else {
                        continue;
                    };
                    self.retry_or_fail(uid, &reason, time, backend.virtual_time());
                }
                BackendEvent::ClockMark => {
                    self.clock_marked = true;
                    self.telemetry
                        .record(backend.now(), "entk", "teardown_done", Subject::Session);
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
        let row = (uid as usize).checked_sub(self.attempts_base);
        let attempt = row.and_then(|row| self.attempts.get(row));
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
                self.telemetry
                    .record(time, "entk", "task_done", Subject::Task(uid));
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
