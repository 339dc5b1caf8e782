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
use crate::report::{ExecutionReport, OverheadBreakdown, TaskRecord};
use crate::task::{Task, TaskResult};
use entk_kernels::KernelCall;
use entk_sim::{DenseStore, SharedTelemetry, SimDuration, SimRng, SimTime, Subject};
use std::sync::Arc;

/// One row of the task table: the report record (which carries the tag and
/// the shared stage label), the kernel handle, and the attempt state.
struct TaskEntry {
    record: TaskRecord,
    /// The kernel to (re)submit; released once the task is terminal, when
    /// nothing can submit it again.
    kernel: Option<Arc<KernelCall>>,
    /// Backend unit key of the current attempt.
    unit: Option<u64>,
    /// When the current attempt was submitted to the backend; consumed on
    /// failure to account the attempt's wall time as failure-lost.
    attempt_started: Option<SimTime>,
}

impl TaskEntry {
    /// A task is terminal from the instant its record is stamped finished.
    fn terminal(&self) -> bool {
        self.record.finished.is_some()
    }

    fn finish(&mut self, now: SimTime, success: bool) {
        self.record.finished = Some(now);
        self.record.success = success;
        self.kernel = None;
    }

    fn failed(&self, reason: &str) -> TaskResult {
        TaskResult::failed(self.record.tag, self.record.stage.clone(), reason)
    }
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
    /// Shared trace/metrics pipeline; the same handle the backend's layers
    /// record into, so all layers append to one interleaved record.
    telemetry: SharedTelemetry,
    /// Dense store keyed by the task uid; never removed from.
    tasks: DenseStore<TaskEntry>,
    /// Backend unit key → task uid for the current attempt of each task.
    unit_to_task: DenseStore<u64>,
    next_uid: u64,
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
            tasks: DenseStore::new(),
            unit_to_task: DenseStore::new(),
            next_uid: 0,
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

    /// The shared cross-layer trace/metrics pipeline.
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
    pub fn run(
        &mut self,
        backend: &mut dyn ExecutionBackend,
        pattern: &mut dyn ExecutionPattern,
    ) -> Result<ExecutionReport, EntkError> {
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
        Ok(self.build_report(pattern.name(), backend))
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
        Ok(self.build_report("session", backend))
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
        self.telemetry
            .record(now, "entk", "tasks_created", Subject::Batch(batch));
        let mut uids = Vec::with_capacity(tasks.len());
        self.tasks.reserve(tasks.len());
        for task in tasks {
            let uid = self.next_uid;
            self.next_uid += 1;
            self.live_tasks += 1;
            self.tasks.insert(
                uid,
                TaskEntry {
                    record: TaskRecord {
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
                    },
                    kernel: Some(task.kernel),
                    unit: None,
                    attempt_started: None,
                },
            );
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
            let entry = self.tasks.get(uid)?;
            Some(UnitSpec {
                uid,
                stage: entry.record.stage.clone(),
                kernel: entry.kernel.clone()?,
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
        self.unit_to_task.reserve(specs.len());
        for (uid, key) in backend.commit_batch() {
            let Some(entry) = self.tasks.get_mut(uid) else {
                continue;
            };
            entry.unit = Some(key);
            entry.attempt_started = Some(now);
            self.telemetry
                .record(now, "entk", "task_submitted", Subject::Task(uid));
            self.unit_to_task.insert(key, uid);
            if let Some(timeout) = self.fault.task_timeout {
                backend.arm_timeout(uid, timeout);
            }
        }
    }

    /// A task's terminal failure at `now`: finishes it, moves it from the
    /// live to the failed count and records it. `None` for an unknown uid.
    fn fail_task(&mut self, uid: u64, now: SimTime) -> Option<&TaskEntry> {
        let entry = self.tasks.get_mut(uid)?;
        entry.finish(now, false);
        self.live_tasks -= 1;
        self.failed_tasks += 1;
        self.telemetry
            .record(now, "entk", "task_failed", Subject::Task(uid));
        self.telemetry.inc("entk.task_failures");
        Some(entry)
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
        let Some(entry) = self.tasks.get(uid) else {
            return;
        };
        let (Some(key), Some(started), Some(timeout)) =
            (entry.unit, entry.attempt_started, self.fault.task_timeout)
        else {
            return;
        };
        if entry.terminal() || backend.now() < started + timeout {
            return;
        }
        if !backend.cancel_running_unit(key) {
            return; // already finishing; let the normal path handle it
        }
        self.unit_to_task.remove(key);
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
        let Some(entry) = self.tasks.get_mut(uid) else {
            return;
        };
        let lost = entry
            .attempt_started
            .take()
            .map(|started| now.saturating_since(started))
            .unwrap_or(SimDuration::ZERO);
        entry.record.lost_to_failures += lost;
        self.failure_lost += lost;
        self.telemetry
            .record(now, "entk", "task_attempt_failed", Subject::Task(uid));
        if entry.record.retries < max_retries {
            entry.record.retries += 1;
            entry.unit = None;
            // Real-time backends cannot honor a modeled backoff wait, so
            // retries resubmit immediately and no jitter is drawn.
            let delay = if virtual_time {
                backoff.delay(entry.record.retries, &mut self.retry_rng)
            } else {
                SimDuration::ZERO
            };
            entry.record.lost_to_failures += delay;
            self.failure_lost += delay;
            self.total_retries += 1;
            // Stamped at the instant the backoff completes, so the backoff
            // charge is recoverable from the trace as (task_retry −
            // task_attempt_failed) even if the resubmission never runs.
            self.telemetry
                .record(now + delay, "entk", "task_retry", Subject::Task(uid));
            self.telemetry.inc("entk.retries");
            self.outbox.push(Outbound::Batch {
                delay,
                batch: RETRY_BATCH,
                uids: vec![uid],
            });
        } else if let Some(result) = self.fail_task(uid, now).map(|e| e.failed(reason)) {
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
            // Uid order by construction: the store iterates densely.
            let live: Vec<u64> = self
                .tasks
                .iter()
                .filter(|(_, e)| !e.terminal())
                .map(|(uid, _)| uid)
                .collect();
            if live.is_empty() && self.pending_results.is_empty() {
                break;
            }
            for uid in live {
                let Some(entry) = self.tasks.get_mut(uid) else {
                    continue;
                };
                let started = entry.attempt_started.take();
                if started.is_some() {
                    self.telemetry
                        .record(now, "entk", "task_attempt_failed", Subject::Task(uid));
                }
                let lost = started
                    .map(|s| now.saturating_since(s))
                    .unwrap_or(SimDuration::ZERO);
                entry.record.lost_to_failures += lost;
                self.failure_lost += lost;
                let reason = "resource lost: all pilots terminated";
                if let Some(result) = self.fail_task(uid, now).map(|e| e.failed(reason)) {
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
                    if let Some(entry) = self.tasks.get(uid) {
                        self.pending_results
                            .push(entry.failed("kernel binding failed"));
                    }
                }
                BackendEvent::UnitStarted { key, time } => {
                    if let Some(&uid) = self.unit_to_task.get(key) {
                        if let Some(e) = self.tasks.get_mut(uid) {
                            e.record.exec_start = Some(time);
                        }
                    }
                }
                BackendEvent::UnitDone { key, time } => {
                    let Some(&uid) = self.unit_to_task.get(key) else {
                        continue;
                    };
                    self.unit_to_task.remove(key);
                    self.complete_task(uid, key, time, backend);
                }
                BackendEvent::UnitFailed { key, time, reason } => {
                    let Some(&uid) = self.unit_to_task.get(key) else {
                        continue;
                    };
                    self.unit_to_task.remove(key);
                    self.retry_or_fail(uid, &reason, time, backend.virtual_time());
                }
                // Shrunk pilots keep running on their remaining cores; the
                // units they dropped arrive as `UnitFailed` events.
                BackendEvent::CapacityShrunk { .. } => {}
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
        let Some(entry) = self.tasks.get_mut(uid) else {
            return;
        };
        let Some(kernel) = &entry.kernel else {
            return;
        };
        let outcome = backend.complete_unit(key, kernel, &mut self.rng);
        entry.record.exec_start = outcome.exec_start.or(entry.record.exec_start);
        entry.record.exec_stop = outcome.exec_stop;
        match outcome.result {
            Ok(output) => {
                entry.finish(time, true);
                self.live_tasks -= 1;
                self.telemetry
                    .record(time, "entk", "task_done", Subject::Task(uid));
                self.pending_results.push(TaskResult::ok(
                    entry.record.tag,
                    entry.record.stage.clone(),
                    output,
                ));
            }
            Err(e) => {
                // Semantic failure after execution: retry path.
                self.retry_or_fail(uid, &e, time, backend.virtual_time());
            }
        }
    }

    // ------------------------------------------------------------- report

    fn build_report(&self, pattern_name: &str, backend: &dyn ExecutionBackend) -> ExecutionReport {
        let stats = backend.stats();
        // Store order is uid order; no sort needed. Sized up front: the
        // store's iterator cannot promise its length to `collect`.
        let mut tasks = Vec::with_capacity(self.tasks.len());
        tasks.extend(self.tasks.values().map(|e| e.record.clone()));
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
