//! An [`ExecutionBackend`] with nothing behind it: no machine, no pilot,
//! no event queue. Every committed unit starts and finishes at the next
//! poll, so a [`SessionEngine`] driven over it spends its time in pattern
//! driving, the task tables and report assembly alone. That is what the
//! `core.session.tasks_per_s` probe measures.
//!
//! The clock is virtual, so the session samples its overhead model and
//! schedules batches exactly as it does over the simulated backend.

use entk_core::backend::{
    BackendEvent, BackendStats, ExecutionBackend, Poll, UnitOutcome, UnitSpec,
};
use entk_core::{EntkError, ExecutionPattern, ExecutionReport, FaultConfig, SessionEngine};
use entk_kernels::KernelCall;
use entk_sim::{SharedTelemetry, SimDuration, SimRng, SimTime};
use std::collections::VecDeque;

/// Virtual time one unit holds the backend for.
const UNIT_RUNTIME: SimDuration = SimDuration::from_micros(1);

#[derive(Default)]
pub struct NullBackend {
    now: SimTime,
    /// Session-scheduled events (batches, clock marks), delivered one per
    /// poll at their due time, in scheduling order.
    scheduled: VecDeque<(SimTime, BackendEvent)>,
    /// Uids staged between prepare and commit.
    prepared: Vec<u64>,
    /// Units committed and not yet reported done.
    running: Vec<u64>,
    next_key: u64,
    /// Start instants by unit key (keys are dense).
    started: Vec<SimTime>,
    polls: u64,
}

impl ExecutionBackend for NullBackend {
    fn now(&self) -> SimTime {
        self.now
    }

    fn virtual_time(&self) -> bool {
        true
    }

    fn begin_session(&mut self, boot_delay: SimDuration) {
        self.now += boot_delay;
    }

    fn allocation_ready(&self) -> bool {
        true
    }

    fn capacity_lost(&self) -> bool {
        false
    }

    fn pilots_terminal(&self) -> bool {
        true
    }

    fn poll(&mut self) -> Poll {
        self.polls += 1;
        if !self.running.is_empty() {
            let start = self.now;
            self.now += UNIT_RUNTIME;
            let mut events = Vec::with_capacity(self.running.len() * 2);
            for key in self.running.drain(..) {
                self.started[key as usize] = start;
                events.push(BackendEvent::UnitStarted { key, time: start });
                events.push(BackendEvent::UnitDone {
                    key,
                    time: self.now,
                });
            }
            return Poll::Events(events);
        }
        match self.scheduled.pop_front() {
            Some((due, event)) => {
                self.now = self.now.max(due);
                Poll::Events(vec![event])
            }
            None => Poll::Drained,
        }
    }

    fn prepare_batch(&mut self, specs: &[UnitSpec], _rng: &mut SimRng) -> Vec<Option<String>> {
        self.prepared = specs.iter().map(|s| s.uid).collect();
        vec![None; specs.len()]
    }

    fn commit_batch(&mut self) -> Vec<(u64, u64)> {
        let prepared = std::mem::take(&mut self.prepared);
        prepared
            .into_iter()
            .map(|uid| {
                let key = self.next_key;
                self.next_key += 1;
                self.started.push(self.now);
                self.running.push(key);
                (uid, key)
            })
            .collect()
    }

    fn arm_timeout(&mut self, _uid: u64, _timeout: SimDuration) {}

    fn cancel_running_unit(&mut self, _key: u64) -> bool {
        false
    }

    fn complete_unit(&mut self, key: u64, _kernel: &KernelCall, _rng: &mut SimRng) -> UnitOutcome {
        let start = self.started[key as usize];
        UnitOutcome {
            exec_start: Some(start),
            exec_stop: Some(start + UNIT_RUNTIME),
            result: Ok(serde_json::Value::Null),
        }
    }

    fn schedule_batch(&mut self, delay: SimDuration, batch: u64, uids: Vec<u64>) {
        self.scheduled
            .push_back((self.now + delay, BackendEvent::BatchReady { batch, uids }));
    }

    fn schedule_deferred_failure(&mut self, uid: u64) {
        self.scheduled
            .push_back((self.now, BackendEvent::DeferredFailure { uid }));
    }

    fn begin_shutdown(&mut self) {}

    fn schedule_clock_mark(&mut self, delay: SimDuration) {
        self.scheduled
            .push_back((self.now + delay, BackendEvent::ClockMark));
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            resource: "null".to_string(),
            cores: 0,
            runtime_pilot: SimDuration::ZERO,
            resource_wait: SimDuration::ZERO,
            events: self.polls,
        }
    }
}

/// allocate → run → deallocate of `pattern` through a fresh session
/// engine over a [`NullBackend`], with the calibrated overhead model and
/// telemetry off.
pub fn run_null(
    seed: u64,
    pattern: &mut dyn ExecutionPattern,
) -> Result<ExecutionReport, EntkError> {
    let mut backend = NullBackend::default();
    let mut session = SessionEngine::new(
        entk_core::EntkOverheads::calibrated(),
        FaultConfig::default(),
        seed,
        SharedTelemetry::disabled(),
    );
    session.allocate(&mut backend)?;
    session.run(&mut backend, pattern)?;
    session.deallocate(&mut backend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{eop_pattern, walltime, RESOURCE};
    use entk_core::{run_simulated, ResourceConfig, SimulatedConfig};

    /// The probe is only worth its name if the null backend drives the
    /// real session engine through the same task life cycle as the
    /// simulated backend does.
    #[test]
    fn null_backend_yields_the_task_table_of_a_simulated_run() {
        let null = run_null(7, &mut eop_pattern(1_000)).unwrap();
        let simulated = run_simulated(
            ResourceConfig::new(RESOURCE, 64, walltime()),
            SimulatedConfig {
                seed: 7,
                ..SimulatedConfig::default()
            },
            &mut eop_pattern(1_000),
        )
        .unwrap();
        assert_eq!(null.task_count(), 1_000);
        assert_eq!(null.task_count(), simulated.task_count());
        assert!(!null.partial && !simulated.partial);
        for (n, s) in null.tasks.iter().zip(&simulated.tasks) {
            assert_eq!((n.uid, n.tag, &n.stage), (s.uid, s.tag, &s.stage));
            // Same fields filled: each task was created, ran once, and
            // finished successfully with no retry.
            assert_eq!(n.exec_start.is_some(), s.exec_start.is_some());
            assert_eq!(n.exec_stop.is_some(), s.exec_stop.is_some());
            assert_eq!(n.finished.is_some(), s.finished.is_some());
            assert_eq!((n.success, n.retries), (s.success, s.retries));
        }
    }
}
