//! The local (real execution) backend: kernels run as real closures under
//! the `fork://` adapter ([`ForkJobService`]), on the wall clock.
//!
//! Mirrors EnTK's `fork://localhost` resource: no pilots to wait for, no
//! modeled overheads, no virtual time. A unit is an entry in the service's
//! admission queue until core slots free up; its completion message carries
//! the kernel's output and its start/stop instants. The session engine
//! detects `virtual_time() == false` and skips overhead sampling and retry
//! backoff delays; retries resubmit immediately.

use crate::backend::{BackendEvent, BackendStats, ExecutionBackend, Poll, UnitOutcome};
use entk_kernels::{KernelCall, KernelRegistry};
use entk_saga::{ForkCompletion, ForkJobService};
use entk_sim::{SimDuration, SimRng, SimTime};
use serde_json::Value;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// The wall-clock [`ExecutionBackend`] running real kernel code.
pub(crate) struct LocalBackend {
    service: ForkJobService<Value>,
    registry: KernelRegistry,
    /// Session epoch: wall-clock zero for `now()` and exec offsets.
    t0: Instant,
    /// The completion `poll` surfaced last, until `complete_unit` takes it.
    done: Option<ForkCompletion<Value>>,
    /// Session-scheduled events (batches, deferred failures) delivered at
    /// the next poll — real time has no delays to model.
    pending: VecDeque<BackendEvent>,
}

impl LocalBackend {
    /// A backend executing on `cores` (at least one) host cores.
    pub(crate) fn new(cores: usize, registry: KernelRegistry) -> Self {
        LocalBackend {
            service: ForkJobService::new(cores),
            registry,
            t0: Instant::now(),
            done: None,
            pending: VecDeque::new(),
        }
    }

    /// A wall-clock instant on the session's clock.
    fn at(&self, instant: Instant) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(instant.duration_since(self.t0).as_secs_f64())
    }
}

impl ExecutionBackend for LocalBackend {
    fn now(&self) -> SimTime {
        self.at(Instant::now())
    }

    fn virtual_time(&self) -> bool {
        false
    }

    fn begin_session(&mut self, _boot_delay: SimDuration) {
        self.t0 = Instant::now();
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
        if let Some(ev) = self.pending.pop_front() {
            return Poll::Events(vec![ev]);
        }
        // Block until a unit finishes. Failures arrive here as completions
        // too; `complete_unit` resolves either into the kernel's output or
        // a retryable failure.
        let Some(done) = self.service.wait_any() else {
            return Poll::Drained;
        };
        let key = done.id.0;
        self.done = Some(done);
        let time = self.now();
        Poll::Events(vec![BackendEvent::UnitDone { key, time }])
    }

    /// Hands an accepted unit to the service at once: a local batch has
    /// nothing to seal.
    fn submit_unit(
        &mut self,
        _uid: u64,
        _stage: &Arc<str>,
        kernel: &Arc<KernelCall>,
        _rng: &mut SimRng,
    ) -> Option<u64> {
        let plugin = self.registry.find(&kernel.plugin)?;
        plugin.validate(&kernel.args).ok()?;
        // One unit the service cannot hold must not take its batch down.
        let cores = kernel.cores;
        if cores == 0 || cores > self.service.total_cores() {
            return None;
        }
        let kernel = Arc::clone(kernel);
        let payload = Box::new(move || plugin.execute(&kernel.args).map_err(|e| e.to_string()));
        Some(self.service.submit(cores, payload).0)
    }

    fn arm_timeout(&mut self, _uid: u64, _timeout: SimDuration) {
        // Host threads cannot be interrupted; kill-replace is unavailable.
    }

    fn cancel_running_unit(&mut self, _key: u64) -> bool {
        false
    }

    fn complete_unit(&mut self, key: u64, _kernel: &KernelCall, _rng: &mut SimRng) -> UnitOutcome {
        match self.done.take() {
            Some(done) if done.id.0 == key => UnitOutcome {
                exec_start: Some(self.at(done.started)),
                exec_stop: Some(self.at(done.stopped)),
                result: done.result,
            },
            _ => UnitOutcome {
                exec_start: None,
                exec_stop: None,
                result: Err(format!("no completion was observed for unit {key}")),
            },
        }
    }

    fn schedule_batch(&mut self, _delay: SimDuration, batch: u64, uids: Vec<u64>) {
        self.pending
            .push_back(BackendEvent::BatchReady { batch, uids });
    }

    fn schedule_deferred_failure(&mut self, uid: u64) {
        self.pending
            .push_back(BackendEvent::DeferredFailure { uid });
    }

    fn begin_shutdown(&mut self) {}

    fn schedule_clock_mark(&mut self, _delay: SimDuration) {
        self.pending.push_back(BackendEvent::ClockMark);
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            resource: "fork://localhost".to_string(),
            cores: self.service.total_cores(),
            runtime_pilot: SimDuration::ZERO,
            resource_wait: SimDuration::ZERO,
            events: 0,
        }
    }
}
