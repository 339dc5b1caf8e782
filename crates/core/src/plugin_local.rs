//! The local (real execution) backend: kernels run as real closures on host
//! threads via [`LocalRuntime`], under the wall clock.
//!
//! Mirrors EnTK's `fork://localhost` resource: no pilots to wait for, no
//! modeled overheads, no virtual time. The session engine detects
//! `virtual_time() == false` and skips overhead sampling and retry backoff
//! delays; retries resubmit immediately, exactly like the pre-refactor
//! local driver.

use crate::backend::{BackendEvent, BackendStats, ExecutionBackend, Poll, UnitOutcome, UnitSpec};
use entk_kernels::{KernelCall, KernelRegistry};
use entk_pilot::{LocalCompletion, LocalRuntime, UnitDescription, UnitState, UnitWork};
use entk_sim::{DenseStore, SimDuration, SimRng, SimTime};
use parking_lot::Mutex;
use serde_json::Value;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Kernel output parked by the execution closure until completion is
/// observed: `(result, start offset secs, end offset secs)`.
type Slot = Arc<Mutex<Option<(Result<Value, String>, f64, f64)>>>;

/// The wall-clock [`ExecutionBackend`] running real kernel code.
pub(crate) struct LocalBackend {
    runtime: LocalRuntime,
    registry: KernelRegistry,
    /// Session epoch: wall-clock zero for `now()` and exec offsets.
    t0: Instant,
    /// Output slots of in-flight units, by unit key.
    slots: DenseStore<Slot>,
    /// Completions observed by `poll`, waiting for `complete_unit`.
    completions: DenseStore<LocalCompletion>,
    /// Session-scheduled events (batches, deferred failures) delivered at
    /// the next poll — real time has no delays to model.
    pending: VecDeque<BackendEvent>,
    /// Units staged between prepare and commit.
    prepared: Vec<(u64, UnitDescription, Slot)>,
}

impl LocalBackend {
    /// A backend executing on `cores` host cores.
    pub(crate) fn new(cores: usize, registry: KernelRegistry) -> Self {
        LocalBackend {
            runtime: LocalRuntime::new(cores),
            registry,
            t0: Instant::now(),
            slots: DenseStore::new(),
            completions: DenseStore::new(),
            pending: VecDeque::new(),
            prepared: Vec::new(),
        }
    }
}

impl ExecutionBackend for LocalBackend {
    fn now(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(self.t0.elapsed().as_secs_f64())
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
        if self.runtime.live_units() == 0 {
            return Poll::Drained;
        }
        // Block until a worker thread finishes a unit. Failures also arrive
        // here as completions; `complete_unit` resolves the slot into a
        // success or a retryable failure.
        let completion = self.runtime.wait_any();
        let key = completion.unit.0;
        let time = self.now();
        self.completions.insert(key, completion);
        Poll::Events(vec![BackendEvent::UnitDone { key, time }])
    }

    fn prepare_batch(&mut self, specs: &[UnitSpec], _rng: &mut SimRng) -> Vec<Option<String>> {
        self.prepared.clear();
        let mut verdicts = Vec::with_capacity(specs.len());
        for spec in specs {
            let call: &KernelCall = &spec.kernel;
            let plugin = match self.registry.get(&call.plugin) {
                Ok(p) => p,
                Err(e) => {
                    verdicts.push(Some(e.to_string()));
                    continue;
                }
            };
            if let Err(e) = plugin.validate(&call.args) {
                verdicts.push(Some(e.to_string()));
                continue;
            }
            let name = format!("{}:{}", spec.stage, spec.uid);
            // Pre-empt the runtime's own all-or-nothing batch validation so
            // one oversized unit cannot reject its whole batch.
            if call.cores > self.runtime.cores() {
                verdicts.push(Some(format!(
                    "unit {:?} needs {} cores; local runtime has {}",
                    name,
                    call.cores,
                    self.runtime.cores()
                )));
                continue;
            }
            let slot: Slot = Arc::new(Mutex::new(None));
            let work_slot = Arc::clone(&slot);
            let kernel = Arc::clone(&spec.kernel);
            let epoch = self.t0;
            let work: Arc<dyn Fn() -> Result<(), String> + Send + Sync> = Arc::new(move || {
                let start = epoch.elapsed().as_secs_f64();
                let result = plugin.execute(&kernel.args).map_err(|e| e.to_string());
                let end = epoch.elapsed().as_secs_f64();
                let ok = result.is_ok();
                *work_slot.lock() = Some((result, start, end));
                if ok {
                    Ok(())
                } else {
                    Err("kernel failed".to_string())
                }
            });
            let ud = UnitDescription {
                name,
                cores: call.cores,
                mpi: call.mpi || call.cores > 1,
                work: UnitWork::Real(work),
                input_staging: Vec::new(),
                output_staging: Vec::new(),
            };
            if let Err(e) = ud.validate() {
                verdicts.push(Some(e));
                continue;
            }
            self.prepared.push((spec.uid, ud, slot));
            verdicts.push(None);
        }
        verdicts
    }

    fn commit_batch(&mut self) -> Vec<(u64, u64)> {
        let prepared = std::mem::take(&mut self.prepared);
        if prepared.is_empty() {
            return Vec::new();
        }
        let mut descriptions = Vec::with_capacity(prepared.len());
        let mut staged = Vec::with_capacity(prepared.len());
        for (uid, ud, slot) in prepared {
            descriptions.push(ud);
            staged.push((uid, slot));
        }
        // Prepare already enforced every condition the runtime's batch
        // validation checks, so this cannot fail.
        match self.runtime.submit_units(descriptions) {
            Ok(ids) => ids
                .into_iter()
                .zip(staged)
                .map(|(id, (uid, slot))| {
                    self.slots.insert(id.0, slot);
                    (uid, id.0)
                })
                .collect(),
            Err(e) => {
                debug_assert!(false, "descriptions validated in prepare: {e}");
                Vec::new()
            }
        }
    }

    fn arm_timeout(&mut self, _uid: u64, _timeout: SimDuration) {
        // Host threads cannot be interrupted; kill-replace is unavailable.
    }

    fn cancel_running_unit(&mut self, _key: u64) -> bool {
        false
    }

    fn complete_unit(&mut self, key: u64, _kernel: &KernelCall, _rng: &mut SimRng) -> UnitOutcome {
        let completion = self.completions.remove(key);
        let slot = self.slots.remove(key);
        let wall_secs = completion.as_ref().map(|c| c.wall_secs).unwrap_or(0.0);
        let state = completion.map(|c| c.state).unwrap_or(UnitState::Failed);
        let (result, start_off, end_off) = slot
            .and_then(|s| s.lock().take())
            .unwrap_or_else(|| (Err("kernel produced no output".to_string()), 0.0, wall_secs));
        let exec_start = Some(SimTime::ZERO + SimDuration::from_secs_f64(start_off));
        let exec_stop = Some(SimTime::ZERO + SimDuration::from_secs_f64(end_off));
        let result = match (state, result) {
            (UnitState::Done, Ok(output)) => Ok(output),
            (_, Err(e)) => Err(e),
            (state, Ok(_)) => Err(format!("unit ended in {state:?}")),
        };
        UnitOutcome {
            exec_start,
            exec_stop,
            result,
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
            cores: self.runtime.cores(),
            runtime_pilot: SimDuration::ZERO,
            resource_wait: SimDuration::ZERO,
            events: 0,
        }
    }
}
