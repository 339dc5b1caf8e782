//! The `fork://` SAGA adapter: real in-process execution.
//!
//! Jobs are Rust closures executed on host threads, gated by a core-slot
//! semaphore so that at most `cores` worth of jobs run concurrently — the
//! same admission discipline a pilot agent applies on a compute node. Used
//! by the toolkit's *local* backend to run kernels for real.

use crate::job::{JobState, SagaJobId};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Payload executed by a fork job. Returns `Err(reason)` to fail the job.
pub type ForkPayload = Box<dyn FnOnce() -> Result<(), String> + Send + 'static>;

/// Completion report for a fork job.
#[derive(Debug, Clone, PartialEq)]
pub struct ForkCompletion {
    /// The job.
    pub id: SagaJobId,
    /// `Done` or `Failed`.
    pub state: JobState,
    /// Failure reason, if failed.
    pub error: Option<String>,
    /// Wall-clock execution time in seconds.
    pub wall_secs: f64,
}

/// Counting semaphore over "core slots".
struct CoreSlots {
    free: Mutex<usize>,
    cv: Condvar,
}

impl CoreSlots {
    fn new(n: usize) -> Self {
        CoreSlots {
            free: Mutex::new(n),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self, n: usize) {
        let mut free = self.free.lock();
        while *free < n {
            self.cv.wait(&mut free);
        }
        *free -= n;
    }

    fn release(&self, n: usize) {
        let mut free = self.free.lock();
        *free += n;
        self.cv.notify_all();
    }
}

/// A local job service running closures on real threads.
pub struct ForkJobService {
    slots: Arc<CoreSlots>,
    total_cores: usize,
    states: Arc<Mutex<HashMap<SagaJobId, JobState>>>,
    completions_tx: Sender<ForkCompletion>,
    completions_rx: Receiver<ForkCompletion>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    next_id: Mutex<u64>,
}

impl ForkJobService {
    /// Creates a service with `cores` concurrently usable core slots.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "fork service needs at least one core");
        let (tx, rx) = unbounded();
        ForkJobService {
            slots: Arc::new(CoreSlots::new(cores)),
            total_cores: cores,
            states: Arc::new(Mutex::new(HashMap::new())),
            completions_tx: tx,
            completions_rx: rx,
            handles: Mutex::new(Vec::new()),
            next_id: Mutex::new(0),
        }
    }

    /// Total core slots.
    pub fn total_cores(&self) -> usize {
        self.total_cores
    }

    /// Submits a closure job occupying `cores` slots. The job starts as soon
    /// as slots free up (FIFO fairness is not guaranteed, as on a real node).
    pub fn submit(&self, cores: usize, payload: ForkPayload) -> SagaJobId {
        assert!(
            cores > 0 && cores <= self.total_cores,
            "job needs 1..={} cores, asked for {cores}",
            self.total_cores
        );
        let id = {
            let mut next = self.next_id.lock();
            let id = SagaJobId(*next);
            *next += 1;
            id
        };
        self.states.lock().insert(id, JobState::Pending);

        let slots = Arc::clone(&self.slots);
        let states = Arc::clone(&self.states);
        let tx = self.completions_tx.clone();
        let handle = std::thread::spawn(move || {
            slots.acquire(cores);
            states.lock().insert(id, JobState::Running);
            let start = std::time::Instant::now();
            // A panicking payload must still produce a completion, or the
            // submitting side would wait forever.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(payload))
                .unwrap_or_else(|panic| {
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "payload panicked".into());
                    Err(format!("panic: {msg}"))
                });
            let wall_secs = start.elapsed().as_secs_f64();
            slots.release(cores);
            let (state, error) = match result {
                Ok(()) => (JobState::Done, None),
                Err(e) => (JobState::Failed, Some(e)),
            };
            states.lock().insert(id, state);
            // Receiver may be gone during shutdown; ignore send failures.
            let _ = tx.send(ForkCompletion {
                id,
                state,
                error,
                wall_secs,
            });
        });
        self.handles.lock().push(handle);
        id
    }

    /// Current state of a job.
    pub fn state(&self, id: SagaJobId) -> Option<JobState> {
        self.states.lock().get(&id).copied()
    }

    /// Blocks until the next job completes.
    pub fn wait_any(&self) -> ForkCompletion {
        self.completions_rx
            .recv()
            .expect("completion channel never closes while service lives")
    }

    /// Waits for all submitted jobs to finish and joins worker threads.
    pub fn drain(&self) {
        let handles: Vec<_> = std::mem::take(&mut *self.handles.lock());
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ForkJobService {
    fn drop(&mut self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn jobs_run_and_report_done() {
        let svc = ForkJobService::new(2);
        let id = svc.submit(1, Box::new(|| Ok(())));
        let c = svc.wait_any();
        assert_eq!(c.id, id);
        assert_eq!(c.state, JobState::Done);
        assert_eq!(svc.state(id), Some(JobState::Done));
    }

    #[test]
    fn failures_carry_reason() {
        let svc = ForkJobService::new(1);
        svc.submit(1, Box::new(|| Err("kernel exploded".into())));
        let c = svc.wait_any();
        assert_eq!(c.state, JobState::Failed);
        assert_eq!(c.error.as_deref(), Some("kernel exploded"));
    }

    #[test]
    fn concurrency_never_exceeds_core_slots() {
        let cores = 3;
        let svc = ForkJobService::new(cores);
        let active = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let active = Arc::clone(&active);
            let peak = Arc::clone(&peak);
            svc.submit(
                1,
                Box::new(move || {
                    let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    active.fetch_sub(1, Ordering::SeqCst);
                    Ok(())
                }),
            );
        }
        for _ in 0..20 {
            svc.wait_any();
        }
        assert!(peak.load(Ordering::SeqCst) <= cores);
    }

    #[test]
    fn multicore_jobs_reserve_multiple_slots() {
        let svc = ForkJobService::new(4);
        let active = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        for _ in 0..6 {
            let active = Arc::clone(&active);
            let peak = Arc::clone(&peak);
            // Each job takes 3 of 4 slots: they must serialize.
            svc.submit(
                3,
                Box::new(move || {
                    let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(3));
                    active.fetch_sub(1, Ordering::SeqCst);
                    Ok(())
                }),
            );
        }
        for _ in 0..6 {
            svc.wait_any();
        }
        assert_eq!(peak.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "cores")]
    fn oversized_job_is_rejected() {
        let svc = ForkJobService::new(2);
        svc.submit(3, Box::new(|| Ok(())));
    }

    #[test]
    fn drain_joins_all_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        let svc = ForkJobService::new(4);
        for _ in 0..10 {
            let c = Arc::clone(&counter);
            svc.submit(
                1,
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
            );
        }
        svc.drain();
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }
}

#[cfg(test)]
mod panic_tests {
    use super::*;

    #[test]
    fn panicking_payload_reports_failure_instead_of_hanging() {
        let svc = ForkJobService::new(1);
        svc.submit(1, Box::new(|| panic!("kernel blew up")));
        let c = svc.wait_any();
        assert_eq!(c.state, JobState::Failed);
        assert!(c.error.as_deref().unwrap().contains("kernel blew up"));
        // The slot was released: another job still runs.
        svc.submit(1, Box::new(|| Ok(())));
        assert_eq!(svc.wait_any().state, JobState::Done);
    }
}
