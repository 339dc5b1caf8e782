//! The `fork://` SAGA adapter: real in-process execution.
//!
//! Jobs are Rust closures. The service is owned by one thread: `submit`
//! appends to a FIFO and admits first-fit in submission order while free
//! core slots last — the admission discipline a pilot agent applies on a
//! compute node — an admitted job runs on one of `cores` pool threads, and
//! `wait_any` receives one message per job carrying the payload's output.
//! Used by the toolkit's *local* backend to run kernels for real.

use crate::job::SagaJobId;
use entk_sim::{Job, WorkerPool};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Instant;

/// Payload executed by a fork job: its output, or `Err(reason)` to fail it.
pub type ForkPayload<T> = Box<dyn FnOnce() -> Result<T, String> + Send + 'static>;

/// Completion report for a fork job.
#[derive(Debug)]
pub struct ForkCompletion<T> {
    /// The job.
    pub id: SagaJobId,
    /// Core slots the job held.
    pub cores: usize,
    /// The payload's output, or why the job failed (a panic included).
    pub result: Result<T, String>,
    /// When the payload began executing.
    pub started: Instant,
    /// When it returned.
    pub stopped: Instant,
}

/// A local job service running closures on at most `cores` real threads.
/// Dropping it waits for the running jobs and discards the queued ones.
pub struct ForkJobService<T> {
    pool: WorkerPool,
    total_cores: usize,
    free: usize,
    /// Submitted jobs waiting for core slots, oldest first.
    queue: VecDeque<(SagaJobId, usize, ForkPayload<T>)>,
    done_tx: Sender<ForkCompletion<T>>,
    done_rx: Receiver<ForkCompletion<T>>,
    next_id: u64,
}

impl<T: Send + 'static> ForkJobService<T> {
    /// Creates a service with `cores` concurrently usable core slots.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "fork service needs at least one core");
        let (done_tx, done_rx) = channel();
        ForkJobService {
            pool: WorkerPool::new(cores),
            total_cores: cores,
            free: cores,
            queue: VecDeque::new(),
            done_tx,
            done_rx,
            next_id: 0,
        }
    }

    /// Total core slots.
    pub fn total_cores(&self) -> usize {
        self.total_cores
    }

    /// Submits a closure job occupying `cores` slots. It starts once it is
    /// the oldest queued job the free slots can hold.
    pub fn submit(&mut self, cores: usize, payload: ForkPayload<T>) -> SagaJobId {
        assert!(
            cores > 0 && cores <= self.total_cores,
            "job needs 1..={} cores, asked for {cores}",
            self.total_cores
        );
        let id = SagaJobId(self.next_id);
        self.next_id += 1;
        self.queue.push_back((id, cores, payload));
        self.admit();
        id
    }

    /// Starts every queued job that fits the free slots, oldest first.
    fn admit(&mut self) {
        let mut admitted: Vec<Job> = Vec::new();
        let mut i = 0;
        while self.free > 0 && i < self.queue.len() {
            if self.queue[i].1 > self.free {
                i += 1;
                continue;
            }
            let (id, cores, payload) = self.queue.remove(i).expect("index checked");
            self.free -= cores;
            let done_tx = self.done_tx.clone();
            admitted.push(Box::new(move || {
                let started = Instant::now();
                // A panicking payload must still produce a completion, or
                // the owner would wait forever.
                let result = catch_unwind(AssertUnwindSafe(payload)).unwrap_or_else(|panic| {
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "payload panicked".into());
                    Err(format!("panic: {msg}"))
                });
                // The receiver may be gone during shutdown.
                let _ = done_tx.send(ForkCompletion {
                    id,
                    cores,
                    result,
                    started,
                    stopped: Instant::now(),
                });
            }));
        }
        if !admitted.is_empty() {
            self.pool.submit(admitted);
        }
    }

    /// Blocks until the next job completes, frees its slots and admits
    /// again. `None` when no job is queued or running.
    pub fn wait_any(&mut self) -> Option<ForkCompletion<T>> {
        // A queued job fits an idle service, so idle means nothing queued.
        if self.free == self.total_cores {
            return None;
        }
        let done = self
            .done_rx
            .recv()
            .expect("the service holds a sender, so the channel stays open");
        self.free += done.cores;
        self.admit();
        Some(done)
    }

    /// Runs every submitted job to completion, discarding the reports.
    pub fn drain(&mut self) {
        while self.wait_any().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn jobs_run_and_report_done() {
        let mut svc = ForkJobService::new(2);
        let id = svc.submit(1, Box::new(|| Ok(())));
        let c = svc.wait_any().unwrap();
        assert_eq!(c.id, id);
        assert_eq!(c.result, Ok(()));
        assert!(svc.wait_any().is_none(), "nothing is left to wait for");
    }

    #[test]
    fn failures_carry_reason() {
        let mut svc = ForkJobService::<()>::new(1);
        svc.submit(1, Box::new(|| Err("kernel exploded".into())));
        let c = svc.wait_any().unwrap();
        assert_eq!(c.result, Err("kernel exploded".to_string()));
    }

    #[test]
    fn completion_carries_output_and_instants() {
        let before = Instant::now();
        let mut svc = ForkJobService::new(1);
        let id = svc.submit(
            1,
            Box::new(|| {
                std::thread::sleep(Duration::from_millis(20));
                Ok(vec![4u8, 2])
            }),
        );
        let c = svc.wait_any().unwrap();
        assert_eq!((c.id, c.cores), (id, 1));
        assert_eq!(c.result, Ok(vec![4, 2]));
        assert!(before <= c.started && c.stopped <= Instant::now());
        let ran = c.stopped.duration_since(c.started);
        assert!(ran >= Duration::from_millis(15), "ran {ran:?}");
    }

    /// A job that counts itself in and out of `active` and keeps the peak.
    fn tracked(active: &Arc<AtomicUsize>, peak: &Arc<AtomicUsize>, millis: u64) -> ForkPayload<()> {
        let (active, peak) = (Arc::clone(active), Arc::clone(peak));
        Box::new(move || {
            let now = active.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(millis));
            active.fetch_sub(1, Ordering::SeqCst);
            Ok(())
        })
    }

    #[test]
    fn concurrency_never_exceeds_core_slots() {
        let cores = 3;
        let mut svc = ForkJobService::new(cores);
        let active = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            svc.submit(1, tracked(&active, &peak, 5));
        }
        for _ in 0..20 {
            svc.wait_any().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= cores);
    }

    #[test]
    fn multicore_jobs_reserve_multiple_slots() {
        let mut svc = ForkJobService::new(4);
        let active = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        for _ in 0..6 {
            // Each job takes 3 of 4 slots: they must serialize.
            svc.submit(3, tracked(&active, &peak, 3));
        }
        for _ in 0..6 {
            svc.wait_any().unwrap();
        }
        assert_eq!(peak.load(Ordering::SeqCst), 1);
    }

    /// Threads of this process (`/proc/self/task`).
    #[cfg(target_os = "linux")]
    fn process_threads() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("list own threads")
            .count()
    }

    #[test]
    fn a_deep_queue_runs_on_no_more_threads_than_cores() {
        let cores = 2;
        #[cfg(target_os = "linux")]
        let threads_before = process_threads();
        let mut svc = ForkJobService::new(cores);
        let active = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        // No job finishes before the whole queue is in and the threads are
        // counted: a thread per queued job would be alive then.
        let go = Arc::new(AtomicBool::new(false));
        for _ in 0..2000 {
            let (job, go) = (tracked(&active, &peak, 0), Arc::clone(&go));
            svc.submit(
                1,
                Box::new(move || {
                    while !go.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    job().map(|()| std::thread::current().id())
                }),
            );
        }
        // The bound leaves room for the tests running beside this one.
        #[cfg(target_os = "linux")]
        assert!(
            process_threads() <= threads_before + cores + 100,
            "{} threads for {cores} cores, {threads_before} before",
            process_threads()
        );
        go.store(true, Ordering::SeqCst);
        let ran_on: HashSet<_> = (0..2000)
            .map(|_| svc.wait_any().unwrap().result.unwrap())
            .collect();
        assert!(svc.wait_any().is_none());
        assert!(peak.load(Ordering::SeqCst) <= cores);
        assert!(ran_on.len() <= cores, "payloads ran on {ran_on:?}");
    }

    #[test]
    fn mixed_queue_is_first_fit_in_submission_order() {
        let mut svc = ForkJobService::new(4);
        let (started_tx, started) = channel();
        let in_use = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut release = Vec::new();
        let mut ids = Vec::new();
        for (job, cores) in [3, 3, 1, 1, 3].into_iter().enumerate() {
            let (tx, rx) = channel::<()>();
            release.push(tx);
            let (started_tx, in_use, peak) =
                (started_tx.clone(), Arc::clone(&in_use), Arc::clone(&peak));
            ids.push(svc.submit(
                cores,
                Box::new(move || {
                    let now = in_use.fetch_add(cores, Ordering::SeqCst) + cores;
                    peak.fetch_max(now, Ordering::SeqCst);
                    started_tx.send(job).map_err(|e| e.to_string())?;
                    rx.recv().map_err(|e| e.to_string())?;
                    in_use.fetch_sub(cores, Ordering::SeqCst);
                    Ok(())
                }),
            ));
        }
        // Job 0 takes three slots; job 1 does not fit and job 2 overtakes it.
        let mut first = [started.recv().unwrap(), started.recv().unwrap()];
        first.sort_unstable();
        assert_eq!(first, [0, 2]);
        // Each finish frees slots for the oldest queued job they can hold:
        // job 3 (one slot) before job 1, job 4 only after job 1.
        for (finish, then_started) in [(2, Some(3)), (0, Some(1)), (3, None), (1, Some(4))] {
            release[finish].send(()).unwrap();
            assert_eq!(svc.wait_any().unwrap().id, ids[finish]);
            let next = started.recv_timeout(Duration::from_millis(if then_started.is_some() {
                10_000
            } else {
                20
            }));
            assert_eq!(next.ok(), then_started, "after job {finish} finished");
        }
        release[4].send(()).unwrap();
        assert_eq!(svc.wait_any().unwrap().id, ids[4]);
        assert!(svc.wait_any().is_none());
        assert!(peak.load(Ordering::SeqCst) <= 4);
    }

    #[test]
    #[should_panic(expected = "cores")]
    fn oversized_job_is_rejected() {
        let mut svc = ForkJobService::<()>::new(2);
        svc.submit(3, Box::new(|| Ok(())));
    }

    #[test]
    fn drain_joins_all_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut svc = ForkJobService::new(4);
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
        let mut svc = ForkJobService::new(1);
        svc.submit(1, Box::new(|| panic!("kernel blew up")));
        let c = svc.wait_any().unwrap();
        assert!(c.result.unwrap_err().contains("kernel blew up"));
        // The slot was released: another job still runs.
        svc.submit(1, Box::new(|| Ok(())));
        assert_eq!(svc.wait_any().unwrap().result, Ok(()));
    }
}
