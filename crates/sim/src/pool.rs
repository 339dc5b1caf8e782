//! A small persistent worker pool.
//!
//! Spawning an OS thread costs tens of microseconds, more than most jobs
//! here are worth, so a pool is built once by its owner and jobs are
//! late-bound onto its parked threads — the pilot argument applied to the
//! host. Two owners build one: the workload service streams just-in-time
//! session evaluations through [`WorkerPool::submit`], each leaving its
//! result on a mutex-and-condvar slot (`EvalSlot`, `entk-workload`) that
//! admission takes while the loop keeps running, and discards never-started
//! jobs with [`WorkerPool::cancel_queued`] on early-abort paths; the
//! `fork://` job service of every local handle
//! (`entk_saga::ForkJobService`) runs the jobs it admits on a pool of its own.
//!
//! The federated simulator does *not* use the pool: its member windows are
//! a few events each, less work than one wake-up, so they run on the
//! polling thread (DESIGN.md §13 has the measurement).
//!
//! Determinism note: the pool intentionally offers no ordering guarantees —
//! jobs run on whichever worker grabs them first. Callers must keep ordered
//! state job-private and merge it afterwards.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;

/// An owned job for the asynchronous [`WorkerPool::submit`] path.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Worker threads this process should run: `ENTK_THREADS`, then
/// `RAYON_NUM_THREADS`, then the host's available parallelism. Sizes the
/// service's evaluation pool. The vendored `rayon` shim sizes `entk-md`'s
/// force loop by the same rule in its own copy (`vendor/` cannot depend on
/// this crate).
pub fn host_threads() -> usize {
    threads_from(|var| std::env::var(var).ok())
}

fn threads_from(env: impl Fn(&str) -> Option<String>) -> usize {
    ["ENTK_THREADS", "RAYON_NUM_THREADS"]
        .iter()
        .filter_map(|var| env(var)?.trim().parse::<usize>().ok())
        .find(|&n| n >= 1)
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

struct State {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    work_ready: Condvar,
}

/// A fixed-size pool of parked worker threads executing submitted jobs.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<thread::JoinHandle<()>>,
    workers: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `workers` threads (clamped to at least one). The
    /// threads park on a condvar until work arrives and die when the pool
    /// is dropped.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("entk-sim-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn sim worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            workers,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Enqueues a batch of owned (`'static`) jobs and returns immediately —
    /// no completion latch. Callers observe completion through the jobs
    /// themselves (typically a channel send at the end of each closure);
    /// the workload service uses this for just-in-time session evaluation.
    ///
    /// A submitted job that panics is contained on its worker, which
    /// survives; a job that must report failure catches its own panic.
    pub fn submit(&self, jobs: Vec<Job>) {
        let items = jobs.len();
        self.shared
            .state
            .lock()
            .expect("pool state lock")
            .queue
            .extend(jobs);
        for _ in 0..items {
            self.shared.work_ready.notify_one();
        }
    }

    /// Drops every submitted job that is still queued (never started) and
    /// returns how many were discarded. Jobs already running are
    /// unaffected. Used on early-abort paths so dropping the pool does not
    /// first drain a deep backlog of now-useless work.
    pub fn cancel_queued(&self) -> usize {
        let mut state = self.shared.state.lock().expect("pool state lock");
        let dropped = state.queue.len();
        state.queue.clear();
        dropped
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Must not panic: setting the flag is valid whatever state a
        // poisoning panic left behind.
        let mut state = self
            .shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        state.shutdown = true;
        drop(state);
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool state lock");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared.work_ready.wait(state).expect("pool worker wait");
            }
        };
        // The panic hook has already reported it; the worker survives.
        drop(catch_unwind(AssertUnwindSafe(job)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    #[test]
    fn runs_all_jobs_and_blocks_until_done() {
        let pool = WorkerPool::new(3);
        let sum = AtomicU64::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (1..=100u64)
            .map(|i| {
                let sum = &sum;
                Box::new(move || {
                    sum.fetch_add(i, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(jobs);
        // run() returned, so every borrowed increment has landed.
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn jobs_may_borrow_stack_state_across_batches() {
        let pool = WorkerPool::new(2);
        let mut slots = vec![0u64; 4];
        for round in 1..=3u64 {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = slots
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    Box::new(move || *slot += round * (i as u64 + 1))
                        as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run(jobs);
        }
        assert_eq!(slots, vec![6, 12, 18, 24]);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = WorkerPool::new(1);
        pool.run(Vec::new());
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        let ran = AtomicU64::new(0);
        pool.run(vec![Box::new(|| {
            ran.fetch_add(1, Ordering::Relaxed);
        }) as Box<dyn FnOnce() + Send + '_>]);
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn submitted_jobs_complete_without_a_barrier() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = mpsc::channel();
        pool.submit(
            (0..16u64)
                .map(|i| {
                    let tx = tx.clone();
                    Box::new(move || {
                        tx.send(i * i).unwrap();
                    }) as Job
                })
                .collect(),
        );
        let mut got: Vec<u64> = (0..16).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        let want: Vec<u64> = (0..16u64).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn cancel_queued_discards_unstarted_jobs() {
        // One worker, blocked on the first job: everything behind it is
        // still queued and must be discardable without running.
        let pool = WorkerPool::new(1);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let ran = Arc::new(AtomicU64::new(0));
        // Jobs run in submission order, so the lone worker grabs the gate
        // job first and blocks on it while the rest stay queued.
        let mut jobs: Vec<Job> = vec![Box::new(move || {
            started_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        })];
        for _ in 0..8 {
            let ran = Arc::clone(&ran);
            jobs.push(Box::new(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.submit(jobs);
        started_rx.recv().unwrap();
        let dropped = pool.cancel_queued();
        assert_eq!(dropped, 8);
        gate_tx.send(()).unwrap();
        // The lone worker serves in order: once this marker has run, so
        // has everything that was still queued ahead of it.
        let (marker_tx, marker_rx) = mpsc::channel::<()>();
        pool.submit(vec![Box::new(move || marker_tx.send(()).unwrap())]);
        marker_rx.recv().unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 0, "cancelled jobs never ran");
    }

    #[test]
    fn job_panic_is_reraised_and_pool_survives() {
        let pool = WorkerPool::new(2);
        // Both jobs panic; the first payload surfaces here.
        let payload = catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![
                Box::new(|| panic!("boom")) as Box<dyn FnOnce() + Send + '_>,
                Box::new(|| panic!("boom")),
            ]);
        }))
        .unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        // The pool survived the panic and keeps serving batches.
        let ran = AtomicU64::new(0);
        pool.run(increments(&ran, 2));
        assert_eq!(ran.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn a_panic_on_the_caller_still_completes_the_batch() {
        // One worker means no helper: the whole batch runs on the caller,
        // under the same contract as on a wider pool.
        let pool = WorkerPool::new(1);
        let ran = AtomicU64::new(0);
        let mut jobs = increments(&ran, 1);
        jobs.push(Box::new(|| panic!("boom")));
        jobs.extend(increments(&ran, 2));
        let payload = catch_unwind(AssertUnwindSafe(|| pool.run(jobs))).unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        assert_eq!(ran.load(Ordering::Relaxed), 3, "jobs after the panic ran");
    }

    /// A batch of `n` counter increments.
    fn increments(ran: &AtomicU64, n: usize) -> Vec<Box<dyn FnOnce() + Send + '_>> {
        (0..n)
            .map(|_| {
                Box::new(|| {
                    ran.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect()
    }

    #[test]
    fn concurrent_batches_do_not_wait_on_each_other() {
        let pool = WorkerPool::new(2);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (b_done_tx, b_done_rx) = mpsc::channel::<u64>();
        thread::scope(|s| {
            // Batch A holds a job that cannot finish until the gate opens.
            s.spawn(|| {
                pool.run(vec![
                    Box::new(move || {
                        started_tx.send(()).unwrap();
                        gate_rx.recv().unwrap();
                    }) as Box<dyn FnOnce() + Send + '_>,
                    Box::new(|| {}),
                ]);
            });
            started_rx.recv().unwrap();
            // Batch B starts while A's long job is in flight and must
            // return with the gate still closed.
            s.spawn(|| {
                let ran = AtomicU64::new(0);
                pool.run(increments(&ran, 4));
                b_done_tx.send(ran.load(Ordering::Relaxed)).unwrap();
            });
            let b = b_done_rx.recv_timeout(Duration::from_secs(30));
            // Open the gate before asserting, so a failure is a failure
            // and not a hung scope.
            gate_tx.send(()).unwrap();
            assert_eq!(b, Ok(4), "batch B waited on batch A's gated job");
        });
    }

    #[test]
    fn run_from_inside_a_pool_job_completes() {
        // Every worker is occupied by a job that itself calls `run`, so
        // each nested caller must finish its batch alone. On the 1-worker
        // pool the nested caller is the only thread the pool has.
        for workers in [1usize, 2] {
            let pool = Arc::new(WorkerPool::new(workers));
            let all_busy = Arc::new(Barrier::new(workers));
            let (tx, rx) = mpsc::channel::<u64>();
            pool.submit(
                (0..workers)
                    .map(|_| {
                        let (inner, all_busy, tx) =
                            (Arc::clone(&pool), Arc::clone(&all_busy), tx.clone());
                        Box::new(move || {
                            all_busy.wait();
                            let ran = AtomicU64::new(0);
                            inner.run(increments(&ran, 3));
                            // Released before reporting, so the test thread
                            // (not this worker) drops the pool.
                            drop(inner);
                            tx.send(ran.load(Ordering::Relaxed)).unwrap();
                        }) as Job
                    })
                    .collect(),
            );
            for _ in 0..workers {
                assert_eq!(rx.recv_timeout(Duration::from_secs(30)), Ok(3));
            }
        }
    }

    #[test]
    fn panic_reaches_only_the_batch_that_owns_the_job() {
        let pool = WorkerPool::new(2);
        let (b_started_tx, b_started_rx) = mpsc::channel::<()>();
        let (a_done_tx, a_done_rx) = mpsc::channel::<()>();
        thread::scope(|s| {
            // Batch B is in flight for the whole life of batch A.
            let b = s.spawn(|| {
                let ran = AtomicU64::new(0);
                let mut jobs = increments(&ran, 3);
                jobs.push(Box::new(move || {
                    b_started_tx.send(()).unwrap();
                    a_done_rx.recv().unwrap();
                }));
                pool.run(jobs);
                ran.load(Ordering::Relaxed)
            });
            b_started_rx.recv().unwrap();
            let payload = catch_unwind(AssertUnwindSafe(|| {
                pool.run(vec![
                    Box::new(|| panic!("boom A")) as Box<dyn FnOnce() + Send + '_>,
                    Box::new(|| {}),
                ]);
            }))
            .unwrap_err();
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom A"));
            a_done_tx.send(()).unwrap();
            assert_eq!(b.join().expect("batch B saw batch A's panic"), 3);
        });
    }

    #[test]
    fn run_executes_the_batch_on_the_calling_thread() {
        let pool = WorkerPool::new(2);
        let caller = thread::current().id();
        let seen = Mutex::new(Vec::new());
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8)
            .map(|_| {
                let seen = &seen;
                Box::new(move || seen.lock().unwrap().push(thread::current().id()))
                    as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(jobs);
        assert_eq!(seen.into_inner().unwrap(), vec![caller; 8]);
    }

    #[test]
    fn thread_count_resolves_entk_then_rayon_then_host() {
        let env = |pairs: &'static [(&str, &str)]| {
            move |var: &str| {
                pairs
                    .iter()
                    .find(|(k, _)| *k == var)
                    .map(|(_, v)| v.to_string())
            }
        };
        let both = env(&[("ENTK_THREADS", " 3 "), ("RAYON_NUM_THREADS", "5")]);
        assert_eq!(threads_from(both), 3);
        // Zero and junk are not thread counts: fall through.
        let rayon = env(&[("ENTK_THREADS", "0"), ("RAYON_NUM_THREADS", "5")]);
        assert_eq!(threads_from(rayon), 5);
        let host = env(&[("ENTK_THREADS", "many")]);
        let probed = thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(threads_from(host), probed);
    }
}
