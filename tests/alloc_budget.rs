//! The per-task allocation and byte budget of the session path (its own
//! test binary, because it installs a counting global allocator).
//!
//! One handle runs a 10^4-pipeline ensemble and then a 10^4-sim
//! simulation-analysis loop, telemetry off — the body of the benchmark's
//! `ensemble-*` workloads at a tenth of the size — once on one simulated
//! machine and once on a two-member federation, and then once more on one
//! machine with telemetry on, each with its own budget.
//! Allocation counts, live bytes and their high-water mark are exact for a
//! given build, so the bounds are budgets, not timing floors: a task that
//! starts cloning its kernel or its stage label again, a report that copies
//! the task table instead of sharing it, a batch staged twice on its way to
//! the runtime, a table that goes back to doubling, a table copied to grow,
//! a waiting list that copies its tombstones to grow, a federation member
//! that hands the session a heap object per event, a unit row that outlives
//! its task, a unit table that keeps its widest batch's room past
//! deallocation, an optional instant that costs 16 bytes, vacant room kept
//! after a batch drains, or a trace record past 24 bytes, fails here.
//!
//! The readings are the same with one-phase unit submission (a batch goes
//! to the backend one unit at a time, with no spec, verdict or key vector
//! beside it) as with the two-phase protocol before it: the bodies submit
//! three batches, so those vectors were no per-task cost, and the peak is
//! set after a batch is submitted, not while it is.

use entk_core::{
    ClusterSpec, EnsembleOfPipelines, FederatedConfig, ResourceConfig, ResourceHandle,
    SimulatedConfig, SimulationAnalysisLoop,
};
use entk_kernels::KernelCall;
use entk_sim::SimDuration;
use serde_json::json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to the system allocator, counting calls, live bytes, their
/// high-water mark, and the largest block a growing `realloc` started from.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);
static GROWN_FROM: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A block resized in place or moved counts its growth (or
        // shrinkage) only, not both blocks at once.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        match new_size.checked_sub(layout.size()) {
            Some(growth) => {
                GROWN_FROM.fetch_max(layout.size(), Ordering::Relaxed);
                grow(growth)
            }
            None => {
                LIVE_BYTES.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const TASKS_PER_PATTERN: usize = 10_000;
const PILOT_CORES: usize = 1024;

/// The most allocations, live bytes and peak live bytes one body may spend
/// per task, and the largest block a growing `realloc` may start from.
struct Budget {
    allocations: f64,
    live_bytes: f64,
    peak_bytes: f64,
    grown_from: usize,
}

/// The largest block a growing `realloc` may start from in an untraced
/// body. A table copied to grow starts from all its rows: a 10^4-row task
/// table is 800 000 B, and a waiting list that keeps the placed units of
/// the batch before as tombstones is 320 000 B.
const GROWN_FROM_BUDGET: usize = 50_000;

const SIMULATED: Budget = Budget {
    allocations: 7.9,
    live_bytes: 91.0,
    peak_bytes: 187.0,
    grown_from: GROWN_FROM_BUDGET,
};
const FEDERATED: Budget = Budget {
    allocations: 7.7,
    live_bytes: 108.0,
    peak_bytes: 198.0,
    grown_from: GROWN_FROM_BUDGET,
};
/// The one-machine body with telemetry on: the handle keeps the trace,
/// about 8.1 records per task in one `Vec` that doubles as it grows, so
/// the largest grown block is the trace's own (131 072 records). At 56 B a
/// record the peak was 920 B per task and that block 7 340 032 B.
const TRACED: Budget = Budget {
    allocations: 7.9,
    live_bytes: 405.0,
    peak_bytes: 501.0,
    grown_from: 3_200_000,
};

fn sleep_call() -> KernelCall {
    KernelCall::new("misc.sleep", json!({ "secs": 10.0 }))
}

fn walltime() -> SimDuration {
    SimDuration::from_secs(10_000_000)
}

/// Runs the body on the handle `build` makes and asserts `budget`.
fn body_stays_within(name: &str, budget: Budget, build: impl FnOnce() -> ResourceHandle) {
    let allocations_before = ALLOCATIONS.load(Ordering::Relaxed);
    let live_before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live_before, Ordering::Relaxed);
    GROWN_FROM.store(0, Ordering::Relaxed);

    let mut eop = EnsembleOfPipelines::new(TASKS_PER_PATTERN, 1, |_, _| sleep_call());
    let mut sal = SimulationAnalysisLoop::new(
        1,
        TASKS_PER_PATTERN,
        |_, _| sleep_call(),
        |_, outs| vec![KernelCall::new("ana.coco", json!({ "n_sims": outs.len() }))],
    );
    let mut handle = build();
    handle.allocate().expect("pilots start");
    let eop_report = handle.run(&mut eop).expect("ensemble of pipelines runs");
    let sal_report = handle.run(&mut sal).expect("simulation-analysis loop runs");
    let session = handle.deallocate().expect("pilots stop");

    // Everything the body built is still alive here: both patterns, the
    // handle (its unit tables hold no row: every unit was collected), and
    // three reports, which share one task table.
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations_before;
    let live = LIVE_BYTES.load(Ordering::Relaxed) - live_before;
    let peak = PEAK_BYTES.load(Ordering::Relaxed) - live_before;
    let grown_from = GROWN_FROM.load(Ordering::Relaxed);

    let tasks = session.task_count();
    assert_eq!(tasks, 2 * TASKS_PER_PATTERN + 1);
    assert!(!eop_report.partial && !sal_report.partial && !session.partial);
    let allocations_per_task = allocations as f64 / tasks as f64;
    let live_per_task = live as f64 / tasks as f64;
    let peak_per_task = peak as f64 / tasks as f64;
    println!(
        "{name}: allocations/task {allocations_per_task:.2}, live bytes/task \
         {live_per_task:.1}, peak live bytes/task {peak_per_task:.1}, largest \
         block grown {grown_from} B"
    );
    assert!(
        allocations_per_task <= budget.allocations,
        "{name}: {allocations_per_task:.2} allocations per task exceed the budget of {}",
        budget.allocations
    );
    assert!(
        live_per_task <= budget.live_bytes,
        "{name}: {live_per_task:.0} live bytes per task exceed the budget of {}",
        budget.live_bytes
    );
    assert!(
        peak_per_task <= budget.peak_bytes,
        "{name}: {peak_per_task:.0} peak live bytes per task exceed the budget of {}",
        budget.peak_bytes
    );
    assert!(
        grown_from <= budget.grown_from,
        "{name}: a {grown_from} B block was copied to grow, past {} B",
        budget.grown_from
    );
}

/// The bodies run from this one test, one after the other: the counters
/// are process-global, so two tests running at once would count each
/// other's allocations.
#[test]
fn a_task_stays_within_its_allocation_and_byte_budget() {
    let simulated = |telemetry| {
        ResourceHandle::simulated(
            ResourceConfig::new("xsede.stampede", PILOT_CORES, walltime()),
            SimulatedConfig {
                seed: 2016,
                telemetry,
                ..SimulatedConfig::default()
            },
        )
        .expect("known platform")
    };
    body_stays_within("simulated", SIMULATED, || simulated(false));
    body_stays_within("federated", FEDERATED, || {
        ResourceHandle::federated(FederatedConfig {
            seed: 2016,
            telemetry: false,
            clusters: (0..2)
                .map(|_| ClusterSpec::new("xsede.stampede", PILOT_CORES, walltime()))
                .collect(),
            ..FederatedConfig::default()
        })
        .expect("known platform")
    });
    body_stays_within("traced", TRACED, || simulated(true));
}
