//! The resident-byte budget of a retaining serve (its own test binary,
//! because it installs a counting global allocator).
//!
//! `ServiceEngine::run` keeps each served session once, as its record: the
//! stream lines are rendered from the records when wanted, and the records
//! move into the report. Peak live bytes over a serve are exact only up to
//! what the evaluation worker holds in flight, which does not grow with the
//! stream, so the bound is a budget per session: a second retained copy of
//! the stream — its lines, or a clone of its records — fails here.
//!
//! Measured, debug and release alike: 1 118 B per session at the commit
//! before this test, which held every line twice and every record twice
//! (this test adapted to its API fails there); 499–501 B here.
//!
//! The same serve also counts heap allocations per session, which is the
//! fixed cost a served session pays whatever its size: the cluster state,
//! kernel table and per-batch scratch it builds, and what it allocates per
//! simulated event. Measured, debug and release alike: 359.4 while each
//! traced session also kept a bag of gauges and counters beside its
//! trace, then 352.5; 336.9 while a batch went to the backend in two
//! phases, with a verdict and a key vector per batch, 318.7 once it went
//! one unit at a time (one-phase unit submission), and 303.0 now that a
//! placement pass allocates no free list or placement vector; peak 537 B
//! per session throughout.

use entk_workload::{
    EngineOptions, ServiceConfig, ServiceEngine, SyntheticTrace, WorkloadConfig, WorkloadGenerator,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to the system allocator, counting calls, live bytes and their
/// peak.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

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
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(new_size);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SESSIONS: usize = 2_000;
const MAX_PEAK_BYTES_PER_SESSION: f64 = 768.0;
const MAX_ALLOCATIONS_PER_SESSION: f64 = 303.0;

#[test]
fn a_retaining_serve_keeps_each_session_once() {
    let config = ServiceConfig::fifo(WorkloadConfig {
        slots: 64,
        ..WorkloadConfig::default()
    });
    // One evaluation worker and a short read-ahead keep what is in flight
    // small beside what the serve retains.
    let options = EngineOptions {
        lookahead: 16,
        eval_workers: 1,
    };
    let arrivals = SyntheticTrace::new(2016, SESSIONS, 64).stream().unwrap();
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(before, Ordering::Relaxed);
    let allocations_before = ALLOCATIONS.load(Ordering::Relaxed);

    let report = ServiceEngine::with_options(config, arrivals, options)
        .unwrap()
        .run(&mut std::io::sink())
        .unwrap();

    let peak = PEAK_BYTES.load(Ordering::Relaxed) - before;
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations_before;
    assert_eq!(report.sessions, SESSIONS);
    assert_eq!(report.ok_sessions, SESSIONS);
    let per_session = peak as f64 / SESSIONS as f64;
    let allocations_per_session = allocations as f64 / SESSIONS as f64;
    println!(
        "peak live bytes/session {per_session:.0}, allocations/session \
         {allocations_per_session:.1}"
    );
    assert!(
        per_session <= MAX_PEAK_BYTES_PER_SESSION,
        "{per_session:.0} peak live bytes per session exceed the budget of \
         {MAX_PEAK_BYTES_PER_SESSION}"
    );
    assert!(
        allocations_per_session <= MAX_ALLOCATIONS_PER_SESSION,
        "{allocations_per_session:.1} allocations per session exceed the budget of \
         {MAX_ALLOCATIONS_PER_SESSION}"
    );
}
