//! The resident-byte budget of a retaining serve (its own test binary,
//! because it installs the counting global allocator of
//! `tests/common/counting.rs`).
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
//! per session throughout while a `realloc` counted its old and new blocks
//! at once, 504 B under the rule every budget test shares (growth only).

use entk_workload::{
    EngineOptions, ServiceConfig, ServiceEngine, SyntheticTrace, WorkloadConfig, WorkloadGenerator,
};

#[path = "common/counting.rs"]
mod counting;

#[global_allocator]
static ALLOCATOR: counting::Counting = counting::Counting;

const SESSIONS: usize = 2_000;
const MAX_PEAK_BYTES_PER_SESSION: f64 = 512.0;
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
    let mark = counting::Mark::start();

    let report = ServiceEngine::with_options(config, arrivals, options)
        .unwrap()
        .run(&mut std::io::sink())
        .unwrap();

    let (peak, allocations) = (mark.peak_bytes(), mark.allocations());
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
