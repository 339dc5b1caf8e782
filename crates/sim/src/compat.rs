//! What only code built against an older API of this crate still calls:
//! the caller-thread batch of [`WorkerPool`] and the string-typed trace
//! recorder. Each keeps its path, no library code of the workspace calls
//! either, and the module goes whole once no such caller is left.

use crate::pool::WorkerPool;
use crate::time::SimTime;
use crate::trace::{SharedTelemetry, Subject, TraceKind, TraceRecord};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

impl WorkerPool {
    /// Runs a batch of jobs on the calling thread, in order, and returns
    /// once all of them have completed. Jobs may borrow from the caller's
    /// stack. The pool's workers take no part, so any number of threads may
    /// `run` at once, and a pool job may itself call `run`.
    ///
    /// If a job panics, the rest of the batch still completes and the first
    /// payload is re-raised here.
    pub fn run<'scope>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        let mut first_panic = None;
        for job in jobs {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                first_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
    }
}

impl SharedTelemetry {
    /// The string-typed recorder the closed vocabulary replaced. Panics
    /// unless `(layer, name)` names a [`TraceKind`] and `subject` is of the
    /// kind it fixes.
    #[doc(hidden)]
    #[deprecated = "record a `TraceKind` with `SharedTelemetry::emit`"]
    pub fn record(&self, time: SimTime, layer: &str, name: &str, subject: Subject) {
        let event = || format!("trace event ({layer:?}, {name:?})");
        let kind = TraceKind::parse(layer, name);
        let kind = kind.unwrap_or_else(|| panic!("{} is not in the vocabulary", event()));
        let id = subject.split().1;
        let fixed = TraceRecord { time, kind, id }.subject();
        if fixed != subject {
            panic!("{} is about {fixed:?}, not {subject:?}", event());
        }
        self.emit(time, kind, id);
    }
}
