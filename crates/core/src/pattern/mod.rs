//! Execution patterns (paper §III-B component 1, §III-D).
//!
//! A pattern is "a high-level object that represents the synchronization and
//! communication patterns of ensembles … a parametrized template". Patterns
//! are event-driven state machines: the execution plugin calls
//! [`ExecutionPattern::on_start`] for the initial task batch and
//! [`ExecutionPattern::on_task_done`] for every completion; each call may
//! emit follow-up tasks. This shape expresses all three unit patterns —
//! ensembles of pipelines, ensemble exchange, and the simulation-analysis
//! loop — as well as their compositions and adaptive variants.

pub mod compose;
pub mod exchange;
pub mod pipeline;
pub mod pst;
pub mod sal;

use crate::task::{Task, TaskResult};
use entk_kernels::KernelCall;
use std::sync::Arc;

/// Binds `call` to a shared handle, reusing `last`'s `Arc` when the two
/// compare equal, and remembers the result for the next call. A pattern
/// whose kernel closure returns the same call for every task then keeps
/// one copy, not one per task.
pub(crate) fn share_kernel(
    last: &mut Option<Arc<KernelCall>>,
    call: KernelCall,
) -> Arc<KernelCall> {
    match last {
        Some(kernel) if **kernel == call => kernel.clone(),
        _ => last.insert(Arc::new(call)).clone(),
    }
}

/// An ensemble execution pattern.
pub trait ExecutionPattern {
    /// Pattern name for reports.
    fn name(&self) -> &str;

    /// Emits the initial batch of tasks. Called exactly once.
    fn on_start(&mut self) -> Vec<Task>;

    /// Handles a task completion (success or terminal failure) and emits
    /// follow-up tasks.
    fn on_task_done(&mut self, result: &TaskResult) -> Vec<Task>;

    /// True once the pattern has no more work (all emitted tasks completed
    /// and no further tasks will be produced).
    fn is_done(&self) -> bool;

    /// Short human-readable progress line.
    fn progress(&self) -> String {
        String::new()
    }
}

/// Mutable references to patterns are themselves patterns, so wrappers and
/// drivers can borrow rather than own.
impl<P: ExecutionPattern + ?Sized> ExecutionPattern for &mut P {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn on_start(&mut self) -> Vec<Task> {
        (**self).on_start()
    }
    fn on_task_done(&mut self, result: &TaskResult) -> Vec<Task> {
        (**self).on_task_done(result)
    }
    fn is_done(&self) -> bool {
        (**self).is_done()
    }
    fn progress(&self) -> String {
        (**self).progress()
    }
}

pub use compose::{ConcurrentPatterns, SequencePattern};
pub use exchange::{EnsembleExchange, ExchangeMode};
pub use pipeline::{BagOfTasks, EnsembleOfPipelines};
pub use pst::{Pipeline, PstTask, PstWorkflow, Stage};
pub use sal::SimulationAnalysisLoop;

#[cfg(test)]
pub(crate) mod testutil {
    //! A tiny synchronous pattern driver used by pattern unit tests: executes
    //! tasks by calling a provided "executor" closure immediately, in
    //! submission order. No overheads, no concurrency — pure pattern logic.

    use super::*;
    use serde_json::Value;
    use std::collections::VecDeque;

    /// Drives `pattern` to completion, executing every task with `exec`.
    /// Returns all task results in completion order. Panics after
    /// `max_tasks` executions (runaway-pattern guard).
    pub fn drive<P: ExecutionPattern>(
        pattern: &mut P,
        mut exec: impl FnMut(&Task) -> Result<Value, String>,
        max_tasks: usize,
    ) -> Vec<TaskResult> {
        let mut queue: VecDeque<Task> = pattern.on_start().into();
        let mut results = Vec::new();
        let mut executed = 0;
        while let Some(task) = queue.pop_front() {
            executed += 1;
            assert!(
                executed <= max_tasks,
                "pattern emitted more than {max_tasks} tasks"
            );
            let result = match exec(&task) {
                Ok(output) => TaskResult::ok(task.tag, task.stage.clone(), output),
                Err(e) => TaskResult::failed(task.tag, task.stage.clone(), e),
            };
            queue.extend(pattern.on_task_done(&result));
            results.push(result);
        }
        assert!(
            pattern.is_done(),
            "pattern queue drained but is_done() is false: {}",
            pattern.progress()
        );
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entk_md::TemperatureLadder;
    use serde_json::json;

    fn sleep(secs: f64) -> KernelCall {
        KernelCall::new("misc.sleep", json!({ "secs": secs }))
    }

    #[test]
    fn equal_consecutive_calls_share_one_kernel() {
        let mut last = None;
        let a = share_kernel(&mut last, sleep(10.0));
        let b = share_kernel(&mut last, sleep(10.0));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn calls_that_differ_only_in_args_are_not_shared() {
        let mut last = None;
        let a = share_kernel(&mut last, sleep(10.0));
        let b = share_kernel(&mut last, sleep(20.0));
        let c = share_kernel(&mut last, sleep(10.0));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(b.args, json!({ "secs": 20.0 }));
        // Only the last call is remembered: a repeat after a change is new.
        assert!(!Arc::ptr_eq(&b, &c) && !Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn every_pattern_shares_equal_consecutive_kernels() {
        let all_shared = |tasks: &[Task]| {
            tasks
                .windows(2)
                .all(|w| Arc::ptr_eq(&w[0].kernel, &w[1].kernel))
        };
        let mut eop = EnsembleOfPipelines::new(4, 2, |_, _| sleep(1.0));
        assert!(all_shared(&eop.on_start()));
        let mut bag = BagOfTasks::new(4, |_| sleep(1.0));
        assert!(all_shared(&bag.on_start()));
        let mut sal = SimulationAnalysisLoop::new(
            1,
            4,
            |_, _| sleep(1.0),
            |_, _| vec![sleep(1.0), sleep(1.0)],
        );
        let sims = sal.on_start();
        assert!(all_shared(&sims));
        let mut analyses = Vec::new();
        for task in &sims {
            analyses.extend(sal.on_task_done(&TaskResult::ok(task.tag, "simulation", json!({}))));
        }
        assert_eq!(analyses.len(), 2);
        assert!(all_shared(&analyses) && Arc::ptr_eq(&sims[0].kernel, &analyses[0].kernel));
        let ladder = TemperatureLadder::geometric(4, 300.0, 400.0);
        let mut ee = EnsembleExchange::new(4, 1, ladder, |_, _, _| sleep(1.0));
        assert!(all_shared(&ee.on_start()));
        // A closure whose calls differ gets one kernel per task.
        let mut eop = EnsembleOfPipelines::new(4, 1, |p, _| sleep(p as f64 + 1.0));
        let tasks = eop.on_start();
        assert!(tasks
            .windows(2)
            .all(|w| !Arc::ptr_eq(&w[0].kernel, &w[1].kernel)));
    }
}
