//! Higher-order pattern composition (paper §V: "combining unit patterns to
//! form higher-order patterns").
//!
//! [`SequencePattern`] runs unit patterns back to back: when one completes,
//! the next starts. More elaborate compositions (nesting, fan-out) can be
//! built the same way since composites implement [`ExecutionPattern`]
//! themselves.

use crate::pattern::ExecutionPattern;
use crate::task::{Task, TaskResult};

/// Runs a list of patterns sequentially.
pub struct SequencePattern {
    stages: Vec<Box<dyn ExecutionPattern + Send>>,
    current: usize,
    started: bool,
    /// Tasks of the current child still in flight.
    in_flight: usize,
}

impl SequencePattern {
    /// Creates a sequence; panics on an empty list.
    pub fn new(stages: Vec<Box<dyn ExecutionPattern + Send>>) -> Self {
        assert!(!stages.is_empty(), "empty sequence");
        SequencePattern {
            stages,
            current: 0,
            started: false,
            in_flight: 0,
        }
    }

    /// Index of the pattern currently executing.
    pub fn current_index(&self) -> usize {
        self.current
    }

    fn start_current(&mut self) -> Vec<Task> {
        self.stages[self.current].on_start()
    }

    /// Advances past finished children (children may finish without
    /// emitting tasks, e.g. when aborting), starting each next child.
    fn roll_forward(&mut self, mut tasks: Vec<Task>) -> Vec<Task> {
        while tasks.is_empty()
            && self.in_flight == 0
            && self.stages[self.current].is_done()
            && self.current + 1 < self.stages.len()
        {
            self.current += 1;
            tasks = self.start_current();
        }
        self.in_flight += tasks.len();
        tasks
    }
}

impl ExecutionPattern for SequencePattern {
    fn name(&self) -> &str {
        "sequence"
    }

    fn on_start(&mut self) -> Vec<Task> {
        assert!(!self.started, "on_start called twice");
        self.started = true;
        let tasks = self.start_current();
        self.roll_forward(tasks)
    }

    fn on_task_done(&mut self, result: &TaskResult) -> Vec<Task> {
        self.in_flight = self.in_flight.saturating_sub(1);
        let tasks = self.stages[self.current].on_task_done(result);
        self.roll_forward(tasks)
    }

    fn is_done(&self) -> bool {
        self.started
            && self.current == self.stages.len() - 1
            && self.stages[self.current].is_done()
            && self.in_flight == 0
    }

    fn progress(&self) -> String {
        format!(
            "part {}/{}: {}",
            self.current + 1,
            self.stages.len(),
            self.stages[self.current].progress()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::pipeline::BagOfTasks;
    use crate::pattern::testutil::drive;
    use crate::pattern::SimulationAnalysisLoop;
    use entk_kernels::KernelCall;
    use serde_json::json;

    fn bag(n: usize, label: &'static str) -> Box<dyn ExecutionPattern + Send> {
        Box::new(BagOfTasks::new(n, move |i| {
            KernelCall::new("misc.sleep", json!({"secs": 1.0, "label": label, "i": i}))
        }))
    }

    #[test]
    fn sequence_runs_children_in_order() {
        let mut seq = SequencePattern::new(vec![bag(2, "first"), bag(3, "second")]);
        let mut labels = Vec::new();
        let results = drive(
            &mut seq,
            |t| {
                labels.push(t.kernel.args["label"].as_str().unwrap().to_string());
                Ok(json!({}))
            },
            100,
        );
        assert_eq!(results.len(), 5);
        assert_eq!(labels[..2], ["first", "first"]);
        assert_eq!(labels[2..], ["second", "second", "second"]);
    }

    #[test]
    fn sequence_of_heterogeneous_patterns() {
        // Bag of tasks, then a SAL — the "higher-order pattern" composition
        // the paper proposes.
        let sal = SimulationAnalysisLoop::new(
            1,
            2,
            |_, i| KernelCall::new("md.amber", json!({"i": i})),
            |_, outs| vec![KernelCall::new("ana.coco", json!({"n_sims": outs.len()}))],
        );
        let mut seq = SequencePattern::new(vec![bag(2, "prep"), Box::new(sal)]);
        let mut stages = Vec::new();
        drive(
            &mut seq,
            |t| {
                stages.push(t.stage.to_string());
                Ok(json!({}))
            },
            100,
        );
        assert_eq!(
            stages,
            vec!["task", "task", "simulation", "simulation", "analysis"]
        );
    }

    #[test]
    fn current_index_advances() {
        let mut seq = SequencePattern::new(vec![bag(1, "a"), bag(1, "b"), bag(1, "c")]);
        assert_eq!(seq.current_index(), 0);
        drive(&mut seq, |_| Ok(json!({})), 100);
        assert_eq!(seq.current_index(), 2);
        assert!(seq.is_done());
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_sequence_rejected() {
        SequencePattern::new(Vec::new());
    }
}

/// Runs several patterns concurrently on the same allocation, interleaving
/// their tasks — the other half of higher-order composition (paper §V):
/// sequence for ordering, concurrency for co-scheduled campaigns.
///
/// Child correlation tags are namespaced into the top 8 bits of the tag
/// space, so children may use any tag below 2^56 (all built-in patterns do).
pub struct ConcurrentPatterns {
    children: Vec<Box<dyn ExecutionPattern + Send>>,
    started: bool,
}

const CHILD_SHIFT: u32 = 56;
const CHILD_TAG_MASK: u64 = (1 << CHILD_SHIFT) - 1;

impl ConcurrentPatterns {
    /// Creates a concurrent composition; panics on an empty list or more
    /// than 255 children.
    pub fn new(children: Vec<Box<dyn ExecutionPattern + Send>>) -> Self {
        assert!(!children.is_empty(), "empty composition");
        assert!(children.len() <= 255, "at most 255 concurrent children");
        ConcurrentPatterns {
            children,
            started: false,
        }
    }

    fn wrap(child: usize, mut tasks: Vec<Task>) -> Vec<Task> {
        for t in &mut tasks {
            assert!(
                t.tag <= CHILD_TAG_MASK,
                "child pattern tag exceeds the 2^56 namespace budget"
            );
            t.tag |= (child as u64) << CHILD_SHIFT;
        }
        tasks
    }
}

impl ExecutionPattern for ConcurrentPatterns {
    fn name(&self) -> &str {
        "concurrent"
    }

    fn on_start(&mut self) -> Vec<Task> {
        assert!(!self.started, "on_start called twice");
        self.started = true;
        let mut tasks = Vec::new();
        for (i, child) in self.children.iter_mut().enumerate() {
            tasks.extend(Self::wrap(i, child.on_start()));
        }
        tasks
    }

    fn on_task_done(&mut self, result: &TaskResult) -> Vec<Task> {
        let child = (result.tag >> CHILD_SHIFT) as usize;
        assert!(child < self.children.len(), "completion for unknown child");
        let mut inner = result.clone();
        inner.tag &= CHILD_TAG_MASK;
        Self::wrap(child, self.children[child].on_task_done(&inner))
    }

    fn is_done(&self) -> bool {
        self.started && self.children.iter().all(|c| c.is_done())
    }

    fn progress(&self) -> String {
        let done = self.children.iter().filter(|c| c.is_done()).count();
        format!("{done}/{} children done", self.children.len())
    }
}

#[cfg(test)]
mod concurrent_tests {
    use super::*;
    use crate::pattern::pipeline::BagOfTasks;
    use crate::pattern::testutil::drive;
    use crate::pattern::SimulationAnalysisLoop;
    use entk_kernels::KernelCall;
    use serde_json::json;

    fn bag(n: usize, label: &'static str) -> Box<dyn ExecutionPattern + Send> {
        Box::new(BagOfTasks::new(n, move |i| {
            KernelCall::new("misc.sleep", json!({"secs": 1.0, "label": label, "i": i}))
        }))
    }

    #[test]
    fn all_children_start_immediately() {
        let mut cp = ConcurrentPatterns::new(vec![bag(2, "a"), bag(3, "b")]);
        let initial = cp.on_start();
        assert_eq!(initial.len(), 5, "both children's tasks in the first batch");
        let labels: Vec<&str> = initial
            .iter()
            .map(|t| t.kernel.args["label"].as_str().unwrap())
            .collect();
        assert!(labels.contains(&"a") && labels.contains(&"b"));
    }

    #[test]
    fn completions_route_to_the_right_child() {
        let mut cp = ConcurrentPatterns::new(vec![
            Box::new(SimulationAnalysisLoop::new(
                1,
                2,
                |_, i| KernelCall::new("misc.sleep", json!({"secs": 1.0, "i": i})),
                |_, outs| vec![KernelCall::new("ana.coco", json!({"n_sims": outs.len()}))],
            )),
            bag(2, "side"),
        ]);
        let results = drive(&mut cp, |_| Ok(json!({})), 100);
        // SAL: 2 sims + 1 analysis; bag: 2 tasks.
        assert_eq!(results.len(), 5);
        assert!(cp.is_done());
    }

    #[test]
    fn mixed_with_sequence_composition() {
        // (bag ; bag) || bag — nesting both composites.
        let seq = SequencePattern::new(vec![bag(1, "s1"), bag(1, "s2")]);
        let mut cp = ConcurrentPatterns::new(vec![Box::new(seq), bag(2, "par")]);
        let mut order = Vec::new();
        drive(
            &mut cp,
            |t| {
                order.push(t.kernel.args["label"].as_str().unwrap().to_string());
                Ok(json!({}))
            },
            100,
        );
        assert_eq!(order.len(), 4);
        let pos = |l: &str| order.iter().position(|x| x == l).unwrap();
        assert!(pos("s2") > pos("s1"), "sequence order preserved inside");
    }

    #[test]
    #[should_panic(expected = "empty composition")]
    fn empty_composition_rejected() {
        ConcurrentPatterns::new(Vec::new());
    }
}
