//! The Ensemble-of-Pipelines pattern (paper §III-D1) and its single-stage
//! special case, the bag of tasks.

use crate::pattern::{share_kernel, ExecutionPattern};
use crate::task::{Task, TaskResult};
use entk_kernels::KernelCall;
use std::sync::Arc;

/// Per-pipeline state: 8 bytes, one per pipeline for the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PipeState {
    /// Currently executing stage `s`.
    Running(u32),
    /// All stages completed.
    Done,
    /// Aborted at stage `s` after a task failure.
    Failed(u32),
}

/// An ensemble of N independent pipelines of M ordered stages.
///
/// Each stage of a pipeline depends on its predecessor; pipelines do not
/// synchronize with each other — a fast pipeline may be on its last stage
/// while a slow one is still on its first.
pub struct EnsembleOfPipelines {
    n_pipelines: usize,
    n_stages: usize,
    kernel_for: Box<dyn FnMut(usize, usize) -> KernelCall + Send>,
    /// The last kernel bound, shared with the next task if equal.
    last_kernel: Option<Arc<KernelCall>>,
    /// One shared label per stage; every task of the stage holds a clone.
    stage_labels: Vec<Arc<str>>,
    pipes: Vec<PipeState>,
    /// Pipelines still in `Running`; keeps `is_done` O(1) — the driver
    /// polls it after every event, so an O(n) scan here is quadratic over
    /// a run.
    running: usize,
    started: bool,
}

impl EnsembleOfPipelines {
    /// Creates the pattern. `kernel_for(pipeline, stage)` binds the kernel
    /// of each task; stages are labelled `stage-<index>` by default.
    pub fn new(
        n_pipelines: usize,
        n_stages: usize,
        kernel_for: impl FnMut(usize, usize) -> KernelCall + Send + 'static,
    ) -> Self {
        assert!(n_pipelines > 0 && n_stages > 0, "empty pattern");
        assert!(u32::try_from(n_stages).is_ok(), "too many stages");
        EnsembleOfPipelines {
            n_pipelines,
            n_stages,
            kernel_for: Box::new(kernel_for),
            last_kernel: None,
            stage_labels: (0..n_stages).map(|s| format!("stage-{s}").into()).collect(),
            pipes: vec![PipeState::Running(0); n_pipelines],
            running: n_pipelines,
            started: false,
        }
    }

    /// Overrides stage labels (builder style), e.g. `["mkfile", "ccount"]`.
    pub fn with_stage_labels(mut self, labels: Vec<String>) -> Self {
        assert_eq!(labels.len(), self.n_stages, "one label per stage");
        self.stage_labels = labels.into_iter().map(Arc::from).collect();
        self
    }

    /// Number of pipelines that aborted on a task failure.
    pub fn failed_pipelines(&self) -> usize {
        self.pipes
            .iter()
            .filter(|p| matches!(p, PipeState::Failed(_)))
            .count()
    }

    fn task_for(&mut self, pipeline: usize, stage: u32) -> Task {
        let stage = stage as usize;
        let kernel = share_kernel(&mut self.last_kernel, (self.kernel_for)(pipeline, stage));
        Task::new(pipeline as u64, self.stage_labels[stage].clone(), kernel)
    }
}

impl ExecutionPattern for EnsembleOfPipelines {
    fn name(&self) -> &str {
        "ensemble-of-pipelines"
    }

    fn on_start(&mut self) -> Vec<Task> {
        assert!(!self.started, "on_start called twice");
        self.started = true;
        (0..self.n_pipelines).map(|p| self.task_for(p, 0)).collect()
    }

    fn on_task_done(&mut self, result: &TaskResult) -> Vec<Task> {
        let p = result.tag as usize;
        let PipeState::Running(stage) = self.pipes[p] else {
            panic!("completion for pipeline {p} which is not running");
        };
        if !result.success {
            self.pipes[p] = PipeState::Failed(stage);
            self.running -= 1;
            return Vec::new();
        }
        let next = stage + 1;
        if next as usize >= self.n_stages {
            self.pipes[p] = PipeState::Done;
            self.running -= 1;
            Vec::new()
        } else {
            self.pipes[p] = PipeState::Running(next);
            vec![self.task_for(p, next)]
        }
    }

    fn is_done(&self) -> bool {
        self.started && self.running == 0
    }

    fn progress(&self) -> String {
        let done = self.pipes.iter().filter(|p| **p == PipeState::Done).count();
        format!(
            "{}/{} pipelines done ({} failed)",
            done,
            self.n_pipelines,
            self.failed_pipelines()
        )
    }
}

/// A bag of independent tasks: the degenerate one-stage ensemble of
/// pipelines, provided as its own constructor because it is the unit
/// pattern the paper uses to introduce the concept (§III-B).
pub struct BagOfTasks {
    inner: EnsembleOfPipelines,
}

impl BagOfTasks {
    /// Creates a bag of `n` tasks with `kernel_for(index)` bindings.
    pub fn new(n: usize, mut kernel_for: impl FnMut(usize) -> KernelCall + Send + 'static) -> Self {
        BagOfTasks {
            inner: EnsembleOfPipelines::new(n, 1, move |p, _| kernel_for(p))
                .with_stage_labels(vec!["task".into()]),
        }
    }
}

impl ExecutionPattern for BagOfTasks {
    fn name(&self) -> &str {
        "bag-of-tasks"
    }
    fn on_start(&mut self) -> Vec<Task> {
        self.inner.on_start()
    }
    fn on_task_done(&mut self, result: &TaskResult) -> Vec<Task> {
        self.inner.on_task_done(result)
    }
    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
    fn progress(&self) -> String {
        self.inner.progress()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::testutil::drive;
    use serde_json::json;

    fn sleep_kernel() -> KernelCall {
        KernelCall::new("misc.sleep", json!({"secs": 1.0}))
    }

    #[test]
    fn a_pipeline_state_is_8_bytes() {
        assert_eq!(std::mem::size_of::<PipeState>(), 8);
    }

    #[test]
    fn all_stages_of_all_pipelines_execute_in_order() {
        let mut order: Vec<(usize, Arc<str>)> = Vec::new();
        let mut pattern = EnsembleOfPipelines::new(3, 2, |_, _| sleep_kernel())
            .with_stage_labels(vec!["mkfile".into(), "ccount".into()]);
        let results = drive(
            &mut pattern,
            |t| {
                order.push((t.tag as usize, t.stage.clone()));
                Ok(json!({}))
            },
            100,
        );
        assert_eq!(results.len(), 6);
        // Per pipeline: mkfile strictly before ccount.
        for p in 0..3 {
            let stages: Vec<&str> = order
                .iter()
                .filter(|(pipe, _)| *pipe == p)
                .map(|(_, s)| &**s)
                .collect();
            assert_eq!(stages, vec!["mkfile", "ccount"], "pipeline {p}");
        }
    }

    #[test]
    fn pipelines_are_independent_on_failure() {
        let mut pattern = EnsembleOfPipelines::new(3, 2, |_, _| sleep_kernel());
        let results = drive(
            &mut pattern,
            |t| {
                if t.tag == 1 {
                    Err("stage 0 exploded".into())
                } else {
                    Ok(json!({}))
                }
            },
            100,
        );
        // Pipeline 1 aborts after stage 0; pipelines 0 and 2 run both stages.
        assert_eq!(results.len(), 5);
        assert_eq!(pattern.failed_pipelines(), 1);
        assert!(pattern.is_done());
    }

    #[test]
    fn kernel_binding_sees_pipeline_and_stage() {
        let mut pattern = EnsembleOfPipelines::new(2, 3, |p, s| {
            KernelCall::new("misc.sleep", json!({"secs": (p * 10 + s) as f64}))
        });
        let mut seen = Vec::new();
        drive(
            &mut pattern,
            |t| {
                seen.push(t.kernel.args["secs"].as_f64().unwrap() as usize);
                Ok(json!({}))
            },
            100,
        );
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 10, 11, 12]);
    }

    #[test]
    fn bag_of_tasks_runs_everything_once() {
        let mut pattern = BagOfTasks::new(5, |_| sleep_kernel());
        let results = drive(&mut pattern, |_| Ok(json!({})), 100);
        assert_eq!(results.len(), 5);
        let mut tags: Vec<u64> = results.iter().map(|r| r.tag).collect();
        tags.sort_unstable();
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "empty pattern")]
    fn zero_pipelines_rejected() {
        EnsembleOfPipelines::new(0, 1, |_, _| sleep_kernel());
    }

    #[test]
    fn not_done_before_start() {
        let pattern = EnsembleOfPipelines::new(1, 1, |_, _| sleep_kernel());
        assert!(!pattern.is_done());
    }
}
