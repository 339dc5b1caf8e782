//! The Pipeline–Stage–Task (PST) application model.
//!
//! The paper's prototype exposes pattern templates; the Ensemble Toolkit
//! that grew out of it (RADICAL-EnTK 2.x) settled on PST: an application is
//! a set of concurrent **pipelines**, each a sequence of **stages**, each a
//! set of concurrent **tasks**. Stages within a pipeline are barriers;
//! pipelines are independent. This module implements PST as a higher-order
//! pattern on the same executor — demonstrating the paper's claim that unit
//! patterns compose into richer application models.

use crate::pattern::ExecutionPattern;
use crate::task::{Task, TaskResult};
use entk_kernels::KernelCall;
use std::collections::HashMap;
use std::sync::Arc;

/// A task within a stage.
#[derive(Debug, Clone)]
pub struct PstTask {
    /// Task name (becomes part of trace labels).
    pub name: String,
    /// Bound kernel, shared with the task the workflow emits for it.
    pub kernel: Arc<KernelCall>,
}

impl PstTask {
    /// Creates a task.
    pub fn new(name: impl Into<String>, kernel: impl Into<Arc<KernelCall>>) -> Self {
        PstTask {
            name: name.into(),
            kernel: kernel.into(),
        }
    }
}

/// A stage: a set of tasks that run concurrently; the next stage of the
/// same pipeline starts when all of them finished.
#[derive(Debug, Clone, Default)]
pub struct Stage {
    /// Stage name; used as the report's stage label, shared by its tasks.
    pub name: Arc<str>,
    /// Concurrent tasks.
    pub tasks: Vec<PstTask>,
}

impl Stage {
    /// Creates an empty stage.
    pub fn new(name: impl Into<Arc<str>>) -> Self {
        Stage {
            name: name.into(),
            tasks: Vec::new(),
        }
    }

    /// Adds a task (builder style).
    pub fn with_task(mut self, task: PstTask) -> Self {
        self.tasks.push(task);
        self
    }
}

/// A pipeline: an ordered sequence of stages.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    /// Pipeline name (bookkeeping).
    pub name: String,
    /// Ordered stages.
    pub stages: Vec<Stage>,
}

impl Pipeline {
    /// Creates an empty pipeline.
    pub fn new(name: impl Into<String>) -> Self {
        Pipeline {
            name: name.into(),
            stages: Vec::new(),
        }
    }

    /// Appends a stage (builder style).
    pub fn with_stage(mut self, stage: Stage) -> Self {
        self.stages.push(stage);
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PipeState {
    Running { stage: usize, pending: usize },
    Done,
    Failed,
}

/// A PST workflow: concurrent pipelines of staged task sets, executable on
/// any backend as an [`ExecutionPattern`].
pub struct PstWorkflow {
    pipelines: Vec<Pipeline>,
    states: Vec<PipeState>,
    /// tag → (pipeline, stage) for in-flight tasks.
    tags: HashMap<u64, (usize, usize)>,
    next_tag: u64,
    started: bool,
}

impl PstWorkflow {
    /// Creates a workflow from pipelines. Pipelines must be non-empty and
    /// every stage must contain at least one task.
    pub fn new(pipelines: Vec<Pipeline>) -> Self {
        assert!(!pipelines.is_empty(), "PST workflow needs pipelines");
        for p in &pipelines {
            assert!(!p.stages.is_empty(), "pipeline {:?} has no stages", p.name);
            for s in &p.stages {
                assert!(
                    !s.tasks.is_empty(),
                    "stage {:?} of pipeline {:?} has no tasks",
                    s.name,
                    p.name
                );
            }
        }
        let states = pipelines
            .iter()
            .map(|_| PipeState::Running {
                stage: 0,
                pending: 0,
            })
            .collect();
        PstWorkflow {
            pipelines,
            states,
            tags: HashMap::new(),
            next_tag: 0,
            started: false,
        }
    }

    /// Number of pipelines that failed.
    pub fn failed_pipelines(&self) -> usize {
        self.states
            .iter()
            .filter(|s| **s == PipeState::Failed)
            .count()
    }

    /// Total tasks across all pipelines and stages.
    pub fn total_tasks(&self) -> usize {
        self.pipelines
            .iter()
            .flat_map(|p| &p.stages)
            .map(|s| s.tasks.len())
            .sum()
    }

    fn emit_stage(&mut self, pipe: usize, stage: usize) -> Vec<Task> {
        let stage_def = &self.pipelines[pipe].stages[stage];
        let mut tasks = Vec::with_capacity(stage_def.tasks.len());
        for t in &stage_def.tasks {
            let tag = self.next_tag;
            self.next_tag += 1;
            self.tags.insert(tag, (pipe, stage));
            tasks.push(Task::new(tag, stage_def.name.clone(), t.kernel.clone()));
        }
        self.states[pipe] = PipeState::Running {
            stage,
            pending: tasks.len(),
        };
        tasks
    }
}

impl ExecutionPattern for PstWorkflow {
    fn name(&self) -> &str {
        "pst-workflow"
    }

    fn on_start(&mut self) -> Vec<Task> {
        assert!(!self.started, "on_start called twice");
        self.started = true;
        let mut tasks = Vec::new();
        for pipe in 0..self.pipelines.len() {
            tasks.extend(self.emit_stage(pipe, 0));
        }
        tasks
    }

    fn on_task_done(&mut self, result: &TaskResult) -> Vec<Task> {
        let Some(&(pipe, stage)) = self.tags.get(&result.tag) else {
            panic!("completion for unknown PST tag {}", result.tag);
        };
        self.tags.remove(&result.tag);
        let PipeState::Running {
            stage: cur,
            pending,
        } = self.states[pipe]
        else {
            return Vec::new(); // pipeline already failed; drain stragglers
        };
        debug_assert_eq!(cur, stage, "completion from a stale stage");
        if !result.success {
            self.states[pipe] = PipeState::Failed;
            return Vec::new();
        }
        let pending = pending - 1;
        self.states[pipe] = PipeState::Running { stage, pending };
        if pending > 0 {
            return Vec::new(); // stage barrier not reached
        }
        let next = stage + 1;
        if next >= self.pipelines[pipe].stages.len() {
            self.states[pipe] = PipeState::Done;
            Vec::new()
        } else {
            self.emit_stage(pipe, next)
        }
    }

    fn is_done(&self) -> bool {
        self.started
            && self.states.iter().zip(0..).all(|(s, pipe)| match *s {
                PipeState::Running { .. } => false,
                PipeState::Done => true,
                // A failed pipeline is finished once its stragglers drained.
                PipeState::Failed => !self.tags.values().any(|&(p, _)| p == pipe),
            })
    }

    fn progress(&self) -> String {
        let done = self
            .states
            .iter()
            .filter(|s| **s == PipeState::Done)
            .count();
        format!(
            "{}/{} pipelines done ({} failed)",
            done,
            self.pipelines.len(),
            self.failed_pipelines()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::testutil::drive;
    use serde_json::json;

    fn k(label: &str) -> KernelCall {
        KernelCall::new("misc.sleep", json!({ "secs": 1.0, "label": label }))
    }

    fn two_pipe_workflow() -> PstWorkflow {
        PstWorkflow::new(vec![
            Pipeline::new("p0")
                .with_stage(
                    Stage::new("prepare")
                        .with_task(PstTask::new("a", k("p0.prep.a")))
                        .with_task(PstTask::new("b", k("p0.prep.b"))),
                )
                .with_stage(Stage::new("run").with_task(PstTask::new("c", k("p0.run.c")))),
            Pipeline::new("p1")
                .with_stage(Stage::new("prepare").with_task(PstTask::new("d", k("p1.prep.d")))),
        ])
    }

    #[test]
    fn stage_barriers_within_pipeline() {
        let mut wf = two_pipe_workflow();
        let mut order = Vec::new();
        let results = drive(
            &mut wf,
            |t| {
                order.push(t.kernel.args["label"].as_str().unwrap().to_string());
                Ok(json!({}))
            },
            100,
        );
        assert_eq!(results.len(), 4);
        let pos = |l: &str| order.iter().position(|x| x == l).unwrap();
        // p0.run.c strictly after both p0 prepare tasks.
        assert!(pos("p0.run.c") > pos("p0.prep.a"));
        assert!(pos("p0.run.c") > pos("p0.prep.b"));
    }

    #[test]
    fn pipelines_are_independent() {
        let mut wf = two_pipe_workflow();
        // Fail everything in p0; p1 still completes.
        drive(
            &mut wf,
            |t| {
                let label = t.kernel.args["label"].as_str().unwrap();
                if label.starts_with("p0") {
                    Err("p0 task failed".into())
                } else {
                    Ok(json!({}))
                }
            },
            100,
        );
        assert_eq!(wf.failed_pipelines(), 1);
        assert!(wf.is_done());
    }

    #[test]
    fn total_task_accounting() {
        let wf = two_pipe_workflow();
        assert_eq!(wf.total_tasks(), 4);
    }

    #[test]
    fn stage_names_become_report_stages() {
        let mut wf = two_pipe_workflow();
        let mut stages = Vec::new();
        drive(
            &mut wf,
            |t| {
                stages.push(t.stage.clone());
                Ok(json!({}))
            },
            100,
        );
        assert!(stages.contains(&"prepare".into()));
        assert!(stages.contains(&"run".into()));
    }

    #[test]
    #[should_panic(expected = "has no tasks")]
    fn empty_stage_rejected() {
        PstWorkflow::new(vec![Pipeline::new("p").with_stage(Stage::new("empty"))]);
    }

    #[test]
    #[should_panic(expected = "needs pipelines")]
    fn empty_workflow_rejected() {
        PstWorkflow::new(Vec::new());
    }

    #[test]
    fn failure_mid_stage_drains_siblings() {
        // Two tasks in a stage; one fails while the other is in flight.
        let mut wf = PstWorkflow::new(vec![Pipeline::new("p").with_stage(
            Stage::new("s")
                .with_task(PstTask::new("ok", k("ok")))
                .with_task(PstTask::new("bad", k("bad"))),
        )]);
        drive(
            &mut wf,
            |t| {
                if t.kernel.args["label"] == "bad" {
                    Err("boom".into())
                } else {
                    Ok(json!({}))
                }
            },
            100,
        );
        assert!(wf.is_done());
        assert_eq!(wf.failed_pipelines(), 1);
    }
}
