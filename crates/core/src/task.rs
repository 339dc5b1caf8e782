//! Tasks: what execution patterns emit and what they get back.

use entk_kernels::KernelCall;
use serde_json::Value;
use std::sync::Arc;

/// A task emitted by a pattern stage.
///
/// The `tag` is chosen by the pattern and echoed back in [`TaskResult`], so
/// patterns can correlate completions with their internal bookkeeping
/// (pipeline index, replica index, …) without knowing runtime unit ids.
///
/// Label and kernel are shared handles: the session, the backend and every
/// report refer to the one copy the pattern built, so a pattern that hands
/// out clones of one `Arc<str>` per stage costs no string per task.
#[derive(Debug, Clone)]
pub struct Task {
    /// Pattern-chosen correlation tag.
    pub tag: u64,
    /// Stage label, e.g. `"simulation"`, `"analysis"`, `"exchange"`.
    /// Reports aggregate execution time per stage under this label.
    pub stage: Arc<str>,
    /// The bound kernel invocation.
    pub kernel: Arc<KernelCall>,
}

impl Task {
    /// Creates a task.
    pub fn new(tag: u64, stage: impl Into<Arc<str>>, kernel: impl Into<Arc<KernelCall>>) -> Self {
        Task {
            tag,
            stage: stage.into(),
            kernel: kernel.into(),
        }
    }
}

/// Completion report delivered to the pattern.
#[derive(Debug, Clone)]
pub struct TaskResult {
    /// The pattern's correlation tag.
    pub tag: u64,
    /// Stage label of the completed task.
    pub stage: Arc<str>,
    /// Whether the task succeeded (after any retries).
    pub success: bool,
    /// Kernel output (model output in simulated runs, real output locally).
    pub output: Value,
    /// Failure description, when `success` is false.
    pub error: Option<String>,
}

impl TaskResult {
    /// A successful result.
    pub fn ok(tag: u64, stage: impl Into<Arc<str>>, output: Value) -> Self {
        TaskResult {
            tag,
            stage: stage.into(),
            success: true,
            output,
            error: None,
        }
    }

    /// A failed result.
    pub fn failed(tag: u64, stage: impl Into<Arc<str>>, error: impl Into<String>) -> Self {
        TaskResult {
            tag,
            stage: stage.into(),
            success: false,
            output: Value::Null,
            error: Some(error.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn constructors_set_fields() {
        let t = Task::new(
            7,
            "simulation",
            KernelCall::new("misc.sleep", json!({"secs": 1.0})),
        );
        assert_eq!(t.tag, 7);
        assert_eq!(&*t.stage, "simulation");

        let ok = TaskResult::ok(7, "simulation", json!({"x": 1}));
        assert!(ok.success);
        assert!(ok.error.is_none());

        let bad = TaskResult::failed(7, "simulation", "boom");
        assert!(!bad.success);
        assert_eq!(bad.error.as_deref(), Some("boom"));
        assert!(bad.output.is_null());
    }
}
