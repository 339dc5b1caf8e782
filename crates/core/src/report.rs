//! Execution reports: time-to-completion and its decomposition.
//!
//! Every figure in the paper's evaluation is a view over these fields:
//! per-stage execution times (Figs. 3–9), EnTK core and pattern overheads
//! (Fig. 3's bottom subplot), and runtime-side latencies.

use entk_sim::{SimDuration, SimTime, Summary};
use serde::{DeError, Deserialize, Serialize, Value};
use std::sync::Arc;

/// Timeline of one task as executed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskRecord {
    /// Driver-assigned unique id.
    pub uid: u64,
    /// Pattern correlation tag.
    pub tag: u64,
    /// Stage label (a plain JSON string on the wire), shared with the
    /// pattern that built it.
    pub stage: Arc<str>,
    /// When the pattern emitted the task.
    pub created: SimTime,
    /// Execution start on pilot cores, if it ran.
    pub exec_start: Option<SimTime>,
    /// Execution end, if it ran.
    pub exec_stop: Option<SimTime>,
    /// When the task reached a terminal state.
    pub finished: Option<SimTime>,
    /// Final success.
    pub success: bool,
    /// Resubmissions consumed (failures and kill-replace).
    pub retries: u32,
    /// Wall time spent on attempts that ended in failure, including retry
    /// backoff — the per-task contribution to `OverheadBreakdown::failure_lost`.
    pub lost_to_failures: SimDuration,
}

// A record is what every task of an ensemble keeps resident.
const _: () = assert!(std::mem::size_of::<TaskRecord>() <= 80);

impl TaskRecord {
    /// Pure execution duration, if the task executed.
    pub fn exec_duration(&self) -> Option<SimDuration> {
        Some(self.exec_stop?.saturating_since(self.exec_start?))
    }
}

/// A report's task records in uid order, read-only: one block per finished
/// run, which every report of the session shares instead of copying. On the
/// wire it is a flat JSON array of [`TaskRecord`]s.
#[derive(Debug, Clone, Default)]
pub struct TaskRecords(pub(crate) Vec<Arc<Vec<TaskRecord>>>);

impl TaskRecords {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.0.iter().map(|block| block.len()).sum()
    }

    /// True when there is no record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The records in uid order.
    pub fn iter(&self) -> <&Self as IntoIterator>::IntoIter {
        self.0.iter().flat_map(|block| &**block)
    }
}

impl std::ops::Index<usize> for TaskRecords {
    type Output = TaskRecord;

    fn index(&self, i: usize) -> &TaskRecord {
        self.iter().nth(i).expect("task record index in range")
    }
}

impl<'a> IntoIterator for &'a TaskRecords {
    type Item = &'a TaskRecord;
    type IntoIter = std::iter::FlatMap<
        std::slice::Iter<'a, Arc<Vec<TaskRecord>>>,
        &'a Vec<TaskRecord>,
        fn(&'a Arc<Vec<TaskRecord>>) -> &'a Vec<TaskRecord>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<Vec<TaskRecord>> for TaskRecords {
    fn from(records: Vec<TaskRecord>) -> Self {
        TaskRecords(vec![Arc::new(records)])
    }
}

impl Serialize for TaskRecords {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl Deserialize for TaskRecords {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Vec::from_value(v).map(TaskRecords::from)
    }
}

/// The paper's overhead decomposition.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct OverheadBreakdown {
    /// EnTK core overhead: init + resource request + teardown (constant
    /// per session).
    pub core: SimDuration,
    /// EnTK pattern overhead: task creation/submission (∝ tasks).
    pub pattern: SimDuration,
    /// Runtime (pilot) overhead: pilot submission bookkeeping.
    pub runtime_pilot: SimDuration,
    /// Batch-system time: queue wait + job startup until the agent ran.
    pub resource_wait: SimDuration,
    /// Time lost to failures: failed attempts' wall time plus retry
    /// backoff, summed over all tasks.
    pub failure_lost: SimDuration,
}

/// Result of executing one pattern on one resource allocation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Pattern name.
    pub pattern: String,
    /// Resource label.
    pub resource: String,
    /// Cores acquired.
    pub cores: usize,
    /// Total session time: allocate → pattern completion → deallocate.
    pub ttc: SimDuration,
    /// Overhead decomposition.
    pub overheads: OverheadBreakdown,
    /// Per-task timelines, shared with the session's other reports.
    pub tasks: TaskRecords,
    /// Tasks whose final state was failure.
    pub failed_tasks: usize,
    /// Total resubmissions across all tasks.
    pub total_retries: u32,
    /// True when the pattern did not fully complete: retries exhausted on
    /// some tasks, or the session degraded gracefully after losing its
    /// resources mid-run.
    pub partial: bool,
    /// Discrete events the simulation engine processed for this session so
    /// far — the denominator of the events/sec throughput metric. Zero on
    /// the local backend, which has no virtual-clock engine.
    #[serde(default)]
    pub events: u64,
}

impl ExecutionReport {
    /// Number of tasks executed (including failures).
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Union length of `[exec_start, exec_stop]` intervals for one stage —
    /// "time spent executing stage X", robust to stages interleaving across
    /// iterations.
    pub fn stage_time(&self, stage: &str) -> SimDuration {
        let mut intervals: Vec<(SimTime, SimTime)> = self
            .tasks
            .iter()
            .filter(|t| &*t.stage == stage)
            .filter_map(|t| Some((t.exec_start?, t.exec_stop?)))
            .collect();
        union_length(&mut intervals)
    }

    /// Union length of execution intervals across all stages.
    pub fn exec_time(&self) -> SimDuration {
        let mut intervals: Vec<(SimTime, SimTime)> = self
            .tasks
            .iter()
            .filter_map(|t| Some((t.exec_start?, t.exec_stop?)))
            .collect();
        union_length(&mut intervals)
    }

    /// Summary of per-task execution durations for one stage (seconds).
    pub fn stage_exec_summary(&self, stage: &str) -> Summary {
        let mut s = Summary::new();
        for t in &self.tasks {
            if &*t.stage == stage {
                if let Some(d) = t.exec_duration() {
                    s.add(d.as_secs_f64());
                }
            }
        }
        s
    }

    /// Stage labels present, in first-appearance order.
    pub fn stages(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for t in &self.tasks {
            if !seen.contains(&&*t.stage) {
                seen.push(&t.stage);
            }
        }
        seen
    }

    /// Tasks that failed at least once but ultimately succeeded — the
    /// retry engine's save count.
    pub fn recovered_tasks(&self) -> usize {
        self.tasks
            .iter()
            .filter(|t| t.success && t.retries > 0)
            .count()
    }
}

/// Total length of the union of (possibly overlapping) intervals.
fn union_length(intervals: &mut [(SimTime, SimTime)]) -> SimDuration {
    if intervals.is_empty() {
        return SimDuration::ZERO;
    }
    intervals.sort_by_key(|&(s, _)| s);
    let mut total = SimDuration::ZERO;
    let (mut cur_start, mut cur_end) = intervals[0];
    for &(s, e) in intervals[1..].iter() {
        if s <= cur_end {
            cur_end = cur_end.max(e);
        } else {
            total += cur_end.saturating_since(cur_start);
            cur_start = s;
            cur_end = e;
        }
    }
    total += cur_end.saturating_since(cur_start);
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(stage: &str, start: u64, stop: u64) -> TaskRecord {
        TaskRecord {
            uid: 0,
            tag: 0,
            stage: stage.into(),
            created: SimTime::ZERO,
            exec_start: Some(SimTime::from_secs(start)),
            exec_stop: Some(SimTime::from_secs(stop)),
            finished: Some(SimTime::from_secs(stop)),
            success: true,
            retries: 0,
            lost_to_failures: SimDuration::ZERO,
        }
    }

    fn report(tasks: Vec<TaskRecord>) -> ExecutionReport {
        ExecutionReport {
            pattern: "test".into(),
            resource: "local".into(),
            cores: 4,
            ttc: SimDuration::from_secs(100),
            overheads: OverheadBreakdown::default(),
            tasks: tasks.into(),
            failed_tasks: 0,
            total_retries: 0,
            partial: false,
            events: 0,
        }
    }

    #[test]
    fn stage_time_unions_overlapping_intervals() {
        let r = report(vec![
            record("sim", 0, 10),
            record("sim", 5, 15),  // overlaps
            record("sim", 20, 25), // disjoint
            record("analysis", 15, 20),
        ]);
        assert_eq!(r.stage_time("sim"), SimDuration::from_secs(20));
        assert_eq!(r.stage_time("analysis"), SimDuration::from_secs(5));
        assert_eq!(r.exec_time(), SimDuration::from_secs(25));
        assert_eq!(r.stage_time("nonexistent"), SimDuration::ZERO);
    }

    #[test]
    fn stage_summary_and_listing() {
        let r = report(vec![
            record("sim", 0, 10),
            record("sim", 0, 20),
            record("analysis", 20, 21),
        ]);
        let s = r.stage_exec_summary("sim");
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 15.0);
        assert_eq!(r.stages(), vec!["sim", "analysis"]);
        assert_eq!(r.task_count(), 3);
    }

    #[test]
    fn tasks_without_execution_are_ignored() {
        let mut t = record("sim", 0, 5);
        t.exec_start = None;
        t.exec_stop = None;
        let r = report(vec![t]);
        assert_eq!(r.stage_time("sim"), SimDuration::ZERO);
        assert_eq!(r.stage_exec_summary("sim").count(), 0);
    }
}

impl std::fmt::Display for ExecutionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "pattern {} on {} ({} cores): {} tasks, {} failed, {} retries{}",
            self.pattern,
            self.resource,
            self.cores,
            self.task_count(),
            self.failed_tasks,
            self.total_retries,
            if self.partial { " [partial]" } else { "" }
        )?;
        writeln!(
            f,
            "  TTC {}  (exec {}, core ovh {}, pattern ovh {}, pilot ovh {}, resource wait {}, failure lost {})",
            self.ttc,
            self.exec_time(),
            self.overheads.core,
            self.overheads.pattern,
            self.overheads.runtime_pilot,
            self.overheads.resource_wait,
            self.overheads.failure_lost
        )?;
        for stage in self.stages() {
            let s = self.stage_exec_summary(stage);
            writeln!(
                f,
                "  stage {stage}: {} tasks, mean {:.3}s, span {}",
                s.count(),
                s.mean(),
                self.stage_time(stage)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;

    #[test]
    fn display_mentions_key_numbers() {
        let r = ExecutionReport {
            pattern: "bag-of-tasks".into(),
            resource: "xsede.comet".into(),
            cores: 24,
            ttc: SimDuration::from_secs(100),
            overheads: OverheadBreakdown::default(),
            tasks: TaskRecords::default(),
            failed_tasks: 2,
            total_retries: 3,
            partial: true,
            events: 0,
        };
        let text = r.to_string();
        assert!(text.contains("bag-of-tasks"));
        assert!(text.contains("xsede.comet"));
        assert!(text.contains("2 failed"));
        assert!(text.contains("3 retries"));
        assert!(text.contains("[partial]"));
    }
}
