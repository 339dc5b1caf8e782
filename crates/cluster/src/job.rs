//! Batch jobs: the unit of resource acquisition on a simulated cluster.
//!
//! A batch job is a container allocation (in our stack: a pilot). Its
//! lifecycle follows the classic batch-system state machine with validated
//! transitions.

use entk_sim::{SimDuration, SimTime, TraceKind};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a batch job within one cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BatchJobId(pub u64);

impl fmt::Display for BatchJobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job.{:06}", self.0)
    }
}

/// Request for a batch allocation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchJobDescription {
    /// Job name (bookkeeping).
    pub name: String,
    /// Cores requested. The cluster rounds allocation up to whole nodes only
    /// for exclusive-node policies; by default cores are packed.
    pub cores: usize,
    /// Maximum wall time; the job is killed when it expires.
    pub walltime: SimDuration,
    /// Queue name (bookkeeping; one queue is modelled).
    pub queue: String,
    /// Allocation/project charged (bookkeeping).
    pub project: String,
}

impl BatchJobDescription {
    /// Convenience constructor with defaults for queue/project.
    pub fn new(name: impl Into<String>, cores: usize, walltime: SimDuration) -> Self {
        BatchJobDescription {
            name: name.into(),
            cores,
            walltime,
            queue: "normal".into(),
            project: "TG-MCB090174".into(),
        }
    }
}

/// Batch-job lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BatchJobState {
    /// Accepted by the batch system, waiting in the queue.
    Queued,
    /// Nodes assigned, prologue running.
    Starting,
    /// Payload executing on assigned cores.
    Running,
    /// Finished normally (owner completed it).
    Completed,
    /// Killed because it exceeded its wall time.
    TimedOut,
    /// Cancelled by the owner while queued or running.
    Cancelled,
    /// Rejected or failed (e.g. request exceeds machine size).
    Failed,
}

impl BatchJobState {
    /// True for states a job can never leave.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            BatchJobState::Completed
                | BatchJobState::TimedOut
                | BatchJobState::Cancelled
                | BatchJobState::Failed
        )
    }

    /// Whether `self -> next` is a legal lifecycle transition.
    pub fn can_transition_to(self, next: BatchJobState) -> bool {
        use BatchJobState::*;
        matches!(
            (self, next),
            (Queued, Starting)
                | (Queued, Cancelled)
                | (Queued, Failed)
                | (Starting, Running)
                | (Starting, Cancelled)
                | (Starting, Failed)
                | (Running, Completed)
                | (Running, TimedOut)
                | (Running, Cancelled)
                | (Running, Failed)
        )
    }

    /// The cluster's trace record of a job entering `next` from `from`
    /// (`None`: the job was just submitted). Panics on a transition the
    /// model forbids, which is a simulator bug, not a user error.
    pub(crate) fn trace_event(from: Option<BatchJobState>, next: BatchJobState) -> TraceKind {
        use BatchJobState::*;
        let legal = from.map_or(next == Queued, |f| f.can_transition_to(next));
        assert!(legal, "illegal batch job transition {from:?} -> {next:?}");
        match next {
            Queued => TraceKind::JobQueued,
            Starting => TraceKind::JobStarted,
            Running => TraceKind::JobRunning,
            Completed => TraceKind::JobCompleted,
            TimedOut => TraceKind::JobTimedOut,
            Cancelled => TraceKind::JobCancelled,
            // Only a request the machine can never fit fails in the queue.
            Failed if from == Some(Queued) => TraceKind::JobRejected,
            Failed => TraceKind::JobFailed,
        }
    }
}

/// A batch job tracked by the cluster. Its state changes only through the
/// cluster's one door; the trace holds every instant but the two the
/// scheduler reads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchJob {
    /// Job id.
    pub id: BatchJobId,
    /// The original request.
    pub description: BatchJobDescription,
    /// Current state.
    pub state: BatchJobState,
    /// Submission time.
    pub submitted_at: SimTime,
    /// When nodes were assigned.
    pub started_at: Option<SimTime>,
}

impl BatchJob {
    /// Creates a freshly queued job.
    pub fn new(id: BatchJobId, description: BatchJobDescription, now: SimTime) -> Self {
        BatchJob {
            id,
            description,
            state: BatchJobState::Queued,
            submitted_at: now,
            started_at: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Walks a submitted job through `path`, returning the records' names.
    fn walk(path: &[BatchJobState]) -> Vec<&'static str> {
        let mut from = None;
        path.iter()
            .map(|&next| {
                let event = BatchJobState::trace_event(from, next);
                from = Some(next);
                event.name()
            })
            .collect()
    }

    #[test]
    fn happy_path_transitions() {
        use BatchJobState::*;
        assert_eq!(
            walk(&[Queued, Starting, Running, Completed]),
            ["job_queued", "job_started", "job_running", "job_completed"]
        );
        assert!(Completed.is_terminal());
        // Failing in the queue is a rejection; failing later is not.
        assert_eq!(walk(&[Queued, Failed]), ["job_queued", "job_rejected"]);
        assert_eq!(walk(&[Queued, Starting, Failed])[2], "job_failed");
    }

    #[test]
    #[should_panic(expected = "illegal batch job transition")]
    fn cannot_run_without_starting() {
        walk(&[BatchJobState::Queued, BatchJobState::Running]);
    }

    #[test]
    #[should_panic(expected = "illegal batch job transition")]
    fn terminal_states_are_sticky() {
        use BatchJobState::*;
        walk(&[Queued, Cancelled, Starting]);
    }

    #[test]
    fn cancel_allowed_from_queue_and_run() {
        use BatchJobState::*;
        for path in [
            vec![Queued, Cancelled],
            vec![Queued, Starting, Cancelled],
            vec![Queued, Starting, Running, Cancelled],
        ] {
            assert_eq!(walk(&path).last(), Some(&"job_cancelled"));
        }
    }

    proptest! {
        /// No sequence of legal transitions escapes a terminal state.
        #[test]
        fn prop_terminal_states_absorb(steps in proptest::collection::vec(0usize..7, 1..20)) {
            use BatchJobState::*;
            let all = [Queued, Starting, Running, Completed, TimedOut, Cancelled, Failed];
            let mut state = Queued;
            for s in steps {
                let next = all[s];
                if state.can_transition_to(next) {
                    prop_assert!(!state.is_terminal());
                    state = next;
                }
            }
        }
    }
}
