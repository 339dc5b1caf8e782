//! Batch jobs: the unit of resource acquisition on a simulated cluster.
//!
//! A batch job is a container allocation (in our stack: a pilot). Its
//! lifecycle follows the classic batch-system state machine with validated
//! transitions.

use entk_sim::{SimDuration, SimTime};
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
}

/// A batch job tracked by the cluster.
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
    /// When the job became eligible for scheduling (after modelled queue wait).
    pub eligible_at: Option<SimTime>,
    /// When nodes were assigned.
    pub started_at: Option<SimTime>,
    /// When the payload began running (after startup).
    pub running_at: Option<SimTime>,
    /// When the job reached a terminal state.
    pub finished_at: Option<SimTime>,
}

impl BatchJob {
    /// Creates a freshly queued job.
    pub fn new(id: BatchJobId, description: BatchJobDescription, now: SimTime) -> Self {
        BatchJob {
            id,
            description,
            state: BatchJobState::Queued,
            submitted_at: now,
            eligible_at: None,
            started_at: None,
            running_at: None,
            finished_at: None,
        }
    }

    /// Applies a state transition, panicking on illegal ones (these indicate
    /// simulator bugs, not user errors).
    pub fn transition(&mut self, next: BatchJobState, now: SimTime) {
        assert!(
            self.state.can_transition_to(next),
            "illegal batch job transition {:?} -> {:?} for {}",
            self.state,
            next,
            self.id
        );
        self.state = next;
        match next {
            BatchJobState::Starting => self.started_at = Some(now),
            BatchJobState::Running => self.running_at = Some(now),
            s if s.is_terminal() => self.finished_at = Some(now),
            _ => {}
        }
    }

    /// Queue wait actually experienced (submission to node assignment).
    pub fn queue_wait(&self) -> Option<SimDuration> {
        self.started_at
            .map(|s| s.saturating_since(self.submitted_at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn desc() -> BatchJobDescription {
        BatchJobDescription::new("test", 8, SimDuration::from_secs(3600))
    }

    #[test]
    fn happy_path_transitions() {
        let mut job = BatchJob::new(BatchJobId(1), desc(), SimTime::ZERO);
        job.transition(BatchJobState::Starting, SimTime::from_secs(10));
        job.transition(BatchJobState::Running, SimTime::from_secs(12));
        job.transition(BatchJobState::Completed, SimTime::from_secs(100));
        assert_eq!(job.queue_wait(), Some(SimDuration::from_secs(10)));
        assert_eq!(job.finished_at, Some(SimTime::from_secs(100)));
        assert!(job.state.is_terminal());
    }

    #[test]
    #[should_panic(expected = "illegal batch job transition")]
    fn cannot_run_without_starting() {
        let mut job = BatchJob::new(BatchJobId(1), desc(), SimTime::ZERO);
        job.transition(BatchJobState::Running, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "illegal batch job transition")]
    fn terminal_states_are_sticky() {
        let mut job = BatchJob::new(BatchJobId(1), desc(), SimTime::ZERO);
        job.transition(BatchJobState::Cancelled, SimTime::ZERO);
        job.transition(BatchJobState::Starting, SimTime::ZERO);
    }

    #[test]
    fn cancel_allowed_from_queue_and_run() {
        for path in [
            vec![BatchJobState::Cancelled],
            vec![BatchJobState::Starting, BatchJobState::Cancelled],
            vec![
                BatchJobState::Starting,
                BatchJobState::Running,
                BatchJobState::Cancelled,
            ],
        ] {
            let mut job = BatchJob::new(BatchJobId(1), desc(), SimTime::ZERO);
            for s in path {
                job.transition(s, SimTime::ZERO);
            }
            assert_eq!(job.state, BatchJobState::Cancelled);
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
