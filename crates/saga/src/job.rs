//! SAGA job ids, state updates and the SAGA job state model.

use entk_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a SAGA job within one service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SagaJobId(pub u64);

impl fmt::Display for SagaJobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "saga.job.{:06}", self.0)
    }
}

/// SAGA job states (GFD.90 model, without `Suspended` which no adapter here
/// produces).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JobState {
    /// Created, not yet accepted by the backend.
    New,
    /// Accepted; waiting for resources.
    Pending,
    /// Executing.
    Running,
    /// Finished successfully.
    Done,
    /// Cancelled by the user.
    Canceled,
    /// Failed (including wall-time kills).
    Failed,
}

impl JobState {
    /// True for states a job can never leave.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Canceled | JobState::Failed)
    }

    /// Whether `self -> next` is legal in the SAGA state diagram.
    pub fn can_transition_to(self, next: JobState) -> bool {
        use JobState::*;
        matches!(
            (self, next),
            (New, Pending)
                | (New, Failed)
                | (New, Canceled)
                | (Pending, Running)
                | (Pending, Canceled)
                | (Pending, Failed)
                | (Running, Done)
                | (Running, Canceled)
                | (Running, Failed)
        )
    }

    /// `next`, once `self -> next` is checked against the model; panics on
    /// a step the model forbids, which is a simulator bug, not a user error.
    pub(crate) fn step(self, next: JobState) -> JobState {
        assert!(
            self.can_transition_to(next),
            "illegal SAGA job transition {self:?} -> {next:?}"
        );
        next
    }
}

/// A state-change notification delivered to the submitting layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobUpdate {
    /// The job.
    pub id: SagaJobId,
    /// New state.
    pub state: JobState,
    /// When it changed.
    pub time: SimTime,
    /// Optional adapter detail (e.g. failure reason).
    pub detail: Option<String>,
    /// Cores lost to a node crash while the job keeps running. When set,
    /// `state` repeats the job's current state rather than a transition.
    pub shrunk_by: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_happy_path() {
        use JobState::*;
        let end = New.step(Pending).step(Running).step(Done);
        assert!(end.is_terminal());
    }

    #[test]
    #[should_panic(expected = "illegal SAGA job transition")]
    fn done_is_terminal() {
        use JobState::*;
        New.step(Pending).step(Running).step(Done).step(Running);
    }

    #[test]
    fn every_terminal_state_is_reachable() {
        use JobState::*;
        for (path, end) in [
            (vec![Pending, Running, Done], Done),
            (vec![Pending, Canceled], Canceled),
            (vec![Pending, Running, Failed], Failed),
            (vec![Failed], Failed),
        ] {
            let state = path.into_iter().fold(New, JobState::step);
            assert_eq!(state, end);
            assert!(state.is_terminal());
        }
    }
}
