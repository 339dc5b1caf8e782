//! Pilot and compute-unit state machines.
//!
//! Mirrors RADICAL-Pilot's models (Merzky et al., arXiv:1512.08194), collapsed
//! to the states that matter for overhead accounting: a pilot is a container
//! job; a compute unit traverses manager-side scheduling, input staging,
//! execution on pilot cores, and output staging.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a pilot within one runtime session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PilotId(pub u64);

impl fmt::Display for PilotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pilot.{:04}", self.0)
    }
}

/// Identifier of a compute unit within one runtime session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct UnitId(pub u64);

impl fmt::Display for UnitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unit.{:06}", self.0)
    }
}

/// Pilot lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PilotState {
    /// Described, not yet submitted to the resource.
    New,
    /// Submitted; container job queued or starting on the resource.
    Launching,
    /// Agent running; units may execute.
    Active,
    /// Finished normally (all work done, resources released).
    Done,
    /// Cancelled by the application.
    Canceled,
    /// Failed (rejected, or killed by wall time).
    Failed,
}

impl PilotState {
    /// True for states a pilot can never leave.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            PilotState::Done | PilotState::Canceled | PilotState::Failed
        )
    }

    /// Whether `self -> next` is legal.
    pub fn can_transition_to(self, next: PilotState) -> bool {
        use PilotState::*;
        matches!(
            (self, next),
            (New, Launching)
                | (New, Failed)
                | (New, Canceled)
                | (Launching, Active)
                | (Launching, Canceled)
                | (Launching, Failed)
                | (Active, Done)
                | (Active, Canceled)
                | (Active, Failed)
        )
    }

    /// The pilot layer's trace record of a pilot entering `next` from
    /// `from` (`None`: just submitted). A `New` pilot cancelled before it
    /// reached the batch system records nothing. Panics on a transition the
    /// model forbids, which is a simulator bug, not a user error.
    pub(crate) fn trace_event(from: Option<PilotState>, next: PilotState) -> Option<&'static str> {
        use PilotState::*;
        let legal = from.map_or(next == New, |f| f.can_transition_to(next));
        assert!(legal, "illegal pilot transition {from:?} -> {next:?}");
        match next {
            New => Some("pilot_submitted"),
            Launching => Some("pilot_launched"),
            Active => Some("pilot_active"),
            Done => Some("pilot_done"),
            Canceled if from == Some(New) => None,
            Canceled => Some("pilot_cancelled"),
            Failed => Some("pilot_failed"),
        }
    }
}

/// Compute-unit lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnitState {
    /// Accepted by the unit manager.
    New,
    /// Waiting for / being assigned to a pilot with free cores.
    Scheduling,
    /// Input staging to the target resource.
    StagingInput,
    /// Executing on pilot cores.
    Executing,
    /// Output staging from the resource.
    StagingOutput,
    /// Finished successfully.
    Done,
    /// Cancelled by the application.
    Canceled,
    /// Failed during staging or execution.
    Failed,
}

impl UnitState {
    /// True for states a unit can never leave.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            UnitState::Done | UnitState::Canceled | UnitState::Failed
        )
    }

    /// Whether `self -> next` is legal.
    pub fn can_transition_to(self, next: UnitState) -> bool {
        use UnitState::*;
        if self == next {
            return false;
        }
        match self {
            New => matches!(next, Scheduling | Canceled | Failed),
            Scheduling => matches!(next, StagingInput | Canceled | Failed),
            StagingInput => matches!(next, Executing | Canceled | Failed),
            Executing => matches!(next, StagingOutput | Done | Canceled | Failed),
            StagingOutput => matches!(next, Done | Canceled | Failed),
            Done | Canceled | Failed => false,
        }
    }

    /// The pilot layer's trace record of a unit entering `next` from `from`
    /// (`None`: just submitted). Entering `Scheduling` or `StagingOutput`
    /// records nothing; `unit_exec_stop` marks the end of execution, not a
    /// transition, and is written where execution ends. Panics on a
    /// transition the model forbids, which is a simulator bug.
    pub(crate) fn trace_event(from: Option<UnitState>, next: UnitState) -> Option<&'static str> {
        use UnitState::*;
        let legal = from.map_or(next == New, |f| f.can_transition_to(next));
        assert!(legal, "illegal unit transition {from:?} -> {next:?}");
        match next {
            New => Some("unit_submitted"),
            Scheduling | StagingOutput => None,
            StagingInput => Some("unit_scheduled"),
            Executing => Some("unit_exec_start"),
            Done => Some("unit_done"),
            Canceled => Some("unit_canceled"),
            Failed => Some("unit_failed"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pilot_happy_path() {
        use PilotState::*;
        let mut s = New;
        for next in [Launching, Active, Done] {
            assert!(s.can_transition_to(next), "{s:?} -> {next:?}");
            s = next;
        }
        assert!(s.is_terminal());
    }

    #[test]
    fn unit_happy_path_with_and_without_staging_out() {
        use UnitState::*;
        for path in [
            vec![Scheduling, StagingInput, Executing, StagingOutput, Done],
            vec![Scheduling, StagingInput, Executing, Done],
        ] {
            let mut s = New;
            for next in path {
                assert!(s.can_transition_to(next), "{s:?} -> {next:?}");
                s = next;
            }
            assert_eq!(s, Done);
        }
    }

    #[test]
    fn unit_cancel_possible_everywhere_before_terminal() {
        use UnitState::*;
        for s in [New, Scheduling, StagingInput, Executing, StagingOutput] {
            assert!(s.can_transition_to(Canceled), "{s:?}");
        }
        for s in [Done, Canceled, Failed] {
            assert!(!s.can_transition_to(Canceled), "{s:?}");
        }
    }

    #[test]
    fn no_self_transitions() {
        use UnitState::*;
        for s in [
            New,
            Scheduling,
            StagingInput,
            Executing,
            StagingOutput,
            Done,
        ] {
            assert!(!s.can_transition_to(s));
        }
    }

    proptest! {
        /// Terminal unit states absorb all transition attempts.
        #[test]
        fn prop_unit_terminals_absorb(seq in proptest::collection::vec(0usize..8, 1..32)) {
            use UnitState::*;
            let all = [New, Scheduling, StagingInput, Executing, StagingOutput, Done, Canceled, Failed];
            let mut s = New;
            for i in seq {
                let next = all[i];
                if s.can_transition_to(next) {
                    prop_assert!(!s.is_terminal());
                    s = next;
                }
            }
        }
    }
}
