//! # entk-pilot — pilot-job runtime (RADICAL-Pilot stand-in)
//!
//! The paper's runtime system (§III-C2): pilots are container jobs submitted
//! through SAGA that provide application-level scheduling of any number of
//! compute units onto acquired cores — decoupling the workload's total
//! resource needs from what is instantaneously available.
//!
//! Two runtimes share the same descriptions and state models:
//! [`SimRuntime`] executes in virtual time on `entk-cluster` machines (all
//! scaling experiments), and [`LocalRuntime`] executes real closures on host
//! threads (validation and examples).

#![warn(missing_docs)]

pub mod description;
pub mod local_runtime;
pub mod overheads;
pub mod scheduler;
pub mod sim_runtime;
pub mod states;

pub use description::{
    PilotDescription, StagingDirection, StagingDirective, UnitDescription, UnitWork,
};
pub use local_runtime::{LocalCompletion, LocalRuntime};
pub use overheads::RuntimeOverheads;
pub use scheduler::{
    FirstFitScheduler, LargestFirstScheduler, PilotView, Placement, RoundRobinScheduler,
    UnitScheduler, UnitView,
};
pub use sim_runtime::{
    RuntimeEvent, RuntimeEventSink, RuntimeNotification, SimRuntime, SimRuntimeConfig,
};
pub use states::{PilotId, PilotState, UnitId, UnitState};
