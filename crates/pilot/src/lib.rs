//! # entk-pilot — pilot-job runtime (RADICAL-Pilot stand-in)
//!
//! The paper's runtime system (§III-C2): pilots are container jobs submitted
//! to a batch system that provide application-level scheduling of any number
//! of compute units onto acquired cores — decoupling the workload's total
//! resource needs from what is instantaneously available.
//!
//! [`SimRuntime`] executes units in virtual time on one `entk-cluster`
//! machine it owns: a pilot's container job is a `BatchJobDescription`
//! submitted straight to that cluster and known by its `BatchJobId`.
//! Real execution needs no pilot: the toolkit's local backend hands kernels
//! straight to the `fork://` adapter (`entk_saga::ForkJobService`).

#![warn(missing_docs)]

pub mod compat;
pub mod description;
pub mod overheads;
pub mod scheduler;
pub mod sim_runtime;
pub mod states;

pub use description::{PilotDescription, UnitDescription};
pub use overheads::RuntimeOverheads;
pub use scheduler::{
    FirstFitScheduler, LargestFirstScheduler, PilotView, Placement, UnitScheduler, UnitView,
};
pub use sim_runtime::{
    RuntimeEvent, RuntimeEventSink, RuntimeNotification, SimRuntime, SimRuntimeConfig, UnitOrder,
};
pub use states::{PilotId, PilotState, UnitId, UnitState};
