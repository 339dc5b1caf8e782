//! # entk-core — the Ensemble Toolkit
//!
//! Rust reproduction of *Ensemble Toolkit: Scalable and Flexible Execution
//! of Ensembles of Tasks* (ICPP 2016). The four architectural components of
//! the paper's Fig. 1 map directly onto this crate:
//!
//! 1. **Execution patterns** ([`pattern`]) — ensemble of pipelines,
//!    ensemble exchange, simulation-analysis loop, plus composition.
//! 2. **Kernel plugins** (re-exported from `entk-kernels`) — task
//!    abstractions bound into patterns via [`entk_kernels::KernelCall`].
//! 3. **Resource handle** ([`ResourceHandle`]) — allocate / run / deallocate.
//! 4. **Execution plugins** (internal) — bind pattern × kernels × resource
//!    and drive the pilot runtime, on a simulated machine (virtual time,
//!    used by all scaling experiments) or the local host (real execution).
//!
//! ```no_run
//! use entk_core::prelude::*;
//! use serde_json::json;
//!
//! // Character-count app from the paper's Fig. 3: mkfile then ccount.
//! let mut pattern = EnsembleOfPipelines::new(24, 2, |p, s| {
//!     if s == 0 {
//!         KernelCall::new("misc.mkfile", json!({"bytes": 1024, "path": format!("/tmp/f{p}")}))
//!     } else {
//!         KernelCall::new("misc.ccount", json!({"path": format!("/tmp/f{p}")}))
//!     }
//! }).with_stage_labels(vec!["mkfile".into(), "ccount".into()]);
//!
//! let config = ResourceConfig::new("xsede.comet", 24, SimDuration::from_secs(3600));
//! let report = run_simulated(config, SimulatedConfig::default(), &mut pattern).unwrap();
//! println!("TTC {} with {} tasks", report.ttc, report.task_count());
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod binding;
pub mod compat;
pub mod error;
pub mod fault;
pub mod overheads;
pub mod pattern;
mod plugin_local;
mod plugin_sim;
pub mod registry;
pub mod report;
pub mod resource;
pub mod session;
pub mod task;
pub mod trace_check;

pub use backend::{BackendEvent, BackendStats, ExecutionBackend, Poll, UnitOutcome};
pub use binding::{AdaptiveMpiBinding, BindingPolicy, StaticBinding};
pub use compat::{DriveMode, UnitSpec};
pub use entk_cluster::FaultProfile;
pub use error::EntkError;
pub use fault::{BackoffPolicy, FaultConfig};
pub use overheads::EntkOverheads;
pub use pattern::{
    BagOfTasks, ConcurrentPatterns, EnsembleExchange, EnsembleOfPipelines, ExchangeMode,
    ExecutionPattern, Pipeline, PstTask, PstWorkflow, SequencePattern, SimulationAnalysisLoop,
    Stage,
};
pub use registry::{ComponentSpec, NoParams, Registry, SpecDoc};
pub use report::{ExecutionReport, OverheadBreakdown, TaskRecord, TaskRecords};
pub use resource::{
    max_unit_cores, run_federated, run_federated_traced, run_simulated, run_simulated_traced,
    ClusterSpec, FederatedConfig, PilotStrategy, ResourceConfig, ResourceHandle, SimulatedConfig,
};
pub use session::SessionEngine;
pub use task::{Task, TaskResult};
pub use trace_check::{breakdown_from_trace, cross_check, CrossCheck};

/// Everything a toolkit application needs.
pub mod prelude {
    pub use crate::compat::DriveMode;
    pub use crate::fault::{BackoffPolicy, FaultConfig};
    pub use crate::overheads::EntkOverheads;
    pub use crate::pattern::{
        BagOfTasks, ConcurrentPatterns, EnsembleExchange, EnsembleOfPipelines, ExchangeMode,
        ExecutionPattern, Pipeline, PstTask, PstWorkflow, SequencePattern, SimulationAnalysisLoop,
        Stage,
    };
    pub use crate::report::ExecutionReport;
    pub use crate::resource::{
        run_federated, run_federated_traced, run_simulated, run_simulated_traced, ClusterSpec,
        FederatedConfig, PilotStrategy, ResourceConfig, ResourceHandle, SimulatedConfig,
    };
    pub use crate::task::{Task, TaskResult};
    pub use crate::trace_check::{breakdown_from_trace, cross_check, CrossCheck};
    pub use entk_cluster::FaultProfile;
    pub use entk_kernels::{KernelCall, KernelRegistry};
    pub use entk_md::TemperatureLadder;
    pub use entk_sim::{SimDuration, SimTime, Telemetry, Tracer};
}
