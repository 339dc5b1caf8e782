//! # entk-saga — the `fork://` job service (SAGA stand-in)
//!
//! EnTK (paper §III-C1) submits work through the SAGA API, whose adapters
//! let one pilot system drive several batch systems. This reproduction has
//! one simulated batch system, and the pilot runtime submits its container
//! jobs to it directly (`entk_cluster::BatchJobDescription`). What remains
//! here is the `fork://localhost` adapter: [`ForkJobService`] runs real
//! closures on host threads for the toolkit's local backend.

#![warn(missing_docs)]

mod fork_service;
mod job;

pub use fork_service::{ForkCompletion, ForkJobService, ForkPayload};
pub use job::SagaJobId;
