//! # entk-saga — standardized job-submission layer (SAGA/JSDL stand-in)
//!
//! EnTK (paper §III-C1) submits work through the SAGA API, which follows the
//! Job Submission Description Language. This crate reproduces that layer:
//! uniform [`JobDescription`]s, the SAGA job state model, and two adapters
//! selected by resource URL — `batch+sim://<machine>` targeting the
//! discrete-event cluster model, and `fork://localhost` executing real
//! closures on host threads.

#![warn(missing_docs)]

pub mod description;
pub mod fork_service;
pub mod job;
pub mod sim_service;
pub mod url;

pub use description::JobDescription;
pub use fork_service::{ForkCompletion, ForkJobService, ForkPayload};
pub use job::{JobState, JobUpdate, SagaJobId};
pub use sim_service::SimJobService;
pub use url::{ResourceUrl, Scheme, UrlParseError};
