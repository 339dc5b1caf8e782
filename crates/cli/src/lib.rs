//! # entk-cli — JSON workload runner for the Ensemble Toolkit
//!
//! Declares workloads as JSON (resource + pattern + kernel templates with
//! `$placeholder` substitution) and runs them on the simulated, federated
//! or local backend; [`Document`] loads a spec file as the single-session
//! or stream spec it is. See `examples/specs/` for ready-made specs and the `entk`
//! binary for the command-line interface.

#![warn(missing_docs)]

pub mod spec;

pub use spec::{
    BackgroundSpec, Document, KernelSpec, PatternSpec, ResourceSpec, TuningSpec, WorkloadSpec,
};
