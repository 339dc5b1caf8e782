//! # entk-sim — deterministic discrete-event simulation engine
//!
//! Foundation of the Ensemble Toolkit reproduction. The paper's experiments
//! ran on XSEDE clusters with up to 4096 cores; this crate provides the
//! virtual clock, event queue, seeded randomness, metric collectors, and
//! structured tracing with which those machines — and the pilot runtime on
//! top of them — are simulated faithfully and reproducibly on one host.
//!
//! Layers build a single top-level event enum with `From` conversions and
//! drive an [`Engine`]; see `entk-cluster` and `entk-pilot` for usage.

#![warn(missing_docs)]

pub mod arena;
pub mod compat;
pub mod engine;
pub mod event;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use engine::{Context, Engine};
pub use event::{EventId, EventQueue};
pub use pool::{Job, WorkerPool};
pub use rng::{Dist, SimRng};
pub use stats::{Summary, TimeSeries};
pub use time::{SimDuration, SimTime};
pub use trace::{
    Fnv64, SharedTelemetry, Subject, SubjectOffsets, Telemetry, TelemetryBuffer, TraceKind,
    TraceRecord, Tracer,
};
