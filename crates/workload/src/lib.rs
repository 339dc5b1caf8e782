//! # entk-workload — trace-driven open-loop workload layer
//!
//! Everything below this crate runs *one* session: a pattern, a resource,
//! a report. This crate pivots the toolkit from "run a pattern" to "serve
//! a stream": seeded arrival processes and CSV traces describe thousands
//! of tenants submitting heterogeneous ensemble sessions (EoP / SAL / EE /
//! PST, varied shapes and kernels), and a deterministic stream runner
//! admits them onto the simulated or federated backend through the
//! existing `SessionEngine` / `ExecutionBackend` seam.
//!
//! Three [`WorkloadGenerator`] implementations:
//!
//! 1. [`OpenLoopProcess`] — seeded Poisson or bursty arrivals over a
//!    tenant population;
//! 2. [`CsvTrace`] — an Alibaba/Google-style CSV schema
//!    (`arrival_time,tenant,pattern,tasks,stages,kernel,cores`);
//! 3. [`SyntheticTrace`] — an in-repo deterministic mixture whose CSV
//!    rendering means CI never needs external trace data.
//!
//! The session service ([`ServiceEngine`], FIFO by default) admits the
//! stream through a live event-driven loop with pluggable
//! policies — FIFO or fair-share over a per-tenant [usage ledger]
//! (entk_cluster::UsageLedger) — bounded-queue backpressure (reject or
//! defer), per-session failure records (`ok | partial | failed |
//! rejected`, never stream-fatal unless `strict`), and arrival-boundary
//! checkpoint/restore. It reports per-tenant latency percentiles,
//! queue-depth time series replayed from the records, and makespan under
//! contention. Determinism is end to end: same seed or trace ⇒
//! byte-identical stream JSONL and report — including across a
//! checkpoint/resume, which replays to a byte-identical suffix — with
//! every admitted session's own event trace fingerprinted and
//! cross-checked against its overhead accounting.

#![warn(missing_docs)]

pub mod arrival;
pub mod runner;
pub mod service;
pub mod sink;
pub mod spec;
pub mod trace;

pub use arrival::{
    ArrivalProcess, ArrivalStream, IntoArrivalStream, OpenLoopProcess, PatternKind, SessionArrival,
    VecStream, WorkloadGenerator, SUPPORTED_KERNELS,
};
pub use runner::{
    fnv64, fnv64_update, render_record, SessionRecord, SessionStatus, StreamBackend, TenantLatency,
    WorkloadConfig, WorkloadReport,
};
pub use service::{
    admission_policies, session_seed, AdmissionPolicy, EngineOptions, SaturationMode, ServeStats,
    ServiceCheckpoint, ServiceConfig, ServiceEngine,
};
pub use sink::{sinks, GaugesSink, JsonlSink, ReportSink, SummarySink};
pub use spec::{sources, SourceCtx, SourceDecl, StreamSpec};
pub use trace::{
    parse_trace, render_trace, CsvStream, CsvTrace, HotTenantTrace, SyntheticTrace, TRACE_HEADER,
};
