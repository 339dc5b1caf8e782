//! The four workloads. Each body is a pure function of the seed and goes
//! through the public API only; the harness adds spans around its own
//! calls when handed a recording [`Ctx`].
//!
//! Why these four (the table in `README.md` has the long form):
//!
//! - `ensemble-100k`: one big untraced session. The time is in the event
//!   queue, the pilot runtime and the session engine; the service layer
//!   and the trace pipeline do nothing.
//! - `ensemble-fed-100k`: the same session through the windowed
//!   two-member drive and its worker-pool barrier.
//! - `serve-sim-fifo`: thousands of ~110-event traced sessions. The
//!   per-session fixed cost dominates and no event queue holds more than
//!   tens of entries, so a gain for big queues must not move it.
//! - `serve-fed-fair`: the service layer with the fair-share ledger and
//!   the windowed drive at sessions so small that its per-session pool
//!   spawn dominates.

use crate::spans::Ctx;
use entk_core::{
    ClusterSpec, DriveMode, EnsembleOfPipelines, EntkError, ExecutionReport, FederatedConfig,
    ResourceConfig, ResourceHandle, SimulatedConfig, SimulationAnalysisLoop,
};
use entk_kernels::KernelCall;
use entk_sim::SimDuration;
use entk_workload::{
    fnv64_update, ArrivalStream, EngineOptions, HotTenantTrace, ServiceConfig, ServiceEngine,
    SessionArrival, StreamBackend, SyntheticTrace, WorkloadConfig, WorkloadGenerator,
};
use serde::{Deserialize, Serialize};
use serde_json::json;
use std::io::Write;
use std::path::Path;

pub const DEFAULT_SEED: u64 = 2016;

/// How much smaller every body and probe runs under `--smoke`.
pub const SMOKE_SHRINK: usize = 100;

/// The machine every session's pilot is acquired on.
pub const RESOURCE: &str = "xsede.stampede";
/// Pilot size of the ensemble workloads (per member when federated).
const PILOT_CORES: usize = 1024;
/// Admission slots and tenant population of the serve workloads.
const SLOTS: usize = 64;
const TENANTS: u64 = 64;
/// Usage half-life of the fair-share ledger, seconds.
const FAIR_HALF_LIFE_SECS: f64 = 600.0;
/// Serve-engine knobs: read-ahead window and evaluation workers. Two
/// workers plus a main thread that blocks in `take` keep busy threads at
/// or under the core count of a two-core box.
const SERVE_OPTIONS: EngineOptions = EngineOptions {
    lookahead: 256,
    eval_workers: 2,
};

/// A wall time no session reaches (the value the service layer uses).
pub fn walltime() -> SimDuration {
    SimDuration::from_secs(10_000_000)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Ensemble,
    EnsembleFed,
    ServeSim,
    ServeFed,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Tasks per pattern (ensemble) or sessions per stream (serve).
    pub size: usize,
    /// Fewest timed bodies a run may report a median from.
    pub min_bodies: usize,
}

/// Body sizes are part of the benchmark's definition: changing one starts
/// a new trajectory.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ensemble-100k",
        kind: Kind::Ensemble,
        size: 100_000,
        min_bodies: 8,
    },
    Workload {
        name: "ensemble-fed-100k",
        kind: Kind::EnsembleFed,
        size: 100_000,
        min_bodies: 8,
    },
    Workload {
        name: "serve-sim-fifo",
        kind: Kind::ServeSim,
        size: 4_000,
        min_bodies: 16,
    },
    Workload {
        name: "serve-fed-fair",
        kind: Kind::ServeFed,
        size: 2_000,
        min_bodies: 12,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The smoke variant: smaller bodies, for the integration test.
    pub fn smoke(self) -> Workload {
        Workload {
            size: self.size / SMOKE_SHRINK,
            min_bodies: 3,
            ..self
        }
    }

    pub fn is_serve(&self) -> bool {
        matches!(self.kind, Kind::ServeSim | Kind::ServeFed)
    }
}

/// What a body computed, reduced to what must repeat exactly: across the
/// bodies of a run, across runs of one seed, and across commits. Only host
/// time may differ.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Projection {
    pub events: u64,
    pub tasks: u64,
    pub ttc_us: u64,
    pub sessions: u64,
    pub sessions_not_ok: u64,
    pub stream_fp: String,
    pub jsonl_bytes: u64,
}

/// Events of the two pattern runs of an ensemble body, for the per-pattern
/// rates of the traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PatternEvents {
    pub eop: u64,
    pub sal: u64,
}

fn sleep_call() -> KernelCall {
    KernelCall::new("misc.sleep", json!({ "secs": 10.0 }))
}

pub fn eop_pattern(tasks: usize) -> EnsembleOfPipelines {
    EnsembleOfPipelines::new(tasks, 1, |_, _| sleep_call())
}

fn sal_pattern(sims: usize) -> SimulationAnalysisLoop {
    SimulationAnalysisLoop::new(
        1,
        sims,
        |_, _| sleep_call(),
        |_, outs| vec![KernelCall::new("ana.coco", json!({ "n_sims": outs.len() }))],
    )
}

fn ensemble_handle(kind: Kind, seed: u64, drive: DriveMode) -> Result<ResourceHandle, EntkError> {
    match kind {
        Kind::Ensemble => ResourceHandle::simulated(
            ResourceConfig::new(RESOURCE, PILOT_CORES, walltime()),
            SimulatedConfig {
                seed,
                telemetry: false,
                ..SimulatedConfig::default()
            },
        ),
        _ => ResourceHandle::federated(FederatedConfig {
            seed,
            telemetry: false,
            drive,
            sim_threads: 2,
            clusters: (0..2)
                .map(|_| ClusterSpec::new(RESOURCE, PILOT_CORES, walltime()))
                .collect(),
            ..FederatedConfig::default()
        }),
    }
}

/// Folds the per-task timeline into the stream fingerprint, so that a
/// change to any task's simulated execution window shows, not only a
/// change to the total.
fn fold_tasks(mut fp: u64, report: &ExecutionReport) -> u64 {
    for t in &report.tasks {
        let start = t.exec_start.map_or(u64::MAX, |t| t.as_micros());
        let stop = t.exec_stop.map_or(u64::MAX, |t| t.as_micros());
        fp = fnv64_update(fp, &start.to_le_bytes());
        fp = fnv64_update(fp, &stop.to_le_bytes());
    }
    fp
}

/// One ensemble body: build both patterns, acquire the pilot(s), run the
/// ensemble of pipelines and then the simulation-analysis loop on the same
/// allocation, release it. Returns the body's wall time, taken up to the
/// drop of the handle; the reports are reduced and dropped after the clock
/// stops.
pub fn ensemble_body(
    w: Workload,
    seed: u64,
    drive: DriveMode,
    ctx: Ctx,
) -> Result<(f64, Projection, PatternEvents), EntkError> {
    let t0 = std::time::Instant::now();
    let (mut eop, mut sal) = ctx.span("core.pattern.build", |_| {
        (eop_pattern(w.size), sal_pattern(w.size))
    });
    let mut handle = ctx.span("core.resource.construct", |_| {
        ensemble_handle(w.kind, seed, drive)
    })?;
    ctx.span("core.resource.allocate", |_| handle.allocate())?;
    let eop_report = ctx.span("core.resource.run.eop", |_| handle.run(&mut eop))?;
    let sal_report = ctx.span("core.resource.run.sal", |_| handle.run(&mut sal))?;
    let session = ctx.span("core.resource.deallocate", |_| handle.deallocate())?;
    ctx.span("core.resource.drop", |_| drop((handle, eop, sal)));
    let wall = t0.elapsed().as_secs_f64();

    let fp = fold_tasks(entk_workload::fnv64(b""), &session);
    let incomplete = [&eop_report, &sal_report, &session]
        .iter()
        .any(|r| r.partial);
    let projection = Projection {
        events: session.events,
        tasks: session.task_count() as u64,
        ttc_us: session.ttc.as_micros(),
        sessions: 1,
        sessions_not_ok: u64::from(incomplete),
        stream_fp: format!("{fp:016x}"),
        jsonl_bytes: 0,
    };
    let events = PatternEvents {
        eop: eop_report.events,
        sal: sal_report.events - eop_report.events,
    };
    Ok((wall, projection, events))
}

/// The arrival stream of a serve workload: a pure function of the seed.
pub fn arrivals(w: Workload, seed: u64) -> Result<Box<dyn ArrivalStream>, EntkError> {
    match w.kind {
        Kind::ServeSim => SyntheticTrace::new(seed, w.size, TENANTS).stream(),
        _ => HotTenantTrace::new(seed, w.size, TENANTS).stream(),
    }
}

/// The stream-level configuration of a serve workload.
pub fn stream_config(w: Workload, seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        seed,
        resource: RESOURCE.to_string(),
        slots: SLOTS,
        backend: match w.kind {
            Kind::ServeSim => StreamBackend::Simulated,
            _ => StreamBackend::Federated { members: 2 },
        },
        ..WorkloadConfig::default()
    }
}

/// Arrival stream that records one span per pull (none under [`Ctx::OFF`]).
struct SpannedArrivals {
    inner: Box<dyn ArrivalStream>,
    ctx: Ctx,
}

impl ArrivalStream for SpannedArrivals {
    fn next_arrival(&mut self) -> Result<Option<SessionArrival>, EntkError> {
        let inner = &mut self.inner;
        self.ctx
            .span("workload.arrival.next", |_| inner.next_arrival())
    }

    fn remaining_hint(&self) -> Option<usize> {
        self.inner.remaining_hint()
    }
}

/// Sink that counts bytes and records one span per write (none under
/// [`Ctx::OFF`]).
struct SpannedSink<W> {
    inner: W,
    ctx: Ctx,
    bytes: u64,
}

impl<W: Write> Write for SpannedSink<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let inner = &mut self.inner;
        let n = self.ctx.span("workload.sink.write", |_| inner.write(buf))?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// One serve body: open the arrival stream, build the service (which
/// spawns its evaluation pool and fills the read-ahead window), stream
/// every record into `out_path`, and tear the service down. Returns the
/// body's wall time, the projection and the bytes that reached the sink.
pub fn serve_body(
    w: Workload,
    seed: u64,
    out_path: &Path,
    ctx: Ctx,
) -> Result<(f64, Projection, u64), EntkError> {
    let t0 = std::time::Instant::now();
    let config = match w.kind {
        Kind::ServeSim => ServiceConfig::fifo(stream_config(w, seed)),
        _ => ServiceConfig::fair_share(stream_config(w, seed), FAIR_HALF_LIFE_SECS),
    };
    let file = std::fs::File::create(out_path)
        .map_err(|e| EntkError::Resource(format!("creating {}: {e}", out_path.display())))?;
    // Arrival pulls and sink writes happen inside both phases below, so
    // they hang from the span that covers the whole serve.
    let (stats, sink_bytes) = ctx.span("workload.service.serve", |ctx| {
        let engine = ctx.span("workload.service.construct", |_| {
            let stream = SpannedArrivals {
                inner: arrivals(w, seed)?,
                ctx,
            };
            ServiceEngine::with_options(config, stream, SERVE_OPTIONS)
        })?;
        ctx.span("workload.service.run_streaming", |_| {
            // The service hands over one record per write; buffering them
            // is what a caller streaming to a file does.
            let mut sink = SpannedSink {
                inner: std::io::BufWriter::new(file),
                ctx,
                bytes: 0,
            };
            let stats = engine.run_streaming(&mut sink)?;
            sink.flush()
                .map_err(|e| EntkError::Resource(format!("flushing stream JSONL: {e}")))?;
            Ok::<_, EntkError>((stats, sink.bytes))
        })
    })?;
    let wall = t0.elapsed().as_secs_f64();

    let projection = Projection {
        events: stats.total_events,
        tasks: stats.total_tasks as u64,
        ttc_us: (stats.makespan_secs * 1e6).round() as u64,
        sessions: stats.sessions as u64,
        sessions_not_ok: (stats.sessions - stats.ok_sessions) as u64,
        stream_fp: stats.stream_fp,
        jsonl_bytes: stats.jsonl_bytes,
    };
    Ok((wall, projection, sink_bytes))
}

/// Runs one body of any workload, discarding what only the traced run
/// reads.
pub fn body(
    w: Workload,
    seed: u64,
    out_path: &Path,
    ctx: Ctx,
) -> Result<(f64, Projection), EntkError> {
    if w.is_serve() {
        serve_body(w, seed, out_path, ctx).map(|(wall, p, _)| (wall, p))
    } else {
        ensemble_body(w, seed, DriveMode::Parallel, ctx).map(|(wall, p, _)| (wall, p))
    }
}
