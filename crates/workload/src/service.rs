//! The multi-tenant session service: a live, event-driven admission loop
//! over pluggable policies, with bounded-queue backpressure and
//! checkpoint/restore at arrival boundaries (the codec is the
//! [`checkpoint`] module).
//!
//! ## Model
//!
//! [`ServiceEngine`] replaces the precomputed-FIFO-only recursion the
//! stream runner started with. The engine is a discrete-event loop over
//! two event sources — the arrival *stream* and the in-flight completion
//! heap — with the documented tie order (a completion at `t` is applied
//! before an arrival at `t`, which is applied before any admission at
//! `t`, so a freed slot is always visible to a session admitted at the
//! same instant). After every event the engine runs an admission step:
//! while a slot is free and sessions are pending, the configured
//! [`AdmissionPolicy`] picks the next session.
//!
//! ## Out-of-core streaming
//!
//! Arrivals are *pulled* through an [`ArrivalStream`] — a CSV file, a
//! lazy synthetic generator, or a plain `Vec` — rather than materialized
//! up front, and each session's service time is evaluated just-in-time on
//! a persistent [`entk_sim::WorkerPool`] as its row enters the bounded
//! read-ahead window ([`EngineOptions::lookahead`]). Because a service
//! time is a pure function of (config, arrival, per-session seed), the
//! evaluation *order* is irrelevant to the output: the lazy engine is
//! byte-identical to the old evaluate-everything-upfront pass, and the
//! `lookahead` / `eval_workers` knobs provably cannot change a single
//! byte (property-tested).
//!
//! ## One emission point
//!
//! There is one event loop and one place a record leaves it. Finalized
//! records wait in a small reorder window until every lower-index session
//! is finalized; the emission step then pops the contiguous prefix and,
//! per record, folds the running [`ServeStats`], renders the stream line
//! once, folds fingerprint and byte count, and hands the line to the
//! caller's writer and `(line, &record)` to every attached [`ReportSink`].
//! Every drive — [`ServiceEngine::run_to_boundary`], [`ServiceEngine::run`]
//! and [`ServiceEngine::run_streaming`] — takes that writer, so a line is
//! written when it is emitted and never rendered again.
//! [`ServiceEngine::run`] additionally *retains* each emitted record —
//! once: the record log is what checkpoints carry and what moves into the
//! [`WorkloadReport`]. [`ServiceEngine::run_streaming`] retains nothing:
//! resident state is O(look-ahead + in-flight + queued), never O(stream
//! length), which is what lets a million-session trace serve in a flat
//! memory footprint.
//!
//! * [`AdmissionPolicy::Fifo`] — arrival order; byte-identical to the
//!   original admission recursion (property-tested against a reference
//!   implementation).
//! * [`AdmissionPolicy::FairShare`] — the per-tenant usage-accounting
//!   policy lifted from `entk-cluster`'s `FairShareScheduler`
//!   ([`entk_cluster::UsageLedger`]) to session granularity: the pending
//!   session whose tenant has the least decayed core-second usage is
//!   admitted first (ties: arrival order), and the tenant is charged
//!   cores × service-time on admission. A hot tenant's burst therefore
//!   queues behind light tenants instead of starving them. `admit`
//!   debug-asserts the invariant at every decision: no tenant is admitted
//!   while a tenant with a smaller balance waits.
//!
//! ## Failure semantics
//!
//! A session whose backend run fails, or that degrades to a partial
//! result, is *not* stream-fatal: it is recorded with
//! `status: failed | partial` on its [`SessionRecord`] and the stream
//! continues. `strict: true` restores the original behavior (first
//! failure or degradation aborts the stream with the underlying error).
//!
//! ## Backpressure
//!
//! `max_queue_depth` bounds the pending queue. An arrival past the bound
//! is either **rejected** — recorded with `status: rejected` and a typed
//! [`EntkError::Saturated`] outcome on the record, never stream-fatal —
//! or **deferred** into an overflow buffer that feeds the bounded window
//! as admissions drain it (the session is eventually served; its latency
//! still counts from its true arrival).

use crate::arrival::{ArrivalStream, IntoArrivalStream, SessionArrival};
use crate::runner::{
    fnv64, fnv64_update, render_record, SessionRecord, SessionStatus, StreamBackend,
    WorkloadConfig, WorkloadReport,
};
use crate::sink::ReportSink;
use crate::trace::{render_row, TRACE_HEADER};
use entk_core::prelude::*;
use entk_core::EntkError;
use entk_sim::{SimDuration, SimTime, WorkerPool};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

pub mod checkpoint;
pub use checkpoint::{InFlightSlot, ServiceCheckpoint};

/// How the service picks the next pending session for a free slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionPolicy {
    /// Arrival order (the default; matches the original runner).
    Fifo,
    /// Least decayed per-tenant core-second usage first (ties: arrival
    /// order) — the cluster fair-share policy at session granularity.
    FairShare {
        /// Usage decay half-life in virtual seconds (0 = no decay).
        half_life_secs: f64,
    },
}

impl AdmissionPolicy {
    /// Stable label used in reports, checkpoints, and bench rows.
    pub fn label(self) -> &'static str {
        match self {
            AdmissionPolicy::Fifo => "fifo",
            AdmissionPolicy::FairShare { .. } => "fair-share",
        }
    }

    /// Parses a policy name through the registry (`fifo`, `fair`,
    /// `fair-share`); unknown names list the registered alternatives.
    pub fn parse(s: &str) -> Result<Self, EntkError> {
        admission_policies().build_named(s, &())
    }

    pub(crate) fn half_life_secs(self) -> f64 {
        match self {
            AdmissionPolicy::Fifo => 0.0,
            AdmissionPolicy::FairShare { half_life_secs } => half_life_secs,
        }
    }
}

/// Params of the `fair` admission-policy plugin.
#[derive(Debug, Clone, Deserialize)]
#[serde(deny_unknown_fields)]
struct FairAdmissionParams {
    /// Usage decay half-life in virtual seconds (0 = no decay).
    #[serde(default)]
    half_life_secs: f64,
}

/// The admission-policy registry: every name `entk serve --policy` and the
/// spec file's `"policy"` key accept. `fair` and `fair-share` are the same
/// plugin; a zero half-life means "take the spec's top-level
/// `half_life_secs`" (the pre-registry behaviour of `--policy fair`).
pub fn admission_policies() -> &'static entk_core::Registry<AdmissionPolicy> {
    static TABLE: std::sync::OnceLock<entk_core::Registry<AdmissionPolicy>> =
        std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut r = entk_core::Registry::new("admission policy");
        r.register("fifo", |_: &(), _: entk_core::NoParams| {
            Ok(AdmissionPolicy::Fifo)
        });
        for name in ["fair", "fair-share"] {
            r.register(name, |_: &(), p: FairAdmissionParams| {
                Ok(AdmissionPolicy::FairShare {
                    half_life_secs: p.half_life_secs,
                })
            });
        }
        r
    })
}

/// A failure rate outside `[0, 1]` (NaN included) can only be a mistake:
/// refused before the first session, here for configs built in code and
/// with its line by the spec loader.
pub(crate) fn check_failure_rate(p: f64) -> Result<(), EntkError> {
    if (0.0..=1.0).contains(&p) {
        return Ok(());
    }
    Err(EntkError::Usage(format!(
        "unit_failure_rate must be a probability in [0, 1], got {p}"
    )))
}

/// A usage half-life is a finite, non-negative number of seconds (0 = no
/// decay).
pub(crate) fn check_half_life(secs: f64) -> Result<(), EntkError> {
    if secs.is_finite() && secs >= 0.0 {
        return Ok(());
    }
    Err(EntkError::Usage(format!(
        "half_life_secs must be finite and >= 0, got {secs}"
    )))
}

/// Every session of a stream runs on the one resource; a name that is no
/// platform would fail each of them instead of the stream.
pub(crate) fn check_resource(name: &str) -> Result<(), EntkError> {
    if entk_cluster::PlatformSpec::by_name(name).is_some() {
        return Ok(());
    }
    Err(EntkError::Usage(format!(
        "unknown resource {name:?} (known platforms: {})",
        entk_cluster::PlatformSpec::NAMES.join(", ")
    )))
}

/// A stream with no admission slot would serve nothing.
pub(crate) fn check_slots(slots: usize) -> Result<(), EntkError> {
    if slots >= 1 {
        return Ok(());
    }
    Err(EntkError::Usage("slots must be >= 1".into()))
}

/// A pending queue bounded at zero would turn every session away.
pub(crate) fn check_queue_depth(bound: Option<usize>) -> Result<(), EntkError> {
    if bound != Some(0) {
        return Ok(());
    }
    Err(EntkError::Usage("max_queue_depth must be >= 1".into()))
}

/// A federation is two or more member clusters.
pub(crate) fn check_members(members: usize) -> Result<(), EntkError> {
    if members >= 2 {
        return Ok(());
    }
    Err(EntkError::Usage(
        "federated stream backend needs at least 2 members".into(),
    ))
}

/// What happens to an arrival when the pending queue is at its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaturationMode {
    /// Record the session as `rejected` with a typed
    /// [`EntkError::Saturated`] outcome and drop it.
    Reject,
    /// Park the session in an overflow buffer; it enters the bounded
    /// window (and becomes admissible) as the queue drains.
    Defer,
}

impl SaturationMode {
    /// Stable label used in checkpoints and specs.
    pub fn label(self) -> &'static str {
        match self {
            SaturationMode::Reject => "reject",
            SaturationMode::Defer => "defer",
        }
    }

    /// Parses a saturation mode name.
    pub fn parse(s: &str) -> Result<Self, EntkError> {
        match s {
            "reject" => Ok(SaturationMode::Reject),
            "defer" => Ok(SaturationMode::Defer),
            other => Err(EntkError::Usage(format!(
                "unknown saturation mode {other:?} (use \"reject\" or \"defer\")"
            ))),
        }
    }
}

/// Full configuration of the session service: the stream config plus the
/// admission policy, backpressure bound, and failure-strictness.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Seed / resource / slots / backend of the underlying stream.
    pub stream: WorkloadConfig,
    /// Admission policy over the pending queue.
    pub policy: AdmissionPolicy,
    /// Bound on the pending queue (`None` = unbounded).
    pub max_queue_depth: Option<usize>,
    /// What happens to arrivals past the bound.
    pub saturation: SaturationMode,
    /// `true` restores the original stream-fatal failure semantics: the
    /// first failed or degraded session aborts the whole stream.
    pub strict: bool,
}

impl ServiceConfig {
    /// FIFO admission with unbounded queue and lenient failures.
    pub fn fifo(stream: WorkloadConfig) -> Self {
        ServiceConfig {
            stream,
            policy: AdmissionPolicy::Fifo,
            max_queue_depth: None,
            saturation: SaturationMode::Reject,
            strict: false,
        }
    }

    /// Fair-share admission with the given usage half-life.
    pub fn fair_share(stream: WorkloadConfig, half_life_secs: f64) -> Self {
        ServiceConfig {
            policy: AdmissionPolicy::FairShare { half_life_secs },
            ..ServiceConfig::fifo(stream)
        }
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig::fifo(WorkloadConfig::default())
    }
}

/// splitmix64-style per-session seed derivation: decorrelates sessions
/// without consuming master-RNG draws, so inserting a session never
/// perturbs its neighbours. The "RNG sub-seed cursor" of a checkpoint is
/// just the master seed plus the next session index — this function is
/// pure.
pub fn session_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Service-time evaluation result of one session, before stream queueing.
#[derive(Debug, Clone)]
pub(crate) struct SessionService {
    pub(crate) status: SessionStatus,
    pub(crate) ttc: SimDuration,
    pub(crate) tasks: usize,
    pub(crate) events: u64,
    pub(crate) trace_fp: u64,
    pub(crate) cc_err: f64,
    pub(crate) error: Option<EntkError>,
}

impl SessionService {
    /// A session that consumed no service time: failed before running, or
    /// turned away at the queue bound.
    fn unserved(status: SessionStatus, error: EntkError) -> Self {
        SessionService {
            status,
            ttc: SimDuration::ZERO,
            tasks: 0,
            events: 0,
            trace_fp: 0,
            cc_err: 0.0,
            error: Some(error),
        }
    }

    /// The stream record of session `i`, admitted at `start` (a rejected
    /// session "starts" and finishes at its own arrival instant).
    fn record(&self, i: usize, arrival: &SessionArrival, start: SimTime) -> SessionRecord {
        let finish = start + self.ttc;
        SessionRecord {
            session: i,
            tenant: arrival.tenant,
            pattern: arrival.pattern.as_str().to_string(),
            status: self.status,
            error: self.error.as_ref().map(|e| e.to_string()),
            arrival_secs: arrival.arrival.as_secs_f64(),
            start_secs: start.as_secs_f64(),
            finish_secs: finish.as_secs_f64(),
            latency_secs: finish.saturating_since(arrival.arrival).as_secs_f64(),
            ttc_secs: self.ttc.as_secs_f64(),
            arrival_us: arrival.arrival.as_micros(),
            start_us: start.as_micros(),
            finish_us: finish.as_micros(),
            tasks: self.tasks,
            events: self.events,
            trace_fp: format!("{:016x}", self.trace_fp),
        }
    }
}

/// Evaluates one session's service on its own virtual clock. Per-session
/// problems — a backend error or a degraded (partial) report — are folded
/// into the returned status, never propagated: the stream must survive
/// individual sessions.
fn evaluate_session(
    config: &WorkloadConfig,
    index: usize,
    arrival: &SessionArrival,
) -> SessionService {
    let failed = |e| SessionService::unserved(SessionStatus::Failed, e);
    let mut pattern = match arrival.build_pattern() {
        Ok(p) => p,
        Err(e) => return failed(e),
    };
    let walltime = SimDuration::from_secs(10_000_000);
    // A simulated stream is a federation of one member per session; the
    // report label (the only difference) never reaches the stream record.
    let members = match config.backend {
        StreamBackend::Simulated => 1,
        StreamBackend::Federated { members } => members,
    };
    let fed = FederatedConfig {
        seed: session_seed(config.seed, index),
        clusters: (0..members)
            .map(|_| ClusterSpec {
                unit_failure_rate: config.unit_failure_rate,
                ..ClusterSpec::new(config.resource.clone(), arrival.cores, walltime)
            })
            .collect(),
        fault: config.fault,
        scheduler: config.scheduler.clone(),
        ..FederatedConfig::default()
    };
    let (report, telemetry) = match run_federated_traced(fed, pattern.as_mut()) {
        Ok(out) => out,
        Err(e) => return failed(e),
    };
    let cc = cross_check(&report, &telemetry.tracer);
    SessionService {
        status: if report.partial {
            SessionStatus::Partial
        } else {
            SessionStatus::Ok
        },
        ttc: report.ttc,
        tasks: report.task_count(),
        events: report.events,
        trace_fp: telemetry.tracer.fingerprint(),
        cc_err: cc.max_abs_error_secs,
        error: None,
    }
}

/// Tuning knobs of the streaming engine. These affect memory footprint
/// and parallelism only — the admission trajectory, emitted JSONL, and
/// every fingerprint are invariant under any choice (property-tested).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Bound on the arrival read-ahead window: how many arrivals may be
    /// pulled from the stream (and dispatched for evaluation) ahead of
    /// the ingestion cursor. Clamped to at least 1.
    pub lookahead: usize,
    /// Evaluation worker threads; `0` = auto (`ENTK_THREADS`, then
    /// `RAYON_NUM_THREADS`, then the host's available parallelism).
    pub eval_workers: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            lookahead: 256,
            eval_workers: 0,
        }
    }
}

/// Just-in-time session evaluation over the persistent `entk-sim` worker
/// pool: sessions are dispatched as they enter the read-ahead window, and
/// each one's service time comes back on its own handle, so at most
/// O(look-ahead + queue) evaluations are ever outstanding — the streaming
/// replacement for the old upfront whole-stream rayon pass.
struct EvalPool {
    pool: WorkerPool,
    config: Arc<WorkloadConfig>,
}

impl EvalPool {
    fn new(config: WorkloadConfig, workers: usize) -> Self {
        let workers = if workers == 0 {
            entk_sim::pool::host_threads()
        } else {
            workers
        };
        EvalPool {
            pool: WorkerPool::new(workers),
            config: Arc::new(config),
        }
    }

    /// Queues session `index` for evaluation and returns its waiting row,
    /// which holds the handle the one result lands on. Dropping the row
    /// discards the result.
    fn dispatch(&self, index: usize, arrival: SessionArrival) -> Waiting {
        let landing = Arc::new(EvalSlot::default());
        let row = Waiting {
            index,
            arrival: arrival.clone(),
            service: Arc::clone(&landing),
        };
        let config = Arc::clone(&self.config);
        self.pool.submit(vec![Box::new(move || {
            // `take` blocks on this handle, so a panicking evaluation must
            // still report: as a failed session.
            let svc = catch_unwind(AssertUnwindSafe(|| {
                evaluate_session(&config, index, &arrival)
            }))
            .unwrap_or_else(|payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|m| m.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                SessionService::unserved(
                    SessionStatus::Failed,
                    EntkError::Runtime(format!("evaluation panicked: {msg}")),
                )
            });
            landing.fill(svc);
        })]);
        row
    }
}

impl Drop for EvalPool {
    fn drop(&mut self) {
        // An engine dropped mid-run (strict abort, caller error) must not
        // first drain a deep backlog of now-useless evaluations.
        self.pool.cancel_queued();
    }
}

/// The handle one dispatched evaluation leaves its result on, held in the
/// session's [`Waiting`] row until admission takes it. Not a one-slot `mpsc`
/// channel: for an 80-byte result std's allocates 728 B (two cache-padded
/// cursors, two waker lists) and this 120 B, and every waiting session
/// holds one.
#[derive(Default)]
struct EvalSlot {
    result: Mutex<Option<SessionService>>,
    landed: Condvar,
}

impl EvalSlot {
    const POISONED: &'static str = "an evaluation slot's lock is held only to move a result";

    fn fill(&self, svc: SessionService) {
        *self.result.lock().expect(Self::POISONED) = Some(svc);
        self.landed.notify_one();
    }

    /// Blocks until the evaluation's result has landed and returns it.
    fn take(&self) -> SessionService {
        let mut result = self.result.lock().expect(Self::POISONED);
        loop {
            if let Some(svc) = result.take() {
                return svc;
            }
            result = self.landed.wait(result).expect(Self::POISONED);
        }
    }
}

/// O(1)-memory aggregate summary of a serve, folded at the emission
/// point — what [`ServiceEngine::run_streaming`] returns instead of a
/// full [`WorkloadReport`], and where that report takes its counts and
/// `stream_fp` from. Latency is summarized as mean/max
/// (percentiles need the full sample set, which an out-of-core serve
/// deliberately never holds).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Sessions recorded (admitted or rejected).
    pub sessions: usize,
    /// Distinct tenants observed.
    pub tenants: usize,
    /// Sessions served to a clean report.
    pub ok_sessions: usize,
    /// Sessions degraded to a partial report.
    pub partial_sessions: usize,
    /// Sessions whose backend run failed.
    pub failed_sessions: usize,
    /// Sessions rejected at the queue bound.
    pub rejected_sessions: usize,
    /// Total tasks across served sessions.
    pub total_tasks: usize,
    /// Total simulator events across served sessions.
    pub total_events: u64,
    /// Last finish instant over non-rejected sessions, seconds.
    pub makespan_secs: f64,
    /// Mean served-session latency (ok | partial), seconds.
    pub mean_latency_secs: f64,
    /// Max served-session latency (ok | partial), seconds.
    pub max_latency_secs: f64,
    /// Largest per-session cross-check error, seconds.
    pub max_cross_check_err_secs: f64,
    /// FNV-1a 64 fingerprint of the emitted JSONL stream.
    pub stream_fp: String,
    /// Bytes of JSONL written to the sink.
    pub jsonl_bytes: u64,
    /// Peak resident sessions (read-ahead + queued + deferred +
    /// in-flight + reorder buffer) — the bounded-memory witness:
    /// independent of stream length.
    pub peak_resident_sessions: usize,
}

/// Running accumulator behind [`ServeStats`]: the stats themselves,
/// folded in place, plus what their derived fields (mean latency,
/// tenant count, rendered fingerprint) are computed from.
#[derive(Debug)]
struct StatsAcc {
    stats: ServeStats,
    lat_sum: f64,
    lat_count: usize,
    tenants: BTreeSet<u64>,
    fp: u64,
}

impl StatsAcc {
    fn observe(&mut self, r: &SessionRecord) {
        let s = &mut self.stats;
        s.sessions += 1;
        self.tenants.insert(r.tenant);
        s.total_tasks += r.tasks;
        s.total_events += r.events;
        match r.status {
            SessionStatus::Ok => s.ok_sessions += 1,
            SessionStatus::Partial => s.partial_sessions += 1,
            SessionStatus::Failed => s.failed_sessions += 1,
            SessionStatus::Rejected => s.rejected_sessions += 1,
        }
        if r.status != SessionStatus::Rejected {
            s.makespan_secs = s
                .makespan_secs
                .max(SimTime::from_micros(r.finish_us).as_secs_f64());
        }
        if matches!(r.status, SessionStatus::Ok | SessionStatus::Partial) {
            self.lat_sum += r.latency_secs;
            s.max_latency_secs = s.max_latency_secs.max(r.latency_secs);
            self.lat_count += 1;
        }
    }

    fn stats(&self) -> ServeStats {
        ServeStats {
            tenants: self.tenants.len(),
            mean_latency_secs: if self.lat_count == 0 {
                0.0
            } else {
                self.lat_sum / self.lat_count as f64
            },
            stream_fp: format!("{:016x}", self.fp),
            ..self.stats.clone()
        }
    }
}

/// A session the engine still has to admit or turn away — read ahead,
/// pending or deferred, in exactly one of those queues — beside the handle
/// its just-in-time evaluation reports on.
struct Waiting {
    index: usize,
    arrival: SessionArrival,
    service: Arc<EvalSlot>,
}

/// The long-running multi-tenant session service (see module docs).
pub struct ServiceEngine {
    config: ServiceConfig,
    options: EngineOptions,
    /// Arrival source past the read-ahead window; `None` once exhausted.
    stream: Option<Box<dyn ArrivalStream>>,
    /// Arrival instant of the last pulled row, for order validation.
    last_pulled_at: Option<SimTime>,
    /// Pulled-but-not-ingested sessions, in arrival order.
    readahead: VecDeque<Waiting>,
    /// Running FNV-1a 64 over the rendered trace prefix ingested so far.
    prefix_fp: u64,
    eval: EvalPool,
    clock: SimTime,
    next_arrival: usize,
    /// Arrived-but-not-admitted sessions, in queue order.
    pending: VecDeque<Waiting>,
    /// Sessions parked past the queue bound, in arrival order.
    deferred: VecDeque<Waiting>,
    in_flight: BinaryHeap<Reverse<(SimTime, usize)>>,
    ledger: entk_cluster::UsageLedger<u64>,
    /// Finalized-but-not-emitted records: the reorder window.
    window: BTreeMap<usize, SessionRecord>,
    emitted: usize,
    acc: StatsAcc,
    /// Observers handed every `(line, &record)` at emission.
    sinks: Vec<Box<dyn ReportSink>>,
    /// Whether emitted records are retained in `records` — the only copy
    /// of a served session a retaining serve keeps.
    retain: bool,
    records: Vec<SessionRecord>,
}

impl std::fmt::Debug for ServiceEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceEngine")
            .field("config", &self.config)
            .field("options", &self.options)
            .field("readahead", &self.readahead.len())
            .field("next_arrival", &self.next_arrival)
            .field("emitted", &self.emitted)
            .field("pending", &self.pending.len())
            .field("deferred", &self.deferred.len())
            .field("in_flight", &self.in_flight.len())
            .finish_non_exhaustive()
    }
}

impl ServiceEngine {
    /// Builds a service over an arrival stream (a lazy
    /// [`ArrivalStream`], an owned `Vec`, or a borrowed slice — see
    /// [`IntoArrivalStream`]). Rows are validated as they are pulled:
    /// time-ordered, individually valid, non-empty (emptiness and any
    /// problem within the initial read-ahead window surface here; later
    /// rows fail the pull that reads them). Service times are evaluated
    /// just in time on a persistent worker pool as sessions enter the
    /// bounded read-ahead window — never the whole stream up front. With
    /// `strict`, the first failed or degraded session aborts the serve
    /// at its admission with the underlying error.
    pub fn new(config: ServiceConfig, arrivals: impl IntoArrivalStream) -> Result<Self, EntkError> {
        Self::with_options(config, arrivals, EngineOptions::default())
    }

    /// [`ServiceEngine::new`] with explicit streaming knobs. The knobs
    /// never change the served trajectory — only memory and parallelism.
    pub fn with_options(
        config: ServiceConfig,
        arrivals: impl IntoArrivalStream,
        options: EngineOptions,
    ) -> Result<Self, EntkError> {
        Self::validate_config(&config)?;
        let stream = arrivals.into_arrival_stream()?;
        let mut engine = Self::empty(config, options, stream);
        engine.fill_readahead()?;
        if engine.readahead.is_empty() {
            return Err(EntkError::Usage("cannot serve an empty stream".into()));
        }
        Ok(engine)
    }

    /// A fully-initialized engine at the start-of-stream state, before
    /// the read-ahead prime. Shared by construction and restore.
    fn empty(
        config: ServiceConfig,
        options: EngineOptions,
        stream: Box<dyn ArrivalStream>,
    ) -> Self {
        let eval = EvalPool::new(config.stream.clone(), options.eval_workers);
        ServiceEngine {
            ledger: entk_cluster::UsageLedger::new(config.policy.half_life_secs()),
            config,
            options,
            stream: Some(stream),
            last_pulled_at: None,
            readahead: VecDeque::new(),
            prefix_fp: fnv64(format!("{TRACE_HEADER}\n").as_bytes()),
            eval,
            clock: SimTime::ZERO,
            next_arrival: 0,
            pending: VecDeque::new(),
            deferred: VecDeque::new(),
            in_flight: BinaryHeap::new(),
            window: BTreeMap::new(),
            emitted: 0,
            acc: StatsAcc {
                stats: ServeStats::default(),
                lat_sum: 0.0,
                lat_count: 0,
                tenants: BTreeSet::new(),
                fp: fnv64(b""),
            },
            sinks: Vec::new(),
            retain: true,
            records: Vec::new(),
        }
    }

    fn validate_config(config: &ServiceConfig) -> Result<(), EntkError> {
        check_failure_rate(config.stream.unit_failure_rate)?;
        check_half_life(config.policy.half_life_secs())?;
        check_resource(&config.stream.resource)?;
        check_slots(config.stream.slots)?;
        check_queue_depth(config.max_queue_depth)?;
        if let StreamBackend::Federated { members } = config.stream.backend {
            check_members(members)?;
        }
        Ok(())
    }

    fn lookahead(&self) -> usize {
        self.options.lookahead.max(1)
    }

    /// Pulls the next row off the stream: schema validation, arrival-order
    /// check and cursor bump — the one place a row enters the engine.
    /// `None` once the stream is exhausted.
    fn pull_row(&mut self) -> Result<Option<(usize, SessionArrival)>, EntkError> {
        let Some(stream) = self.stream.as_mut() else {
            return Ok(None);
        };
        let Some(row) = stream.next_arrival()? else {
            self.stream = None;
            return Ok(None);
        };
        // Every pulled row is ingested or still read ahead.
        let i = self.next_arrival + self.readahead.len();
        row.validate()?;
        if self.last_pulled_at.is_some_and(|prev| row.arrival < prev) {
            return Err(EntkError::Usage(format!(
                "arrivals out of order at index {i}"
            )));
        }
        self.last_pulled_at = Some(row.arrival);
        Ok(Some((i, row)))
    }

    /// Tops up the read-ahead window from the stream, dispatching each
    /// pulled row's just-in-time evaluation. The window bound is what caps
    /// resident arrivals and outstanding evaluations; a non-empty window
    /// after this call is the engine's only way of knowing another arrival
    /// exists, so every event-loop decision tops up first.
    fn fill_readahead(&mut self) -> Result<(), EntkError> {
        while self.readahead.len() < self.lookahead() {
            let Some((i, arrival)) = self.pull_row()? else {
                break;
            };
            self.readahead.push_back(self.eval.dispatch(i, arrival));
        }
        Ok(())
    }

    /// Arrival instant of the next not-yet-ingested session, if any.
    /// Valid only immediately after [`ServiceEngine::fill_readahead`].
    fn peek_arrival(&self) -> Option<SimTime> {
        self.readahead.front().map(|row| row.arrival.arrival)
    }

    /// Sessions resident right now, in any form — the quantity whose peak
    /// the bounded-memory claim is about.
    fn resident_sessions(&self) -> usize {
        let waiting = self.readahead.len() + self.pending.len() + self.deferred.len();
        waiting + self.in_flight.len() + self.window.len()
    }

    /// Attaches a report sink: from now on it sees every record at
    /// emission, in session order, and is finished when the serve
    /// completes. A restored engine therefore shows a sink exactly the
    /// post-checkpoint suffix.
    pub fn attach(&mut self, sink: Box<dyn ReportSink>) {
        self.sinks.push(sink);
    }

    fn free_slots(&self) -> usize {
        self.config.stream.slots - self.in_flight.len()
    }

    /// Finalizes a session's record: it waits in the reorder window until
    /// every lower-index session is finalized too.
    fn finalize(&mut self, index: usize, record: SessionRecord) {
        debug_assert!(
            index >= self.emitted && !self.window.contains_key(&index),
            "record finalized twice"
        );
        self.window.insert(index, record);
    }

    /// The single emission point: pops the contiguous finalized prefix off
    /// the reorder window and, per record, folds the running stats, renders
    /// the stream line, folds fingerprint and byte count, writes the line
    /// to `out`, hands `(line, &record)` to every attached sink, and — when
    /// retaining — keeps the record.
    fn emit(&mut self, out: &mut dyn Write) -> Result<(), EntkError> {
        while let Some(record) = self.window.remove(&self.emitted) {
            self.emitted += 1;
            self.acc.observe(&record);
            let line = render_record(&record);
            self.acc.fp = fnv64_update(self.acc.fp, line.as_bytes());
            self.acc.stats.jsonl_bytes += line.len() as u64;
            out.write_all(line.as_bytes())
                .map_err(|e| EntkError::Resource(format!("writing stream JSONL: {e}")))?;
            for sink in &mut self.sinks {
                sink.on_record(&line, &record)?;
            }
            if self.retain {
                self.records.push(record);
            }
        }
        Ok(())
    }

    /// Moves deferred sessions into the bounded pending window while there
    /// is room.
    fn promote_deferred(&mut self) {
        if let Some(bound) = self.config.max_queue_depth {
            while self.pending.len() < bound {
                match self.deferred.pop_front() {
                    Some(i) => self.pending.push_back(i),
                    None => break,
                }
            }
        }
    }

    /// Position in the pending queue of the next session to admit.
    fn pick_next(&mut self) -> usize {
        match self.config.policy {
            AdmissionPolicy::Fifo => 0,
            AdmissionPolicy::FairShare { .. } => {
                self.ledger.decay_to(self.clock);
                let mut best = 0usize;
                let mut best_usage = f64::INFINITY;
                for (pos, row) in self.pending.iter().enumerate() {
                    let u = self.ledger.usage_of(&row.arrival.tenant);
                    // Strict less-than keeps ties in arrival order.
                    if u < best_usage {
                        best_usage = u;
                        best = pos;
                    }
                }
                best
            }
        }
    }

    /// Admits a pending session at the current instant: collects its
    /// service time from the evaluation pool (blocking if the evaluation is
    /// still running), charges its tenant (fair-share), occupies a slot
    /// until `now + service`, and finalizes its record. With `strict`, a
    /// failed or degraded session aborts the serve here, at its admission.
    fn admit(&mut self, row: Waiting) -> Result<(), EntkError> {
        let svc = row.service.take();
        let (i, arrival) = (row.index, row.arrival);
        if self.config.strict {
            match svc.status {
                SessionStatus::Failed => {
                    return Err(svc
                        .error
                        .clone()
                        .unwrap_or_else(|| EntkError::Runtime(format!("session {i}: failed"))))
                }
                SessionStatus::Partial => {
                    return Err(EntkError::Runtime(format!(
                        "session {i}: degraded to a partial result"
                    )))
                }
                _ => {}
            }
        }
        if let AdmissionPolicy::FairShare { .. } = self.config.policy {
            self.ledger.decay_to(self.clock);
            debug_assert!(
                self.pending.iter().all(|j| {
                    self.ledger.usage_of(&arrival.tenant) <= self.ledger.usage_of(&j.arrival.tenant)
                }),
                "fair share admitted session {i} (tenant {}) over a waiting tenant \
                 with a smaller balance",
                arrival.tenant
            );
            self.ledger
                .charge(arrival.tenant, arrival.cores as f64 * svc.ttc.as_secs_f64());
        }
        self.in_flight.push(Reverse((self.clock + svc.ttc, i)));
        let max_cc = &mut self.acc.stats.max_cross_check_err_secs;
        *max_cc = max_cc.max(svc.cc_err);
        self.finalize(i, svc.record(i, &arrival, self.clock));
        Ok(())
    }

    /// The admission fixpoint run after every event: promote deferred
    /// sessions into the bounded window, then admit while slots are free.
    fn settle(&mut self) -> Result<(), EntkError> {
        loop {
            self.promote_deferred();
            if self.free_slots() == 0 || self.pending.is_empty() {
                return Ok(());
            }
            let pos = self.pick_next();
            let row = self.pending.remove(pos).expect("picked position exists");
            self.admit(row)?;
        }
    }

    /// Applies the earliest completion: frees its slot and re-runs
    /// admission at the completion instant.
    fn apply_completion(&mut self) -> Result<(), EntkError> {
        let Reverse((t, _)) = self.in_flight.pop().expect("completion exists");
        self.clock = t;
        self.settle()
    }

    /// Ingests the next arrival from the read-ahead window: folds it into
    /// the trace-prefix fingerprint, then enqueue, reject, or defer, then
    /// re-run admission at the arrival instant.
    fn ingest_arrival(&mut self) -> Result<(), EntkError> {
        let row = self.readahead.pop_front().expect("arrival in read-ahead");
        let i = row.index;
        debug_assert_eq!(i, self.next_arrival, "ingestion follows pull order");
        self.next_arrival += 1;
        let at = row.arrival.arrival;
        self.prefix_fp = fnv64_update(self.prefix_fp, render_row(&row.arrival).as_bytes());
        self.clock = self.clock.max(at);
        let saturated = self
            .config
            .max_queue_depth
            .is_some_and(|bound| self.pending.len() >= bound);
        if saturated {
            match self.config.saturation {
                SaturationMode::Defer => self.deferred.push_back(row),
                SaturationMode::Reject => {
                    // Its just-in-time evaluation is useless now: dropping
                    // the row's handle discards it.
                    let outcome = EntkError::Saturated(format!(
                        "session {i} rejected: queue depth {} at bound {}",
                        self.pending.len(),
                        self.config.max_queue_depth.unwrap_or(0),
                    ));
                    let unserved = SessionService::unserved(SessionStatus::Rejected, outcome);
                    self.finalize(i, unserved.record(i, &row.arrival, at));
                }
            }
        } else {
            self.pending.push_back(row);
        }
        self.settle()
    }

    /// The only event loop. Processes the earliest event under the
    /// documented tie order (completions before arrivals at the same
    /// instant), stopping short of arrival `k`, and runs the emission
    /// point after every event.
    fn drive(&mut self, k: usize, out: &mut dyn Write) -> Result<(), EntkError> {
        loop {
            self.fill_readahead()?;
            match (self.in_flight.peek(), self.peek_arrival()) {
                (Some(&Reverse((tf, _))), Some(ta)) if tf <= ta => self.apply_completion()?,
                (_, Some(_)) if self.next_arrival < k => self.ingest_arrival()?,
                (Some(_), None) => self.apply_completion()?,
                _ => return Ok(()),
            }
            self.emit(out)?;
            let resident = self.resident_sessions();
            let peak = &mut self.acc.stats.peak_resident_sessions;
            *peak = (*peak).max(resident);
        }
    }

    /// Advances the service to arrival boundary `k`: exactly `k` arrivals
    /// ingested and every completion at or before the next arrival's
    /// instant applied (for `k >= sessions`, the stream is drained to
    /// completion), writing each stream line to `out` as it is emitted.
    /// Returns how many lines it wrote. Checkpoints are taken at these
    /// boundaries. Errors — a malformed or out-of-order row at pull time,
    /// a strict-mode abort at admission, a failing writer or sink — leave
    /// the engine unusable, and `out` holds the lines emitted before them.
    pub fn run_to_boundary<W: Write>(&mut self, k: usize, out: &mut W) -> Result<usize, EntkError> {
        let before = self.emitted;
        self.drive(k, out)?;
        Ok(self.emitted - before)
    }

    /// Serves the stream to completion, writing each stream line to `out`
    /// as it is emitted and retaining each emitted record, and finishes the
    /// attached sinks with the report. The records — the whole stream, a
    /// restored engine's checkpointed prefix included — move into the
    /// report; `out` receives only the lines this instance emitted (all of
    /// them for a fresh engine, the suffix after the checkpoint's `emitted`
    /// cursor for a restored one).
    pub fn run<W: Write>(mut self, out: &mut W) -> Result<WorkloadReport, EntkError> {
        self.drive(usize::MAX, out)?;
        let report = WorkloadReport::assemble(&self.config, self.acc.stats(), self.records);
        for sink in &mut self.sinks {
            sink.finish(Some(&report))?;
        }
        Ok(report)
    }

    /// Serves the stream to completion *without retaining*: every emitted
    /// line goes to `out` (and every record to the attached sinks) and is
    /// dropped. Resident state is bounded by the look-ahead window plus
    /// in-flight and queued sessions — never by the stream length — which
    /// is what lets a million-session trace serve in a flat memory
    /// footprint.
    ///
    /// Consumes the engine (no checkpoint can observe the dropped
    /// records), requires a fresh engine, not a restored one, and rejects
    /// up front any attached sink that needs the retained report.
    pub fn run_streaming<W: Write>(mut self, out: &mut W) -> Result<ServeStats, EntkError> {
        if self.next_arrival != 0 || self.emitted != 0 {
            return Err(EntkError::Usage(
                "streaming serve requires a fresh engine".into(),
            ));
        }
        if let Some(sink) = self.sinks.iter().find(|s| s.needs_report()) {
            return Err(EntkError::Usage(format!(
                "report sink {:?} needs the full report, which a streaming \
                 serve never retains",
                sink.name()
            )));
        }
        self.retain = false;
        self.drive(usize::MAX, out)?;
        debug_assert!(self.pending.is_empty() && self.deferred.is_empty());
        for sink in &mut self.sinks {
            sink.finish(None)?;
        }
        Ok(self.acc.stats())
    }
}
