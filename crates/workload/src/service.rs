//! The multi-tenant session service: a live, event-driven admission loop
//! over pluggable policies, with bounded-queue backpressure and
//! checkpoint/restore at arrival boundaries.
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
//! per record, folds the running [`ServeStats`], renders the stream line,
//! folds fingerprint and byte count, and hands `(line, &record)` to the
//! observers: the caller's writer and every attached [`ReportSink`].
//! [`ServiceEngine::run`] additionally *retains* each emitted record —
//! once: the record log is what checkpoints carry and what moves into the
//! [`WorkloadReport`], and a stream line is re-rendered from its record
//! whenever bytes are wanted again ([`ServiceEngine::emitted_jsonl`]).
//! [`ServiceEngine::run_streaming`] retains nothing: resident state is
//! O(look-ahead + in-flight + queued), never O(stream length), which is
//! what lets a million-session trace serve in a flat memory footprint.
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
//!
//! ## Checkpoint / restore
//!
//! [`ServiceEngine::checkpoint`] serializes the complete admission state
//! at an arrival boundary: the pending and deferred queues, in-flight
//! slot occupancy (finish instants), per-tenant usage balances with their
//! decay instant, the arrival cursor, the emitted-record cursor, and the
//! per-session seed cursor (the master seed — sub-seeds are a pure
//! splitmix64 function of it and the session index, so the cursor is just
//! the next index). The arrival-stream fingerprint is a *prefix*
//! fingerprint — the fold of the rendered CSV header plus every ingested
//! row — so it is identical at a given boundary no matter what the
//! look-ahead window happened to hold. [`ServiceEngine::restore`]
//! rebuilds the engine by re-pulling the served prefix from the stream
//! (validating, order-checking, and fingerprint-matching it row by row
//! while retaining only the rows still queued), re-evaluates only the
//! sessions that still need service times (pending, deferred, and
//! not-yet-arrived — completed sessions are carried as finalized
//! records), and replays to a byte-identical `WORKLOAD.jsonl` suffix:
//! prefix-emitted-before-the-kill + suffix is byte-identical to the
//! uninterrupted stream, including its fingerprint.
//!
//! Determinism argument: every admission decision is a pure function of
//! (config, arrivals, per-session service times), service times are pure
//! functions of (config, arrival, splitmix64(seed, index)), and the event
//! order is totally ordered by (time, kind, session index). A checkpoint
//! carries exactly the loop state, so the resumed trajectory is the same
//! trajectory.

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
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

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

    /// Queues session `index` for evaluation and returns the handle its
    /// one result lands on. Dropping the handle discards the result.
    fn dispatch(&self, index: usize, arrival: SessionArrival) -> Arc<EvalSlot> {
        let slot = Arc::new(EvalSlot::default());
        let landing = Arc::clone(&slot);
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
        slot
    }
}

impl Drop for EvalPool {
    fn drop(&mut self) {
        // An engine dropped mid-run (strict abort, caller error) must not
        // first drain a deep backlog of now-useless evaluations.
        self.pool.cancel_queued();
    }
}

/// The handle one dispatched evaluation leaves its result on, held beside
/// the session's row until admission takes it. Not a one-slot `mpsc`
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

/// One in-flight slot in a checkpoint: the session and when its slot
/// frees. The start instant is already on the session's finalized record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InFlightSlot {
    /// Session occupying the slot.
    pub session: usize,
    /// Instant the slot frees, in microseconds.
    pub finish_us: u64,
}

/// A serialized arrival-boundary snapshot of the service's admission
/// state. JSON via [`ServiceCheckpoint::to_json`] /
/// [`ServiceCheckpoint::from_json`]; integrity-checked on restore against
/// the config and the arrival trace fingerprint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceCheckpoint {
    /// Checkpoint format version (2: `arrivals_fp` became a prefix
    /// fingerprint when ingestion went streaming).
    pub version: u32,
    /// Master seed (the RNG sub-seed cursor together with `next_arrival`).
    pub seed: u64,
    /// Resource label of the stream config.
    pub resource: String,
    /// Admission slots.
    pub slots: usize,
    /// Backend label (`simulated` or `federated:N`).
    pub backend: String,
    /// Admission policy label.
    pub policy: String,
    /// Fair-share usage half-life, seconds.
    pub half_life_secs: f64,
    /// Pending-queue bound (`None` = unbounded).
    pub max_queue_depth: Option<usize>,
    /// Saturation mode label.
    pub saturation: String,
    /// Strict failure semantics flag.
    pub strict: bool,
    /// Per-unit failure-injection rate of the stream config.
    pub unit_failure_rate: f64,
    /// Scheduler plugin of the stream config (`None` = backend default;
    /// absent in pre-registry checkpoints, which restore as the default).
    #[serde(default)]
    pub scheduler: Option<entk_core::ComponentSpec>,
    /// Session fault policy of the stream config (absent in pre-registry
    /// checkpoints, which restore as the default).
    #[serde(default)]
    pub fault: Option<entk_core::FaultConfig>,
    /// FNV-1a 64 fingerprint of the rendered arrival-trace *prefix*
    /// ingested so far (header plus rows `0..next_arrival`), so a
    /// checkpoint cannot silently resume against a stream whose served
    /// prefix differs. Rows past the boundary are not covered — an
    /// out-of-core stream cannot be hashed without consuming it — but
    /// they are still order- and schema-validated as they are pulled.
    pub arrivals_fp: String,
    /// Virtual clock at the boundary, microseconds.
    pub clock_us: u64,
    /// Arrivals ingested so far (the next arrival index).
    pub next_arrival: usize,
    /// Records already emitted to the stream JSONL (the suffix a resumed
    /// service produces starts here).
    pub emitted: usize,
    /// Arrived-but-not-admitted sessions, in queue order.
    pub pending: Vec<usize>,
    /// Overflow sessions deferred past the queue bound, in arrival order.
    pub deferred: Vec<usize>,
    /// Occupied slots and their release instants.
    pub in_flight: Vec<InFlightSlot>,
    /// Per-tenant decayed usage balances (fair-share state).
    pub usage: Vec<(u64, f64)>,
    /// Instant the balances were last decayed to, microseconds.
    pub usage_decayed_at_us: Option<u64>,
    /// Largest per-session cross-check error seen so far, seconds.
    pub max_cross_check_err_secs: f64,
    /// Finalized per-session records (admitted or rejected sessions).
    pub records: Vec<SessionRecord>,
}

impl ServiceCheckpoint {
    /// Serializes the checkpoint as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("checkpoint serializes")
    }

    /// Parses a checkpoint from JSON text.
    pub fn from_json(text: &str) -> Result<Self, EntkError> {
        serde_json::from_str(text).map_err(|e| EntkError::Usage(format!("bad checkpoint: {e}")))
    }
}

/// An arrival the engine still needs, beside the handle its just-in-time
/// evaluation reports on.
struct HeldRow {
    arrival: SessionArrival,
    service: Arc<EvalSlot>,
}

/// The long-running multi-tenant session service (see module docs).
pub struct ServiceEngine {
    config: ServiceConfig,
    options: EngineOptions,
    /// Arrival source past the read-ahead window; `None` once exhausted.
    stream: Option<Box<dyn ArrivalStream>>,
    /// Rows pulled from the stream so far (the next index to pull).
    pulled: usize,
    /// Arrival instant of the last pulled row, for order validation.
    last_pulled_at: Option<SimTime>,
    /// Pulled-but-not-ingested session indices, in arrival order.
    readahead: VecDeque<usize>,
    /// Arrival rows still needed: read-ahead ∪ pending ∪ deferred.
    held: HashMap<usize, HeldRow>,
    /// Running FNV-1a 64 over the rendered trace prefix ingested so far.
    prefix_fp: u64,
    eval: EvalPool,
    clock: SimTime,
    next_arrival: usize,
    pending: VecDeque<usize>,
    deferred: VecDeque<usize>,
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
    /// Leading `records` replayed from a checkpoint; this engine
    /// instance's own emissions follow them.
    restored: usize,
}

impl std::fmt::Debug for ServiceEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceEngine")
            .field("config", &self.config)
            .field("options", &self.options)
            .field("pulled", &self.pulled)
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
        if engine.pulled == 0 {
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
            pulled: 0,
            last_pulled_at: None,
            readahead: VecDeque::new(),
            held: HashMap::new(),
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
            restored: 0,
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
        let i = self.pulled;
        row.validate()?;
        if self.last_pulled_at.is_some_and(|prev| row.arrival < prev) {
            return Err(EntkError::Usage(format!(
                "arrivals out of order at index {i}"
            )));
        }
        self.last_pulled_at = Some(row.arrival);
        self.pulled += 1;
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
            let service = self.eval.dispatch(i, arrival.clone());
            self.held.insert(i, HeldRow { arrival, service });
            self.readahead.push_back(i);
        }
        Ok(())
    }

    /// Arrival instant of the next not-yet-ingested session, if any.
    /// Valid only immediately after [`ServiceEngine::fill_readahead`].
    fn peek_arrival(&self) -> Option<SimTime> {
        self.readahead.front().map(|i| self.held[i].arrival.arrival)
    }

    /// Sessions resident right now, in any form — the quantity whose peak
    /// the bounded-memory claim is about.
    fn resident_sessions(&self) -> usize {
        self.held.len() + self.in_flight.len() + self.window.len()
    }

    /// The stream JSONL lines this engine instance has emitted so far,
    /// rendered from the retained records — a fresh engine emits from line
    /// 0; a restored engine emits the suffix after its checkpoint's
    /// `emitted` cursor.
    pub fn emitted_jsonl(&self) -> String {
        self.records[self.restored..]
            .iter()
            .map(render_record)
            .collect()
    }

    /// Attaches a report sink: from now on it sees every record at
    /// emission, in session order, and is finished when the serve
    /// completes. A restored engine therefore shows a sink exactly the
    /// post-checkpoint suffix.
    pub fn attach(&mut self, sink: Box<dyn ReportSink>) {
        self.sinks.push(sink);
    }

    /// Arrivals ingested so far.
    pub fn ingested(&self) -> usize {
        self.next_arrival
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
    /// the stream line, folds fingerprint and byte count, hands the line to
    /// `out` and `(line, &record)` to every attached sink, and — when
    /// retaining — keeps the record.
    fn emit(
        &mut self,
        out: &mut dyn FnMut(&str) -> Result<(), EntkError>,
    ) -> Result<(), EntkError> {
        while let Some(record) = self.window.remove(&self.emitted) {
            self.emitted += 1;
            self.acc.observe(&record);
            let line = render_record(&record);
            self.acc.fp = fnv64_update(self.acc.fp, line.as_bytes());
            self.acc.stats.jsonl_bytes += line.len() as u64;
            out(&line)?;
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
                for (pos, i) in self.pending.iter().enumerate() {
                    let u = self.ledger.usage_of(&self.held[i].arrival.tenant);
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

    /// Admits session `i` at the current instant: collects its service
    /// time from the evaluation pool (blocking if the evaluation is still
    /// running), charges its tenant (fair-share), occupies a slot until
    /// `now + service`, and finalizes its record. With `strict`, a failed
    /// or degraded session aborts the serve here, at its admission.
    fn admit(&mut self, i: usize) -> Result<(), EntkError> {
        let row = self.held.remove(&i).expect("admitted session is held");
        let (arrival, svc) = (row.arrival, row.service.take());
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
                    self.ledger.usage_of(&arrival.tenant)
                        <= self.ledger.usage_of(&self.held[j].arrival.tenant)
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
            let i = self.pending.remove(pos).expect("picked position exists");
            self.admit(i)?;
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
        let i = self.readahead.pop_front().expect("arrival in read-ahead");
        debug_assert_eq!(i, self.next_arrival, "ingestion follows pull order");
        self.next_arrival += 1;
        let row = &self.held[&i].arrival;
        let at = row.arrival;
        self.prefix_fp = fnv64_update(self.prefix_fp, render_row(row).as_bytes());
        self.clock = self.clock.max(at);
        let saturated = self
            .config
            .max_queue_depth
            .is_some_and(|bound| self.pending.len() >= bound);
        if saturated {
            match self.config.saturation {
                SaturationMode::Defer => self.deferred.push_back(i),
                SaturationMode::Reject => {
                    // Its just-in-time evaluation is useless now: dropping
                    // the handle discards it.
                    let HeldRow { arrival, .. } =
                        self.held.remove(&i).expect("rejected session is held");
                    let outcome = EntkError::Saturated(format!(
                        "session {i} rejected: queue depth {} at bound {}",
                        self.pending.len(),
                        self.config.max_queue_depth.unwrap_or(0),
                    ));
                    let record = SessionService::unserved(SessionStatus::Rejected, outcome)
                        .record(i, &arrival, at);
                    self.finalize(i, record);
                }
            }
        } else {
            self.pending.push_back(i);
        }
        self.settle()
    }

    /// The only event loop. Processes the earliest event under the
    /// documented tie order (completions before arrivals at the same
    /// instant), stopping short of arrival `k`, and runs the emission
    /// point after every event.
    fn drive(
        &mut self,
        k: usize,
        out: &mut dyn FnMut(&str) -> Result<(), EntkError>,
    ) -> Result<(), EntkError> {
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
    /// completion). Checkpoints are taken at these boundaries. Errors —
    /// a malformed or out-of-order row at pull time, a strict-mode abort
    /// at admission, a failing sink — leave the engine unusable.
    pub fn run_to_boundary(&mut self, k: usize) -> Result<(), EntkError> {
        self.drive(k, &mut |_| Ok(()))
    }

    /// Serializes the admission state at the current arrival boundary.
    pub fn checkpoint(&self) -> ServiceCheckpoint {
        let s = &self.config.stream;
        ServiceCheckpoint {
            version: 2,
            seed: s.seed,
            resource: s.resource.clone(),
            slots: s.slots,
            backend: s.backend.label(),
            policy: self.config.policy.label().to_string(),
            half_life_secs: self.config.policy.half_life_secs(),
            max_queue_depth: self.config.max_queue_depth,
            saturation: self.config.saturation.label().to_string(),
            strict: self.config.strict,
            unit_failure_rate: s.unit_failure_rate,
            scheduler: s.scheduler.clone(),
            fault: Some(s.fault),
            arrivals_fp: format!("{:016x}", self.prefix_fp),
            clock_us: self.clock.as_micros(),
            next_arrival: self.next_arrival,
            emitted: self.emitted,
            pending: self.pending.iter().copied().collect(),
            deferred: self.deferred.iter().copied().collect(),
            in_flight: {
                let mut slots: Vec<InFlightSlot> = self
                    .in_flight
                    .iter()
                    .map(|&Reverse((t, i))| InFlightSlot {
                        session: i,
                        finish_us: t.as_micros(),
                    })
                    .collect();
                slots.sort_by_key(|s| (s.finish_us, s.session));
                slots
            },
            usage: self.ledger.balances().map(|(k, v)| (*k, v)).collect(),
            usage_decayed_at_us: self.ledger.last_decay_micros(),
            max_cross_check_err_secs: self.acc.stats.max_cross_check_err_secs,
            // Emitted sessions are a contiguous prefix, so this is index
            // order.
            records: self
                .records
                .iter()
                .chain(self.window.values())
                .cloned()
                .collect(),
        }
    }

    /// Rebuilds a service from a checkpoint. The checkpoint must match
    /// the config and the arrival stream's served prefix (the prefix is
    /// re-pulled, re-validated, and fingerprint-checked while skipping);
    /// only sessions that still need service times — pending, deferred,
    /// or not yet arrived — are re-evaluated, exactly the discipline the
    /// just-in-time pool applies everywhere. The restored engine emits
    /// the stream JSONL *suffix* from the checkpoint's `emitted` cursor;
    /// prefix + suffix is byte-identical to the uninterrupted run.
    pub fn restore(
        config: ServiceConfig,
        arrivals: impl IntoArrivalStream,
        ckpt: &ServiceCheckpoint,
    ) -> Result<Self, EntkError> {
        Self::restore_with_options(config, arrivals, ckpt, EngineOptions::default())
    }

    /// [`ServiceEngine::restore`] with explicit streaming knobs.
    pub fn restore_with_options(
        config: ServiceConfig,
        arrivals: impl IntoArrivalStream,
        ckpt: &ServiceCheckpoint,
        options: EngineOptions,
    ) -> Result<Self, EntkError> {
        Self::validate_config(&config)?;
        if ckpt.version != 2 {
            return Err(EntkError::Usage(format!(
                "unsupported checkpoint version {}",
                ckpt.version
            )));
        }
        let s = &config.stream;
        let mismatches: Vec<&str> = [
            (ckpt.seed != s.seed, "seed"),
            (ckpt.resource != s.resource, "resource"),
            (ckpt.slots != s.slots, "slots"),
            (ckpt.backend != s.backend.label(), "backend"),
            (ckpt.policy != config.policy.label(), "policy"),
            (
                ckpt.half_life_secs != config.policy.half_life_secs(),
                "half_life_secs",
            ),
            (
                ckpt.max_queue_depth != config.max_queue_depth,
                "max_queue_depth",
            ),
            (ckpt.saturation != config.saturation.label(), "saturation"),
            (ckpt.strict != config.strict, "strict"),
            (
                ckpt.unit_failure_rate != s.unit_failure_rate,
                "unit_failure_rate",
            ),
            (ckpt.scheduler != s.scheduler, "scheduler"),
            (ckpt.fault.unwrap_or_default() != s.fault, "fault"),
        ]
        .iter()
        .filter_map(|&(differs, name)| differs.then_some(name))
        .collect();
        if !mismatches.is_empty() {
            return Err(EntkError::Usage(format!(
                "checkpoint does not match the service config (differs on: {})",
                mismatches.join(", ")
            )));
        }
        // Balances are core-seconds; anything else would steer fair-share
        // admission wherever the edit pointed it.
        if let Some((tenant, balance)) = ckpt
            .usage
            .iter()
            .find(|(_, balance)| !(balance.is_finite() && *balance >= 0.0))
        {
            return Err(EntkError::Usage(format!(
                "checkpoint usage balance of tenant {tenant} must be finite and >= 0, \
                 got {balance:?}"
            )));
        }
        let mut tenants = BTreeSet::new();
        if let Some((tenant, _)) = ckpt.usage.iter().find(|(t, _)| !tenants.insert(*t)) {
            return Err(EntkError::Usage(format!(
                "checkpoint usage lists tenant {tenant} more than once"
            )));
        }
        // A session is in at most one of these lists; `listed` maps each
        // session to the list that names it first.
        let mut listed: HashMap<usize, &str> = HashMap::new();
        let places = (ckpt.pending.iter().map(|&i| ("pending", i)))
            .chain(ckpt.deferred.iter().map(|&i| ("deferred", i)))
            .chain(
                ckpt.in_flight
                    .iter()
                    .map(|slot| ("in_flight", slot.session)),
            );
        for (field, i) in places {
            if let Some(first) = listed.insert(i, field) {
                return Err(EntkError::Usage(format!(
                    "checkpoint session {i} is listed in {first} and again in {field}"
                )));
            }
        }
        let stream = arrivals.into_arrival_stream()?;
        let mut engine = Self::empty(config, options, stream);
        // Re-pull the served prefix: every row is validated, order-checked,
        // and folded into the prefix fingerprint, but only rows still
        // queued (pending or deferred) are retained — the rest are dropped
        // as soon as they are hashed, so restore stays bounded-memory.
        let mut queued = Vec::new();
        while engine.pulled < ckpt.next_arrival {
            let Some((i, row)) = engine.pull_row()? else {
                return Err(EntkError::Usage("checkpoint cursors out of range".into()));
            };
            engine.prefix_fp = fnv64_update(engine.prefix_fp, render_row(&row).as_bytes());
            if matches!(listed.get(&i), Some(&"pending" | &"deferred")) {
                queued.push((i, row));
            }
        }
        let clock = SimTime::from_micros(ckpt.clock_us);
        if engine.last_pulled_at.is_some_and(|last| clock < last) {
            return Err(EntkError::Usage(format!(
                "checkpoint clock_us {} is before the last ingested arrival",
                ckpt.clock_us
            )));
        }
        let fp = format!("{:016x}", engine.prefix_fp);
        if ckpt.arrivals_fp != fp {
            return Err(EntkError::Usage(
                "checkpoint was taken against a different arrival stream \
                 (trace fingerprint mismatch)"
                    .into(),
            ));
        }
        let n = ckpt.next_arrival;
        if ckpt.emitted > n {
            return Err(EntkError::Usage("checkpoint cursors out of range".into()));
        }
        let mut finalized: BTreeMap<usize, SessionRecord> = BTreeMap::new();
        for r in &ckpt.records {
            if r.session >= n || finalized.insert(r.session, r.clone()).is_some() {
                return Err(EntkError::Usage(format!(
                    "checkpoint record for session {} is out of range or duplicated",
                    r.session
                )));
            }
        }
        for &i in ckpt.pending.iter().chain(&ckpt.deferred) {
            if i >= ckpt.next_arrival || finalized.contains_key(&i) {
                return Err(EntkError::Usage(format!(
                    "checkpoint queues session {i} inconsistently"
                )));
            }
        }
        for slot in &ckpt.in_flight {
            // `finalized` holds only sessions below `next_arrival`.
            let record = finalized.get(&slot.session);
            let Some(record) = record.filter(|_| slot.finish_us >= ckpt.clock_us) else {
                return Err(EntkError::Usage(format!(
                    "checkpoint in-flight slot for session {} is inconsistent",
                    slot.session
                )));
            };
            if record.finish_us != slot.finish_us {
                return Err(EntkError::Usage(format!(
                    "checkpoint in_flight finish_us {} of session {} differs from its \
                     record's finish_us {}",
                    slot.finish_us, slot.session, record.finish_us
                )));
            }
        }
        if ckpt.in_flight.len() > engine.config.stream.slots {
            return Err(EntkError::Usage(
                "checkpoint occupies more slots than the config provides".into(),
            ));
        }
        // Replay the emitted prefix through the emission point (no observer
        // is attached yet): running stats, fingerprint and retained lines
        // become exactly what the uninterrupted run held at this boundary,
        // and what stays in the window is finalized but not yet emitted.
        engine.window = finalized;
        engine.emit(&mut |_| Ok(()))?;
        if engine.emitted != ckpt.emitted {
            return Err(EntkError::Usage(
                "checkpoint emitted cursor does not match its finalized records".into(),
            ));
        }
        engine.restored = ckpt.emitted;
        // Service times are needed only for sessions whose admission is
        // still ahead. Queued and deferred rows were retained above and go
        // back to the evaluation pool now, in index order; not-yet-arrived
        // rows are dispatched as `fill_readahead` pulls them.
        for (i, arrival) in queued {
            let service = engine.eval.dispatch(i, arrival.clone());
            engine.held.insert(i, HeldRow { arrival, service });
        }
        engine.ledger = entk_cluster::UsageLedger::restore(
            engine.config.policy.half_life_secs(),
            ckpt.usage.iter().copied(),
            ckpt.usage_decayed_at_us,
        );
        engine.clock = clock;
        engine.next_arrival = ckpt.next_arrival;
        engine.pending = ckpt.pending.iter().copied().collect();
        engine.deferred = ckpt.deferred.iter().copied().collect();
        engine.in_flight = ckpt
            .in_flight
            .iter()
            .map(|slot| Reverse((SimTime::from_micros(slot.finish_us), slot.session)))
            .collect();
        engine.acc.stats.max_cross_check_err_secs = ckpt.max_cross_check_err_secs;
        // A boundary applies no completion past the next arrival, so the
        // clock never passes it.
        engine.fill_readahead()?;
        if engine.peek_arrival().is_some_and(|next| clock > next) {
            return Err(EntkError::Usage(format!(
                "checkpoint clock_us {} is after the next arrival still to ingest",
                ckpt.clock_us
            )));
        }
        Ok(engine)
    }

    /// Serves the stream to completion, retaining each emitted record,
    /// and finishes the attached sinks with the report. The records —
    /// the whole stream, a restored engine's checkpointed prefix included
    /// — move into the report; the lines this instance emitted are
    /// `render_record` of `records[ckpt.emitted..]` (all of them for a
    /// fresh engine).
    pub fn run(mut self) -> Result<WorkloadReport, EntkError> {
        self.run_to_boundary(usize::MAX)?;
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
    pub fn run_streaming<W: std::io::Write>(
        mut self,
        out: &mut W,
    ) -> Result<ServeStats, EntkError> {
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
        self.drive(usize::MAX, &mut |line| {
            out.write_all(line.as_bytes())
                .map_err(|e| EntkError::Resource(format!("writing stream JSONL: {e}")))
        })?;
        debug_assert!(self.pending.is_empty() && self.deferred.is_empty());
        for sink in &mut self.sinks {
            sink.finish(None)?;
        }
        Ok(self.acc.stats())
    }
}
