//! Stream-level record/report types, the stream line and report assembly.
//!
//! ## Model
//!
//! The stream is an open-loop queueing system at session granularity. The
//! shared backend exposes `slots` concurrent admission slots (think: how
//! many pilot sessions the resource provider lets one gateway run at
//! once). Admission is performed by the event-driven
//! [`crate::service::ServiceEngine`]; under FIFO, arrival `i` starts at
//! `max(arrival_i, k-th earliest slot-free time)` and occupies its slot
//! for its time-to-completion.
//!
//! Each admitted session runs through the existing
//! `SessionEngine`/`ExecutionBackend` seam (`run_simulated_traced` /
//! `run_federated_traced`) on its own virtual clock; its service time is
//! the session report's TTC. Because every simulated session starts from
//! its own t = 0, service times are independent of stream start times, so
//! the per-session evaluations are embarrassingly parallel — the service
//! fans them across cores and consumes the results in input order while
//! the admission loop itself stays serial and deterministic. Same seed +
//! same arrivals ⇒ byte-identical JSONL and report.
//!
//! ## Failure semantics
//!
//! A failed or degraded session is recorded (`status: failed | partial`)
//! rather than aborting the stream; see the service module docs. Strict
//! stream-fatal semantics are available via
//! [`crate::service::ServiceConfig`].

use crate::service::{ServeStats, ServiceConfig};
use entk_sim::{Fnv64, SimTime, Summary, TimeSeries};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Which shared backend the stream admits sessions onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamBackend {
    /// One simulated cluster per session pilot.
    Simulated,
    /// Each session late-binds across `members` simulated clusters.
    Federated {
        /// Member clusters per session (>= 2).
        members: usize,
    },
}

impl StreamBackend {
    /// Stable label used in reports and bench rows.
    pub fn label(self) -> String {
        match self {
            StreamBackend::Simulated => "simulated".to_string(),
            StreamBackend::Federated { members } => format!("federated:{members}"),
        }
    }
}

/// Stream-level configuration of the workload runner.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Master seed; each session derives an independent sub-seed from it.
    pub seed: u64,
    /// Resource every session's pilot is acquired on.
    pub resource: String,
    /// Concurrent admission slots of the shared backend.
    pub slots: usize,
    /// Backend sessions run on.
    pub backend: StreamBackend,
    /// Per-unit failure-injection probability threaded into every
    /// session's backend (0 = clean runs; 1 forces every session to
    /// degrade to a partial result).
    pub unit_failure_rate: f64,
    /// Registered batch-scheduler plugin threaded into every session's
    /// backend (`None` keeps the backend's policy default).
    pub scheduler: Option<entk_core::ComponentSpec>,
    /// Retry / timeout fault policy threaded into every session's backend.
    pub fault: entk_core::FaultConfig,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 2016,
            resource: "xsede.stampede".to_string(),
            slots: 4,
            backend: StreamBackend::Simulated,
            unit_failure_rate: 0.0,
            scheduler: None,
            fault: entk_core::FaultConfig::default(),
        }
    }
}

/// Terminal status of one session in the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum SessionStatus {
    /// The session ran to completion.
    Ok,
    /// The session ran but degraded to a partial result (some tasks
    /// failed past their retry budget).
    Partial,
    /// The session's backend run failed outright; it consumed no service
    /// time.
    Failed,
    /// The admission queue was at its bound; the session was turned away
    /// with a typed `saturated` outcome and never ran.
    Rejected,
}

impl SessionStatus {
    /// Stable lowercase label used in the stream JSONL.
    pub fn as_str(self) -> &'static str {
        match self {
            SessionStatus::Ok => "ok",
            SessionStatus::Partial => "partial",
            SessionStatus::Failed => "failed",
            SessionStatus::Rejected => "rejected",
        }
    }
}

/// Latency percentiles of one tenant (or of the whole stream).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantLatency {
    /// Tenant id; `u64::MAX` marks the all-tenants aggregate.
    pub tenant: u64,
    /// Served (ok or partial) sessions this tenant submitted.
    pub sessions: usize,
    /// Median latency (arrival → finish), seconds.
    pub p50: f64,
    /// 95th-percentile latency, seconds.
    pub p95: f64,
    /// 99th-percentile latency, seconds.
    pub p99: f64,
}

/// One session's stream-level outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionRecord {
    /// Index in arrival order.
    pub session: usize,
    /// Owning tenant.
    pub tenant: u64,
    /// Pattern label.
    pub pattern: String,
    /// Terminal status (`ok | partial | failed | rejected`).
    pub status: SessionStatus,
    /// The underlying error for failed or rejected sessions.
    pub error: Option<String>,
    /// Arrival instant, seconds.
    pub arrival_secs: f64,
    /// Admission instant, seconds.
    pub start_secs: f64,
    /// Completion instant, seconds.
    pub finish_secs: f64,
    /// Arrival → finish, seconds.
    pub latency_secs: f64,
    /// The session's own time-to-completion (service time), seconds.
    pub ttc_secs: f64,
    /// Arrival instant, exact microseconds (the seconds fields above are
    /// display values; gauges and replay use these exact instants so no
    /// f64 round-trip can merge or reorder boundary ties).
    pub arrival_us: u64,
    /// Admission instant, exact microseconds.
    pub start_us: u64,
    /// Completion instant, exact microseconds.
    pub finish_us: u64,
    /// Tasks the session executed.
    pub tasks: usize,
    /// Simulator events the session processed.
    pub events: u64,
    /// FNV-1a 64 fingerprint of the session's JSONL event trace.
    pub trace_fp: String,
}

/// Aggregated stream report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkloadReport {
    /// Backend label (`simulated` or `federated:N`).
    pub backend: String,
    /// Resource sessions ran on.
    pub resource: String,
    /// Master seed.
    pub seed: u64,
    /// Concurrent admission slots.
    pub slots: usize,
    /// Admission policy label (`fifo` or `fair-share`).
    pub policy: String,
    /// Sessions submitted (served + failed + rejected).
    pub sessions: usize,
    /// Distinct tenants observed.
    pub tenants: usize,
    /// Sessions that ran to completion.
    pub ok_sessions: usize,
    /// Sessions that degraded to a partial result.
    pub partial_sessions: usize,
    /// Sessions whose backend run failed.
    pub failed_sessions: usize,
    /// Sessions rejected by queue backpressure.
    pub rejected_sessions: usize,
    /// Total tasks across all sessions.
    pub total_tasks: usize,
    /// Total simulator events across all sessions.
    pub total_events: u64,
    /// Stream makespan: latest session finish, seconds.
    pub makespan_secs: f64,
    /// All-tenants latency percentiles (served sessions).
    pub latency: TenantLatency,
    /// Per-tenant latency percentiles, sorted by tenant id.
    pub per_tenant: Vec<TenantLatency>,
    /// Arrived-but-not-started depth over stream time (secs, depth).
    pub queue_depth: Vec<(f64, f64)>,
    /// Peak of the queue-depth series.
    pub queue_depth_peak: f64,
    /// Time-weighted mean of the queue-depth series.
    pub queue_depth_mean: f64,
    /// Admitted-and-running depth over stream time (secs, depth).
    pub in_service: Vec<(f64, f64)>,
    /// Largest per-session trace/accounting divergence, seconds. The
    /// cross-check gate (`<= 1e-6`) is asserted by benches and tests.
    pub max_cross_check_err_secs: f64,
    /// FNV-1a 64 fingerprint of the stream JSONL.
    pub stream_fp: String,
    /// Per-session records in arrival order.
    pub records: Vec<SessionRecord>,
}

impl WorkloadReport {
    /// The full report of a retaining serve: counts, makespan and stream
    /// fingerprint from the running stats; gauge series and exact latency
    /// percentiles over the served records, which move into the report.
    pub(crate) fn assemble(
        config: &ServiceConfig,
        stats: ServeStats,
        records: Vec<SessionRecord>,
    ) -> Self {
        let (queue_depth, in_service) = record_depth_gauges(&records);
        let secs = |series: &TimeSeries| -> Vec<(f64, f64)> {
            let points = series.points().iter();
            points.map(|&(t, v)| (t.as_secs_f64(), v)).collect()
        };

        // Latency percentiles over *served* sessions (ok or partial):
        // rejected sessions never ran and failed sessions have no service
        // span, so neither contributes a latency sample.
        let mut all = Summary::new();
        let mut by_tenant: BTreeMap<u64, Summary> = BTreeMap::new();
        for r in &records {
            if matches!(r.status, SessionStatus::Ok | SessionStatus::Partial) {
                all.add(r.latency_secs);
                by_tenant.entry(r.tenant).or_default().add(r.latency_secs);
            }
        }
        // An empty summary's percentiles are all 0.
        let latency_of = |tenant: u64, s: &Summary| {
            let ps = s.percentiles(&[50.0, 95.0, 99.0]);
            TenantLatency {
                tenant,
                sessions: s.count(),
                p50: ps[0],
                p95: ps[1],
                p99: ps[2],
            }
        };

        WorkloadReport {
            backend: config.stream.backend.label(),
            resource: config.stream.resource.clone(),
            seed: config.stream.seed,
            slots: config.stream.slots,
            policy: config.policy.label().to_string(),
            sessions: stats.sessions,
            tenants: stats.tenants,
            ok_sessions: stats.ok_sessions,
            partial_sessions: stats.partial_sessions,
            failed_sessions: stats.failed_sessions,
            rejected_sessions: stats.rejected_sessions,
            total_tasks: stats.total_tasks,
            total_events: stats.total_events,
            makespan_secs: stats.makespan_secs,
            latency: latency_of(u64::MAX, &all),
            per_tenant: by_tenant.iter().map(|(t, s)| latency_of(*t, s)).collect(),
            queue_depth: secs(&queue_depth),
            queue_depth_peak: queue_depth.peak(),
            queue_depth_mean: queue_depth.time_weighted_mean(),
            in_service: secs(&in_service),
            max_cross_check_err_secs: stats.max_cross_check_err_secs,
            stream_fp: stats.stream_fp,
            records,
        }
    }
}

/// FNV-1a 64 over arbitrary bytes ([`entk_sim::Fnv64`], the hash behind
/// the trace fingerprints, so stream and session fingerprints are
/// comparable).
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_update(Fnv64::new().finish(), bytes)
}

/// Folds more bytes into an FNV-1a 64 hash state. `fnv64(b"")` is the
/// initial state, so `fnv64_update(fnv64(a), b) == fnv64(a ++ b)` — the
/// streaming service uses this to fingerprint its emitted JSONL and its
/// ingested trace prefix without retaining either.
pub fn fnv64_update(hash: u64, bytes: &[u8]) -> u64 {
    let mut state = Fnv64::from_state(hash);
    state.update(bytes);
    state.finish()
}

/// Renders one session record as its stream JSONL line (trailing newline
/// included). Hand-rendered so the stream JSONL is byte-stable by
/// construction; the stream is these lines in session order.
pub fn render_record(r: &SessionRecord) -> String {
    let mut error = String::new();
    if let Some(e) = &r.error {
        error.push_str(",\"error\":");
        serde::write_json_str(&mut error, e).expect("writing to a String cannot fail");
    }
    format!(
        "{{\"session\":{},\"tenant\":{},\"pattern\":\"{}\",\"status\":\"{}\",\
         \"arrival\":{:.6},\"start\":{:.6},\"finish\":{:.6},\"latency\":{:.6},\
         \"ttc\":{:.6},\"tasks\":{},\"events\":{},\"trace_fp\":\"{}\"{}}}\n",
        r.session,
        r.tenant,
        r.pattern,
        r.status.as_str(),
        r.arrival_secs,
        r.start_secs,
        r.finish_secs,
        r.latency_secs,
        r.ttc_secs,
        r.tasks,
        r.events,
        r.trace_fp,
        error,
    )
}

/// One step of the admission timeline: (micros, kind, delta_queued,
/// delta_running). The kind orders ties finish → arrive → start.
pub(crate) type DepthEvent = (u64, u8, i64, i64);

/// The depth events one record contributes — the single derivation behind
/// the report's gauge series and the `gauges` sink. A rejected session
/// contributes none; a zero-service-time session leaves the queue without
/// a running blip.
pub(crate) fn depth_events(r: &SessionRecord) -> impl Iterator<Item = DepthEvent> {
    let served = r.status != SessionStatus::Rejected;
    let runs = served && r.finish_us > r.start_us;
    [
        served.then_some((r.arrival_us, 1, 1, 0)),
        runs.then_some((r.finish_us, 0, 0, -1)),
        served.then_some((r.start_us, 2, -1, i64::from(runs))),
    ]
    .into_iter()
    .flatten()
}

/// Replays the admission timeline as gauge samples: queue depth counts
/// sessions that arrived but have not started; in-service counts sessions
/// between start and finish. Ties resolve finish → arrive → start so a
/// slot freed at `t` is visible to a session starting at `t`. Built from
/// the records' exact microsecond instants — never from the f64 display
/// seconds, whose round-trip rounds large instants and can merge or
/// reorder boundary ties (see `gauge_ties_survive_f64_collisions`).
/// Rejected sessions never enter either series; a zero-duration (failed)
/// session contributes no in-service blip. Returns (queue depth, in
/// service); both are empty when no session was served.
fn record_depth_gauges(records: &[SessionRecord]) -> (TimeSeries, TimeSeries) {
    let mut events: Vec<DepthEvent> = records.iter().flat_map(depth_events).collect();
    events.sort_unstable();
    let (mut queue_depth, mut in_service) = (TimeSeries::new(), TimeSeries::new());
    let (mut queued, mut running) = (0i64, 0i64);
    for (t, _, dq, dr) in events {
        queued += dq;
        running += dr;
        let at = SimTime::from_micros(t);
        queue_depth.push(at, queued as f64);
        in_service.push(at, running as f64);
    }
    (queue_depth, in_service)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::{OpenLoopProcess, WorkloadGenerator};
    use entk_sim::SimDuration;

    fn small_stream() -> Vec<crate::SessionArrival> {
        OpenLoopProcess::poisson(9, 12, 4, 60.0).generate().unwrap()
    }

    /// A FIFO serve over an unbounded queue, with lenient failures.
    fn serve(
        config: &WorkloadConfig,
        arrivals: impl crate::IntoArrivalStream,
    ) -> Result<WorkloadReport, entk_core::EntkError> {
        let engine = crate::ServiceEngine::new(ServiceConfig::fifo(config.clone()), arrivals)?;
        engine.run(&mut std::io::sink())
    }

    #[test]
    fn serve_replays_byte_identically() {
        let config = WorkloadConfig {
            slots: 2,
            ..WorkloadConfig::default()
        };
        let arrivals = small_stream();
        let a = serve(&config, &arrivals).unwrap();
        let b = serve(&config, &arrivals).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.sessions, 12);
        assert_eq!(a.ok_sessions, 12);
        assert_eq!(a.policy, "fifo");
    }

    #[test]
    fn latency_and_queue_series_are_populated() {
        let config = WorkloadConfig {
            slots: 1, // maximum contention: everything queues
            ..WorkloadConfig::default()
        };
        let arrivals = small_stream();
        let r = serve(&config, &arrivals).unwrap();
        assert!(r.latency.p50 > 0.0);
        assert!(r.latency.p99 >= r.latency.p95 && r.latency.p95 >= r.latency.p50);
        assert!(!r.per_tenant.is_empty());
        assert!(r.per_tenant.iter().all(|t| t.sessions > 0));
        assert_eq!(
            r.per_tenant.iter().map(|t| t.sessions).sum::<usize>(),
            r.sessions
        );
        assert_eq!(r.queue_depth.len(), 3 * r.sessions);
        assert!(r.queue_depth_peak >= 1.0, "one slot must force queueing");
        assert!(r.queue_depth_mean > 0.0);
        assert!(r.makespan_secs > 0.0);
        assert!(r.max_cross_check_err_secs <= 1e-6);
        // Depth series never go negative and end drained.
        assert!(r.queue_depth.iter().all(|&(_, d)| d >= 0.0));
        assert_eq!(r.queue_depth.last().unwrap().1, 0.0);
        assert_eq!(r.in_service.last().unwrap().1, 0.0);
    }

    #[test]
    fn more_slots_never_increase_latency() {
        let arrivals = small_stream();
        let serve_slots = |slots| {
            serve(
                &WorkloadConfig {
                    slots,
                    ..WorkloadConfig::default()
                },
                &arrivals,
            )
            .unwrap()
        };
        let narrow = serve_slots(1);
        let wide = serve_slots(8);
        assert!(wide.latency.p99 <= narrow.latency.p99);
        assert!(wide.makespan_secs <= narrow.makespan_secs);
        // Service times are slot-independent.
        for (a, b) in narrow.records.iter().zip(&wide.records) {
            assert_eq!(a.ttc_secs, b.ttc_secs);
        }
    }

    #[test]
    fn federated_backend_serves_the_same_stream() {
        let config = WorkloadConfig {
            backend: StreamBackend::Federated { members: 2 },
            slots: 2,
            ..WorkloadConfig::default()
        };
        let arrivals = OpenLoopProcess::poisson(4, 6, 3, 60.0).generate().unwrap();
        let a = serve(&config, &arrivals).unwrap();
        let b = serve(&config, &arrivals).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.backend, "federated:2");
        assert!(a.max_cross_check_err_secs <= 1e-6);
    }

    #[test]
    fn stream_misuse_is_rejected() {
        let arrivals = small_stream();
        assert!(serve(
            &WorkloadConfig::default(),
            Vec::<crate::SessionArrival>::new()
        )
        .is_err());
        assert!(serve(
            &WorkloadConfig {
                slots: 0,
                ..WorkloadConfig::default()
            },
            &arrivals
        )
        .is_err());
        let mut unordered = arrivals.clone();
        let last = unordered.len() - 1;
        unordered.swap(0, last);
        assert!(serve(&WorkloadConfig::default(), &unordered).is_err());
        assert!(serve(
            &WorkloadConfig {
                backend: StreamBackend::Federated { members: 1 },
                ..WorkloadConfig::default()
            },
            &arrivals
        )
        .is_err());
    }

    fn record_at(session: usize, arrival_us: u64, start_us: u64, finish_us: u64) -> SessionRecord {
        SessionRecord {
            session,
            tenant: 0,
            pattern: "eop".into(),
            status: SessionStatus::Ok,
            error: None,
            arrival_secs: SimTime::from_micros(arrival_us).as_secs_f64(),
            start_secs: SimTime::from_micros(start_us).as_secs_f64(),
            finish_secs: SimTime::from_micros(finish_us).as_secs_f64(),
            latency_secs: 0.0,
            ttc_secs: 0.0,
            arrival_us,
            start_us,
            finish_us,
            tasks: 1,
            events: 1,
            trace_fp: format!("{:016x}", 0u64),
        }
    }

    #[test]
    fn gauge_ties_survive_f64_collisions() {
        // Above ~2^51 µs, the micros → f64-seconds → micros round-trip the
        // gauges used to take is lossy: 8944849571992850 µs rounds onto
        // 8944849571992849 µs. A finish at the former must not collapse
        // onto an arrival at the latter — the kind tie-break would then
        // wrongly order the finish *before* the arrival. The exact-micros
        // path keeps the two instants distinct.
        let f = 8_944_849_571_992_850u64;
        let lossy = SimDuration::from_secs_f64(SimTime::from_micros(f).as_secs_f64()).as_micros();
        assert_eq!(
            lossy,
            f - 1,
            "the chosen instant must exhibit the collision"
        );

        // Session 0 finishes at f; session 1 arrives at f - 1 and starts
        // at f (when the slot frees).
        let records = vec![record_at(0, 0, 0, f), record_at(1, f - 1, f, f + 10)];
        let (queue_depth, _) = record_depth_gauges(&records);
        let queue: Vec<(u64, f64)> = queue_depth
            .points()
            .iter()
            .map(|&(t, v)| (t.as_micros(), v))
            .collect();
        // Arrival at f-1 must register depth 1 at its own (exact) instant,
        // strictly before the finish/start pair at f.
        assert!(
            queue.contains(&(f - 1, 1.0)),
            "arrival instant preserved: {queue:?}"
        );
        assert!(
            queue.iter().any(|&(t, _)| t == f),
            "finish/start pair stays at its exact instant: {queue:?}"
        );
        // Depth never dips negative (the collapsed ordering used to make
        // the start precede the arrival at the merged instant).
        assert!(queue.iter().all(|&(_, d)| d >= 0.0), "{queue:?}");
    }
}
