//! Fig. 11 — the workload figure this reproduction adds beyond the paper's
//! evaluation: latency percentiles, queue depth, and makespan of an
//! open-loop session stream under admission contention.
//!
//! The sweep serves the in-repo synthetic trace (so CI needs no external
//! data) at each admission-slot width in [`FIG11_SLOTS`], on the simulated
//! and federated backends. One point = one served stream; its report
//! carries per-tenant p50/p95/p99, queue-depth peak/mean, makespan, and
//! the largest per-session cross-check error (asserted `<= 1e-6` by the
//! bench binary and smoke tests). Everything is deterministic, so
//! `WORKLOAD.json` and the stream JSONL are byte-identical under replay.

use entk_core::EntkError;
use entk_workload::{
    render_record, AdmissionPolicy, HotTenantTrace, ServeStats, ServiceConfig, ServiceEngine,
    StreamBackend, SyntheticTrace, WorkloadConfig, WorkloadGenerator, WorkloadReport,
};
use serde_json::json;

/// Admission-slot axis of the fig11 sweep.
pub const FIG11_SLOTS: &[usize] = &[1, 2, 4, 8];

/// Default session count of the fig11 stream.
pub const FIG11_SESSIONS: usize = 24;

/// Default tenant population of the fig11 stream.
pub const FIG11_TENANTS: u64 = 8;

/// Fair-share usage half-life of the fig11 fair legs and the fairness
/// ablation, virtual seconds.
pub const FIG11_HALF_LIFE_SECS: f64 = 600.0;

/// One served point of the fig11 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadPoint {
    /// Backend label (`simulated` or `federated:N`).
    pub backend: String,
    /// Admission policy label (`fifo` or `fair-share`).
    pub policy: String,
    /// Admission slots of the point.
    pub slots: usize,
    /// The served stream's report; its records render the stream JSONL.
    pub report: WorkloadReport,
}

impl WorkloadPoint {
    /// Deterministic JSON projection of the point for `WORKLOAD.json` —
    /// no wall-clock values, so the file is byte-identical under replay.
    pub fn to_json(&self) -> serde_json::Value {
        let r = &self.report;
        json!({
            "backend": self.backend,
            "policy": self.policy,
            "slots": self.slots,
            "sessions": r.sessions,
            "tenants": r.tenants,
            "total_tasks": r.total_tasks,
            "total_events": r.total_events,
            "makespan_secs": r.makespan_secs,
            "latency_p50": r.latency.p50,
            "latency_p95": r.latency.p95,
            "latency_p99": r.latency.p99,
            "queue_depth_peak": r.queue_depth_peak,
            "queue_depth_mean": r.queue_depth_mean,
            "max_cross_check_err_secs": r.max_cross_check_err_secs,
            "stream_fp": r.stream_fp,
            "per_tenant": r.per_tenant,
        })
    }
}

/// Runs the fig11 sweep on one backend under one admission policy: the
/// synthetic trace served at every slot width. The arrivals are generated
/// once; service times are evaluated inside the service's own parallel
/// fan-out, so points run serially here without leaving cores idle.
pub fn fig11_with_policy(
    seed: u64,
    sessions: usize,
    tenants: u64,
    backend: StreamBackend,
    policy: AdmissionPolicy,
) -> Result<Vec<WorkloadPoint>, EntkError> {
    let arrivals = SyntheticTrace::new(seed, sessions, tenants).generate()?;
    let mut points = Vec::with_capacity(FIG11_SLOTS.len());
    for &slots in FIG11_SLOTS {
        let stream = WorkloadConfig {
            seed,
            slots,
            backend,
            ..WorkloadConfig::default()
        };
        let config = ServiceConfig {
            policy,
            ..ServiceConfig::fifo(stream)
        };
        points.push(WorkloadPoint {
            backend: backend.label(),
            policy: policy.label().to_string(),
            slots,
            report: ServiceEngine::new(config, &arrivals)?.run(&mut std::io::sink())?,
        });
    }
    Ok(points)
}

/// The FIFO fig11 sweep (the historical default).
pub fn fig11_with(
    seed: u64,
    sessions: usize,
    tenants: u64,
    backend: StreamBackend,
) -> Result<Vec<WorkloadPoint>, EntkError> {
    fig11_with_policy(seed, sessions, tenants, backend, AdmissionPolicy::Fifo)
}

/// The fifo-vs-fair-share fairness ablation: the hot-tenant trace (tenant
/// 0 bursting over a light background population) served under both
/// admission policies on the same arrivals and slot width, so the
/// per-tenant p99 shift is attributable to the policy alone.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessAblation {
    /// The stream served FIFO.
    pub fifo: WorkloadReport,
    /// The same stream served fair-share.
    pub fair: WorkloadReport,
}

impl FairnessAblation {
    /// p99 latency of the hot tenant (id 0) in a report.
    pub fn hot_p99(r: &WorkloadReport) -> f64 {
        r.per_tenant
            .iter()
            .find(|t| t.tenant == 0)
            .map(|t| t.p99)
            .unwrap_or(0.0)
    }

    /// Worst p99 latency across the light tenants (ids >= 1).
    pub fn light_worst_p99(r: &WorkloadReport) -> f64 {
        r.per_tenant
            .iter()
            .filter(|t| t.tenant >= 1)
            .map(|t| t.p99)
            .fold(0.0, f64::max)
    }

    /// Deterministic JSON projection for `WORKLOAD.json`.
    pub fn to_json(&self) -> serde_json::Value {
        json!({
            "trace": "hot-tenant",
            "half_life_secs": FIG11_HALF_LIFE_SECS,
            "fifo": {
                "hot_p99": Self::hot_p99(&self.fifo),
                "light_worst_p99": Self::light_worst_p99(&self.fifo),
                "per_tenant": self.fifo.per_tenant,
                "stream_fp": self.fifo.stream_fp,
            },
            "fair": {
                "hot_p99": Self::hot_p99(&self.fair),
                "light_worst_p99": Self::light_worst_p99(&self.fair),
                "per_tenant": self.fair.per_tenant,
                "stream_fp": self.fair.stream_fp,
            },
        })
    }
}

/// Serves the hot-tenant trace under FIFO and fair-share admission on two
/// slots and returns both reports.
pub fn fairness_ablation_with(
    seed: u64,
    sessions: usize,
    tenants: u64,
) -> Result<FairnessAblation, EntkError> {
    let arrivals = HotTenantTrace::new(seed, sessions, tenants).generate()?;
    let stream = WorkloadConfig {
        seed,
        slots: 2,
        ..WorkloadConfig::default()
    };
    Ok(FairnessAblation {
        fifo: ServiceEngine::new(ServiceConfig::fifo(stream.clone()), &arrivals)?
            .run(&mut std::io::sink())?,
        fair: ServiceEngine::new(
            ServiceConfig::fair_share(stream, FIG11_HALF_LIFE_SECS),
            &arrivals,
        )?
        .run(&mut std::io::sink())?,
    })
}

/// Admission slots of the serve-scale sweep: wide enough that the
/// synthetic arrival rate keeps the FIFO queue bounded, so resident state
/// is governed by the look-ahead window rather than the stream length —
/// the configuration the bounded-memory claim is measured under.
pub const SERVE_SCALE_SLOTS: usize = 64;

/// Tenant population of the serve-scale sweep.
pub const SERVE_SCALE_TENANTS: u64 = 64;

/// One point of the out-of-core serve-scale sweep: one synthetic stream
/// of `sessions` sessions served end-to-end through
/// [`ServiceEngine::run_streaming`] into a null sink.
#[derive(Debug, Clone)]
pub struct ServeScalePoint {
    /// Backend label (`simulated` or `federated:N`).
    pub backend: String,
    /// Stream length of this point.
    pub sessions: usize,
    /// Host wall-clock of the serve, seconds.
    pub wall_secs: f64,
    /// Simulator events per host second.
    pub events_per_sec: f64,
    /// Process peak RSS (`VmHWM`) sampled right after the serve, KiB;
    /// `None` off Linux.
    pub vm_hwm_kb: Option<u64>,
    /// The serve's scalar stats (deterministic; carries the stream
    /// fingerprint and the engine's own peak-residency witness).
    pub stats: ServeStats,
}

impl ServeScalePoint {
    /// JSON projection for `WORKLOAD.json`. Unlike the fig11 points this
    /// carries wall-clock and RSS values, which legitimately differ
    /// between runs; `stream_fp` and the session counts stay replayable.
    pub fn to_json(&self) -> serde_json::Value {
        json!({
            "backend": self.backend,
            "sessions": self.sessions,
            "wall_secs": self.wall_secs,
            "events_per_sec": self.events_per_sec,
            "vm_hwm_kb": self.vm_hwm_kb,
            "peak_resident_sessions": self.stats.peak_resident_sessions,
            "total_events": self.stats.total_events,
            "jsonl_bytes": self.stats.jsonl_bytes,
            "stream_fp": self.stats.stream_fp,
            "ok_sessions": self.stats.ok_sessions,
            "makespan_secs": self.stats.makespan_secs,
        })
    }
}

/// Serves one synthetic stream of `sessions` sessions out-of-core and
/// measures it. The JSONL goes to a null sink: the point measures engine
/// throughput and resident footprint, not disk bandwidth.
pub fn serve_scale_point(
    seed: u64,
    sessions: usize,
    backend: StreamBackend,
) -> Result<ServeScalePoint, EntkError> {
    let synth = SyntheticTrace::new(seed, sessions, SERVE_SCALE_TENANTS);
    let config = ServiceConfig::fifo(WorkloadConfig {
        seed,
        slots: SERVE_SCALE_SLOTS,
        backend,
        ..WorkloadConfig::default()
    });
    let t0 = std::time::Instant::now();
    let mut sink = std::io::sink();
    let stats = ServiceEngine::new(config, synth.stream()?)?.run_streaming(&mut sink)?;
    let wall_secs = t0.elapsed().as_secs_f64();
    Ok(ServeScalePoint {
        backend: backend.label(),
        sessions,
        wall_secs,
        events_per_sec: stats.total_events as f64 / wall_secs.max(1e-12),
        vm_hwm_kb: vm_hwm_kb(),
        stats,
    })
}

/// The session-count axis of the serve-scale sweep: decades from 10^3 up
/// to `max_sessions`, with `max_sessions` itself appended when it is not
/// a decade point.
pub fn serve_scale_axis(max_sessions: usize) -> Vec<usize> {
    let mut axis = Vec::new();
    let mut n = 1000usize;
    while n <= max_sessions {
        axis.push(n);
        n = n.saturating_mul(10);
    }
    if axis.last() != Some(&max_sessions) && max_sessions >= 1000 {
        axis.push(max_sessions);
    }
    axis
}

/// Process peak resident set size (`VmHWM` from `/proc/self/status`),
/// KiB. Monotone non-decreasing over the process lifetime, which is what
/// makes the ascending serve-scale sweep's flat-memory comparison valid.
pub fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Concatenated stream JSONL of a sweep leg, each line prefixed with its
/// point's backend and slot width so one file captures the whole leg.
pub fn leg_jsonl(points: &[WorkloadPoint]) -> String {
    let mut out = String::new();
    for p in points {
        for record in &p.report.records {
            out.push_str(&format!(
                "{{\"backend\":\"{}\",\"slots\":{},{}",
                p.backend,
                p.slots,
                &render_record(record)[1..], // splice into the session object
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_replays_identically() {
        let a = fig11_with(3, 8, 4, StreamBackend::Simulated).unwrap();
        let b = fig11_with(3, 8, 4, StreamBackend::Simulated).unwrap();
        assert_eq!(a, b);
        assert_eq!(leg_jsonl(&a), leg_jsonl(&b));
    }

    #[test]
    fn fig11_points_honour_the_cross_check_budget() {
        for p in fig11_with(5, 6, 3, StreamBackend::Federated { members: 2 }).unwrap() {
            assert!(p.report.max_cross_check_err_secs <= 1e-6);
            assert_eq!(p.report.backend, "federated:2");
        }
    }

    #[test]
    fn fig11_latency_decreases_with_slots() {
        let points = fig11_with(7, 10, 4, StreamBackend::Simulated).unwrap();
        assert_eq!(points.len(), FIG11_SLOTS.len());
        for w in points.windows(2) {
            assert!(w[1].report.latency.p99 <= w[0].report.latency.p99);
        }
    }

    #[test]
    fn fig11_policies_share_arrivals_but_not_admission_order() {
        let fifo =
            fig11_with_policy(3, 8, 4, StreamBackend::Simulated, AdmissionPolicy::Fifo).unwrap();
        let fair = fig11_with_policy(
            3,
            8,
            4,
            StreamBackend::Simulated,
            AdmissionPolicy::FairShare {
                half_life_secs: FIG11_HALF_LIFE_SECS,
            },
        )
        .unwrap();
        for (a, b) in fifo.iter().zip(&fair) {
            assert_eq!(a.policy, "fifo");
            assert_eq!(b.policy, "fair-share");
            assert_eq!(a.report.sessions, b.report.sessions);
            assert_eq!(a.report.total_tasks, b.report.total_tasks);
        }
    }

    #[test]
    fn fairness_ablation_replays_and_spares_light_tenants() {
        let a = fairness_ablation_with(21, 16, 4).unwrap();
        let b = fairness_ablation_with(21, 16, 4).unwrap();
        assert_eq!(a, b);
        assert!(
            FairnessAblation::light_worst_p99(&a.fair)
                <= FairnessAblation::light_worst_p99(&a.fifo)
        );
        assert_eq!(a.fifo.sessions, a.fair.sessions);
    }

    #[test]
    fn leg_jsonl_lines_are_valid_json() {
        let points = fig11_with(2, 4, 2, StreamBackend::Simulated).unwrap();
        let jsonl = leg_jsonl(&points);
        for line in jsonl.lines() {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(v["backend"].as_str().is_some());
            assert!(v["session"].as_u64().is_some());
        }
    }
}
