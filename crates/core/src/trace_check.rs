//! Cross-validation of the overhead accounting against the event trace.
//!
//! The driver accounts `OverheadBreakdown` analytically as it runs (summing
//! sampled delays). The trace records *when things happened*. This module
//! re-derives the same breakdown purely from trace timestamps and compares
//! the two — any drift means either the accounting or the instrumentation
//! is wrong, so bench binaries assert the match on every figure run.

use crate::report::{ExecutionReport, OverheadBreakdown};
use entk_sim::{SimDuration, SimTime, TraceKind, Tracer};

/// Re-derives the paper's overhead decomposition from trace timestamps.
///
/// - **core** = (`resource_ready` − `session_start`) + (`teardown_done` −
///   `teardown_start`): the init/resource-request and teardown windows.
/// - **pattern** = Σ over spawn batches of (`tasks_submitted` −
///   `tasks_created`); batches with no submission event (discarded during
///   graceful degradation) are excluded, matching the accounting.
/// - **runtime_pilot** = first pilot's `pilot_launched` − `pilot_submitted`.
/// - **resource_wait** = first pilot's `pilot_active` − `pilot_launched`.
/// - **failure_lost** = per-task walk: each `task_attempt_failed` charges
///   the wall time since that task's last `task_submitted`; each
///   `task_retry` (stamped at backoff completion) charges the backoff since
///   the preceding `task_attempt_failed`.
///
/// One walk over the records: every mark is the first record of its kind
/// and subject, and a pilot's marks follow its submission in append order
/// (the pilot runtime records a pilot's states in lifecycle order). Batch
/// ids and task uids are dense, so the per-id instants live in slabs. The
/// match names every kind, so a new one must say what it contributes.
pub fn breakdown_from_trace(tracer: &Tracer) -> OverheadBreakdown {
    let span = |start: Option<SimTime>, end: Option<SimTime>| {
        end.zip(start)
            .map(|(e, s)| e.saturating_since(s))
            .unwrap_or(SimDuration::ZERO)
    };
    let mut session_start = None;
    let mut resource_ready = None;
    let mut teardown_start = None;
    let mut teardown_done = None;
    let mut first_pilot: Option<(u64, SimTime)> = None;
    let mut pilot_launched = None;
    let mut pilot_active = None;
    // Instants by dense batch id or task uid: `put` one, `take` it back.
    let put = |table: &mut Vec<Option<SimTime>>, id: u64, time| {
        let idx = id as usize;
        if idx >= table.len() {
            table.resize(idx + 1, None);
        }
        table[idx] = Some(time);
    };
    let take = |table: &mut Vec<Option<SimTime>>, id: u64| table.get_mut(id as usize)?.take();
    let mut created = Vec::new();
    let mut pattern = SimDuration::ZERO;
    let mut last_sub = Vec::new();
    let mut last_fail = Vec::new();
    let mut failure_lost = SimDuration::ZERO;
    // The first instant of a mark is the one that counts.
    let mark = |slot: &mut Option<SimTime>, time| _ = slot.get_or_insert(time);
    let first_pilot_is = |first: Option<(u64, SimTime)>, p| first.is_some_and(|(f, _)| f == p);
    for r in tracer.records() {
        use TraceKind::*;
        let (time, id) = (r.time, r.id);
        match r.kind {
            SessionStart => mark(&mut session_start, time),
            ResourceReady => mark(&mut resource_ready, time),
            TeardownStart => mark(&mut teardown_start, time),
            TeardownDone => mark(&mut teardown_done, time),
            TasksCreated => put(&mut created, id, time),
            TasksSubmitted => {
                if let Some(c) = take(&mut created, id) {
                    pattern += time.saturating_since(c);
                }
            }
            TaskSubmitted => put(&mut last_sub, id, time),
            // Records are walked in append order: a retry's backoff stamp is
            // appended right after its attempt failure, so `last_fail` is
            // always the matching failure even though the stamp lies in the
            // future.
            TaskAttemptFailed => {
                let s = take(&mut last_sub, id).unwrap_or(time);
                failure_lost += time.saturating_since(s);
                put(&mut last_fail, id, time);
            }
            TaskRetry => {
                let f = take(&mut last_fail, id).unwrap_or(time);
                failure_lost += time.saturating_since(f);
            }
            PilotSubmitted => _ = first_pilot.get_or_insert((id, time)),
            PilotLaunched if first_pilot_is(first_pilot, id) => mark(&mut pilot_launched, time),
            PilotActive if first_pilot_is(first_pilot, id) => mark(&mut pilot_active, time),
            PilotLaunched | PilotActive | TaskCreated | TaskFailed | TaskDone | PilotShrunk
            | PilotDone | PilotCancelled | PilotFailed | UnitSubmitted | UnitScheduled
            | UnitExecStart | UnitExecStop | UnitDone | UnitCanceled | UnitFailed | JobQueued
            | JobRejected | JobStarted | JobRunning | JobShrunk | JobCompleted | JobFailed
            | JobTimedOut | JobCancelled | NodeCrash | NodeRecover => {}
        }
    }

    let submitted = first_pilot.map(|(_, t)| t);
    OverheadBreakdown {
        core: span(session_start, resource_ready) + span(teardown_start, teardown_done),
        pattern,
        runtime_pilot: span(submitted, pilot_launched),
        resource_wait: span(pilot_launched, pilot_active),
        failure_lost,
    }
}

/// Result of comparing the trace-derived breakdown with the accounted one.
#[derive(Debug, Clone, Copy)]
pub struct CrossCheck {
    /// Breakdown recomputed from trace timestamps.
    pub derived: OverheadBreakdown,
    /// Breakdown accounted analytically by the driver.
    pub accounted: OverheadBreakdown,
    /// Largest per-field absolute difference, in seconds.
    pub max_abs_error_secs: f64,
}

impl CrossCheck {
    /// True when every compared field agrees within `tol_secs`.
    pub fn within(&self, tol_secs: f64) -> bool {
        self.max_abs_error_secs <= tol_secs
    }

    /// Panics with a field-by-field diff unless the breakdowns agree to
    /// microsecond precision (1e-6 s, the virtual-clock resolution).
    pub fn assert_ok(&self) {
        assert!(
            self.within(1e-6),
            "trace-derived overheads diverge from accounted (max err {:.6e}s)\n  \
             derived:   {:?}\n  accounted: {:?}",
            self.max_abs_error_secs,
            self.derived,
            self.accounted,
        );
    }
}

/// Recomputes the overhead breakdown from `tracer` and compares it with the
/// breakdown accounted in `report`.
///
/// On partial runs (graceful degradation) the `pattern` field is excluded:
/// teardown may truncate submission events whose overhead the accounting
/// already booked. Every other field must always agree.
pub fn cross_check(report: &ExecutionReport, tracer: &Tracer) -> CrossCheck {
    let derived = breakdown_from_trace(tracer);
    let accounted = report.overheads;
    let diff = |d: SimDuration, a: SimDuration| (d.as_secs_f64() - a.as_secs_f64()).abs();
    let pattern = if report.partial {
        0.0
    } else {
        diff(derived.pattern, accounted.pattern)
    };
    let max_abs_error_secs = [
        diff(derived.core, accounted.core),
        diff(derived.runtime_pilot, accounted.runtime_pilot),
        diff(derived.resource_wait, accounted.resource_wait),
        diff(derived.failure_lost, accounted.failure_lost),
        pattern,
    ]
    .into_iter()
    .fold(0.0, f64::max);
    CrossCheck {
        derived,
        accounted,
        max_abs_error_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entk_sim::TraceKind::*;

    fn t(secs: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(secs)
    }

    #[test]
    fn derives_core_and_pattern_from_synthetic_trace() {
        let mut tr = Tracer::new();
        tr.record(t(0.0), SessionStart, 0);
        tr.record(t(2.5), ResourceReady, 0);
        tr.record(t(2.5), TasksCreated, 0);
        tr.record(t(3.0), TasksSubmitted, 0);
        // A degraded batch: created but never submitted — excluded.
        tr.record(t(4.0), TasksCreated, 1);
        tr.record(t(90.0), TeardownStart, 0);
        tr.record(t(91.0), TeardownDone, 0);
        let d = breakdown_from_trace(&tr);
        assert!((d.core.as_secs_f64() - 3.5).abs() < 1e-9);
        assert!((d.pattern.as_secs_f64() - 0.5).abs() < 1e-9);
        assert_eq!(d.failure_lost, SimDuration::ZERO);
    }

    #[test]
    fn derives_pilot_overheads_from_first_pilot() {
        let mut tr = Tracer::new();
        tr.record(t(1.0), PilotSubmitted, 7);
        tr.record(t(1.4), PilotLaunched, 7);
        tr.record(t(11.4), PilotActive, 7);
        // A second pilot must not override the first.
        tr.record(t(2.0), PilotSubmitted, 8);
        tr.record(t(3.0), PilotLaunched, 8);
        let d = breakdown_from_trace(&tr);
        assert!((d.runtime_pilot.as_secs_f64() - 0.4).abs() < 1e-9);
        assert!((d.resource_wait.as_secs_f64() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn failure_lost_walk_charges_attempts_and_backoff() {
        let mut tr = Tracer::new();
        // Attempt 1: submitted at 10, fails at 25 (15s lost), retry with a
        // 5s backoff stamped at 30, resubmitted at 30, succeeds.
        tr.record(t(10.0), TaskSubmitted, 3);
        tr.record(t(25.0), TaskAttemptFailed, 3);
        tr.record(t(30.0), TaskRetry, 3);
        tr.record(t(30.0), TaskSubmitted, 3);
        tr.record(t(40.0), TaskDone, 3);
        let d = breakdown_from_trace(&tr);
        assert!((d.failure_lost.as_secs_f64() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn cross_check_flags_divergence() {
        let mut tr = Tracer::new();
        tr.record(t(0.0), SessionStart, 0);
        tr.record(t(2.0), ResourceReady, 0);
        let mut report = crate::report::ExecutionReport {
            pattern: "x".into(),
            resource: "local".into(),
            cores: 1,
            ttc: SimDuration::from_secs(10),
            overheads: OverheadBreakdown {
                core: SimDuration::from_secs(2),
                ..Default::default()
            },
            tasks: Default::default(),
            failed_tasks: 0,
            total_retries: 0,
            partial: false,
            events: 0,
        };
        assert!(cross_check(&report, &tr).within(1e-6));
        report.overheads.core = SimDuration::from_secs(3);
        let cc = cross_check(&report, &tr);
        assert!(!cc.within(1e-6));
        assert!((cc.max_abs_error_secs - 1.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod end_to_end_tests {
    use super::*;
    use crate::fault::FaultConfig;
    use crate::pattern::BagOfTasks;
    use crate::resource::{run_simulated_traced, ResourceConfig, SimulatedConfig};
    use entk_kernels::KernelCall;
    use serde_json::json;

    fn pattern(n: usize) -> BagOfTasks {
        BagOfTasks::new(n, |_| KernelCall::new("misc.sleep", json!({"secs": 5.0})))
    }

    #[test]
    fn clean_run_cross_checks_exactly() {
        let config = ResourceConfig::new("xsede.comet", 16, SimDuration::from_secs(3600));
        let (report, telemetry) =
            run_simulated_traced(config, SimulatedConfig::default(), &mut pattern(24)).unwrap();
        assert!(!report.partial);
        let cc = cross_check(&report, &telemetry.tracer);
        cc.assert_ok();
        // The derivation actually saw the events (non-trivial match).
        assert!(cc.derived.core > SimDuration::ZERO);
        assert!(cc.derived.pattern > SimDuration::ZERO);
    }

    #[test]
    fn faulty_run_cross_checks_failure_lost() {
        let config = ResourceConfig::new("xsede.comet", 16, SimDuration::from_secs(3600));
        let sim = SimulatedConfig {
            unit_failure_rate: 0.3,
            fault: FaultConfig {
                max_retries: 3,
                ..Default::default()
            },
            ..Default::default()
        };
        let (report, telemetry) = run_simulated_traced(config, sim, &mut pattern(24)).unwrap();
        assert!(report.total_retries > 0, "seed should produce retries");
        let cc = cross_check(&report, &telemetry.tracer);
        cc.assert_ok();
        assert!(cc.derived.failure_lost > SimDuration::ZERO);
        // Each retry and each terminal failure is one record.
        let count = |kind| telemetry.tracer.filter(kind).count();
        assert_eq!(count(TraceKind::TaskRetry), report.total_retries as usize);
        assert_eq!(count(TraceKind::TaskFailed), report.failed_tasks);
    }

    /// The one walk reads each session and pilot mark where a scan for it
    /// finds it, the first record of its name and subject, on a faulty
    /// two-member federation and a split-pilot simulated session.
    #[test]
    fn one_walk_reads_the_marks_a_scan_finds() {
        use crate::resource::{run_federated_traced, ClusterSpec, FederatedConfig, PilotStrategy};
        let fault = FaultConfig {
            max_retries: 3,
            ..Default::default()
        };
        let member = |resource: &str| ClusterSpec {
            unit_failure_rate: 0.3,
            pilots: 2,
            ..ClusterSpec::new(resource, 16, SimDuration::from_secs(3600))
        };
        let federated = FederatedConfig {
            fault,
            clusters: vec![member("xsede.comet"), member("xsede.stampede")],
            ..Default::default()
        };
        let simulated = SimulatedConfig {
            pilot_strategy: PilotStrategy::split(3),
            ..Default::default()
        };
        let config = ResourceConfig::new("xsede.comet", 24, SimDuration::from_secs(3600));
        for (report, telemetry) in [
            run_federated_traced(federated, &mut pattern(40)).unwrap(),
            run_simulated_traced(config, simulated, &mut pattern(40)).unwrap(),
        ] {
            let tracer = &telemetry.tracer;
            use TraceKind::*;
            let t = |kind| tracer.time_of(kind, 0);
            let span =
                |s: Option<SimTime>, e: Option<SimTime>| e.unwrap().saturating_since(s.unwrap());
            let pilot = tracer.filter(PilotSubmitted).next().unwrap().id;
            let p = |kind| tracer.time_of(kind, pilot);
            let derived = breakdown_from_trace(tracer);
            assert_eq!(
                derived.core,
                span(t(SessionStart), t(ResourceReady)) + span(t(TeardownStart), t(TeardownDone))
            );
            assert_eq!(
                derived.runtime_pilot,
                span(p(PilotSubmitted), p(PilotLaunched))
            );
            assert_eq!(
                derived.resource_wait,
                span(p(PilotLaunched), p(PilotActive))
            );
            cross_check(&report, tracer).assert_ok();
        }
    }
}
