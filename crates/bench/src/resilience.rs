//! Resilience sweep: what fault injection costs and what retries buy back.
//!
//! The sweep crosses two execution patterns (ensemble of pipelines,
//! simulation-analysis loop) with a grid of injected task-failure rates and
//! retry budgets, and reports TTC inflation, terminally failed tasks,
//! recovered tasks, resubmission counts, and time lost to failures. Every
//! point is deterministic in its seed: running the sweep twice with the
//! same seed yields byte-identical rows, and a zero-rate fault profile is
//! indistinguishable from no profile at all (the injector makes no RNG
//! draws it doesn't need). The `resilience` binary asserts both properties
//! and CI runs it at reduced scale.

use crate::figures::Row;
use entk_core::prelude::*;
use entk_sim::Dist;
use serde_json::json;

/// Injected task-failure rates the sweep crosses.
pub const RATES: [f64; 4] = [0.0, 0.05, 0.15, 0.3];
/// Retry budgets the sweep crosses.
pub const RETRIES: [u32; 3] = [0, 2, 8];
/// Pattern kinds the sweep runs.
pub const PATTERNS: [&str; 2] = ["eop", "sal"];
/// Retry budget of every federated resilience point.
pub const FED_RETRIES: u32 = 5;
/// Mean time between node crashes on the crash-heavy federation member.
pub const FED_CRASH_MTBF_SECS: f64 = 240.0;

/// A generous pilot wall time so experiments never hit the limit.
fn walltime() -> SimDuration {
    SimDuration::from_secs(10_000_000)
}

fn pattern_for(kind: &str, scale: usize) -> Box<dyn ExecutionPattern + Send> {
    let scale = scale.max(1);
    match kind {
        "eop" => Box::new(
            EnsembleOfPipelines::new((64 / scale).max(8), 2, |_, s| {
                KernelCall::new(
                    "misc.sleep",
                    json!({ "secs": if s == 0 { 30.0 } else { 10.0 } }),
                )
            })
            .with_stage_labels(vec!["simulate".into(), "reduce".into()]),
        ),
        "sal" => Box::new(SimulationAnalysisLoop::new(
            2,
            (32 / scale).max(4),
            |_, _| KernelCall::new("misc.sleep", json!({ "secs": 30.0 })),
            |_, outs| {
                vec![KernelCall::new(
                    "misc.sleep",
                    json!({ "secs": 5.0 + outs.len() as f64 }),
                )]
            },
        )),
        other => panic!("unknown pattern kind {other:?}"),
    }
}

/// Runs one sweep point and flattens its report into a row.
///
/// `inject` selects whether the platform carries a [`FaultProfile`] at all;
/// with `inject = false` the `rate` must be zero and the run is the
/// fault-free baseline the zero-rate injected rows must match exactly.
pub fn resilience_point(
    seed: u64,
    scale: usize,
    kind: &str,
    rate: f64,
    retries: u32,
    inject: bool,
) -> Row {
    assert!(inject || rate == 0.0, "baseline points must be fault-free");
    let mut pattern = pattern_for(kind, scale);
    let config = ResourceConfig::new("xsede.comet", 32, walltime());
    let sim = SimulatedConfig {
        seed,
        fault: FaultConfig::retries(retries)
            .with_backoff(BackoffPolicy::exponential(5.0))
            .graceful(),
        fault_profile: inject.then(|| FaultProfile::seeded(seed ^ 0xFA).with_task_failures(rate)),
        ..Default::default()
    };
    let (report, telemetry) =
        run_simulated_traced(config, sim, pattern.as_mut()).expect("resilience run");
    // Fault-heavy runs are the hardest case for the trace-derived overhead
    // reconstruction (retry backoff, degradation); cross-check every point.
    let cc = cross_check(&report, &telemetry.tracer);
    assert!(
        cc.within(1e-6),
        "resilience {kind} rate={rate} retries={retries}: \
         trace/accounting divergence ({:.3e}s)",
        cc.max_abs_error_secs
    );
    Row::new(format!("{kind}/retries={retries}"), rate)
        .with("ttc", report.ttc.as_secs_f64())
        .with("failed", report.failed_tasks as f64)
        .with("recovered", report.recovered_tasks() as f64)
        .with("resubmissions", report.total_retries as f64)
        .with("failure_lost", report.overheads.failure_lost.as_secs_f64())
        .with("partial", if report.partial { 1.0 } else { 0.0 })
        .with_trace(crate::figures::trace_fingerprint(&telemetry.tracer))
}

/// The full resilience sweep: every pattern × failure rate × retry budget,
/// with the injector installed.
pub fn resilience_sweep(seed: u64, scale: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for kind in PATTERNS {
        for rate in RATES {
            for retries in RETRIES {
                rows.push(resilience_point(seed, scale, kind, rate, retries, true));
            }
        }
    }
    rows
}

/// Fault-free baseline rows: one per pattern × retry budget, with **no**
/// fault profile installed. The sweep's rate-0 rows must equal these
/// exactly — the acceptance check that a zero-rate injector is free.
pub fn baseline_rows(seed: u64, scale: usize) -> Vec<Row> {
    PATTERNS
        .iter()
        .flat_map(|&kind| {
            RETRIES
                .iter()
                .map(move |&retries| resilience_point(seed, scale, kind, 0.0, retries, false))
        })
        .collect()
}

/// One federated two-cluster resilience point: `xsede.comet` stays clean
/// while `xsede.stampede` crashes nodes (a deterministic early crash plus a
/// Poisson process at [`FED_CRASH_MTBF_SECS`]) when `crash` is set.
///
/// The session late-binds every unit to the member with the most free
/// capacity at submission time, so when the crash-heavy member loses its
/// node the work drains to the healthy cluster instead of queueing behind
/// dead cores; the row records how much TTC the degraded member still
/// costs relative to the clean federation (same seed, same pattern,
/// `crash = false`). Like fig3/fig4, the ensemble size is fixed — the
/// sweep patterns at scale 1, which oversubscribes the 32-core federation
/// so losing a member shows up in TTC — because the point is the capacity
/// story, not the scaling story.
pub fn federated_point(seed: u64, kind: &str, crash: bool) -> Row {
    let mut pattern = pattern_for(kind, 1);
    let clean = ClusterSpec::new("xsede.comet", 16, walltime());
    let mut crashy = ClusterSpec::new("xsede.stampede", 16, walltime());
    if crash {
        // The 16-core stampede slice is a single 16-core node, so the
        // scheduled crash takes the whole member down early in the run.
        crashy.fault_profile = Some(
            FaultProfile::seeded(seed ^ 0xC4A5)
                .with_crash_at(40.0, 0)
                .with_node_crashes(FED_CRASH_MTBF_SECS, Dist::Constant(300.0)),
        );
    }
    let config = FederatedConfig {
        seed,
        fault: FaultConfig::retries(FED_RETRIES)
            .with_backoff(BackoffPolicy::exponential(5.0))
            .graceful(),
        clusters: vec![clean, crashy],
        ..Default::default()
    };
    let (report, telemetry) =
        run_federated_traced(config, pattern.as_mut()).expect("federated resilience run");
    // The interleaved multi-cluster trace must reconstruct the same
    // overhead breakdown the session accounted — same bar as single-cluster.
    let cc = cross_check(&report, &telemetry.tracer);
    assert!(
        cc.within(1e-6),
        "federated {kind} crash={crash}: trace/accounting divergence ({:.3e}s)",
        cc.max_abs_error_secs
    );
    Row::new(
        format!("fed/{kind}"),
        if crash { FED_CRASH_MTBF_SECS } else { 0.0 },
    )
    .with("ttc", report.ttc.as_secs_f64())
    .with("failed", report.failed_tasks as f64)
    .with("recovered", report.recovered_tasks() as f64)
    .with("resubmissions", report.total_retries as f64)
    .with("failure_lost", report.overheads.failure_lost.as_secs_f64())
    .with("partial", if report.partial { 1.0 } else { 0.0 })
    .with_trace(crate::figures::trace_fingerprint(&telemetry.tracer))
}

/// The federated resilience rows: each pattern run on a clean two-cluster
/// federation and again with one crash-heavy member, at a fixed
/// [`FED_RETRIES`] budget. The TTC delta between the paired rows is the
/// cost of the degraded member under cross-cluster late binding.
pub fn federated_resilience(seed: u64) -> Vec<Row> {
    PATTERNS
        .iter()
        .flat_map(|&kind| [false, true].map(|crash| federated_point(seed, kind, crash)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_rows_match_no_injector_baseline() {
        for &kind in &PATTERNS {
            let injected = resilience_point(7, 16, kind, 0.0, 2, true);
            let baseline = resilience_point(7, 16, kind, 0.0, 2, false);
            assert_eq!(injected, baseline, "{kind}: zero-rate injector not free");
        }
    }

    #[test]
    fn failures_inflate_ttc_and_retries_recover_tasks() {
        let faulty = resilience_point(7, 16, "eop", 0.3, 8, true);
        let clean = resilience_point(7, 16, "eop", 0.0, 8, true);
        assert!(faulty.value("ttc").unwrap() > clean.value("ttc").unwrap());
        assert!(faulty.value("recovered").unwrap() > 0.0);
        assert!(faulty.value("failure_lost").unwrap() > 0.0);
        assert_eq!(clean.value("failed").unwrap(), 0.0);
        assert_eq!(clean.value("partial").unwrap(), 0.0);
    }

    #[test]
    fn crash_heavy_member_slows_but_does_not_fail_the_federation() {
        let clean = federated_point(7, "eop", false);
        let crashy = federated_point(7, "eop", true);
        // Late binding plus retries absorb the degraded member entirely...
        assert_eq!(crashy.value("failed").unwrap(), 0.0);
        assert_eq!(crashy.value("partial").unwrap(), 0.0);
        // ...but running on the surviving member's capacity costs TTC.
        assert!(crashy.value("ttc").unwrap() > clean.value("ttc").unwrap());
        // Federated runs replay bit-identically in their seed.
        assert_eq!(crashy, federated_point(7, "eop", true));
    }

    #[test]
    fn sweep_replays_identically_for_one_seed() {
        let a = resilience_sweep(11, 32);
        let b = resilience_sweep(11, 32);
        assert_eq!(a, b);
        assert_eq!(a.len(), PATTERNS.len() * RATES.len() * RETRIES.len());
    }
}
