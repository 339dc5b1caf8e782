//! Golden trace fingerprints: five seeded sessions spanning the simulator's
//! feature surface (pipelines, simulation-analysis loops, failure injection,
//! multi-pilot strategies, multi-core MPI tasks) must export byte-identical
//! TRACE JSONL across refactors of the hot path. The pinned hashes were
//! recorded before the calendar-queue / arena-store overhaul and survived it
//! unchanged; any divergence here means a change altered simulated behaviour
//! (event order, timing, or RNG draws), not just its implementation.
//!
//! If a change *intentionally* alters traces (new event type, overhead model
//! change), re-record: run each scenario, print `tracer.fingerprint()`, and
//! update the constants with a note in the commit message.

use entk_core::prelude::*;
use entk_core::ExecutionReport;
use entk_sim::{Fnv64, Telemetry};
use serde_json::json;

struct Golden {
    fingerprint: u64,
    ttc: f64,
    bytes: usize,
}

fn run(label: &str, config: ResourceConfig, sim: SimulatedConfig) -> (ExecutionReport, Telemetry) {
    let mut pattern: Box<dyn ExecutionPattern + Send> = match label {
        "pipeline" => Box::new(EnsembleOfPipelines::new(48, 2, |_, s| {
            if s == 0 {
                KernelCall::new("misc.mkfile", json!({ "bytes": 1024 }))
            } else {
                KernelCall::new("misc.ccount", json!({ "bytes": 1024 }))
            }
        })),
        "sal" => Box::new(SimulationAnalysisLoop::new(
            2,
            32,
            |_, _| KernelCall::new("misc.mkfile", json!({ "bytes": 1024 })),
            |_, outs| {
                (0..outs.len().min(1))
                    .map(|_| KernelCall::new("misc.ccount", json!({ "bytes": 1024 })))
                    .collect()
            },
        )),
        "faults" | "pilots" => Box::new(BagOfTasks::new(
            if label == "faults" { 256 } else { 128 },
            |_| KernelCall::new("misc.sleep", json!({ "secs": 30.0 })),
        )),
        "mpi" => Box::new(BagOfTasks::new(96, |i| {
            let cores = [1usize, 4, 8][i % 3];
            KernelCall::new("misc.sleep", json!({ "secs": 30.0 })).with_cores(cores)
        })),
        _ => unreachable!("unknown golden scenario {label}"),
    };
    run_simulated_traced(config, sim, pattern.as_mut()).expect("golden run")
}

fn check(label: &str, config: ResourceConfig, sim: SimulatedConfig, golden: Golden) {
    let (report, telemetry) = run(label, config, sim);
    // Both routes to the pinned value: the streamed fingerprint and the hash
    // of the rendered string.
    let jsonl = telemetry.tracer.to_jsonl();
    for (route, got) in [
        ("fingerprint()", telemetry.tracer.fingerprint()),
        ("fnv64(to_jsonl())", entk_workload::fnv64(jsonl.as_bytes())),
    ] {
        assert_eq!(
            got,
            golden.fingerprint,
            "{label}: trace {route} diverged from golden \
             (got {got:#018x}, {} bytes, ttc {:.6})",
            jsonl.len(),
            report.ttc.as_secs_f64()
        );
    }
    assert_eq!(jsonl.len(), golden.bytes, "{label}: trace byte count");
    assert!(
        (report.ttc.as_secs_f64() - golden.ttc).abs() < 1e-6,
        "{label}: ttc {:.6} != golden {:.6}",
        report.ttc.as_secs_f64(),
        golden.ttc
    );
}

fn walltime() -> SimDuration {
    SimDuration::from_secs(10_000_000)
}

#[test]
fn golden_pipeline() {
    check(
        "pipeline",
        ResourceConfig::new("xsede.comet", 48, walltime()),
        SimulatedConfig {
            seed: 2016,
            ..Default::default()
        },
        Golden {
            fingerprint: 0x45e79e27d270700b,
            ttc: 55.249845,
            bytes: 69534,
        },
    );
}

#[test]
fn golden_simulation_analysis_loop() {
    check(
        "sal",
        ResourceConfig::new("xsede.comet", 64, walltime()),
        SimulatedConfig {
            seed: 7,
            ..Default::default()
        },
        Golden {
            fingerprint: 0x966b1b4dc88bc543,
            ttc: 47.992896,
            bytes: 43404,
        },
    );
}

fn faults_sim() -> SimulatedConfig {
    SimulatedConfig {
        seed: 2016,
        unit_failure_rate: 0.3,
        fault: entk_core::FaultConfig::retries(5),
        ..Default::default()
    }
}

#[test]
fn golden_fault_injection() {
    check(
        "faults",
        ResourceConfig::new("xsede.comet", 128, walltime()),
        faults_sim(),
        Golden {
            fingerprint: 0x330e592039d3df3b,
            ttc: 240.352503,
            bytes: 239293,
        },
    );
}

/// The Chrome trace-event export of the fault scenario (failed attempts end
/// spans, retries reopen them) stays byte-identical, whether collected or
/// streamed. Re-record like the JSONL pins.
#[test]
fn golden_chrome_export() {
    let (_, telemetry) = run(
        "faults",
        ResourceConfig::new("xsede.comet", 128, walltime()),
        faults_sim(),
    );
    let json = telemetry.tracer.to_chrome_json();
    assert_eq!(json.len(), 338_388, "Chrome trace byte count");
    let mut streamed = Fnv64::new();
    telemetry
        .tracer
        .write_chrome_json(&mut streamed)
        .expect("hashing cannot fail");
    for (route, got) in [
        ("to_chrome_json()", entk_workload::fnv64(json.as_bytes())),
        ("write_chrome_json()", streamed.finish()),
    ] {
        assert_eq!(
            got, 0xa485_3278_ad9c_fe54,
            "{route} diverged from golden (got {got:#018x})"
        );
    }
}

#[test]
fn golden_multi_pilot() {
    check(
        "pilots",
        ResourceConfig::new("xsede.comet", 128, walltime()),
        SimulatedConfig {
            seed: 2016,
            pilot_strategy: entk_core::PilotStrategy::split(4),
            ..Default::default()
        },
        Golden {
            fingerprint: 0xff7dfb14524375a5,
            ttc: 83.152802,
            bytes: 84122,
        },
    );
}

#[test]
fn golden_multi_core_tasks() {
    check(
        "mpi",
        ResourceConfig::new("xsede.comet", 48, walltime()),
        SimulatedConfig {
            seed: 2016,
            ..Default::default()
        },
        Golden {
            fingerprint: 0x397cd71986c44b56,
            ttc: 324.708114,
            bytes: 62329,
        },
    );
}
