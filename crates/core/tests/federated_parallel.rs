//! The windowed drive of the federated backend.
//!
//! `DriveMode` and `sim_threads` are accepted and ignored: every member
//! window runs on the polling thread, so the session report and the full
//! JSONL trace must be byte-identical whatever they are set to — and from
//! one run to the next. This suite checks that across randomized member
//! counts, seeds, fault grids, and pattern shapes, plus targeted
//! regressions for the stale-horizon edge (a member event landing exactly
//! on a window boundary), and that sessions spawn no threads.

use entk_core::prelude::*;
use entk_core::resource::run_federated_traced;
use entk_core::trace_check::cross_check;
use entk_pilot::RuntimeOverheads;
use entk_sim::Dist;
use proptest::prelude::*;
use serde_json::json;

/// A `members`-way federation alternating the two calibrated platforms,
/// with full telemetry so traces can be compared byte-for-byte.
fn fed_config(members: usize, seed: u64, drive: DriveMode) -> FederatedConfig {
    let clusters = (0..members)
        .map(|i| {
            let resource = if i % 2 == 0 {
                "xsede.comet"
            } else {
                "xsede.stampede"
            };
            ClusterSpec::new(resource, 4, SimDuration::from_secs(200_000))
        })
        .collect();
    FederatedConfig {
        seed,
        clusters,
        drive,
        ..FederatedConfig::default()
    }
}

/// The pattern shapes the equivalence is checked over.
#[derive(Clone, Copy, Debug)]
enum Shape {
    Eop { pipelines: usize, stages: usize },
    Sal { sims: usize },
}

fn build_pattern(shape: Shape) -> Box<dyn ExecutionPattern> {
    match shape {
        Shape::Eop { pipelines, stages } => {
            Box::new(EnsembleOfPipelines::new(pipelines, stages, |p, s| {
                KernelCall::new(
                    "misc.stress",
                    json!({ "iters": 300u64 + (p * 7 + s) as u64 }),
                )
            }))
        }
        Shape::Sal { sims } => Box::new(SimulationAnalysisLoop::new(
            1,
            sims,
            |_, i| KernelCall::new("misc.stress", json!({ "iters": 400u64 + i as u64 })),
            |_, outs| vec![KernelCall::new("ana.coco", json!({ "n_sims": outs.len() }))],
        )),
    }
}

/// Runs one session and returns `(report-json, trace-jsonl)` — the two
/// deterministic fingerprints every run of a config must agree on.
fn run_fingerprint(config: FederatedConfig, shape: Shape) -> (String, String) {
    let mut pattern = build_pattern(shape);
    let (report, telemetry) =
        run_federated_traced(config, pattern.as_mut()).expect("federated run");
    let report_json = serde_json::to_string(&report).expect("serialize report");
    (report_json, telemetry.tracer.to_jsonl())
}

/// Asserts that `DriveMode::Parallel` under the given `sim_threads` gives
/// the byte-identical report and trace `DriveMode::Serial` gives for the
/// base config, and returns the shared fingerprint.
fn assert_drive_equivalence(
    mut config: FederatedConfig,
    shape: Shape,
    sim_threads: usize,
) -> (String, String) {
    config.drive = DriveMode::Serial;
    let serial = run_fingerprint(config.clone(), shape);
    assert!(
        serial.1.lines().count() > 10,
        "trace too small to be a meaningful comparison"
    );
    config.drive = DriveMode::Parallel;
    config.sim_threads = sim_threads;
    let parallel = run_fingerprint(config, shape);
    assert_eq!(
        serial.0, parallel.0,
        "sim_threads {sim_threads}: the session report moved"
    );
    assert_eq!(
        serial.1, parallel.1,
        "sim_threads {sim_threads}: the trace moved"
    );
    serial
}

proptest! {
    // Each case runs two full telemetry-on federated sessions.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The drive knobs change no byte across member counts, seeds, fault
    /// grids, and EoP/SAL pattern shapes (`sim_threads = 1` included: it
    /// is `DriveMode::Serial`, like every other value).
    #[test]
    fn prop_parallel_drive_matches_serial(
        members in 1usize..5,
        sim_threads in 0usize..4,
        seed in 0u64..1_000_000,
        max_retries in 0u32..3,
        flaky in any::<bool>(),
        eop in any::<bool>(),
        size in 1usize..4,
    ) {
        let mut config = fed_config(members, seed, DriveMode::Serial);
        config.fault = FaultConfig::retries(max_retries);
        if flaky {
            for c in &mut config.clusters {
                c.unit_failure_rate = 0.25;
            }
        }
        let shape = if eop {
            Shape::Eop { pipelines: size, stages: 2 }
        } else {
            Shape::Sal { sims: size + 1 }
        };
        assert_drive_equivalence(config, shape, sim_threads);
    }
}

#[test]
fn federated_trace_passes_overhead_cross_check() {
    // The interleaved multi-member trace must still reconstruct the
    // overhead accounting to within a microsecond.
    let config = fed_config(3, 77, DriveMode::default());
    let shape = Shape::Eop {
        pipelines: 3,
        stages: 2,
    };
    let mut pattern = build_pattern(shape);
    let (report, telemetry) =
        run_federated_traced(config, pattern.as_mut()).expect("federated run");
    let check = cross_check(&report, &telemetry.tracer);
    assert!(
        check.max_abs_error_secs <= 1e-6,
        "cross-check error {} s",
        check.max_abs_error_secs
    );
}

#[test]
fn stale_horizon_event_on_window_boundary_is_not_lost() {
    // Regression: with all-constant overhead shapes, member events land on
    // an exact grid; a lookahead aligned with that grid places the next
    // member event exactly on the window horizon. The lookahead is derived
    // from the fixed task-submission overhead, so setting that overhead on
    // the grid sets the window width. The strictly-before window semantics
    // must leave that event pending (processed at the next merge point),
    // never drop or double-process it. A bug here shows up as a trace
    // divergence, a lost task, or a hang.
    for lookahead_secs in [0.5, 1.0, 2.0] {
        let mut config = fed_config(2, 9, DriveMode::Serial);
        config.entk_overheads = EntkOverheads {
            init: Dist::Constant(1.0),
            resource_request: Dist::Constant(0.5),
            teardown: Dist::Constant(0.5),
            task_create_per_task: Dist::Constant(0.0),
            task_submit_fixed: Dist::Constant(lookahead_secs),
        };
        config.runtime_overheads = RuntimeOverheads::zero();
        let shape = Shape::Eop {
            pipelines: 2,
            stages: 2,
        };
        let (report_json, _) = assert_drive_equivalence(config, shape, 0);
        let report: ExecutionReport = serde_json::from_str(&report_json).unwrap();
        assert_eq!(report.task_count(), 4, "lookahead {lookahead_secs}");
        assert_eq!(report.failed_tasks, 0, "lookahead {lookahead_secs}");
        assert!(!report.partial, "lookahead {lookahead_secs}");
    }
}

#[test]
fn one_member_federation_ignores_drive_mode() {
    // N = 1 keeps the single-engine drive, which has no windows at all.
    let config = fed_config(1, 4242, DriveMode::Serial);
    let shape = Shape::Eop {
        pipelines: 2,
        stages: 1,
    };
    assert_drive_equivalence(config, shape, 2);
}

#[test]
fn one_member_federation_is_the_simulated_session() {
    // The identity `ResourceHandle`'s shared builder rests on: a one-member
    // `FederatedConfig` carrying a `SimulatedConfig`'s knobs is the same
    // session — byte-identical trace and report — under a different label.
    let base = || SimulatedConfig {
        seed: 977,
        ..Default::default()
    };
    let eop = Shape::Eop {
        pipelines: 6,
        stages: 2,
    };
    let configs: Vec<(&str, SimulatedConfig, Shape)> = vec![
        ("eop", base(), eop),
        ("sal", base(), Shape::Sal { sims: 5 }),
        (
            "split pilots",
            SimulatedConfig {
                pilot_strategy: PilotStrategy::split(4),
                ..base()
            },
            eop,
        ),
        (
            "three pilots, wait_all",
            SimulatedConfig {
                pilot_strategy: PilotStrategy {
                    count: 3,
                    wait_all: true,
                },
                ..base()
            },
            eop,
        ),
        (
            "unit failures with retries",
            SimulatedConfig {
                unit_failure_rate: 0.2,
                fault: FaultConfig::retries(3),
                ..base()
            },
            eop,
        ),
        (
            "background load, backfill",
            SimulatedConfig {
                background_load: Some(entk_cluster::BackgroundLoad {
                    mean_interarrival_secs: 200.0,
                    cores: Dist::Constant(48.0),
                    runtime: Dist::Constant(600.0),
                    initial_jobs: 2,
                }),
                scheduler: Some(entk_core::ComponentSpec::named("backfill")),
                ..base()
            },
            eop,
        ),
        (
            "registry scheduler",
            SimulatedConfig {
                scheduler: Some(entk_core::ComponentSpec::named("sjf")),
                ..base()
            },
            eop,
        ),
        (
            "fault profile",
            SimulatedConfig {
                fault: FaultConfig::retries(4),
                fault_profile: Some(FaultProfile {
                    crash_schedule: vec![(46.0, 0)],
                    node_mtbf_secs: 50_000.0,
                    task_failure_rate: 0.1,
                    straggler_rate: 0.2,
                    ..FaultProfile::seeded(31)
                }),
                ..base()
            },
            eop,
        ),
        (
            "telemetry off",
            SimulatedConfig {
                telemetry: false,
                ..base()
            },
            eop,
        ),
    ];
    assert_eq!(configs.len(), 9);
    for (name, sim, shape) in configs {
        let rc = ResourceConfig::new("xsede.comet", 48, SimDuration::from_secs(200_000));
        let one_member = FederatedConfig {
            seed: sim.seed,
            entk_overheads: sim.entk_overheads,
            runtime_overheads: sim.runtime_overheads,
            fault: sim.fault,
            scheduler: sim.scheduler.clone(),
            wait_all: sim.pilot_strategy.wait_all,
            telemetry: sim.telemetry,
            clusters: vec![ClusterSpec {
                platform: sim.platform.clone(),
                pilots: sim.pilot_strategy.count,
                background_load: sim.background_load,
                fault_profile: sim.fault_profile.clone(),
                unit_failure_rate: sim.unit_failure_rate,
                ..ClusterSpec::new(rc.resource.clone(), rc.cores, rc.walltime)
            }],
            ..FederatedConfig::default()
        };
        let (sim_report, sim_telemetry) =
            run_simulated_traced(rc, sim, build_pattern(shape).as_mut()).unwrap();
        let (mut fed_report, fed_telemetry) =
            run_federated_traced(one_member, build_pattern(shape).as_mut()).unwrap();
        assert_eq!(
            sim_telemetry.tracer.to_jsonl(),
            fed_telemetry.tracer.to_jsonl(),
            "{name}: traces differ"
        );
        assert_eq!(sim_report.resource, "xsede.comet", "{name}");
        assert_eq!(fed_report.resource, "federated:xsede.comet", "{name}");
        fed_report.resource = sim_report.resource.clone();
        assert_eq!(
            serde_json::to_string(&sim_report).unwrap(),
            serde_json::to_string(&fed_report).unwrap(),
            "{name}: reports differ"
        );
    }
}

#[test]
fn tiny_lookahead_still_completes_and_matches() {
    // A 1 µs lookahead degenerates every window to a single timestamp —
    // the serial-equivalent schedule — and must still terminate and
    // replay. Retries with no backoff derive it: the session may resubmit
    // a failed task at once, so no window may be wider.
    let mut config = fed_config(3, 123, DriveMode::Serial);
    config.fault = FaultConfig::retries(1);
    let shape = Shape::Sal { sims: 3 };
    assert_drive_equivalence(config, shape, 0);
}

/// Live `entk-sim-worker-*` threads of this process — `WorkerPool` is the
/// only thing under a simulated session that spawns, and it names its
/// threads. The kernel truncates a thread name to 15 bytes, which is
/// exactly the prefix. `Threads:` in `/proc/self/status` would also count
/// the harness's own test threads, which come and go while this test runs.
#[cfg(target_os = "linux")]
fn pool_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list own threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "entk-sim-worker")
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn federated_sessions_spawn_no_threads() {
    // Sampled while each handle is alive — a per-session pool is joined on
    // drop, so it would only show up there.
    let shape = Shape::Eop {
        pipelines: 3,
        stages: 2,
    };
    for seed in 0..200 {
        let mut handle = ResourceHandle::federated(FederatedConfig {
            telemetry: false,
            ..fed_config(2, seed, DriveMode::Parallel)
        })
        .expect("federated handle");
        assert_eq!(pool_threads(), 0, "building session {seed} spawned");
        handle.allocate().expect("allocate");
        handle.run(build_pattern(shape).as_mut()).expect("run");
        assert_eq!(pool_threads(), 0, "running session {seed} spawned");
        handle.deallocate().expect("deallocate");
    }
}
