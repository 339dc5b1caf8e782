//! Backend-conformance suite: one shared test matrix run against the
//! simulated, local, and federated backends.
//!
//! All three implement `ExecutionBackend` under the same `SessionEngine`,
//! so pattern *semantics* must be identical everywhere — task counts,
//! terminal states, the `partial` flag, and retry accounting — even though
//! clocks (virtual vs wall) and unit execution (modeled vs real) differ.

use entk_core::prelude::*;
use entk_core::EntkError;
use entk_sim::TraceKind;
use serde_json::json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Backend {
    Sim,
    Local,
    /// Two-member federation.
    Federated,
}

const ALL_BACKENDS: [Backend; 3] = [Backend::Sim, Backend::Local, Backend::Federated];

/// A fresh handle of the given flavor, sized to `cores` and carrying the
/// session fault policy, with `telemetry` on or off where the backend has
/// a trace. Federated splits the cores across two clusters.
fn handle(backend: Backend, cores: usize, fault: FaultConfig, telemetry: bool) -> ResourceHandle {
    match backend {
        Backend::Sim => {
            let config = ResourceConfig::new("xsede.comet", cores, SimDuration::from_secs(100_000));
            let sim = SimulatedConfig {
                fault,
                telemetry,
                ..SimulatedConfig::default()
            };
            ResourceHandle::simulated(config, sim).expect("simulated handle")
        }
        Backend::Local => ResourceHandle::local_with(cores, KernelRegistry::with_builtins(), fault)
            .expect("local handle"),
        Backend::Federated => {
            let first = cores.div_ceil(2).max(1);
            let second = (cores - cores / 2).max(1);
            let config = FederatedConfig {
                fault,
                telemetry,
                clusters: vec![
                    ClusterSpec::new("xsede.comet", first, SimDuration::from_secs(100_000)),
                    ClusterSpec::new("xsede.stampede", second, SimDuration::from_secs(100_000)),
                ],
                ..FederatedConfig::default()
            };
            ResourceHandle::federated(config).expect("federated handle")
        }
    }
}

fn run_session(
    backend: Backend,
    cores: usize,
    fault: FaultConfig,
    pattern: &mut dyn ExecutionPattern,
) -> ExecutionReport {
    let mut h = handle(backend, cores, fault, false);
    h.allocate().expect("allocate");
    let report = h.run(pattern).expect("run");
    h.deallocate().expect("deallocate");
    report
}

/// [`run_session`] with telemetry on, returning the trace too (`None` on
/// the local backend, which has no virtual-clock trace).
fn run_traced(
    backend: Backend,
    cores: usize,
    fault: FaultConfig,
    pattern: &mut dyn ExecutionPattern,
) -> (ExecutionReport, Option<Tracer>) {
    let mut h = handle(backend, cores, fault, true);
    h.allocate().expect("allocate");
    let report = h.run(pattern).expect("run");
    h.deallocate().expect("deallocate");
    let tracer = h.telemetry().map(|t| t.snapshot().tracer);
    (report, tracer)
}

/// A tiny 3×2 ensemble of pipelines on a kernel every backend supports
/// (modeled cost and a fast real implementation).
fn tiny_eop() -> EnsembleOfPipelines {
    EnsembleOfPipelines::new(3, 2, |p, s| {
        KernelCall::new("misc.stress", json!({ "iters": 500u64 + (p + s) as u64 }))
    })
    .with_stage_labels(vec!["warm".into(), "cool".into()])
}

#[test]
fn eop_semantics_identical_across_backends() {
    for backend in ALL_BACKENDS {
        let mut pattern = tiny_eop();
        let report = run_session(backend, 4, FaultConfig::default(), &mut pattern);
        assert_eq!(report.task_count(), 6, "{backend:?}: task count");
        assert_eq!(report.failed_tasks, 0, "{backend:?}: no failures");
        assert_eq!(report.total_retries, 0, "{backend:?}: no retries");
        assert!(!report.partial, "{backend:?}: complete run");
        for t in &report.tasks {
            assert!(t.success, "{backend:?}: task {} terminal success", t.uid);
            assert!(t.finished.is_some(), "{backend:?}: task {} finished", t.uid);
        }
        // Stage structure survives the backend: 3 tasks per stage label.
        for stage in ["warm", "cool"] {
            let n = report.tasks.iter().filter(|t| &*t.stage == stage).count();
            assert_eq!(n, 3, "{backend:?}: stage {stage}");
        }
    }
}

#[test]
fn sal_semantics_identical_across_backends() {
    for backend in ALL_BACKENDS {
        let n_sims = 2;
        let mut pattern = SimulationAnalysisLoop::new(
            1,
            n_sims,
            |_, i| {
                KernelCall::new(
                    "md.amber",
                    json!({ "n_atoms": 40, "steps": 40, "record_every": 20, "seed": i }),
                )
            },
            move |_, outs| {
                // Real runs produce frames; modeled runs only summary
                // statistics. CoCo accepts either form.
                let frames: Vec<serde_json::Value> = outs
                    .iter()
                    .filter_map(|o| o["frames"].as_array())
                    .flatten()
                    .cloned()
                    .collect();
                let args = if frames.is_empty() {
                    json!({ "n_sims": outs.len() })
                } else {
                    json!({ "frames": frames, "n_new": 2 })
                };
                vec![KernelCall::new("ana.coco", args)]
            },
        );
        let report = run_session(backend, n_sims, FaultConfig::default(), &mut pattern);
        assert_eq!(report.task_count(), n_sims + 1, "{backend:?}: SAL count");
        assert_eq!(report.failed_tasks, 0, "{backend:?}: SAL failures");
        assert!(!report.partial, "{backend:?}: SAL complete");
        assert_eq!(
            pattern.completed_iterations(),
            1,
            "{backend:?}: SAL iterated"
        );
    }
}

#[test]
fn unknown_kernel_is_a_task_failure_not_a_session_error() {
    // A kernel nobody registered, and arguments its kernel refuses.
    let unbindable = [
        ("md.namd", json!({})),
        ("misc.stress", json!({ "iter": 200u64 })),
    ];
    let cases = ALL_BACKENDS
        .into_iter()
        .flat_map(|backend| unbindable.iter().map(move |bad| (backend, bad.clone())));
    for (backend, (plugin, args)) in cases {
        let mut pattern = BagOfTasks::new(3, move |i| {
            if i == 1 {
                KernelCall::new(plugin, args.clone())
            } else {
                KernelCall::new("misc.stress", json!({ "iters": 200u64 }))
            }
        });
        let (report, tracer) = run_traced(backend, 2, FaultConfig::retries(2), &mut pattern);
        assert_eq!(report.task_count(), 3, "{backend:?}");
        assert_eq!(report.failed_tasks, 1, "{backend:?}: one binding failure");
        // Binding failures are not retried — the kernel can never resolve.
        assert_eq!(report.total_retries, 0, "{backend:?}: no retries");
        assert!(report.partial, "{backend:?}: partial flagged");
        let failed: Vec<_> = report.tasks.iter().filter(|t| !t.success).collect();
        assert_eq!(failed.len(), 1, "{backend:?}");
        assert_eq!(failed[0].retries, 0, "{backend:?}");
        // The refusal is accounted before the runtime submits the batch:
        // task 1's failure precedes every record of the batch's two units
        // and of its two accepted tasks. On one machine the accepted tasks
        // are recorded submitted after their units; a federation member's
        // records reach the trace when the session next polls, after them.
        let Some(tracer) = tracer else { continue };
        let at = |kind: TraceKind| -> Vec<(usize, u64)> {
            let records = tracer.records().iter().enumerate();
            records
                .filter(|(_, r)| r.kind == kind)
                .map(|(i, r)| (i, r.id))
                .collect()
        };
        let (refused, units) = (at(TraceKind::TaskFailed), at(TraceKind::UnitSubmitted));
        let submitted = at(TraceKind::TaskSubmitted);
        let ids = |records: &[(usize, u64)]| records.iter().map(|r| r.1).collect::<Vec<_>>();
        assert_eq!(ids(&refused), [1], "{backend:?}");
        assert_eq!(ids(&submitted), [0, 2], "{backend:?}");
        assert_eq!(units.len(), 2, "{backend:?}: one batch of two units");
        let first = units.iter().chain(&submitted).map(|r| r.0).min();
        assert!(first.is_some_and(|i| refused[0].0 < i), "{backend:?}");
        let (earlier, later) = match backend {
            Backend::Federated => (&submitted, &units),
            _ => (&units, &submitted),
        };
        assert!(
            earlier.iter().all(|e| later.iter().all(|l| e.0 < l.0)),
            "{backend:?}: {earlier:?} before {later:?}"
        );
    }
}

#[test]
fn retry_accounting_invariants_hold_everywhere() {
    // Sim/federated inject failures via unit_failure_rate; local forces a
    // real failure with a kernel reading a nonexistent path. In every case:
    // retries ≤ max per failed task, and partial ⇔ failures (absent
    // degradation).
    let fault = FaultConfig::retries(2);

    // Local: task 0 always fails, exhausts 2 retries.
    let mut pattern = BagOfTasks::new(2, |i| {
        if i == 0 {
            KernelCall::new(
                "misc.ccount",
                json!({ "path": "/nonexistent/entk/conformance" }),
            )
        } else {
            KernelCall::new("misc.stress", json!({ "iters": 200u64 }))
        }
    });
    let report = run_session(Backend::Local, 2, fault, &mut pattern);
    assert_eq!(report.failed_tasks, 1);
    assert_eq!(report.total_retries, 2);
    assert!(report.partial);

    // Sim + federated: stochastic unit failures, same accounting rules.
    for backend in [Backend::Sim, Backend::Federated] {
        let mut pattern = BagOfTasks::new(24, |i| {
            KernelCall::new("misc.stress", json!({ "iters": 500u64 + i as u64 }))
        });
        let mut h = match backend {
            Backend::Sim => {
                let config = ResourceConfig::new("xsede.comet", 8, SimDuration::from_secs(100_000));
                let sim = SimulatedConfig {
                    fault,
                    unit_failure_rate: 0.3,
                    telemetry: false,
                    ..SimulatedConfig::default()
                };
                ResourceHandle::simulated(config, sim).unwrap()
            }
            _ => {
                let mut c0 = ClusterSpec::new("xsede.comet", 4, SimDuration::from_secs(100_000));
                c0.unit_failure_rate = 0.3;
                let mut c1 = ClusterSpec::new("xsede.stampede", 4, SimDuration::from_secs(100_000));
                c1.unit_failure_rate = 0.3;
                let config = FederatedConfig {
                    fault,
                    telemetry: false,
                    clusters: vec![c0, c1],
                    ..FederatedConfig::default()
                };
                ResourceHandle::federated(config).unwrap()
            }
        };
        h.allocate().unwrap();
        let report = h.run(&mut pattern).unwrap();
        h.deallocate().unwrap();
        assert_eq!(report.task_count(), 24, "{backend:?}");
        assert_eq!(report.partial, report.failed_tasks > 0, "{backend:?}");
        let mut per_task_retries = 0;
        for t in &report.tasks {
            assert!(t.retries <= 2, "{backend:?}: task retries capped");
            if !t.success {
                assert_eq!(t.retries, 2, "{backend:?}: failed task exhausted retries");
            }
            per_task_retries += t.retries;
        }
        assert_eq!(
            per_task_retries, report.total_retries,
            "{backend:?}: retry totals consistent"
        );
    }
}

#[test]
fn lifecycle_misuse_rejected_with_typed_errors_everywhere() {
    for backend in ALL_BACKENDS {
        let mut pattern = tiny_eop();
        let mut h = handle(backend, 2, FaultConfig::default(), false);
        // Run before allocate.
        match h.run(&mut pattern) {
            Err(EntkError::Usage(_)) => {}
            other => panic!("{backend:?}: run-before-allocate gave {other:?}"),
        }
        // Deallocate before allocate.
        match h.deallocate() {
            Err(EntkError::Usage(_)) => {}
            other => panic!("{backend:?}: deallocate-before-allocate gave {other:?}"),
        }
        h.allocate().expect("allocate");
        // Double allocate.
        match h.allocate() {
            Err(EntkError::Usage(_)) => {}
            other => panic!("{backend:?}: double allocate gave {other:?}"),
        }
    }
}

#[test]
fn construction_errors_are_typed() {
    // Unknown resource name.
    let config = ResourceConfig::new("xsede.nonesuch", 8, SimDuration::from_secs(1000));
    match ResourceHandle::simulated(config, SimulatedConfig::default()) {
        Err(EntkError::Resource(msg)) => assert!(msg.contains("xsede.nonesuch")),
        other => panic!("unknown resource gave {:?}", other.err()),
    }
    // Core request beyond the platform.
    let config = ResourceConfig::new("xsede.comet", usize::MAX, SimDuration::from_secs(1000));
    match ResourceHandle::simulated(config, SimulatedConfig::default()) {
        Err(EntkError::Resource(_)) => {}
        other => panic!("oversized request gave {:?}", other.err()),
    }
    // Federated session with no clusters.
    match ResourceHandle::federated(FederatedConfig::default()) {
        Err(EntkError::Resource(msg)) => assert!(msg.contains("at least one cluster")),
        other => panic!("empty federation gave {:?}", other.err()),
    }
    // Federated member with a bad platform name.
    let config = FederatedConfig {
        clusters: vec![ClusterSpec::new(
            "no.such.machine",
            4,
            SimDuration::from_secs(1000),
        )],
        ..FederatedConfig::default()
    };
    match ResourceHandle::federated(config) {
        Err(EntkError::Resource(msg)) => assert!(msg.contains("no.such.machine")),
        other => panic!("bad federated member gave {:?}", other.err()),
    }
    // A local handle with no core to run on.
    match ResourceHandle::local(0) {
        Err(EntkError::Resource(msg)) => assert!(msg.contains("at least one"), "{msg}"),
        other => panic!("zero local cores gave {:?}", other.err()),
    }
    // A member with no wall time: its pilot would die as it starts.
    let config = FederatedConfig {
        clusters: vec![
            ClusterSpec::new("xsede.comet", 4, SimDuration::from_secs(1000)),
            ClusterSpec::new("xsede.stampede", 4, SimDuration::ZERO),
        ],
        ..FederatedConfig::default()
    };
    match ResourceHandle::federated(config) {
        Err(EntkError::Resource(msg)) => {
            assert_eq!(msg, "requested a zero wall time on xsede.stampede")
        }
        other => panic!("zero wall time gave {:?}", other.err()),
    }
    // A background load that leaves virtual time no gap to advance in, or
    // whose jobs have no size.
    use entk_sim::Dist;
    for (interarrival, cores, runtime, what) in [
        (0.0, 8.0, 60.0, "mean inter-arrival"),
        (-5.0, 8.0, 60.0, "mean inter-arrival"),
        (f64::NAN, 8.0, 60.0, "mean inter-arrival"),
        (30.0, 8.0, 0.0, "mean runtime"),
        (30.0, 8.0, f64::INFINITY, "mean runtime"),
        (30.0, 0.0, 60.0, "mean cores per job"),
    ] {
        let sim = SimulatedConfig {
            background_load: Some(entk_cluster::BackgroundLoad {
                mean_interarrival_secs: interarrival,
                cores: Dist::Constant(cores),
                runtime: Dist::Constant(runtime),
                initial_jobs: 0,
            }),
            ..SimulatedConfig::default()
        };
        let config = ResourceConfig::new("xsede.comet", 8, SimDuration::from_secs(1000));
        match ResourceHandle::simulated(config, sim) {
            Err(EntkError::Resource(msg)) => assert!(
                msg.starts_with(&format!("background load on xsede.comet: {what} must be")),
                "{msg}"
            ),
            other => panic!("background load {what} gave {:?}", other.err()),
        }
    }
    // More queued jobs than the machine has cores: each holds at least one.
    let sim = SimulatedConfig {
        background_load: Some(entk_cluster::BackgroundLoad {
            mean_interarrival_secs: 30.0,
            cores: Dist::Constant(8.0),
            runtime: Dist::Constant(60.0),
            initial_jobs: 47_617,
        }),
        ..SimulatedConfig::default()
    };
    let config = ResourceConfig::new("xsede.comet", 8, SimDuration::from_secs(1000));
    match ResourceHandle::simulated(config, sim) {
        Err(EntkError::Resource(msg)) => assert_eq!(
            msg,
            "background load on xsede.comet: initial jobs must be at most its 47616 cores, \
             got 47617"
        ),
        other => panic!("47 617 initial jobs gave {:?}", other.err()),
    }
}

#[test]
fn federated_reports_span_all_clusters() {
    let config = FederatedConfig {
        clusters: vec![
            ClusterSpec::new("xsede.comet", 24, SimDuration::from_secs(100_000)),
            ClusterSpec::new("xsede.stampede", 16, SimDuration::from_secs(100_000)),
        ],
        ..FederatedConfig::default()
    };
    let mut pattern = BagOfTasks::new(60, |i| {
        KernelCall::new("misc.stress", json!({ "iters": 400u64 + i as u64 }))
    });
    let (report, telemetry) =
        entk_core::resource::run_federated_traced(config, &mut pattern).expect("federated run");
    assert_eq!(report.resource, "federated:xsede.comet+xsede.stampede");
    assert_eq!(report.cores, 40);
    assert_eq!(report.task_count(), 60);
    assert_eq!(report.failed_tasks, 0);
    // With 60 tasks on 24+16 cores, late binding must use both clusters:
    // the trace carries unit subjects from both id spaces (cluster 1's
    // units are offset by 1e9).
    let mut saw_c0 = false;
    let mut saw_c1 = false;
    for rec in telemetry.tracer.records() {
        if let entk_sim::Subject::Unit(u) = rec.subject() {
            if u >= 1_000_000_000 {
                saw_c1 = true;
            } else {
                saw_c0 = true;
            }
        }
    }
    assert!(saw_c0, "cluster 0 executed units");
    assert!(saw_c1, "cluster 1 executed units");
}

#[test]
fn pattern_semantics_hold_under_every_registered_scheduler() {
    // The registry sweep: every named scheduler plugin must preserve
    // pattern semantics on the simulated and the federated backend —
    // scheduling policy may reorder starts, never outcomes.
    for name in entk_core::registry::schedulers().names() {
        let spec = entk_core::ComponentSpec::named(name);
        let config = ResourceConfig::new("xsede.comet", 4, SimDuration::from_secs(100_000));
        let sim = SimulatedConfig {
            scheduler: Some(spec.clone()),
            telemetry: false,
            ..SimulatedConfig::default()
        };
        let mut h = ResourceHandle::simulated(config, sim).expect("simulated handle");
        h.allocate().expect("allocate");
        let mut pattern = tiny_eop();
        let report = h.run(&mut pattern).expect("run");
        h.deallocate().expect("deallocate");
        assert_eq!(report.task_count(), 6, "{name}: sim task count");
        assert_eq!(report.failed_tasks, 0, "{name}: sim failures");
        assert!(!report.partial, "{name}: sim complete");

        let config = FederatedConfig {
            scheduler: Some(spec.clone()),
            telemetry: false,
            clusters: vec![
                ClusterSpec::new("xsede.comet", 2, SimDuration::from_secs(100_000)),
                ClusterSpec::new("xsede.stampede", 2, SimDuration::from_secs(100_000)),
            ],
            ..FederatedConfig::default()
        };
        let mut h = ResourceHandle::federated(config).expect("federated handle");
        h.allocate().expect("allocate");
        let mut pattern = tiny_eop();
        let report = h.run(&mut pattern).expect("run");
        h.deallocate().expect("deallocate");
        assert_eq!(report.task_count(), 6, "{name}: fed task count");
        assert_eq!(report.failed_tasks, 0, "{name}: fed failures");
        assert!(!report.partial, "{name}: fed complete");
    }
}

#[test]
fn named_fifo_plugin_is_trace_identical_to_the_default_policy() {
    // Selecting "fifo" through the registry must not perturb a single
    // event relative to the pre-registry default batch policy.
    let run = |scheduler: Option<entk_core::ComponentSpec>| {
        let config = ResourceConfig::new("xsede.comet", 4, SimDuration::from_secs(100_000));
        let sim = SimulatedConfig {
            seed: 11,
            scheduler,
            ..SimulatedConfig::default()
        };
        let mut pattern = tiny_eop();
        let (report, telemetry) =
            entk_core::resource::run_simulated_traced(config, sim, &mut pattern).expect("run");
        (report.ttc, telemetry.tracer.to_jsonl())
    };
    let (default_ttc, default_trace) = run(None);
    let (fifo_ttc, fifo_trace) = run(Some(entk_core::ComponentSpec::named("fifo")));
    assert_eq!(default_ttc, fifo_ttc);
    assert_eq!(default_trace, fifo_trace);
}

#[test]
fn unknown_scheduler_plugin_fails_with_registered_names() {
    let config = ResourceConfig::new("xsede.comet", 4, SimDuration::from_secs(100_000));
    let sim = SimulatedConfig {
        scheduler: Some(entk_core::ComponentSpec::named("priority")),
        ..SimulatedConfig::default()
    };
    match ResourceHandle::simulated(config, sim).err() {
        Some(EntkError::Usage(msg)) => {
            assert!(msg.contains("unknown scheduler \"priority\""), "{msg}");
            assert!(msg.contains("priority_aging"), "{msg}");
            assert!(msg.contains("round_robin"), "{msg}");
        }
        other => panic!("unknown scheduler gave {other:?}"),
    }
}

#[test]
fn federated_survives_a_crash_heavy_member() {
    // One clean cluster + one crash-heavy cluster: the session retries
    // casualties and still completes every task.
    let mut crashy = ClusterSpec::new("xsede.stampede", 16, SimDuration::from_secs(200_000));
    crashy.fault_profile = Some(FaultProfile {
        node_mtbf_secs: 600.0,
        ..FaultProfile::default()
    });
    let config = FederatedConfig {
        fault: FaultConfig::retries(5),
        telemetry: false,
        clusters: vec![
            ClusterSpec::new("xsede.comet", 16, SimDuration::from_secs(200_000)),
            crashy,
        ],
        ..FederatedConfig::default()
    };
    let mut pattern = BagOfTasks::new(48, |i| {
        KernelCall::new("misc.stress", json!({ "iters": 50_000u64 + i as u64 }))
    });
    let report = run_federated(config, &mut pattern).expect("crash-heavy federated run");
    assert_eq!(report.task_count(), 48);
    assert_eq!(report.failed_tasks, 0, "retries absorb the crashes");
    assert!(!report.partial);
}
