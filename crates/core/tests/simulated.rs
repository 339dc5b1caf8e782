//! End-to-end tests of the simulated backend: EnTK → pilot runtime →
//! cluster, in virtual time.

use entk_core::prelude::*;
use entk_core::{EntkError, EntkOverheads};
use serde_json::json;
use std::sync::atomic::{AtomicUsize, Ordering};

fn quiet_sim(seed: u64) -> SimulatedConfig {
    SimulatedConfig {
        seed,
        entk_overheads: EntkOverheads::zero(),
        runtime_overheads: entk_pilot::RuntimeOverheads::zero(),
        ..Default::default()
    }
}

fn sleep_bag(n: usize, secs: f64) -> BagOfTasks {
    BagOfTasks::new(n, move |_| {
        KernelCall::new("misc.sleep", json!({ "secs": secs }))
    })
}

#[test]
fn bag_of_tasks_completes_with_correct_ttc_shape() {
    // 8 tasks of 10 s on 4 cores: two waves => exec time ≈ 20 s.
    let config = ResourceConfig::new("local", 4, SimDuration::from_secs(100_000));
    let mut pattern = sleep_bag(8, 10.0);
    let report = run_simulated(config, quiet_sim(1), &mut pattern).unwrap();
    assert_eq!(report.task_count(), 8);
    assert_eq!(report.failed_tasks, 0);
    let exec = report.exec_time().as_secs_f64();
    assert!((20.0..21.5).contains(&exec), "exec time {exec}");
    assert!(report.ttc.as_secs_f64() >= exec);
}

#[test]
fn char_count_pipeline_on_comet() {
    // The paper's Fig. 3 app: mkfile then ccount, tasks == cores == 24.
    let n = 24;
    let config = ResourceConfig::new("xsede.comet", n, SimDuration::from_secs(100_000));
    let mut pattern = EnsembleOfPipelines::new(n, 2, |_, s| {
        if s == 0 {
            KernelCall::new("misc.mkfile", json!({ "bytes": 1024 }))
        } else {
            KernelCall::new("misc.ccount", json!({ "bytes": 1024 }))
        }
    })
    .with_stage_labels(vec!["mkfile".into(), "ccount".into()]);
    let report = run_simulated(config, SimulatedConfig::default(), &mut pattern).unwrap();
    assert_eq!(report.task_count(), 2 * n);
    assert_eq!(report.failed_tasks, 0);
    // Both stages ran, each ≈1 s (fully concurrent), so stage times ≈ 1 s.
    let mk = report.stage_time("mkfile").as_secs_f64();
    let cc = report.stage_time("ccount").as_secs_f64();
    assert!((0.7..2.0).contains(&mk), "mkfile stage {mk}");
    assert!((0.7..2.0).contains(&cc), "ccount stage {cc}");
    // Overheads recorded: core constant parts and per-task pattern part.
    assert!(report.overheads.core.as_secs_f64() > 1.0);
    assert!(report.overheads.pattern.as_secs_f64() > 0.0);
    assert!(report.overheads.resource_wait.as_secs_f64() > 10.0); // job startup
}

#[test]
fn sal_with_md_and_coco_on_stampede() {
    let n_sims = 16;
    let iterations = 2;
    let config = ResourceConfig::new("xsede.stampede", n_sims, SimDuration::from_secs(1_000_000));
    let mut pattern = SimulationAnalysisLoop::new(
        iterations,
        n_sims,
        |_, i| {
            KernelCall::new(
                "md.amber",
                json!({ "steps": 300, "n_atoms": 2881, "seed": i }),
            )
        },
        move |_, outs| vec![KernelCall::new("ana.coco", json!({ "n_sims": outs.len() }))],
    );
    let report = run_simulated(config, quiet_sim(2), &mut pattern).unwrap();
    assert_eq!(report.task_count(), iterations * (n_sims + 1));
    assert_eq!(report.failed_tasks, 0);
    assert!(report.stage_time("simulation") > SimDuration::ZERO);
    assert!(report.stage_time("analysis") > SimDuration::ZERO);
    assert_eq!(pattern.completed_iterations(), iterations);
}

#[test]
fn ensemble_exchange_on_supermic_swaps_replicas() {
    let n = 8;
    let cycles = 3;
    let config = ResourceConfig::new("lsu.supermic", n, SimDuration::from_secs(1_000_000));
    let mut pattern = EnsembleExchange::new(
        n,
        cycles,
        TemperatureLadder::geometric(n, 0.8, 2.0),
        |r, _c, t| {
            KernelCall::new(
                "md.amber",
                json!({ "steps": 300, "n_atoms": 500, "temperature": t, "seed": r }),
            )
        },
    );
    let report = run_simulated(config, quiet_sim(3), &mut pattern).unwrap();
    assert_eq!(report.failed_tasks, 0);
    assert_eq!(
        report
            .tasks
            .iter()
            .filter(|t| &*t.stage == "simulation")
            .count(),
        n * cycles
    );
    assert_eq!(
        report
            .tasks
            .iter()
            .filter(|t| &*t.stage == "exchange")
            .count(),
        cycles
    );
    let (_, attempted) = pattern.swap_stats();
    assert!(attempted > 0);
}

#[test]
fn identical_seeds_give_identical_reports() {
    let run = || {
        let config = ResourceConfig::new("xsede.comet", 16, SimDuration::from_secs(100_000));
        let mut pattern = sleep_bag(32, 5.0);
        run_simulated(
            config,
            SimulatedConfig {
                seed: 77,
                ..Default::default()
            },
            &mut pattern,
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.ttc, b.ttc);
    assert_eq!(a.overheads.pattern, b.overheads.pattern);
    let starts = |r: &ExecutionReport| r.tasks.iter().map(|t| t.exec_start).collect::<Vec<_>>();
    assert_eq!(starts(&a), starts(&b));
}

#[test]
fn different_seeds_perturb_overheads() {
    let run = |seed| {
        let config = ResourceConfig::new("xsede.comet", 16, SimDuration::from_secs(100_000));
        let mut pattern = sleep_bag(32, 5.0);
        run_simulated(
            config,
            SimulatedConfig {
                seed,
                ..Default::default()
            },
            &mut pattern,
        )
        .unwrap()
    };
    assert_ne!(run(1).ttc, run(2).ttc);
}

#[test]
fn failure_injection_with_retries_recovers() {
    let config = ResourceConfig::new("local", 8, SimDuration::from_secs(1_000_000));
    let sim = SimulatedConfig {
        seed: 5,
        unit_failure_rate: 0.3,
        fault: entk_core::FaultConfig::retries(10),
        entk_overheads: EntkOverheads::zero(),
        runtime_overheads: entk_pilot::RuntimeOverheads::zero(),
        ..Default::default()
    };
    let mut pattern = sleep_bag(30, 1.0);
    let report = run_simulated(config, sim, &mut pattern).unwrap();
    assert_eq!(report.failed_tasks, 0, "all tasks recovered via retry");
    assert!(report.total_retries > 0, "some retries happened");
}

#[test]
fn failure_without_retries_reaches_pattern() {
    let config = ResourceConfig::new("local", 8, SimDuration::from_secs(1_000_000));
    let sim = SimulatedConfig {
        seed: 6,
        unit_failure_rate: 0.5,
        fault: entk_core::FaultConfig::default(),
        entk_overheads: EntkOverheads::zero(),
        runtime_overheads: entk_pilot::RuntimeOverheads::zero(),
        ..Default::default()
    };
    let mut pattern = sleep_bag(40, 1.0);
    let report = run_simulated(config, sim, &mut pattern).unwrap();
    assert!(report.failed_tasks > 0);
    assert!(report.failed_tasks < 40, "some tasks still succeed");
    assert_eq!(report.total_retries, 0);
}

#[test]
fn kill_replace_times_out_stragglers() {
    let config = ResourceConfig::new("local", 4, SimDuration::from_secs(1_000_000));
    let sim = SimulatedConfig {
        seed: 7,
        fault: entk_core::FaultConfig::retries(1).with_timeout(SimDuration::from_secs(10)),
        entk_overheads: EntkOverheads::zero(),
        runtime_overheads: entk_pilot::RuntimeOverheads::zero(),
        ..Default::default()
    };
    // One task runs 1000 s: killed at 10 s, retried once, killed again, fails.
    let mut pattern = sleep_bag(1, 1000.0);
    let report = run_simulated(config, sim, &mut pattern).unwrap();
    assert_eq!(report.failed_tasks, 1);
    assert_eq!(report.total_retries, 1);
    assert!(
        report.ttc.as_secs_f64() < 100.0,
        "kill-replace bounded TTC at {}",
        report.ttc
    );
}

#[test]
fn a_watchdog_counts_from_the_start_of_execution_not_from_submission() {
    // Three ten-second tasks queue for one core under a 15 s timeout. Each
    // runs 10 s, so none may be killed; counted from submission, the
    // second is killed 5 s into its run and the third before it starts.
    let config = ResourceConfig::new("local", 1, SimDuration::from_secs(1_000_000));
    let sim = SimulatedConfig {
        fault: entk_core::FaultConfig::retries(0).with_timeout(SimDuration::from_secs(15)),
        ..quiet_sim(7)
    };
    let report = run_simulated(config, sim, &mut sleep_bag(3, 10.0)).unwrap();
    assert_eq!(report.failed_tasks, 0, "a task that ran 10 s was killed");
    assert_eq!(report.total_retries, 0);
}

#[test]
fn a_watchdog_that_outlived_its_attempt_spares_the_retry() {
    // 32 ten-second tasks, every other execution fails, eight retries. A
    // 15 s timeout is longer than any attempt, so it must never fire: the
    // run has to match the run without one, task for task. Watchdogs are
    // armed per attempt and never disarmed, so the one armed for a failed
    // first attempt comes due 5 s into the second.
    let run = |fault: entk_core::FaultConfig| {
        let sim = SimulatedConfig {
            unit_failure_rate: 0.5,
            fault,
            ..quiet_sim(7)
        };
        let config = ResourceConfig::new("local", 32, SimDuration::from_secs(1_000_000));
        run_simulated(config, sim, &mut sleep_bag(32, 10.0)).unwrap()
    };
    let plain = run(entk_core::FaultConfig::retries(8));
    let watched = run(entk_core::FaultConfig::retries(8).with_timeout(SimDuration::from_secs(15)));
    assert_eq!(plain.failed_tasks, 0);
    assert!(plain.total_retries > 0, "the seed exercises the retry path");
    assert_eq!(
        serde_json::to_value(&watched.tasks).unwrap(),
        serde_json::to_value(&plain.tasks).unwrap()
    );
    assert_eq!(watched.failed_tasks, 0);
    assert_eq!(watched.total_retries, plain.total_retries);
    assert_eq!(watched.ttc, plain.ttc);
}

#[test]
fn report_json_is_byte_identical_to_the_string_staged_rendering() {
    // Rendered by the commit before stage labels became `Arc<str>` (and
    // JSON objects sorted vectors): a shared label is a plain string on the
    // wire, and reading the text back renders the same bytes again.
    const PINNED: &str = r#"{"cores":2,"events":30,"failed_tasks":0,"overheads":{"core":3746542,"failure_lost":0,"pattern":178590,"resource_wait":100000,"runtime_pilot":2239278},"partial":false,"pattern":"ensemble-of-pipelines","resource":"local","tasks":[{"created":4830611,"exec_start":5476327,"exec_stop":6476327,"finished":6476327,"lost_to_failures":0,"retries":0,"stage":"mkfile","success":true,"tag":0,"uid":0},{"created":4830611,"exec_start":5476154,"exec_stop":7476154,"finished":7476154,"lost_to_failures":0,"retries":0,"stage":"mkfile","success":true,"tag":1,"uid":1},{"created":6476327,"exec_start":7046968,"exec_stop":10046968,"finished":10046968,"lost_to_failures":0,"retries":0,"stage":"ccount","success":true,"tag":0,"uid":2},{"created":7476154,"exec_start":8003859,"exec_stop":12003859,"finished":12003859,"lost_to_failures":0,"retries":0,"stage":"ccount","success":true,"tag":1,"uid":3}],"total_retries":0,"ttc":13259068}"#;
    let mut pattern = EnsembleOfPipelines::new(2, 2, |p, s| {
        KernelCall::new("misc.sleep", json!({ "secs": (1 + p + 2 * s) as f64 }))
    })
    .with_stage_labels(vec!["mkfile".into(), "ccount".into()]);
    let report = run_simulated(
        ResourceConfig::new("local", 2, SimDuration::from_secs(3600)),
        SimulatedConfig {
            seed: 16,
            ..SimulatedConfig::default()
        },
        &mut pattern,
    )
    .unwrap();
    assert_eq!(serde_json::to_string(&report).unwrap(), PINNED);
    let read_back: entk_core::ExecutionReport = serde_json::from_str(PINNED).unwrap();
    assert_eq!(serde_json::to_string(&read_back).unwrap(), PINNED);
    assert_eq!(read_back.stages(), vec!["mkfile", "ccount"]);
}

#[test]
fn unknown_resource_is_rejected() {
    let config = ResourceConfig::new("xsede.frontera", 8, SimDuration::from_secs(100));
    let err = ResourceHandle::simulated(config, SimulatedConfig::default()).err();
    assert!(matches!(err, Some(EntkError::Resource(_))));
}

#[test]
fn oversized_request_is_rejected() {
    let config = ResourceConfig::new("lsu.supermic", 1_000_000, SimDuration::from_secs(100));
    assert!(ResourceHandle::simulated(config, SimulatedConfig::default()).is_err());
}

#[test]
fn lifecycle_misuse_is_reported() {
    let config = ResourceConfig::new("local", 4, SimDuration::from_secs(100));
    let mut handle = ResourceHandle::simulated(config, quiet_sim(1)).unwrap();
    let mut pattern = sleep_bag(1, 1.0);
    assert!(matches!(handle.run(&mut pattern), Err(EntkError::Usage(_))));
    handle.allocate().unwrap();
    assert!(matches!(handle.allocate(), Err(EntkError::Usage(_))));
}

#[test]
fn multiple_patterns_share_one_allocation() {
    let config = ResourceConfig::new("local", 8, SimDuration::from_secs(1_000_000));
    let mut handle = ResourceHandle::simulated(config, quiet_sim(9)).unwrap();
    handle.allocate().unwrap();
    let mut first = sleep_bag(8, 2.0);
    let r1 = handle.run(&mut first).unwrap();
    let mut second = sleep_bag(8, 2.0);
    let r2 = handle.run(&mut second).unwrap();
    let session = handle.deallocate().unwrap();
    assert!(r2.ttc > r1.ttc, "virtual clock advances across runs");
    assert_eq!(session.task_count(), 16);
}

/// Every field of each task record, for comparing reports field by field.
fn record_fields(report: &ExecutionReport) -> Vec<impl PartialEq + std::fmt::Debug> {
    let fields = |t: &entk_core::TaskRecord| {
        let times = (t.created, t.exec_start, t.exec_stop, t.finished);
        let outcome = (t.success, t.retries, t.lost_to_failures);
        (t.uid, t.tag, t.stage.to_string(), times, outcome)
    };
    report.tasks.iter().map(fields).collect()
}

#[test]
fn the_session_report_holds_the_records_of_the_last_run() {
    let config = ResourceConfig::new("local", 8, SimDuration::from_secs(1_000_000));
    let sim = SimulatedConfig {
        seed: 5,
        unit_failure_rate: 0.3,
        fault: entk_core::FaultConfig::retries(1),
        ..Default::default()
    };
    let mut handle = ResourceHandle::simulated(config, sim).unwrap();
    handle.allocate().unwrap();
    handle.run(&mut sleep_bag(12, 2.0)).unwrap();
    let last = handle.run(&mut sleep_bag(12, 3.0)).unwrap();
    let session = handle.deallocate().unwrap();
    assert_eq!(session.task_count(), 24);
    assert!(
        last.total_retries > 0 && last.failed_tasks > 0,
        "retries and failures both show"
    );
    assert_eq!(record_fields(&session), record_fields(&last));
    // The task table went into that report: nothing can run on it again.
    let mut again = sleep_bag(1, 1.0);
    assert!(matches!(handle.run(&mut again), Err(EntkError::Usage(_))));
    assert!(matches!(handle.allocate(), Err(EntkError::Usage(_))));
    assert!(matches!(handle.deallocate(), Err(EntkError::Usage(_))));
}

/// The reports of one session share each finished run's records instead of
/// copying them, and still read as one flat table: `iter`, `Index` and
/// `len` agree, the JSON is that of a `Vec<TaskRecord>`, and it reads back.
#[test]
fn reports_share_their_records_and_read_as_one_flat_table() {
    use entk_core::{TaskRecord, TaskRecords};
    let config = ResourceConfig::new("local", 8, SimDuration::from_secs(1_000_000));
    let mut handle = ResourceHandle::simulated(config, quiet_sim(9)).unwrap();
    handle.allocate().unwrap();
    let first = handle.run(&mut sleep_bag(5, 2.0)).unwrap();
    let last = handle.run(&mut sleep_bag(7, 3.0)).unwrap();
    let session = handle.deallocate().unwrap();
    assert_eq!((first.tasks.len(), last.tasks.len()), (5, 12));
    // One copy of a row, whichever report reads it.
    assert!(std::ptr::eq(&first.tasks[4], &session.tasks[4]));
    assert!(std::ptr::eq(&last.tasks[11], &session.tasks[11]));
    for report in [&first, &last, &session] {
        let flat: Vec<TaskRecord> = report.tasks.iter().cloned().collect();
        assert_eq!(flat.len(), report.tasks.len());
        assert!(!report.tasks.is_empty());
        for (i, record) in (&report.tasks).into_iter().enumerate() {
            assert_eq!((record.uid, report.tasks[i].uid), (i as u64, i as u64));
        }
        let json = serde_json::to_string(&report.tasks).unwrap();
        assert_eq!(json, serde_json::to_string(&flat).unwrap());
        let back: TaskRecords = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), flat.len());
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        let whole = serde_json::to_string(report).unwrap();
        let back: ExecutionReport = serde_json::from_str(&whole).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), whole);
    }
    assert_eq!(record_fields(&session), record_fields(&last));
}

/// A two-stage pipeline ensemble whose kernels are the same call for every
/// task of a stage, or, with `named`, differ in the `path` a simulated
/// `misc.mkfile` never opens.
fn file_pipelines(named: bool) -> EnsembleOfPipelines {
    EnsembleOfPipelines::new(16, 2, move |p, s| match (s, named) {
        (0, true) => KernelCall::new(
            "misc.mkfile",
            json!({ "bytes": 4096, "path": format!("f{p}") }),
        ),
        (0, false) => KernelCall::new("misc.mkfile", json!({ "bytes": 4096 })),
        _ => KernelCall::new("misc.ccount", json!({ "bytes": 4096 })),
    })
}

#[test]
fn equal_kernels_shared_by_a_pattern_run_as_distinct_ones() {
    let run = |named| {
        let config = ResourceConfig::new("xsede.comet", 8, SimDuration::from_secs(100_000));
        let sim = SimulatedConfig {
            seed: 11,
            ..Default::default()
        };
        run_simulated_traced(config, sim, &mut file_pipelines(named)).unwrap()
    };
    let (shared, shared_trace) = run(false);
    let (distinct, distinct_trace) = run(true);
    assert_eq!(shared.task_count(), 32);
    assert_eq!(record_fields(&shared), record_fields(&distinct));
    assert_eq!(shared.ttc, distinct.ttc);
    assert_eq!(
        shared_trace.tracer.fingerprint(),
        distinct_trace.tracer.fingerprint()
    );
}

#[test]
fn pilot_walltime_expiry_fails_the_run() {
    // Pilot wall time shorter than the workload: run() must error.
    let config = ResourceConfig::new("local", 2, SimDuration::from_secs(30));
    let mut handle = ResourceHandle::simulated(config, quiet_sim(4)).unwrap();
    handle.allocate().unwrap();
    let mut pattern = sleep_bag(10, 100.0);
    let err = handle.run(&mut pattern);
    assert!(matches!(err, Err(EntkError::Runtime(_))), "{err:?}");
}

#[test]
fn mpi_tasks_occupy_multiple_cores() {
    // Two 4-core MPI sleeps on 4 cores must serialize.
    let config = ResourceConfig::new("local", 4, SimDuration::from_secs(100_000));
    let mut pattern = BagOfTasks::new(2, |_| {
        KernelCall::new("misc.sleep", json!({ "secs": 10.0 })).with_cores(4)
    });
    let report = run_simulated(config, quiet_sim(8), &mut pattern).unwrap();
    let exec = report.exec_time().as_secs_f64();
    assert!(exec >= 20.0, "serialized MPI tasks, exec {exec}");
}

#[test]
fn pattern_overhead_scales_with_task_count() {
    let run = |n: usize| {
        let config = ResourceConfig::new("xsede.comet", 64, SimDuration::from_secs(1_000_000));
        let mut pattern = sleep_bag(n, 1.0);
        run_simulated(
            config,
            SimulatedConfig {
                seed: 11,
                ..Default::default()
            },
            &mut pattern,
        )
        .unwrap()
    };
    let small = run(16).overheads.pattern.as_secs_f64();
    let large = run(256).overheads.pattern.as_secs_f64();
    assert!(
        large > 4.0 * small,
        "pattern overhead ∝ tasks: {small} vs {large}"
    );
}

#[test]
fn core_overhead_is_constant_in_task_count() {
    let run = |n: usize| {
        let config = ResourceConfig::new("xsede.comet", 64, SimDuration::from_secs(1_000_000));
        let mut pattern = sleep_bag(n, 1.0);
        run_simulated(
            config,
            SimulatedConfig {
                seed: 12,
                ..Default::default()
            },
            &mut pattern,
        )
        .unwrap()
    };
    let small = run(16).overheads.core.as_secs_f64();
    let large = run(256).overheads.core.as_secs_f64();
    assert!(
        (small - large).abs() < 0.25 * small.max(large),
        "core overhead roughly constant: {small} vs {large}"
    );
}

#[test]
fn multi_pilot_strategy_completes_workload() {
    let config = ResourceConfig::new("xsede.comet", 64, SimDuration::from_secs(1_000_000));
    let sim = SimulatedConfig {
        seed: 21,
        pilot_strategy: entk_core::PilotStrategy {
            count: 4,
            wait_all: true,
        },
        ..Default::default()
    };
    let mut pattern = sleep_bag(128, 5.0);
    let report = run_simulated(config, sim, &mut pattern).unwrap();
    assert_eq!(report.task_count(), 128);
    assert_eq!(report.failed_tasks, 0);
}

#[test]
fn split_pilots_beat_one_big_pilot_under_size_dependent_queue_wait() {
    // When queue wait grows with allocation size (shared batch queues),
    // splitting the request clears the queue faster — the "execution
    // strategy" rationale of paper §V / Ref.\[23\].
    let mut platform = entk_cluster::PlatformSpec::comet();
    platform.queue_wait_per_core = 2.0; // 2 s per requested core
    let run = |strategy: entk_core::PilotStrategy| {
        let config = ResourceConfig::new("xsede.comet", 64, SimDuration::from_secs(1_000_000));
        let sim = SimulatedConfig {
            seed: 22,
            platform: Some(platform.clone()),
            pilot_strategy: strategy,
            ..Default::default()
        };
        let mut pattern = sleep_bag(64, 30.0);
        run_simulated(config, sim, &mut pattern)
            .unwrap()
            .ttc
            .as_secs_f64()
    };
    let single = run(entk_core::PilotStrategy::single());
    let split = run(entk_core::PilotStrategy::split(8));
    assert!(
        split < single,
        "8 small pilots (late binding) should beat one big pilot: {split} vs {single}"
    );
}

#[test]
fn background_load_inflates_resource_wait() {
    use entk_cluster::cluster::BackgroundLoad;
    use entk_sim::Dist;
    let run = |load: Option<BackgroundLoad>| {
        let mut platform = entk_cluster::PlatformSpec::local(2, 16); // 32 cores
        platform.job_startup = Dist::Constant(1.0);
        let config = ResourceConfig::new("local", 24, SimDuration::from_secs(1_000_000));
        let sim = SimulatedConfig {
            seed: 31,
            platform: Some(platform),
            background_load: load,
            entk_overheads: EntkOverheads::zero(),
            runtime_overheads: entk_pilot::RuntimeOverheads::zero(),
            ..Default::default()
        };
        let mut pattern = sleep_bag(24, 5.0);
        run_simulated(config, sim, &mut pattern)
            .unwrap()
            .overheads
            .resource_wait
            .as_secs_f64()
    };
    let clean = run(None);
    let contended = run(Some(BackgroundLoad {
        // Two 24-core 120 s competitors already queued when the pilot is
        // submitted: it reliably waits behind them.
        mean_interarrival_secs: 1_000.0,
        cores: Dist::Constant(24.0),
        runtime: Dist::Constant(120.0),
        initial_jobs: 2,
    }));
    assert!(
        contended > clean + 30.0,
        "contention should delay pilot activation: {clean} vs {contended}"
    );
}

#[test]
fn adaptive_binding_widens_mpi_tasks() {
    // 4 MD tasks on a 64-core pilot: static binding runs them on 1 core
    // each; adaptive binding widens each to 16 cores, cutting exec time.
    let run = |adaptive: bool| {
        let config = ResourceConfig::new("xsede.stampede", 64, SimDuration::from_secs(1_000_000));
        let mut handle = ResourceHandle::simulated(config, quiet_sim(41)).unwrap();
        if adaptive {
            handle.set_binding_policy(Box::new(entk_core::AdaptiveMpiBinding {
                max_cores_per_task: 64,
            }));
        }
        handle.allocate().unwrap();
        let mut pattern = BagOfTasks::new(4, |i| {
            KernelCall::new(
                "md.amber",
                json!({ "steps": 3000, "n_atoms": 2881, "seed": i }),
            )
        });
        let report = handle.run(&mut pattern).unwrap();
        handle.deallocate().unwrap();
        report.exec_time().as_secs_f64()
    };
    let static_t = run(false);
    let adaptive_t = run(true);
    assert!(
        adaptive_t < static_t / 4.0,
        "adaptive binding should exploit idle cores: static {static_t}, adaptive {adaptive_t}"
    );
}

/// A unit order reaches every member of a federation. Each member's 8-core
/// pilot gets a mix of 1- and 8-core units; the tasks that start before
/// any task ends are each member's first placement pass. Largest-first
/// starts one 8-core unit on each member; arrival order starts only
/// 1-core units, on both.
#[test]
fn a_unit_order_reaches_every_federation_member() {
    use entk_pilot::UnitOrder;
    fn width(tag: u64) -> usize {
        [1, 8][tag as usize % 2]
    }
    let first_wave = |order: UnitOrder| {
        let walltime = SimDuration::from_secs(1_000_000);
        let mut handle = ResourceHandle::federated(FederatedConfig {
            seed: 2016,
            clusters: (0..2)
                .map(|_| ClusterSpec::new("xsede.stampede", 8, walltime))
                .collect(),
            ..FederatedConfig::default()
        })
        .unwrap();
        handle.set_unit_order(order);
        handle.allocate().unwrap();
        let mut bag = BagOfTasks::new(16, |i| {
            KernelCall::new("misc.sleep", json!({ "secs": 10_000.0 })).with_cores(width(i as u64))
        });
        let report = handle.run(&mut bag).unwrap();
        assert_eq!(report.failed_tasks, 0);
        let first_stop = report.tasks.iter().filter_map(|t| t.exec_stop).min();
        let first_stop = first_stop.expect("tasks ran");
        let mut wave: Vec<usize> = (report.tasks.iter())
            .filter(|t| t.exec_start.is_some_and(|start| start < first_stop))
            .map(|t| width(t.tag))
            .collect();
        wave.sort();
        wave
    };
    assert_eq!(first_wave(UnitOrder::LargestFirst), [8, 8]);
    let arrival = first_wave(UnitOrder::FirstFit);
    assert!(
        arrival.len() > 2 && arrival.iter().all(|&w| w == 1),
        "{arrival:?}"
    );
}

#[test]
fn backfill_beats_fifo_behind_a_blocked_head() {
    // Split-pilot strategy + a huge background head job: with FIFO the
    // small pilots wait behind it; with EASY backfill they jump it.
    use entk_cluster::cluster::BackgroundLoad;
    use entk_sim::Dist;
    let run = |scheduler: &str| {
        let mut platform = entk_cluster::PlatformSpec::local(4, 8); // 32 cores
        platform.job_startup = Dist::Constant(1.0);
        let config = ResourceConfig::new("local", 8, SimDuration::from_secs(1_000_000));
        let sim = SimulatedConfig {
            seed: 51,
            platform: Some(platform),
            scheduler: Some(entk_core::ComponentSpec::named(scheduler)),
            // A 24-core, 500 s competitor is already queued: it starts
            // immediately and a second one queues as the blocked head.
            background_load: Some(BackgroundLoad {
                mean_interarrival_secs: 10_000.0,
                cores: Dist::Constant(24.0),
                runtime: Dist::Constant(500.0),
                initial_jobs: 2,
            }),
            entk_overheads: EntkOverheads::zero(),
            runtime_overheads: entk_pilot::RuntimeOverheads::zero(),
            ..Default::default()
        };
        let mut pattern = sleep_bag(8, 5.0);
        run_simulated(config, sim, &mut pattern)
            .unwrap()
            .ttc
            .as_secs_f64()
    };
    let fifo = run("fifo");
    let backfill = run("backfill");
    assert!(
        backfill + 100.0 < fifo,
        "backfill should jump the blocked 24-core head: fifo {fifo}, backfill {backfill}"
    );
}

/// A task's execution instants live in two stores, the session's records
/// and the pilot layer's trace, and nothing but this test holds them
/// together: `exec_start` comes from the unit's start notification and
/// `exec_stop` from the one instant the runtime keeps per unit. For every
/// task, both must be those of the unit that ran its last attempt.
#[test]
fn task_records_carry_the_exec_instants_of_their_last_attempt() {
    use entk_sim::TraceKind;
    use std::collections::HashMap;
    let sleep = || KernelCall::new("misc.sleep", json!({ "secs": 5.0 }));
    let sim = SimulatedConfig {
        unit_failure_rate: 0.25,
        fault: FaultConfig::retries(8),
        ..quiet_sim(11)
    };
    let config = ResourceConfig::new("local", 4, SimDuration::from_secs(100_000));
    let mut handle = ResourceHandle::simulated(config, sim).unwrap();
    handle.allocate().unwrap();
    let mut eop = EnsembleOfPipelines::new(6, 2, move |_, _| sleep());
    let mut sal = SimulationAnalysisLoop::new(2, 4, move |_, _| sleep(), move |_, _| vec![sleep()]);
    handle.run(&mut eop).unwrap();
    handle.run(&mut sal).unwrap();
    let session = handle.deallocate().unwrap();
    let tracer = handle.telemetry().unwrap().snapshot().tracer;

    // The session records `task_submitted` for the units of a batch in the
    // order the runtime recorded their `unit_submitted`, so the two
    // sequences pair up; a later attempt overwrites an earlier one.
    let ids = |kind| tracer.filter(kind).map(|r| r.id).collect::<Vec<u64>>();
    let units = ids(TraceKind::UnitSubmitted);
    let tasks = ids(TraceKind::TaskSubmitted);
    assert_eq!(units.len(), tasks.len());
    let last_unit: HashMap<u64, u64> = tasks.into_iter().zip(units).collect();

    assert_eq!(session.task_count(), 12 + 10);
    let mut retried = 0;
    for record in &session.tasks {
        assert!(record.success, "task {} ran out of retries", record.uid);
        let unit = last_unit[&record.uid];
        let at = |kind| tracer.time_of(kind, unit);
        assert!(record.exec_start.is_some() && record.exec_stop.is_some());
        assert_eq!(
            record.exec_start,
            at(TraceKind::UnitExecStart),
            "{record:?}"
        );
        assert_eq!(record.exec_stop, at(TraceKind::UnitExecStop), "{record:?}");
        retried += usize::from(record.retries > 0);
    }
    assert!(retried > 0, "no task was retried");
}

/// A kernel that counts the calls the backend makes on it.
#[derive(Default)]
struct CountingKernel {
    validated: AtomicUsize,
    planned: AtomicUsize,
    modeled: AtomicUsize,
}

impl entk_kernels::KernelPlugin for CountingKernel {
    fn name(&self) -> &str {
        "test.counting"
    }
    fn validate(&self, _args: &serde_json::Value) -> Result<(), entk_kernels::KernelError> {
        self.validated.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
    fn plan(
        &self,
        _args: &serde_json::Value,
        _cores: usize,
        _platform: &entk_cluster::PlatformSpec,
        _rng: &mut entk_sim::SimRng,
    ) -> Result<entk_kernels::UnitPlan, entk_kernels::KernelError> {
        self.planned.fetch_add(1, Ordering::Relaxed);
        Ok(entk_kernels::UnitPlan {
            duration: SimDuration::from_secs(10),
            input_bytes: 1024,
            output_bytes: 2048,
        })
    }
    fn execute_model(
        &self,
        _args: &serde_json::Value,
        _rng: &mut entk_sim::SimRng,
    ) -> Result<serde_json::Value, entk_kernels::KernelError> {
        self.modeled.fetch_add(1, Ordering::Relaxed);
        Ok(json!({}))
    }
    fn execute(
        &self,
        _args: &serde_json::Value,
    ) -> Result<serde_json::Value, entk_kernels::KernelError> {
        unreachable!("a simulated session runs no real kernel")
    }
}

/// `plan` is the whole of what submission asks a kernel: one call per unit
/// carries the duration and both staging volumes, and the model execution
/// is one more at completion.
#[test]
fn a_simulated_unit_is_one_plan_call_and_one_model_call() {
    let kernel = std::sync::Arc::new(CountingKernel::default());
    let mut registry = KernelRegistry::with_builtins();
    registry.register(kernel.clone());
    let config = ResourceConfig::new("local", 4, SimDuration::from_secs(100_000));
    let mut handle =
        ResourceHandle::simulated_with_registry(config, quiet_sim(3), registry).unwrap();
    handle.allocate().unwrap();
    let mut pattern = BagOfTasks::new(12, |_| KernelCall::new("test.counting", json!({})));
    let report = handle.run(&mut pattern).unwrap();
    assert_eq!((report.task_count(), report.failed_tasks), (12, 0));
    // Three waves of four 10 s units, each staging its bytes in and out.
    assert!(report.exec_time() >= SimDuration::from_secs(30));
    let count = |counter: &AtomicUsize| counter.load(Ordering::Relaxed);
    let calls = (
        count(&kernel.validated),
        count(&kernel.planned),
        count(&kernel.modeled),
    );
    assert_eq!(calls, (0, 12, 12));
}
