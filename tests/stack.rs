//! Cross-crate integration tests: EnTK → pilot runtime → cluster,
//! checking conservation and concurrency invariants over the whole stack.

use entk_core::prelude::*;
use entk_core::{EntkOverheads, ExecutionReport};
use serde_json::json;

fn quiet(seed: u64) -> SimulatedConfig {
    SimulatedConfig {
        seed,
        entk_overheads: EntkOverheads::zero(),
        runtime_overheads: entk_pilot::RuntimeOverheads::zero(),
        ..Default::default()
    }
}

/// Checks that at no instant do more single-core tasks execute than the
/// pilot has cores (sweep-line over execution intervals).
fn assert_no_oversubscription(report: &ExecutionReport, cores: usize) {
    let mut events: Vec<(u64, i64)> = Vec::new();
    for t in &report.tasks {
        if let (Some(a), Some(b)) = (t.exec_start, t.exec_stop) {
            events.push((a.as_micros(), 1));
            events.push((b.as_micros(), -1));
        }
    }
    events.sort();
    let mut level = 0i64;
    for (_, delta) in events {
        level += delta;
        assert!(
            level <= cores as i64,
            "more concurrent tasks ({level}) than cores ({cores})"
        );
    }
}

#[test]
fn every_task_terminates_exactly_once() {
    let n = 100;
    let config = ResourceConfig::new("xsede.comet", 32, SimDuration::from_secs(1_000_000));
    let mut pattern = BagOfTasks::new(n, |i| {
        KernelCall::new("misc.sleep", json!({ "secs": 1.0 + (i % 7) as f64 }))
    });
    let report = run_simulated(config, quiet(1), &mut pattern).unwrap();
    assert_eq!(report.task_count(), n);
    for t in &report.tasks {
        assert!(t.finished.is_some(), "task {} never finished", t.uid);
        assert!(t.success, "task {} failed unexpectedly", t.uid);
        assert!(
            t.exec_stop >= t.exec_start,
            "task {} has inverted execution interval",
            t.uid
        );
    }
    // Unique uids.
    let mut uids: Vec<u64> = report.tasks.iter().map(|t| t.uid).collect();
    uids.sort_unstable();
    uids.dedup();
    assert_eq!(uids.len(), n);
}

#[test]
fn cores_are_never_oversubscribed() {
    let config = ResourceConfig::new("local", 6, SimDuration::from_secs(1_000_000));
    let mut pattern = BagOfTasks::new(40, |i| {
        KernelCall::new("misc.sleep", json!({ "secs": 2.0 + (i % 5) as f64 }))
    });
    let report = run_simulated(config, quiet(2), &mut pattern).unwrap();
    assert_no_oversubscription(&report, 6);
}

#[test]
fn sal_barriers_hold_across_the_stack() {
    // No analysis may start before every simulation of its iteration ended.
    let config = ResourceConfig::new("xsede.stampede", 16, SimDuration::from_secs(1_000_000));
    let mut pattern = SimulationAnalysisLoop::new(
        2,
        16,
        |_, i| KernelCall::new("misc.sleep", json!({ "secs": 3.0 + (i % 4) as f64 })),
        |_, outs| vec![KernelCall::new("ana.coco", json!({ "n_sims": outs.len() }))],
    );
    let report = run_simulated(config, quiet(3), &mut pattern).unwrap();
    let sims: Vec<_> = report
        .tasks
        .iter()
        .filter(|t| &*t.stage == "simulation")
        .collect();
    let anas: Vec<_> = report
        .tasks
        .iter()
        .filter(|t| &*t.stage == "analysis")
        .collect();
    assert_eq!(anas.len(), 2);
    // First analysis (earliest exec_start) must start after the first 16
    // simulations' exec_stop.
    let mut ana_starts: Vec<_> = anas.iter().filter_map(|t| t.exec_start).collect();
    ana_starts.sort();
    let mut sim_stops: Vec<_> = sims.iter().filter_map(|t| t.exec_stop).collect();
    sim_stops.sort();
    assert!(
        ana_starts[0] >= sim_stops[15],
        "analysis started before its iteration's simulations finished"
    );
}

#[test]
fn ee_exchange_waits_for_all_replicas_in_global_mode() {
    let n = 12;
    let config = ResourceConfig::new("lsu.supermic", n, SimDuration::from_secs(1_000_000));
    let mut pattern = EnsembleExchange::new(
        n,
        2,
        TemperatureLadder::geometric(n, 0.8, 2.0),
        |r, c, t| {
            KernelCall::new(
                "md.amber",
                json!({ "steps": 300, "n_atoms": 500, "temperature": t,
                        "seed": (r + 100 * c) as u64 }),
            )
        },
    );
    let report = run_simulated(config, quiet(4), &mut pattern).unwrap();
    let exchanges: Vec<_> = report
        .tasks
        .iter()
        .filter(|t| &*t.stage == "exchange")
        .collect();
    assert_eq!(exchanges.len(), 2);
    let sims: Vec<_> = report
        .tasks
        .iter()
        .filter(|t| &*t.stage == "simulation")
        .collect();
    let mut sim_stops: Vec<_> = sims.iter().filter_map(|t| t.exec_stop).collect();
    sim_stops.sort();
    let mut ex_starts: Vec<_> = exchanges.iter().filter_map(|t| t.exec_start).collect();
    ex_starts.sort();
    // First exchange starts only after the first n simulations ended.
    assert!(ex_starts[0] >= sim_stops[n - 1]);
}

#[test]
fn pairwise_async_overlaps_exchange_with_simulation() {
    // The defining property of the paper's EE description: no global
    // barrier — with heterogeneous segment lengths, some exchange happens
    // while other replicas still simulate.
    let n = 8;
    let config = ResourceConfig::new("lsu.supermic", n, SimDuration::from_secs(1_000_000));
    let mut pattern = EnsembleExchange::new(
        n,
        3,
        TemperatureLadder::geometric(n, 0.8, 2.0),
        |r, c, t| {
            // Very heterogeneous durations.
            KernelCall::new(
                "md.amber",
                json!({ "steps": 300 * (1 + (r % 4) as u64 * 4), "n_atoms": 500,
                        "temperature": t, "seed": (r + 10 * c) as u64 }),
            )
        },
    )
    .with_mode(ExchangeMode::PairwiseAsync);
    let report = run_simulated(config, quiet(5), &mut pattern).unwrap();
    let overlap = report
        .tasks
        .iter()
        .filter(|t| &*t.stage == "exchange")
        .filter_map(|e| Some((e.exec_start?, e.exec_stop?)))
        .any(|(es, ee)| {
            report
                .tasks
                .iter()
                .filter(|t| &*t.stage == "simulation")
                .filter_map(|s| Some((s.exec_start?, s.exec_stop?)))
                .any(|(ss, se)| ss < ee && es < se)
        });
    assert!(
        overlap,
        "pairwise-async exchanges should overlap simulations"
    );
}

#[test]
fn sequence_composition_runs_end_to_end() {
    let prep = BagOfTasks::new(4, |_| KernelCall::new("misc.sleep", json!({ "secs": 1.0 })));
    let sal = SimulationAnalysisLoop::new(
        1,
        4,
        |_, i| KernelCall::new("md.amber", json!({ "steps": 300, "seed": i })),
        |_, outs| vec![KernelCall::new("ana.coco", json!({ "n_sims": outs.len() }))],
    );
    let mut seq = SequencePattern::new(vec![Box::new(prep), Box::new(sal)]);
    let config = ResourceConfig::new("local", 4, SimDuration::from_secs(1_000_000));
    let report = run_simulated(config, quiet(6), &mut seq).unwrap();
    assert_eq!(report.task_count(), 4 + 4 + 1);
    assert_eq!(report.failed_tasks, 0);
    // Sequencing: all "task"-stage work ends before any SAL simulation starts.
    let prep_stop = report
        .tasks
        .iter()
        .filter(|t| &*t.stage == "task")
        .filter_map(|t| t.exec_stop)
        .max()
        .unwrap();
    let sim_start = report
        .tasks
        .iter()
        .filter(|t| &*t.stage == "simulation")
        .filter_map(|t| t.exec_start)
        .min()
        .unwrap();
    assert!(sim_start >= prep_stop);
}

#[test]
fn decoupling_more_tasks_than_cores() {
    // The pilot abstraction's raison d'être (paper §III-A): express 10×
    // more tasks than cores and have them execute in waves.
    let cores = 10;
    let tasks = 100;
    let config = ResourceConfig::new("xsede.comet", cores, SimDuration::from_secs(1_000_000));
    let mut pattern = BagOfTasks::new(tasks, |_| {
        KernelCall::new("misc.sleep", json!({ "secs": 10.0 }))
    });
    let report = run_simulated(config, quiet(7), &mut pattern).unwrap();
    assert_eq!(report.task_count(), tasks);
    assert_eq!(report.failed_tasks, 0);
    let exec = report.exec_time().as_secs_f64();
    assert!(
        (100.0..110.0).contains(&exec),
        "10 waves of 10 s expected, got {exec}"
    );
    assert_no_oversubscription(&report, cores);
}

#[test]
fn pst_workflow_runs_on_the_simulated_stack() {
    use entk_core::{Pipeline, PstTask, PstWorkflow, Stage};
    let wf = |label: &str| {
        Pipeline::new(label)
            .with_stage(
                Stage::new("prepare")
                    .with_task(PstTask::new(
                        "gen",
                        KernelCall::new("misc.mkfile", json!({ "bytes": 2048 })),
                    ))
                    .with_task(PstTask::new(
                        "gen2",
                        KernelCall::new("misc.mkfile", json!({ "bytes": 2048 })),
                    )),
            )
            .with_stage(Stage::new("run").with_task(PstTask::new(
                "md",
                KernelCall::new("md.amber", json!({ "steps": 300, "n_atoms": 500 })),
            )))
    };
    let mut workflow = PstWorkflow::new(vec![wf("a"), wf("b")]);
    let config = ResourceConfig::new("xsede.comet", 8, SimDuration::from_secs(1_000_000));
    let report = run_simulated(config, quiet(61), &mut workflow).unwrap();
    assert_eq!(report.task_count(), 6);
    assert_eq!(report.failed_tasks, 0);
    // Stage barrier held per pipeline: every "run" starts after both of its
    // pipeline's "prepare" tasks... check globally per tag namespace is
    // internal; at minimum no run task starts before the earliest two
    // prepare completions.
    let mut prep_stops: Vec<_> = report
        .tasks
        .iter()
        .filter(|t| &*t.stage == "prepare")
        .filter_map(|t| t.exec_stop)
        .collect();
    prep_stops.sort();
    let first_run = report
        .tasks
        .iter()
        .filter(|t| &*t.stage == "run")
        .filter_map(|t| t.exec_start)
        .min()
        .unwrap();
    assert!(first_run >= prep_stops[1]);
}

#[test]
fn concurrent_composition_runs_on_the_simulated_stack() {
    use entk_core::ConcurrentPatterns;
    let bag = BagOfTasks::new(6, |_| KernelCall::new("misc.sleep", json!({ "secs": 5.0 })));
    let sal = SimulationAnalysisLoop::new(
        1,
        4,
        |_, i| KernelCall::new("md.amber", json!({ "steps": 300, "seed": i })),
        |_, outs| vec![KernelCall::new("ana.coco", json!({ "n_sims": outs.len() }))],
    );
    let mut cp = ConcurrentPatterns::new(vec![Box::new(bag), Box::new(sal)]);
    let config = ResourceConfig::new("xsede.comet", 16, SimDuration::from_secs(1_000_000));
    let report = run_simulated(config, quiet(62), &mut cp).unwrap();
    assert_eq!(report.task_count(), 6 + 4 + 1);
    assert_eq!(report.failed_tasks, 0);
    // Both children's work interleaves: some bag task overlaps some SAL sim.
    let overlap = report
        .tasks
        .iter()
        .filter(|t| &*t.stage == "task")
        .filter_map(|t| Some((t.exec_start?, t.exec_stop?)))
        .any(|(bs, be)| {
            report
                .tasks
                .iter()
                .filter(|t| &*t.stage == "simulation")
                .filter_map(|t| Some((t.exec_start?, t.exec_stop?)))
                .any(|(ss, se)| ss < be && bs < se)
        });
    assert!(overlap, "concurrent children should interleave");
}

#[test]
fn node_crash_shrinks_the_pilot_and_retries_absorb_the_loss() {
    // 24 × 30s tasks on 16 cores spanning two 8-core nodes of the local
    // platform. At t=15 the first wave saturates the pilot, so crashing
    // node 1 must kill in-flight units; the retry budget reruns them on
    // the surviving 8 cores and the ensemble still completes.
    let n = 24;
    let config = ResourceConfig::new("local", 16, SimDuration::from_secs(1_000_000));
    let sim = SimulatedConfig {
        fault: FaultConfig::retries(4),
        fault_profile: Some(FaultProfile::seeded(3).with_crash_at(15.0, 1)),
        ..quiet(3)
    };
    let mut pattern = BagOfTasks::new(n, |_| {
        KernelCall::new("misc.sleep", json!({ "secs": 30.0 }))
    });
    let report = run_simulated(config, sim, &mut pattern).unwrap();
    assert_eq!(report.task_count(), n);
    assert_eq!(report.failed_tasks, 0);
    assert!(!report.partial);
    assert!(
        report.total_retries > 0,
        "a crash under a saturated pilot must kill units"
    );
    assert!(report.recovered_tasks() > 0);
    assert!(report.overheads.failure_lost > SimDuration::ZERO);
    assert!(report.tasks.iter().all(|t| t.success));
}

#[test]
fn losing_every_node_degrades_gracefully_into_a_partial_report() {
    // Both nodes under the 16-core pilot crash mid-run. Without graceful
    // degradation this is a hard error; with it, the session finishes with
    // every unfinished task failed and the report marked partial.
    let n = 24;
    let config = ResourceConfig::new("local", 16, SimDuration::from_secs(1_000_000));
    let profile = FaultProfile::seeded(5)
        .with_crash_at(15.0, 0)
        .with_crash_at(15.0, 1);
    let sim = SimulatedConfig {
        fault: FaultConfig::retries(2).graceful(),
        fault_profile: Some(profile.clone()),
        ..quiet(5)
    };
    let mut pattern = BagOfTasks::new(n, |_| {
        KernelCall::new("misc.sleep", json!({ "secs": 30.0 }))
    });
    let report = run_simulated(config, sim, &mut pattern).unwrap();
    assert!(
        report.partial,
        "losing all nodes must mark the report partial"
    );
    assert!(report.failed_tasks > 0);
    assert_eq!(report.task_count(), n);
    assert!(report.tasks.iter().all(|t| t.finished.is_some()));

    // The same session without `graceful()` aborts with an error instead.
    let strict = SimulatedConfig {
        fault: FaultConfig::retries(2),
        fault_profile: Some(profile),
        ..quiet(5)
    };
    let mut pattern = BagOfTasks::new(n, |_| {
        KernelCall::new("misc.sleep", json!({ "secs": 30.0 }))
    });
    let config = ResourceConfig::new("local", 16, SimDuration::from_secs(1_000_000));
    assert!(run_simulated(config, strict, &mut pattern).is_err());
}
