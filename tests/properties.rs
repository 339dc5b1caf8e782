//! Property-based tests over the full stack: random pattern shapes and
//! seeds must always complete with exact task conservation.

use entk_core::prelude::*;
use entk_core::EntkOverheads;
use proptest::prelude::*;
use serde_json::json;

fn quiet(seed: u64) -> SimulatedConfig {
    SimulatedConfig {
        seed,
        entk_overheads: EntkOverheads::zero(),
        runtime_overheads: entk_pilot::RuntimeOverheads::zero(),
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any ensemble-of-pipelines shape completes with pipelines × stages
    /// successful tasks, never oversubscribing the pilot.
    #[test]
    fn prop_pipelines_complete(
        pipelines in 1usize..20,
        stages in 1usize..5,
        cores in 1usize..16,
        seed in 0u64..1000,
    ) {
        let config = ResourceConfig::new("local", cores.min(32), SimDuration::from_secs(10_000_000));
        let mut pattern = EnsembleOfPipelines::new(pipelines, stages, |p, s| {
            KernelCall::new("misc.sleep", json!({ "secs": 1.0 + ((p + s) % 3) as f64 }))
        });
        let report = run_simulated(config, quiet(seed), &mut pattern).unwrap();
        prop_assert_eq!(report.task_count(), pipelines * stages);
        prop_assert_eq!(report.failed_tasks, 0);
        prop_assert!(report.tasks.iter().all(|t| t.success && t.finished.is_some()));
    }

    /// Any SAL shape completes with iterations × (sims + 1) tasks and
    /// simulations always precede their iteration's analysis.
    #[test]
    fn prop_sal_completes(
        iterations in 1usize..4,
        sims in 1usize..12,
        cores in 1usize..16,
        seed in 0u64..1000,
    ) {
        let config = ResourceConfig::new("local", cores.min(32), SimDuration::from_secs(10_000_000));
        let mut pattern = SimulationAnalysisLoop::new(
            iterations,
            sims,
            |_, i| KernelCall::new("misc.sleep", json!({ "secs": 1.0 + (i % 2) as f64 })),
            |_, outs| vec![KernelCall::new("ana.coco", json!({ "n_sims": outs.len() }))],
        );
        let report = run_simulated(config, quiet(seed), &mut pattern).unwrap();
        prop_assert_eq!(report.task_count(), iterations * (sims + 1));
        prop_assert_eq!(report.failed_tasks, 0);
        prop_assert_eq!(pattern.completed_iterations(), iterations);
    }

    /// Any EE shape completes in both exchange modes with replicas × cycles
    /// MD segments and a rung permutation at the end.
    #[test]
    fn prop_ee_completes(
        replicas in 2usize..10,
        cycles in 1usize..4,
        pairwise in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let config = ResourceConfig::new("local", replicas.min(32), SimDuration::from_secs(10_000_000));
        let mode = if pairwise {
            ExchangeMode::PairwiseAsync
        } else {
            ExchangeMode::GlobalSynchronous
        };
        let mut pattern = EnsembleExchange::new(
            replicas,
            cycles,
            TemperatureLadder::geometric(replicas, 0.8, 2.0),
            |r, c, t| {
                KernelCall::new(
                    "md.amber",
                    json!({ "steps": 300, "n_atoms": 200, "temperature": t,
                            "seed": (r * 17 + c) as u64 }),
                )
            },
        )
        .with_mode(mode);
        let report = run_simulated(config, quiet(seed), &mut pattern).unwrap();
        let md = report.tasks.iter().filter(|t| &*t.stage == "simulation").count();
        prop_assert_eq!(md, replicas * cycles);
        prop_assert_eq!(report.failed_tasks, 0);
        let mut rungs = pattern.rungs().to_vec();
        rungs.sort_unstable();
        prop_assert_eq!(rungs, (0..replicas).collect::<Vec<_>>());
    }

    /// Identical seeds reproduce identical virtual timelines.
    #[test]
    fn prop_seeded_determinism(seed in 0u64..10_000) {
        let run = || {
            let config = ResourceConfig::new("local", 8, SimDuration::from_secs(10_000_000));
            let mut pattern = BagOfTasks::new(12, |i| {
                KernelCall::new("misc.sleep", json!({ "secs": 1.0 + (i % 4) as f64 }))
            });
            run_simulated(
                config,
                SimulatedConfig { seed, ..Default::default() },
                &mut pattern,
            )
            .unwrap()
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(a.ttc, b.ttc);
        prop_assert_eq!(
            a.tasks.iter().map(|t| t.exec_start).collect::<Vec<_>>(),
            b.tasks.iter().map(|t| t.exec_start).collect::<Vec<_>>()
        );
    }

    /// Failure injection with enough retries always converges to success.
    #[test]
    fn prop_retries_absorb_failures(
        rate in 0.0f64..0.4,
        tasks in 1usize..20,
        seed in 0u64..1000,
    ) {
        let config = ResourceConfig::new("local", 8, SimDuration::from_secs(10_000_000));
        let sim = SimulatedConfig {
            seed,
            unit_failure_rate: rate,
            fault: entk_core::FaultConfig::retries(50),
            entk_overheads: EntkOverheads::zero(),
            runtime_overheads: entk_pilot::RuntimeOverheads::zero(),
            ..Default::default()
        };
        let mut pattern = BagOfTasks::new(tasks, |_| {
            KernelCall::new("misc.sleep", json!({ "secs": 1.0 }))
        });
        let report = run_simulated(config, sim, &mut pattern).unwrap();
        prop_assert_eq!(report.failed_tasks, 0);
        prop_assert_eq!(report.task_count(), tasks);
    }

    /// Under platform fault injection, identical seeds reproduce
    /// byte-identical reports — the replay guarantee the resilience
    /// tooling depends on.
    #[test]
    fn prop_faulty_runs_replay_identically(
        rate in 0.0f64..0.4,
        retries in 0u32..6,
        seed in 0u64..1000,
    ) {
        let run = || {
            let config = ResourceConfig::new("local", 8, SimDuration::from_secs(10_000_000));
            let sim = SimulatedConfig {
                fault: entk_core::FaultConfig::retries(retries)
                    .with_backoff(entk_core::BackoffPolicy::exponential(2.0))
                    .graceful(),
                fault_profile: Some(
                    entk_core::FaultProfile::seeded(seed ^ 0xFA).with_task_failures(rate),
                ),
                ..quiet(seed)
            };
            let mut pattern = BagOfTasks::new(16, |i| {
                KernelCall::new("misc.sleep", json!({ "secs": 1.0 + (i % 3) as f64 }))
            });
            run_simulated(config, sim, &mut pattern).unwrap()
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    /// A zero-rate fault injector is free: its presence changes nothing
    /// about the run, byte for byte.
    #[test]
    fn prop_zero_fault_injector_is_invisible(
        tasks in 1usize..20,
        seed in 0u64..1000,
    ) {
        let run = |profile: Option<entk_core::FaultProfile>| {
            let config = ResourceConfig::new("local", 8, SimDuration::from_secs(10_000_000));
            let sim = SimulatedConfig { fault_profile: profile, ..quiet(seed) };
            let mut pattern = BagOfTasks::new(tasks, |i| {
                KernelCall::new("misc.sleep", json!({ "secs": 1.0 + (i % 4) as f64 }))
            });
            run_simulated(config, sim, &mut pattern).unwrap()
        };
        let with_injector = run(Some(entk_core::FaultProfile::seeded(seed)));
        let without = run(None);
        prop_assert_eq!(
            serde_json::to_string(&with_injector).unwrap(),
            serde_json::to_string(&without).unwrap()
        );
    }

    /// Seeded replays produce bit-identical traces: the full event stream
    /// (JSONL export) is byte-for-byte equal across two runs with the same
    /// seed, even under fault injection.
    #[test]
    fn prop_traces_replay_identically(
        rate in 0.0f64..0.4,
        retries in 0u32..6,
        seed in 0u64..1000,
    ) {
        let run = || {
            let config = ResourceConfig::new("local", 8, SimDuration::from_secs(10_000_000));
            let sim = SimulatedConfig {
                fault: entk_core::FaultConfig::retries(retries)
                    .with_backoff(entk_core::BackoffPolicy::exponential(2.0))
                    .graceful(),
                fault_profile: Some(
                    entk_core::FaultProfile::seeded(seed ^ 0xFA).with_task_failures(rate),
                ),
                ..quiet(seed)
            };
            let mut pattern = BagOfTasks::new(16, |i| {
                KernelCall::new("misc.sleep", json!({ "secs": 1.0 + (i % 3) as f64 }))
            });
            run_simulated_traced(config, sim, &mut pattern).unwrap()
        };
        let ((_, ta), (_, tb)) = (run(), run());
        prop_assert_eq!(ta.tracer.to_jsonl(), tb.tracer.to_jsonl());
    }

    /// The overhead breakdown recomputed from the trace agrees with the
    /// analytically accounted one on every random shape, seed, and fault
    /// grid point — the end-to-end cross-validation guarantee.
    #[test]
    fn prop_trace_breakdown_matches_accounting(
        pipelines in 1usize..10,
        stages in 1usize..4,
        rate in 0.0f64..0.4,
        retries in 0u32..6,
        seed in 0u64..1000,
    ) {
        let config = ResourceConfig::new("local", 8, SimDuration::from_secs(10_000_000));
        let sim = SimulatedConfig {
            seed,
            fault: entk_core::FaultConfig::retries(retries)
                .with_backoff(entk_core::BackoffPolicy::exponential(2.0))
                .graceful(),
            fault_profile: Some(
                entk_core::FaultProfile::seeded(seed ^ 0xFA).with_task_failures(rate),
            ),
            ..Default::default()
        };
        let mut pattern = EnsembleOfPipelines::new(pipelines, stages, |p, s| {
            KernelCall::new("misc.sleep", json!({ "secs": 1.0 + ((p + s) % 3) as f64 }))
        });
        let (report, telemetry) = run_simulated_traced(config, sim, &mut pattern).unwrap();
        let cc = cross_check(&report, &telemetry.tracer);
        prop_assert!(
            cc.within(1e-6),
            "trace/accounting divergence {:.3e}s (derived {:?}, accounted {:?})",
            cc.max_abs_error_secs, cc.derived, cc.accounted
        );
    }

    /// No task ever consumes more resubmissions than the retry budget, and
    /// the report's total matches the per-task sum.
    #[test]
    fn prop_retries_respect_budget(
        rate in 0.0f64..0.6,
        retries in 0u32..5,
        seed in 0u64..1000,
    ) {
        let config = ResourceConfig::new("local", 8, SimDuration::from_secs(10_000_000));
        let sim = SimulatedConfig {
            fault: entk_core::FaultConfig::retries(retries).graceful(),
            fault_profile: Some(
                entk_core::FaultProfile::seeded(seed ^ 0xFA).with_task_failures(rate),
            ),
            ..quiet(seed)
        };
        let mut pattern = BagOfTasks::new(16, |_| {
            KernelCall::new("misc.sleep", json!({ "secs": 1.0 }))
        });
        let report = run_simulated(config, sim, &mut pattern).unwrap();
        for t in &report.tasks {
            prop_assert!(
                t.retries <= retries,
                "task {} used {} retries with budget {}", t.uid, t.retries, retries
            );
        }
        let total: u32 = report.tasks.iter().map(|t| t.retries).sum();
        prop_assert_eq!(report.total_retries, total);
        prop_assert_eq!(report.partial, report.failed_tasks > 0);
    }
}
