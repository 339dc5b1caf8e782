//! End-to-end tests of the local backend: same patterns and kernels, real
//! execution on host threads.

use entk_core::prelude::*;
use serde_json::json;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("entk-local-tests").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn char_count_app_runs_for_real() {
    let dir = tmpdir("charcount");
    let n = 6;
    let dir_c = dir.clone();
    let mut pattern = EnsembleOfPipelines::new(n, 2, move |p, s| {
        let path = dir_c.join(format!("file-{p}.txt"));
        let path = path.to_str().unwrap();
        if s == 0 {
            KernelCall::new("misc.mkfile", json!({ "path": path, "bytes": 4096 }))
        } else {
            KernelCall::new("misc.ccount", json!({ "path": path }))
        }
    })
    .with_stage_labels(vec!["mkfile".into(), "ccount".into()]);

    let mut handle = ResourceHandle::local(4).unwrap();
    handle.allocate().unwrap();
    let report = handle.run(&mut pattern).unwrap();
    handle.deallocate().unwrap();

    assert_eq!(report.task_count(), 2 * n);
    assert_eq!(report.failed_tasks, 0);
    // Files really exist with the right size.
    for p in 0..n {
        let meta = std::fs::metadata(dir.join(format!("file-{p}.txt"))).unwrap();
        assert_eq!(meta.len(), 4096);
    }
    // Real execution recorded nonzero durations.
    let s = report.stage_exec_summary("mkfile");
    assert_eq!(s.count(), n);
    assert!(s.mean() >= 0.0);
}

#[test]
fn real_md_sal_produces_analysis() {
    // One SAL iteration with tiny real MD + real CoCo.
    let n_sims = 3;
    let mut pattern = SimulationAnalysisLoop::new(
        1,
        n_sims,
        |_, i| {
            KernelCall::new(
                "md.amber",
                json!({ "n_atoms": 40, "steps": 60, "record_every": 20, "seed": i }),
            )
        },
        move |_, outs| {
            // Gather real frames from the simulation outputs.
            let mut frames: Vec<serde_json::Value> = Vec::new();
            for o in outs {
                if let Some(fs) = o["frames"].as_array() {
                    frames.extend(fs.iter().cloned());
                }
            }
            assert!(!frames.is_empty(), "simulations produced frames");
            vec![KernelCall::new(
                "ana.coco",
                json!({ "frames": frames, "n_new": 2 }),
            )]
        },
    );
    let mut handle = ResourceHandle::local(3).unwrap();
    handle.allocate().unwrap();
    let report = handle.run(&mut pattern).unwrap();
    assert_eq!(report.failed_tasks, 0);
    assert_eq!(report.task_count(), n_sims + 1);
    assert_eq!(pattern.completed_iterations(), 1);
}

#[test]
fn real_remd_exchanges_real_energies() {
    let n = 4;
    let mut pattern = EnsembleExchange::new(
        n,
        2,
        TemperatureLadder::geometric(n, 0.6, 1.8),
        |r, c, t| {
            KernelCall::new(
                "md.amber",
                json!({
                    "n_atoms": 40, "steps": 40, "record_every": 40,
                    "temperature": t, "seed": (r * 13 + c) as u64,
                }),
            )
        },
    );
    let mut handle = ResourceHandle::local(4).unwrap();
    handle.allocate().unwrap();
    let report = handle.run(&mut pattern).unwrap();
    assert_eq!(report.failed_tasks, 0);
    let (_, attempted) = pattern.swap_stats();
    assert!(attempted > 0, "exchanges ran on real energies");
}

#[test]
fn local_failures_retry_then_report() {
    // ccount on a missing file always fails; with 2 retries it fails 3 times
    // then reaches the pattern.
    let mut pattern = BagOfTasks::new(2, |i| {
        if i == 0 {
            KernelCall::new("misc.ccount", json!({ "path": "/nonexistent/entk/x" }))
        } else {
            KernelCall::new("misc.stress", json!({ "iters": 1000u64 }))
        }
    });
    let mut handle =
        ResourceHandle::local_with(2, KernelRegistry::with_builtins(), FaultConfig::retries(2))
            .unwrap();
    handle.allocate().unwrap();
    let report = handle.run(&mut pattern).unwrap();
    assert_eq!(report.failed_tasks, 1);
    assert_eq!(report.total_retries, 2);
}

#[test]
fn unknown_kernel_fails_cleanly_locally() {
    let mut pattern = BagOfTasks::new(1, |_| KernelCall::new("md.namd", json!({})));
    let mut handle = ResourceHandle::local(1).unwrap();
    handle.allocate().unwrap();
    let report = handle.run(&mut pattern).unwrap();
    assert_eq!(report.failed_tasks, 1);
}

#[test]
fn local_lifecycle_misuse() {
    let mut handle = ResourceHandle::local(1).unwrap();
    let mut pattern = BagOfTasks::new(1, |_| KernelCall::new("misc.sleep", json!({"secs": 0.01})));
    assert!(handle.run(&mut pattern).is_err());
    handle.allocate().unwrap();
    assert!(handle.allocate().is_err());
}

#[test]
fn queued_units_hold_their_cores_for_real() {
    // Eight two-core tasks on three cores: more units than the service can
    // hold, and no two of them fit side by side.
    let mut pattern = BagOfTasks::new(8, |_| {
        KernelCall::new("misc.sleep", json!({ "secs": 0.01 })).with_cores(2)
    });
    let mut handle = ResourceHandle::local(3).unwrap();
    handle.allocate().unwrap();
    let report = handle.run(&mut pattern).unwrap();
    assert_eq!((report.task_count(), report.failed_tasks), (8, 0));
    let mut ran: Vec<_> = report
        .tasks
        .iter()
        .map(|t| (t.exec_start.unwrap(), t.exec_stop.unwrap()))
        .collect();
    ran.sort();
    for (start, stop) in &ran {
        assert!(stop.saturating_since(*start) >= SimDuration::from_millis(9));
    }
    for pair in ran.windows(2) {
        assert!(pair[0].1 <= pair[1].0, "overlapping executions: {pair:?}");
    }
}

/// A kernel whose real execution panics.
struct PanickingKernel;

impl entk_kernels::KernelPlugin for PanickingKernel {
    fn name(&self) -> &str {
        "test.panic"
    }
    fn plan(
        &self,
        _args: &serde_json::Value,
        _cores: usize,
        _platform: &entk_cluster::PlatformSpec,
        _rng: &mut entk_sim::SimRng,
    ) -> Result<entk_kernels::UnitPlan, entk_kernels::KernelError> {
        Ok(entk_kernels::UnitPlan::default())
    }
    fn execute_model(
        &self,
        _args: &serde_json::Value,
        _rng: &mut entk_sim::SimRng,
    ) -> Result<serde_json::Value, entk_kernels::KernelError> {
        Ok(json!({}))
    }
    fn execute(
        &self,
        _args: &serde_json::Value,
    ) -> Result<serde_json::Value, entk_kernels::KernelError> {
        panic!("kernel blew up")
    }
}

#[test]
fn a_panicking_kernel_is_one_failed_task_not_a_hang() {
    let mut registry = KernelRegistry::with_builtins();
    registry.register(std::sync::Arc::new(PanickingKernel));
    let mut pattern = BagOfTasks::new(3, |i| match i {
        0 => KernelCall::new("test.panic", json!({})),
        _ => KernelCall::new("misc.stress", json!({ "iters": 1000u64 })),
    });
    let mut handle = ResourceHandle::local_with(1, registry, FaultConfig::default()).unwrap();
    handle.allocate().unwrap();
    let report = handle.run(&mut pattern).unwrap();
    assert_eq!((report.task_count(), report.failed_tasks), (3, 1));
}
