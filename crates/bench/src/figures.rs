//! Workloads and runners regenerating every figure of the paper's
//! evaluation (§IV). Each `figN` function returns the same series the paper
//! plots; the `bin/figN` harnesses print them, the criterion benches time
//! the underlying code paths, and integration tests assert their shape.

use entk_core::prelude::*;
use entk_core::ExecutionReport;
use serde::Serialize;
use serde_json::json;
use std::time::Instant;

/// A generous pilot wall time so experiments never hit the limit.
fn walltime() -> SimDuration {
    SimDuration::from_secs(10_000_000)
}

/// The trace's fingerprint (FNV-1a 64 over its JSONL export), split into
/// two exactly f64-representable u32 halves so it can ride in [`Row`]
/// values. Identical traces ⇒ identical fingerprints, so the committed
/// `results/*.txt` pin every figure point's trace, not just its totals.
pub(crate) fn trace_fingerprint(tracer: &Tracer) -> (f64, f64) {
    let h = tracer.fingerprint();
    (f64::from((h >> 32) as u32), f64::from(h as u32))
}

/// Runs one simulated experiment with tracing on, asserts that the
/// trace-derived overhead breakdown matches the accounted one to
/// microsecond precision, and returns the report with the trace
/// fingerprint. All figure points go through here, so every bench run
/// cross-validates the accounting against the trace pipeline.
fn run_checked(
    config: ResourceConfig,
    sim: SimulatedConfig,
    pattern: &mut dyn ExecutionPattern,
    what: &str,
) -> (ExecutionReport, (f64, f64)) {
    let (report, telemetry) =
        run_simulated_traced(config, sim, pattern).unwrap_or_else(|e| panic!("{what}: {e}"));
    let fp = checked_fingerprint(&report, &telemetry.tracer, what);
    (report, fp)
}

/// The cross-check half of [`run_checked`], for sessions run elsewhere.
fn checked_fingerprint(report: &ExecutionReport, tracer: &Tracer, what: &str) -> (f64, f64) {
    let cc = cross_check(report, tracer);
    assert!(
        cc.within(1e-6),
        "{what}: trace-derived overheads diverge from accounted \
         (max err {:.3e}s)\n  derived:   {:?}\n  accounted: {:?}",
        cc.max_abs_error_secs,
        cc.derived,
        cc.accounted,
    );
    trace_fingerprint(tracer)
}

/// One row of a figure's data.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Row {
    /// Series / subplot label.
    pub series: String,
    /// X value (tasks, cores, or cores-per-simulation).
    pub x: f64,
    /// Named Y values in seconds.
    pub values: Vec<(String, f64)>,
}

impl Row {
    pub(crate) fn new(series: impl Into<String>, x: f64) -> Self {
        Row {
            series: series.into(),
            x,
            values: Vec::new(),
        }
    }

    pub(crate) fn with(mut self, name: impl Into<String>, v: f64) -> Self {
        self.values.push((name.into(), v));
        self
    }

    /// Y value by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Appends the session's trace fingerprint, making row equality imply
    /// trace equality.
    pub(crate) fn with_trace(self, fp: (f64, f64)) -> Self {
        self.with("trace_fp_hi", fp.0).with("trace_fp_lo", fp.1)
    }
}

/// Renders rows in a stable whitespace-separated format: the one renderer
/// behind the figure binaries' stdout and the committed `results/*.txt`.
fn render_rows(title: &str, rows: &[Row]) -> String {
    let mut out = format!("# {title}\n");
    for row in rows {
        out.push_str(&format!("series={} x={}", row.series, row.x));
        for (name, v) in &row.values {
            out.push_str(&format!(" {name}={v:.3}"));
        }
        out.push('\n');
    }
    out
}

/// Prints rows in the figure binaries' stable whitespace-separated format.
pub fn print_rows(title: &str, rows: &[Row]) {
    print!("{}", render_rows(title, rows));
}

fn common_rows(series: &str, x: f64, report: &ExecutionReport) -> Row {
    Row::new(series, x)
        .with("ttc", report.ttc.as_secs_f64())
        .with("exec_time", report.exec_time().as_secs_f64())
        .with("core_overhead", report.overheads.core.as_secs_f64())
        .with("pattern_overhead", report.overheads.pattern.as_secs_f64())
        .with(
            "resource_wait",
            report.overheads.resource_wait.as_secs_f64(),
        )
}

// ---------------------------------------------------------------- Figure 3

/// The char-count application under one of the three patterns.
fn char_count_pattern(kind: &str, n: usize) -> Box<dyn ExecutionPattern + Send> {
    let mk = |_p: usize| KernelCall::new("misc.mkfile", json!({ "bytes": 1024 }));
    match kind {
        "pipeline" => Box::new(
            EnsembleOfPipelines::new(n, 2, move |_, s| {
                if s == 0 {
                    KernelCall::new("misc.mkfile", json!({ "bytes": 1024 }))
                } else {
                    KernelCall::new("misc.ccount", json!({ "bytes": 1024 }))
                }
            })
            .with_stage_labels(vec!["mkfile".into(), "ccount".into()]),
        ),
        "sal" => Box::new(SimulationAnalysisLoop::new(
            1,
            n,
            move |_, p| mk(p),
            move |_, outs| {
                (0..outs.len())
                    .map(|_| KernelCall::new("misc.ccount", json!({ "bytes": 1024 })))
                    .collect()
            },
        )),
        "ee" => Box::new(EnsembleExchange::new(
            n,
            1,
            TemperatureLadder::geometric(n, 1.0, 2.0),
            move |p, _, _| mk(p),
        )),
        other => panic!("unknown pattern kind {other:?}"),
    }
}

/// Fig. 3: char-count app with all three patterns on Comet, tasks = cores ∈
/// {24, 48, 96, 192}; per-pattern execution time plus the EnTK overhead
/// decomposition.
pub fn fig3(seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for n in [24usize, 48, 96, 192] {
        for kind in ["pipeline", "sal", "ee"] {
            let mut pattern = char_count_pattern(kind, n);
            let config = ResourceConfig::new("xsede.comet", n, walltime());
            let sim = SimulatedConfig {
                seed: seed ^ n as u64,
                ..Default::default()
            };
            let (report, fp) = run_checked(config, sim, pattern.as_mut(), "fig3");
            rows.push(common_rows(kind, n as f64, &report).with_trace(fp));
        }
    }
    rows
}

// ---------------------------------------------------------------- Figure 4

/// Fig. 4: Gromacs + LSDMap via SAL on Comet, tasks = cores ∈ {24..192} —
/// validates that swapping kernels leaves EnTK overheads unchanged.
pub fn fig4(seed: u64) -> Vec<Row> {
    let point = |n: usize| {
        let mut pattern = SimulationAnalysisLoop::new(
            1,
            n,
            |_, i| {
                KernelCall::new(
                    "md.gromacs",
                    json!({ "steps": 300, "n_atoms": 2881, "seed": i }),
                )
            },
            move |_, outs| {
                vec![KernelCall::new(
                    "ana.lsdmap",
                    json!({ "n_sims": outs.len() }),
                )]
            },
        );
        let config = ResourceConfig::new("xsede.comet", n, walltime());
        let sim = SimulatedConfig {
            seed: seed ^ (n as u64) << 1,
            ..Default::default()
        };
        let (report, fp) = run_checked(config, sim, &mut pattern, "fig4");
        common_rows("gromacs-lsdmap", n as f64, &report)
            .with(
                "simulation_time",
                report.stage_time("simulation").as_secs_f64(),
            )
            .with("analysis_time", report.stage_time("analysis").as_secs_f64())
            .with_trace(fp)
    };
    [24usize, 48, 96, 192].into_iter().map(point).collect()
}

// ----------------------------------------------------------- Figures 5 & 6

fn ee_experiment(replicas: usize, cores: usize, cycles: usize, seed: u64) -> Row {
    let mut pattern = EnsembleExchange::new(
        replicas,
        cycles,
        TemperatureLadder::geometric(replicas, 0.8, 2.4),
        |r, c, t| {
            KernelCall::new(
                "md.amber",
                json!({
                    // 6 ps = 3000 steps of the 2881-atom system, 1 core.
                    "steps": 3000, "n_atoms": 2881, "temperature": t,
                    "seed": (r * 31 + c) as u64,
                }),
            )
        },
    );
    let config = ResourceConfig::new("lsu.supermic", cores, walltime());
    let sim = SimulatedConfig {
        seed: seed ^ (replicas * 7 + cores) as u64,
        ..Default::default()
    };
    let (report, fp) = run_checked(config, sim, &mut pattern, "ee");
    Row::new(format!("replicas={replicas}"), cores as f64)
        .with(
            "simulation_time",
            report.stage_time("simulation").as_secs_f64(),
        )
        .with("exchange_time", report.stage_time("exchange").as_secs_f64())
        .with("ttc", report.ttc.as_secs_f64())
        .with_trace(fp)
}

/// Fig. 5: EE strong scaling on SuperMIC — 2560 replicas (scaled by
/// `scale` for cheap runs), cores 20 → replicas.
pub fn fig5(seed: u64, scale: usize) -> Vec<Row> {
    let replicas = 2560 / scale.max(1);
    let mut core_counts = Vec::new();
    let mut cores = (20 / scale.clamp(1, 20)).max(1);
    while cores <= replicas {
        core_counts.push(cores);
        cores *= 2;
    }
    if core_counts.last() != Some(&replicas) {
        core_counts.push(replicas);
    }
    core_counts
        .into_iter()
        .map(|cores| ee_experiment(replicas, cores, 1, seed))
        .collect()
}

/// Fig. 6: EE weak scaling on SuperMIC — replicas = cores, 20 → 2560
/// (divided by `scale`).
pub fn fig6(seed: u64, scale: usize) -> Vec<Row> {
    let max = 2560 / scale.max(1);
    let mut sizes = Vec::new();
    let mut n = (20 / scale.max(1)).max(2);
    while n <= max {
        sizes.push(n);
        n *= 2;
    }
    sizes
        .into_iter()
        .map(|n| ee_experiment(n, n, 1, seed))
        .collect()
}

// ----------------------------------------------------------- Figures 7 & 8

fn sal_experiment(sims: usize, cores: usize, cores_per_sim: usize, steps: u64, seed: u64) -> Row {
    let mut pattern = SimulationAnalysisLoop::new(
        1,
        sims,
        move |_, i| {
            KernelCall::new(
                "md.amber",
                json!({ "steps": steps, "n_atoms": 2881, "seed": i }),
            )
            .with_cores(cores_per_sim)
        },
        move |_, outs| vec![KernelCall::new("ana.coco", json!({ "n_sims": outs.len() }))],
    );
    let config = ResourceConfig::new("xsede.stampede", cores, walltime());
    let sim = SimulatedConfig {
        seed: seed ^ (sims * 13 + cores) as u64,
        ..Default::default()
    };
    let (report, fp) = run_checked(config, sim, &mut pattern, "sal");
    let sim_summary = report.stage_exec_summary("simulation");
    Row::new(format!("sims={sims}"), cores as f64)
        .with(
            "simulation_time",
            report.stage_time("simulation").as_secs_f64(),
        )
        .with("analysis_time", report.stage_time("analysis").as_secs_f64())
        .with("mean_sim_exec", sim_summary.mean())
        .with("ttc", report.ttc.as_secs_f64())
        .with_trace(fp)
}

/// Fig. 7: SAL strong scaling on Stampede — 1024 simulations (÷ `scale`),
/// 0.6 ps (300 steps) each, cores 64 → 1024.
pub fn fig7(seed: u64, scale: usize) -> Vec<Row> {
    let sims = 1024 / scale.max(1);
    let mut core_counts = Vec::new();
    let mut cores = (64 / scale.max(1)).max(2);
    while cores <= sims {
        core_counts.push(cores);
        cores *= 2;
    }
    core_counts
        .into_iter()
        .map(|cores| sal_experiment(sims, cores, 1, 300, seed))
        .collect()
}

/// Fig. 8: SAL weak scaling on Stampede — sims = cores, 64 → 4096
/// (÷ `scale`).
pub fn fig8(seed: u64, scale: usize) -> Vec<Row> {
    let max = 4096 / scale.max(1);
    let mut sizes = Vec::new();
    let mut n = (64 / scale.max(1)).max(2);
    while n <= max {
        sizes.push(n);
        n *= 2;
    }
    sizes
        .into_iter()
        .map(|n| sal_experiment(n, n, 1, 300, seed))
        .collect()
}

// ---------------------------------------------------------------- Figure 9

/// Fig. 9: MPI capability on Stampede — 64 simulations (÷ `scale`) of 6 ps
/// each, cores per simulation ∈ {1, 16, 32, 64}; per-simulation execution
/// time drops linearly with cores per simulation.
pub fn fig9(seed: u64, scale: usize) -> Vec<Row> {
    let sims = (64 / scale.max(1)).max(2);
    [1usize, 16, 32, 64]
        .into_iter()
        .map(|cps| {
            let mut row = sal_experiment(sims, sims * cps, cps, 3000, seed);
            row.x = cps as f64;
            row
        })
        .collect()
}

// --------------------------------------------------------------- Figure 10

/// Largest task count at which fig10 keeps the cross-layer trace on (and
/// fingerprints it). Above this the trace itself — tens of records per
/// task — dominates memory and wall time, so throughput points run with
/// telemetry disabled; simulated timings are identical either way.
pub const FIG10_TRACE_LIMIT: usize = 10_000;

/// Row values that measure host wall-clock rather than simulated
/// behaviour. They differ run to run, so replay-identity checks must
/// compare rows through [`deterministic_view`], which strips them.
pub const NONDETERMINISTIC_VALUES: &[&str] = &["wall_secs", "events_per_sec"];

/// The deterministic projection of `rows`: every value except the
/// host-timing ones in [`NONDETERMINISTIC_VALUES`]. Two runs of the same
/// sweep must agree on this projection bit for bit.
pub fn deterministic_view(rows: &[Row]) -> Vec<Row> {
    rows.iter()
        .map(|r| {
            let mut row = Row::new(r.series.clone(), r.x);
            row.values = r
                .values
                .iter()
                .filter(|(name, _)| !NONDETERMINISTIC_VALUES.contains(&name.as_str()))
                .cloned()
                .collect();
            row
        })
        .collect()
}

/// Where a fig10 point runs: one cluster, or late-bound across `members`
/// independently simulated clusters.
#[derive(Debug, Clone, Copy)]
enum Fig10Backend {
    Single,
    Federated { members: usize },
}

/// One fig10 throughput point: an `n`-task ensemble of uniform
/// `misc.sleep` tasks on 1024-core Stampede allocations — one, or (strong
/// scaling: the task count stays fixed as members grow) one per federation
/// member — timed on the host clock. Deterministic values (ttc, events,
/// tasks, and — under the trace limit, where the trace is also
/// cross-checked against the overhead accounting — the trace fingerprint)
/// ride in the row next to the nondeterministic wall-clock ones; above the
/// limit telemetry is off and only throughput is measured.
fn scale_experiment(kind: &str, n: usize, seed: u64, backend: Fig10Backend) -> Row {
    let sleep = |_: usize| KernelCall::new("misc.sleep", json!({ "secs": 10.0 }));
    let mut pattern: Box<dyn ExecutionPattern + Send> = match kind {
        "eop" => Box::new(EnsembleOfPipelines::new(n, 1, move |p, _| sleep(p))),
        "sal" => Box::new(SimulationAnalysisLoop::new(
            1,
            n,
            move |_, i| sleep(i),
            |_, outs| vec![KernelCall::new("ana.coco", json!({ "n_sims": outs.len() }))],
        )),
        other => panic!("unknown fig10 series {other:?}"),
    };
    let traced = n <= FIG10_TRACE_LIMIT;
    let seed = seed ^ n as u64;
    let t0 = Instant::now();
    let (what, handle) = match backend {
        Fig10Backend::Single => (
            "fig10",
            ResourceHandle::simulated(
                ResourceConfig::new("xsede.stampede", 1024, walltime()),
                SimulatedConfig {
                    seed,
                    telemetry: traced,
                    ..Default::default()
                },
            ),
        ),
        Fig10Backend::Federated { members } => (
            "fig10_federated",
            ResourceHandle::federated(FederatedConfig {
                seed,
                telemetry: traced,
                clusters: (0..members)
                    .map(|_| ClusterSpec::new("xsede.stampede", 1024, walltime()))
                    .collect(),
                ..FederatedConfig::default()
            }),
        ),
    };
    let (report, telemetry) = handle
        .and_then(|h| h.execute(pattern.as_mut()))
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let fp = traced.then(|| checked_fingerprint(&report, &telemetry.tracer, what));
    let wall = t0.elapsed().as_secs_f64();
    assert!(!report.partial, "{what} runs must complete");
    let mut row = Row::new(kind, n as f64);
    // Only federated rows carry the member count.
    if let Fig10Backend::Federated { members } = backend {
        row = row.with("members", members as f64);
    }
    row = row
        .with("ttc", report.ttc.as_secs_f64())
        .with("tasks", report.task_count() as f64)
        .with("events", report.events as f64)
        .with("wall_secs", wall)
        .with("events_per_sec", report.events as f64 / wall.max(1e-9));
    if let Some(fp) = fp {
        row = row.with_trace(fp);
    }
    row
}

/// The fig10 grid — 10³ → `max_tasks` tasks × {eop, sal} — on `backend`,
/// one point at a time so each measured wall-clock is one session's alone.
fn fig10_sweep(seed: u64, max_tasks: usize, backend: Fig10Backend) -> Vec<Row> {
    assert!(max_tasks >= 1_000, "fig10: max_tasks below smallest point");
    let mut rows = Vec::new();
    for n in [1_000usize, 10_000, 100_000, 1_000_000] {
        if n <= max_tasks {
            for kind in ["eop", "sal"] {
                rows.push(scale_experiment(kind, n, seed, backend));
            }
        }
    }
    rows
}

/// Fig. 10 (extension): simulator throughput scaling — ensemble-of-
/// pipelines and simulation-analysis-loop ensembles of 10³ → `max_tasks`
/// uniform tasks, reporting wall-clock and events/sec per point. The
/// paper stops at ~10³ tasks; this figure documents that the reproduction
/// sustains 10⁶.
pub fn fig10(seed: u64, max_tasks: usize) -> Vec<Row> {
    fig10_sweep(seed, max_tasks, Fig10Backend::Single)
}

/// Fig. 10, federated: throughput of an `n`-task ensemble late-bound
/// across `members` simulated clusters.
pub fn fig10_federated_with(seed: u64, max_tasks: usize, members: usize) -> Vec<Row> {
    fig10_sweep(seed, max_tasks, Fig10Backend::Federated { members })
}

// ------------------------------------------------------------ Trace export

/// Chrome trace-event JSON for one representative session — the Fig. 3
/// char-count app at 48 pipelines — loadable in Perfetto or
/// `chrome://tracing`. Written as `TRACE.json` by `bench --trace`. The run
/// is cross-checked before export, so a published trace always agrees with
/// the accounted overheads.
pub fn representative_trace(seed: u64) -> String {
    let mut pattern = char_count_pattern("pipeline", 48);
    let config = ResourceConfig::new("xsede.comet", 48, walltime());
    let sim = SimulatedConfig {
        seed,
        ..Default::default()
    };
    let (_, telemetry) = {
        let (report, telemetry) =
            run_simulated_traced(config, sim, pattern.as_mut()).expect("trace run");
        cross_check(&report, &telemetry.tracer).assert_ok();
        (report, telemetry)
    };
    telemetry.tracer.to_chrome_json()
}

// --------------------------------------------------------------- Ablations

/// Ablation: EE exchange topology — global-synchronous vs pairwise-async
/// TTC at fixed replicas/cores.
pub fn ablation_exchange(seed: u64) -> Vec<Row> {
    let replicas = 64;
    let cores = 32;
    let point = |(label, mode)| {
        let mut pattern = EnsembleExchange::new(
            replicas,
            4,
            TemperatureLadder::geometric(replicas, 0.8, 2.4),
            |r, c, t| {
                KernelCall::new(
                    "md.amber",
                    json!({ "steps": 3000, "n_atoms": 2881, "temperature": t,
                            "seed": (r * 31 + c) as u64 }),
                )
            },
        )
        .with_mode(mode);
        let config = ResourceConfig::new("lsu.supermic", cores, walltime());
        let sim = SimulatedConfig {
            seed,
            ..Default::default()
        };
        let (report, fp) = run_checked(config, sim, &mut pattern, "ablation_exchange");
        Row::new(label, replicas as f64)
            .with("ttc", report.ttc.as_secs_f64())
            .with("exchange_time", report.stage_time("exchange").as_secs_f64())
            .with_trace(fp)
    };
    [
        ("global-sync", ExchangeMode::GlobalSynchronous),
        ("pairwise-async", ExchangeMode::PairwiseAsync),
    ]
    .into_iter()
    .map(point)
    .collect()
}

/// Ablation: runtime-overhead sensitivity — scale all RP overheads and
/// watch TTC for a 512-task bag.
pub fn ablation_overhead(seed: u64) -> Vec<Row> {
    let point = |factor: f64| {
        let mut pattern = BagOfTasks::new(512, |_| {
            KernelCall::new("misc.sleep", json!({ "secs": 10.0 }))
        });
        let config = ResourceConfig::new("xsede.comet", 256, walltime());
        let sim = SimulatedConfig {
            seed,
            runtime_overheads: entk_pilot::RuntimeOverheads::radical_pilot().scaled(factor),
            ..Default::default()
        };
        let (report, fp) = run_checked(config, sim, &mut pattern, "ablation_overhead");
        Row::new("overhead-scale", factor)
            .with("ttc", report.ttc.as_secs_f64())
            .with_trace(fp)
    };
    [0.0, 1.0, 10.0].into_iter().map(point).collect()
}

/// Ablation: fault tolerance — TTC and failure outcomes vs injected
/// unit-failure rate, with and without retries.
pub fn ablation_faults(seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for rate in [0.0, 0.1, 0.3] {
        for retries in [0u32, 5] {
            let mut pattern = BagOfTasks::new(256, |_| {
                KernelCall::new("misc.sleep", json!({ "secs": 30.0 }))
            });
            let config = ResourceConfig::new("xsede.comet", 128, walltime());
            let sim = SimulatedConfig {
                seed,
                unit_failure_rate: rate,
                fault: entk_core::FaultConfig::retries(retries),
                ..Default::default()
            };
            let (report, fp) = run_checked(config, sim, &mut pattern, "ablation_faults");
            rows.push(
                Row::new(format!("retries={retries}"), rate)
                    .with("ttc", report.ttc.as_secs_f64())
                    .with("failed", report.failed_tasks as f64)
                    .with("resubmissions", report.total_retries as f64)
                    .with_trace(fp),
            );
        }
    }
    rows
}

/// Ablation: pilot-splitting execution strategy under size-dependent
/// queue wait (paper §V / Ref.\[23\]).
pub fn ablation_pilots(seed: u64) -> Vec<Row> {
    let mut platform = entk_cluster::PlatformSpec::comet();
    platform.queue_wait_per_core = 2.0;
    let point = |count: usize| {
        let mut pattern = BagOfTasks::new(128, |_| {
            KernelCall::new("misc.sleep", json!({ "secs": 30.0 }))
        });
        let config = ResourceConfig::new("xsede.comet", 128, walltime());
        let sim = SimulatedConfig {
            seed,
            platform: Some(platform.clone()),
            pilot_strategy: if count == 1 {
                entk_core::PilotStrategy::single()
            } else {
                entk_core::PilotStrategy::split(count)
            },
            ..Default::default()
        };
        let (report, fp) = run_checked(config, sim, &mut pattern, "ablation_pilots");
        Row::new("pilots", count as f64)
            .with("ttc", report.ttc.as_secs_f64())
            .with_trace(fp)
    };
    [1usize, 2, 4, 8].into_iter().map(point).collect()
}

/// Ablation: unit placement order on a mixed MPI workload.
pub fn ablation_scheduler(seed: u64) -> Vec<Row> {
    use entk_pilot::UnitOrder;
    let point = |label: &str| {
        let order = match label {
            "first-fit" => UnitOrder::FirstFit,
            _ => UnitOrder::LargestFirst,
        };
        // Mixed 1/4/8-core tasks.
        let mut pattern = BagOfTasks::new(96, |i| {
            let cores = [1usize, 4, 8][i % 3];
            KernelCall::new("misc.sleep", json!({ "secs": 30.0 })).with_cores(cores)
        });
        let config = ResourceConfig::new("xsede.comet", 48, walltime());
        let mut handle = ResourceHandle::simulated(
            config,
            SimulatedConfig {
                seed,
                ..Default::default()
            },
        )
        .expect("handle");
        handle.set_unit_order(order);
        handle.allocate().expect("allocate");
        let report = handle.run(&mut pattern).expect("run");
        // Mid-session snapshot: teardown hasn't happened, so the trace must
        // agree with the run report (whose core overhead excludes teardown).
        let telemetry = handle.telemetry().expect("simulated handle").snapshot();
        let cc = cross_check(&report, &telemetry.tracer);
        assert!(
            cc.within(1e-6),
            "ablation_scheduler: trace/accounting divergence ({:.3e}s)",
            cc.max_abs_error_secs
        );
        handle.deallocate().expect("deallocate");
        let fp = trace_fingerprint(
            &handle
                .telemetry()
                .expect("simulated handle")
                .snapshot()
                .tracer,
        );
        Row::new(label, 96.0)
            .with("exec_time", report.exec_time().as_secs_f64())
            .with_trace(fp)
    };
    ["first-fit", "largest-first"]
        .into_iter()
        .map(point)
        .collect()
}

// ---------------------------------------------------------- Figure binaries

/// The complete stdout of the figure binary `name` (`fig3` … `fig9`,
/// `ablations`): each of its sweeps under its title. `scale` divides the
/// fig5–fig9 problem sizes (1 = the paper's full configuration). At seed
/// 2016 and scale 1 these are the bytes committed as `results/<name>.txt`,
/// which `tests/figures.rs` asserts.
pub fn figure_text(name: &str, seed: u64, scale: usize) -> String {
    let sections = match name {
        "fig3" => vec![("Figure 3", fig3(seed))],
        "fig4" => vec![("Figure 4", fig4(seed))],
        "fig5" => vec![("Figure 5", fig5(seed, scale))],
        "fig6" => vec![("Figure 6", fig6(seed, scale))],
        "fig7" => vec![("Figure 7", fig7(seed, scale))],
        "fig8" => vec![("Figure 8", fig8(seed, scale))],
        "fig9" => vec![("Figure 9", fig9(seed, scale))],
        "ablations" => vec![
            ("Ablation: exchange topology", ablation_exchange(seed)),
            ("Ablation: runtime overhead scale", ablation_overhead(seed)),
            ("Ablation: unit scheduler", ablation_scheduler(seed)),
            ("Ablation: pilot splitting", ablation_pilots(seed)),
            ("Ablation: fault tolerance", ablation_faults(seed)),
        ],
        other => panic!("unknown figure {other:?}"),
    };
    sections
        .iter()
        .map(|(title, rows)| render_rows(title, rows))
        .collect()
}

/// `main` of the figure binaries: prints [`figure_text`] for `name` with
/// `[seed] [scale]` read from the command line (defaults 2016 and 1).
pub fn figure_main(name: &str) {
    let seed = std::env::args().nth(1).and_then(|s| s.parse().ok());
    let scale = std::env::args().nth(2).and_then(|s| s.parse().ok());
    print!(
        "{}",
        figure_text(name, seed.unwrap_or(2016), scale.unwrap_or(1))
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_small_scale_has_flat_exec_time() {
        // Scaled-down: tasks=cores means exec time stays flat per pattern.
        let rows = fig3(1);
        for kind in ["pipeline", "sal", "ee"] {
            let series: Vec<f64> = rows
                .iter()
                .filter(|r| r.series == kind)
                .map(|r| r.value("exec_time").unwrap())
                .collect();
            assert_eq!(series.len(), 4);
            let min = series.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = series.iter().cloned().fold(0.0, f64::max);
            assert!(
                max / min < 2.5,
                "{kind} exec time should stay roughly flat: {series:?}"
            );
        }
    }

    #[test]
    fn fig3_overheads_have_paper_shape() {
        let rows = fig3(9);
        // Core overhead constant across sizes (within 25%).
        let core: Vec<f64> = rows
            .iter()
            .filter(|r| r.series == "pipeline")
            .map(|r| r.value("core_overhead").unwrap())
            .collect();
        let cmin = core.iter().cloned().fold(f64::INFINITY, f64::min);
        let cmax = core.iter().cloned().fold(0.0, f64::max);
        assert!(cmax / cmin < 1.25, "core overhead ~constant: {core:?}");
        // Pattern overhead grows ~linearly: 8x tasks => >4x overhead.
        let pat: Vec<f64> = rows
            .iter()
            .filter(|r| r.series == "pipeline")
            .map(|r| r.value("pattern_overhead").unwrap())
            .collect();
        assert!(
            pat.last().unwrap() > &(4.0 * pat[0]),
            "pattern overhead ∝ tasks: {pat:?}"
        );
    }

    #[test]
    fn fault_ablation_retries_absorb_failures() {
        let rows = ablation_faults(3);
        for r in &rows {
            let retries = r.series == "retries=5";
            let failed = r.value("failed").unwrap();
            if retries {
                assert_eq!(failed, 0.0, "retries must absorb failures at rate {}", r.x);
            } else if r.x > 0.0 {
                assert!(
                    failed > 0.0,
                    "no-retry run should lose tasks at rate {}",
                    r.x
                );
            }
        }
    }

    #[test]
    fn fig5_small_scale_halves_simulation_time() {
        let rows = fig5(2, 32); // 80 replicas, cores 1..80
        assert!(rows.len() >= 3);
        for pair in rows.windows(2) {
            let a = pair[0].value("simulation_time").unwrap();
            let b = pair[1].value("simulation_time").unwrap();
            assert!(b < a, "strong scaling must decrease sim time: {a} -> {b}");
        }
        // Exchange time roughly constant (depends only on replica count).
        let ex: Vec<f64> = rows
            .iter()
            .map(|r| r.value("exchange_time").unwrap())
            .collect();
        let min = ex.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ex.iter().cloned().fold(0.0, f64::max);
        assert!(max / min < 1.5, "exchange time ~constant: {ex:?}");
    }

    #[test]
    fn fig8_small_scale_grows_analysis_only() {
        let rows = fig8(3, 32); // sims = cores ∈ {2..128}
        let sim_t: Vec<f64> = rows
            .iter()
            .map(|r| r.value("simulation_time").unwrap())
            .collect();
        let ana_t: Vec<f64> = rows
            .iter()
            .map(|r| r.value("analysis_time").unwrap())
            .collect();
        // Weak scaling: simulation time ~flat, analysis grows monotonically.
        let min = sim_t.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = sim_t.iter().cloned().fold(0.0, f64::max);
        assert!(max / min < 2.0, "weak-scaled sim time flat: {sim_t:?}");
        // Growth dominates once n is large enough to beat base-cost jitter.
        assert!(
            ana_t.last().unwrap() > &(1.5 * ana_t[0]),
            "analysis grows with sims: {ana_t:?}"
        );
        assert!(
            ana_t[2..].windows(2).all(|w| w[1] > w[0]),
            "analysis monotonic beyond tiny n: {ana_t:?}"
        );
    }

    #[test]
    fn fig10_small_scale_is_deterministic_across_modes() {
        let first = fig10(2016, 1_000);
        assert_eq!(first.len(), 2, "one EoP and one SAL point at n=1000");
        for row in &first {
            assert_eq!(row.x, 1_000.0);
            // Traced points carry the fingerprint, so row equality below
            // implies byte-identical traces, not just matching totals.
            assert!(row.value("trace_fp_hi").is_some());
            assert!(row.value("events").unwrap() > 0.0);
            assert!(row.value("events_per_sec").unwrap() > 0.0);
        }
        let replay = fig10(2016, 1_000);
        // Wall-clock values legitimately differ run to run; everything else
        // must be bit-identical.
        assert_eq!(deterministic_view(&first), deterministic_view(&replay));
        let stripped = deterministic_view(&first);
        for row in &stripped {
            for name in NONDETERMINISTIC_VALUES {
                assert!(row.value(name).is_none(), "{name} not stripped");
            }
        }
    }

    #[test]
    fn fig9_small_scale_speeds_up_with_cores_per_sim() {
        let rows = fig9(4, 16); // 4 sims
        let exec: Vec<f64> = rows
            .iter()
            .map(|r| r.value("mean_sim_exec").unwrap())
            .collect();
        assert!(
            exec.windows(2).all(|w| w[1] < w[0]),
            "more cores per sim must be faster: {exec:?}"
        );
        // Roughly linear: 64× cores ⇒ ≥ 20× faster (base cost bounds it).
        assert!(exec[0] / exec[3] > 20.0, "speedup {}", exec[0] / exec[3]);
    }
}
