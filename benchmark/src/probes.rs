//! Isolated probes: one layer at a time, a fixed number of operations,
//! the median over several repeats. A probe says what a layer costs on
//! its own; the workloads say whether that cost matters end to end.

use crate::host;
use crate::metrics::Metrics;
use crate::null_backend::run_null;
use crate::workloads::{eop_pattern, walltime, RESOURCE};
use entk_cluster::{
    BatchScheduler, ClusterEvent, EasyBackfillScheduler, FifoScheduler, PendingView, PlatformSpec,
    RunningView,
};
use entk_core::{cross_check, run_simulated_traced, ResourceConfig, SimulatedConfig};
use entk_pilot::{
    FirstFitScheduler, PilotDescription, PilotId, PilotState, PilotView, RuntimeEvent, SimRuntime,
    SimRuntimeConfig, UnitDescription, UnitId, UnitScheduler, UnitView,
};
use entk_sim::{
    Engine, EventQueue, SharedTelemetry, SimDuration, SimTime, Subject, Tracer, WorkerPool,
};
use entk_workload::{CsvTrace, SyntheticTrace, WorkloadGenerator};
use std::hint::black_box;
use std::time::Instant;

/// Repeats of a probe whose one repeat takes milliseconds.
const LIGHT_REPEATS: usize = 31;
/// Repeats of a probe whose one repeat takes a tenth of a second or more.
const HEAVY_REPEATS: usize = 5;

/// How much smaller the probes run under `--smoke`.
#[derive(Clone, Copy)]
pub struct Scale(pub usize);

impl Scale {
    fn ops(self, full: usize) -> usize {
        (full / self.0).max(16)
    }

    fn repeats(self, full: usize) -> usize {
        if self.0 == 1 {
            full
        } else {
            3
        }
    }
}

/// Median over `repeats` of `unit_scale × seconds / ops`, where one call
/// of `once` performs `ops` operations and returns the seconds they took.
fn per_op(repeats: usize, ops: usize, unit_scale: f64, mut once: impl FnMut() -> f64) -> f64 {
    let mut samples: Vec<f64> = (0..repeats)
        .map(|_| once() * unit_scale / ops as f64)
        .collect();
    host::median(&mut samples)
}

const NS: f64 = 1e9;
const US: f64 = 1e6;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Event-time increments of up to 20 s in whole microseconds, fixed by the
/// seed and drawn before any clock starts.
fn increments(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = XorShift(seed | 1);
    (0..n).map(|_| rng.next() % 20_000_000).collect()
}

/// The classic hold model: with `pending` events queued, pop the earliest
/// and push one at its time plus a random increment. The queue is filled
/// once and stays in its steady state across repeats.
fn hold(seed: u64, pending: usize, repeats: usize, s: Scale) -> f64 {
    let ops = s.ops(20_000);
    let incs = increments(seed ^ 0xABCD, ops);
    let mut q: EventQueue<u32> = EventQueue::new();
    for t in increments(seed, pending) {
        q.push(SimTime::from_micros(t), 0);
    }
    per_op(s.repeats(repeats), ops, NS, || {
        let t0 = Instant::now();
        for &inc in &incs {
            let (t, _, payload) = q.pop().expect("hold queue never empties");
            q.push(SimTime::from_micros(t.as_micros() + inc), payload);
        }
        t0.elapsed().as_secs_f64()
    })
}

fn fill_drain(seed: u64, s: Scale) -> f64 {
    let ops = s.ops(100_000);
    let times = increments(seed, ops);
    per_op(s.repeats(HEAVY_REPEATS), ops, NS, || {
        let t0 = Instant::now();
        let mut q: EventQueue<u32> = EventQueue::new();
        for &t in &times {
            q.push(SimTime::from_micros(t), 0);
        }
        while let Some(e) = q.pop() {
            black_box(e);
        }
        t0.elapsed().as_secs_f64()
    })
}

fn engine_dispatch(s: Scale) -> f64 {
    let ops = s.ops(200_000);
    per_op(s.repeats(LIGHT_REPEATS), ops, NS, || {
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule_in(SimDuration::ZERO, 0u32);
        let mut left = ops;
        let t0 = Instant::now();
        engine.run(|ev, ctx| {
            left -= 1;
            if left > 0 {
                ctx.schedule_in(SimDuration::from_micros(1), ev);
            }
        });
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(engine.steps(), ops as u64);
        secs
    })
}

fn telemetry_record(enabled: bool, s: Scale) -> f64 {
    let ops = s.ops(if enabled { 100_000 } else { 1_000_000 });
    per_op(s.repeats(LIGHT_REPEATS), ops, NS, || {
        let telemetry = if enabled {
            SharedTelemetry::new()
        } else {
            SharedTelemetry::disabled()
        };
        let t0 = Instant::now();
        for i in 0..ops as u64 {
            telemetry.record(
                SimTime::from_micros(i),
                "pilot",
                "unit_scheduled",
                black_box(Subject::Unit(i)),
            );
        }
        let secs = t0.elapsed().as_secs_f64();
        black_box(&telemetry);
        secs
    })
}

fn pool_spawn(s: Scale) -> f64 {
    let ops = s.ops(200);
    per_op(s.repeats(LIGHT_REPEATS), ops, US, || {
        let t0 = Instant::now();
        for _ in 0..ops {
            drop(black_box(WorkerPool::new(2)));
        }
        t0.elapsed().as_secs_f64()
    })
}

fn pool_roundtrip(s: Scale) -> f64 {
    let ops = s.ops(400);
    let pool = WorkerPool::new(2);
    per_op(s.repeats(LIGHT_REPEATS), ops, US, || {
        let t0 = Instant::now();
        for _ in 0..ops {
            pool.run(vec![Box::new(|| {}), Box::new(|| {})]);
        }
        t0.elapsed().as_secs_f64()
    })
}

/// 256 queued jobs of 16..=256 cores against 512 free cores and 64 running
/// jobs: FIFO starts a few and blocks, backfill scans the whole queue.
fn batch_select(seed: u64, scheduler: &mut dyn BatchScheduler, s: Scale) -> f64 {
    let mut rng = XorShift(seed | 1);
    let queue: Vec<PendingView> = (0..256)
        .map(|i| PendingView {
            cores: 16 * (1 + rng.next() as usize % 16),
            walltime: SimDuration::from_secs(600 + rng.next() % 6_000),
            project: format!("project-{}", i % 8),
            submitted: SimTime::from_secs(i),
        })
        .collect();
    let running: Vec<RunningView> = (0..64)
        .map(|_| RunningView {
            cores: 16 * (1 + rng.next() as usize % 16),
            expected_end: SimTime::from_secs(1_000 + rng.next() % 6_000),
        })
        .collect();
    let ops = s.ops(1_600);
    per_op(s.repeats(LIGHT_REPEATS), ops, US, || {
        let t0 = Instant::now();
        for _ in 0..ops {
            black_box(scheduler.select(
                black_box(&queue),
                512,
                SimTime::from_secs(1_000),
                &running,
            ));
        }
        t0.elapsed().as_secs_f64()
    })
}

fn unit_assign(s: Scale) -> f64 {
    let waiting: Vec<UnitView> = (0..s.ops(100_000) as u64)
        .map(|i| UnitView {
            id: UnitId(i),
            cores: 1,
        })
        .collect();
    let pilots = [PilotView {
        id: PilotId(0),
        active: true,
        free_cores: 1024,
        total_cores: 1024,
    }];
    let mut scheduler = FirstFitScheduler;
    let ops = s.ops(1_600);
    per_op(s.repeats(LIGHT_REPEATS), ops, US, || {
        let t0 = Instant::now();
        for _ in 0..ops {
            black_box(scheduler.assign(black_box(&waiting), &pilots));
        }
        t0.elapsed().as_secs_f64()
    })
}

enum RuntimeOrCluster {
    Runtime(RuntimeEvent),
    Cluster(ClusterEvent),
}

impl From<RuntimeEvent> for RuntimeOrCluster {
    fn from(e: RuntimeEvent) -> Self {
        RuntimeOrCluster::Runtime(e)
    }
}

impl From<ClusterEvent> for RuntimeOrCluster {
    fn from(e: ClusterEvent) -> Self {
        RuntimeOrCluster::Cluster(e)
    }
}

/// The pilot runtime and the event engine with no session on top: one
/// 1024-core pilot executing 10 s units, telemetry off.
fn runtime_units_per_s(seed: u64, s: Scale) -> f64 {
    let units = s.ops(100_000);
    let platform = PlatformSpec::by_name(RESOURCE).expect("known platform");
    let mut samples: Vec<f64> = (0..s.repeats(HEAVY_REPEATS))
        .map(|_| {
            let mut descriptions = Some(
                (0..units)
                    .map(|i| UnitDescription::modeled(format!("u{i}"), SimDuration::from_secs(10)))
                    .collect::<Vec<_>>(),
            );
            let t0 = Instant::now();
            let mut runtime = SimRuntime::new(
                platform.clone(),
                SimRuntimeConfig {
                    seed,
                    telemetry: false,
                    ..SimRuntimeConfig::default()
                },
            );
            let mut engine: Engine<RuntimeOrCluster> = Engine::new();
            engine.schedule_in(SimDuration::ZERO, RuntimeEvent::SchedulePass);
            let mut out = Vec::new();
            engine.run(|event, ctx| {
                out.clear();
                if let Some(descriptions) = descriptions.take() {
                    runtime
                        .submit_pilot(
                            PilotDescription::new(RESOURCE, 1024, walltime()),
                            ctx,
                            &mut out,
                        )
                        .expect("valid pilot");
                    runtime
                        .submit_units(descriptions, ctx, &mut out)
                        .expect("valid units");
                }
                match event {
                    RuntimeOrCluster::Runtime(e) => runtime.handle(e, ctx, &mut out),
                    RuntimeOrCluster::Cluster(e) => runtime.handle_cluster(e, ctx, &mut out),
                }
                if runtime.live_units() == 0
                    && runtime.pilot_state(PilotId(0)) == Some(PilotState::Active)
                {
                    runtime.finish_pilot(PilotId(0), ctx, &mut out);
                }
            });
            assert_eq!(runtime.live_units(), 0, "every unit reached a final state");
            drop(runtime);
            units as f64 / t0.elapsed().as_secs_f64()
        })
        .collect();
    host::median(&mut samples)
}

fn session_tasks_per_s(seed: u64, s: Scale) -> f64 {
    let tasks = s.ops(100_000);
    let mut samples: Vec<f64> = (0..s.repeats(HEAVY_REPEATS))
        .map(|_| {
            let t0 = Instant::now();
            let report = run_null(seed, &mut eop_pattern(tasks)).expect("null-backend session");
            assert_eq!(report.task_count(), tasks);
            drop(report);
            tasks as f64 / t0.elapsed().as_secs_f64()
        })
        .collect();
    host::median(&mut samples)
}

/// `cross_check` and `Tracer::to_jsonl` over the trace of one real
/// 10^4-task session, per trace record.
fn trace_consumers(seed: u64, s: Scale, m: &mut Metrics) {
    let (report, telemetry) = run_simulated_traced(
        ResourceConfig::new(RESOURCE, 1024, walltime()),
        SimulatedConfig {
            seed,
            ..SimulatedConfig::default()
        },
        &mut eop_pattern(s.ops(10_000)),
    )
    .expect("traced session");
    let tracer: &Tracer = &telemetry.tracer;
    let records = tracer.len();
    let repeats = s.repeats(11);
    m.set(
        "core.trace_check.cross_check_ns_per_rec",
        per_op(repeats, records, NS, || {
            let t0 = Instant::now();
            let cc = cross_check(&report, tracer);
            let secs = t0.elapsed().as_secs_f64();
            assert!(cc.within(1e-6), "probe trace fails its own cross-check");
            secs
        }),
    );
    m.set(
        "sim.trace.to_jsonl_ns_per_rec",
        per_op(repeats, records, NS, || {
            let t0 = Instant::now();
            let text = tracer.to_jsonl();
            let secs = t0.elapsed().as_secs_f64();
            black_box(text.len());
            secs
        }),
    );
}

/// The ingestion path a real trace takes: the synthetic workload rendered
/// to CSV text once, then parsed row by row.
fn csv_parse(seed: u64, s: Scale) -> f64 {
    let rows = s.ops(100_000);
    let trace = CsvTrace::new(
        SyntheticTrace::new(seed, rows, 64)
            .to_csv()
            .expect("rendering the synthetic trace"),
    );
    per_op(s.repeats(HEAVY_REPEATS), rows, NS, || {
        let t0 = Instant::now();
        let mut stream = trace.stream().expect("opening the CSV stream");
        let mut n = 0;
        while let Some(row) = stream.next_arrival().expect("well-formed row") {
            black_box(row);
            n += 1;
        }
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(n, rows);
        secs
    })
}

/// Runs every probe and stores its metric.
pub fn run_all(seed: u64, s: Scale, m: &mut Metrics) {
    m.set("sim.event.hold_1k_ns", hold(seed, 1_024, LIGHT_REPEATS, s));
    // At 10^5 pending one hold costs microseconds, not nanoseconds.
    m.set(
        "sim.event.hold_100k_ns",
        hold(seed, s.ops(100_000), HEAVY_REPEATS, s),
    );
    m.set("sim.event.fill_drain_ns", fill_drain(seed, s));
    m.set("sim.engine.dispatch_ns", engine_dispatch(s));
    m.set("sim.trace.record_ns", telemetry_record(true, s));
    m.set("sim.trace.record_off_ns", telemetry_record(false, s));
    m.set("sim.pool.spawn_us", pool_spawn(s));
    m.set("sim.pool.run_roundtrip_us", pool_roundtrip(s));
    m.set(
        "cluster.scheduler.select_fifo_us",
        batch_select(seed, &mut FifoScheduler, s),
    );
    m.set(
        "cluster.scheduler.select_backfill_us",
        batch_select(seed, &mut EasyBackfillScheduler, s),
    );
    m.set("pilot.scheduler.assign_us", unit_assign(s));
    m.set(
        "pilot.sim_runtime.units_per_s",
        runtime_units_per_s(seed, s),
    );
    m.set("core.session.tasks_per_s", session_tasks_per_s(seed, s));
    trace_consumers(seed, s, m);
    m.set("workload.trace.csv_parse_ns_per_row", csv_parse(seed, s));
}
