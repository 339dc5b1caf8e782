//! The traced run: the workload's own bodies with spans around every call
//! into a layer, the one-off comparisons that belong to the workload, and
//! the isolated probes. End-to-end metrics are never taken from here.
//!
//! Traced and untraced bodies alternate, so `harness.trace_overhead_share`
//! compares the two under the same machine state.

use crate::host::{self, CpuTime};
use crate::measure::{out_dir, stream_path, Ops, RunArgs, StreamFile};
use crate::metrics::{self, Metrics};
use crate::probes::{self, Scale};
use crate::spans::{self, Ctx, Span};
use crate::workloads::{
    self, arrivals, ensemble_body, eop_pattern, serve_body, stream_config, walltime, Kind,
    PatternEvents, Workload, SMOKE_SHRINK,
};
use entk_core::{
    cross_check, ClusterSpec, DriveMode, EntkError, ExecutionReport, FederatedConfig,
    ResourceConfig, ResourceHandle, SimulatedConfig,
};
use entk_sim::Telemetry;
use entk_workload::{
    fnv64, session_seed, PatternKind, SessionArrival, StreamBackend, WorkloadConfig,
};
use std::path::Path;
use std::time::Instant;

/// Fewest bodies of each kind (traced, untraced) a traced run alternates.
const MIN_PAIRS: usize = 3;
/// Share of `--seconds` the alternating bodies may use; the rest is left
/// to the comparisons and probes, whose operation counts are fixed.
const FLOW_SHARE: f64 = 0.5;

/// Names of the spans around `ResourceHandle::run`, by pattern shape.
fn run_span(kind: PatternKind) -> &'static str {
    match kind {
        PatternKind::Eop => "core.resource.run.eop",
        PatternKind::Sal => "core.resource.run.sal",
        PatternKind::Ee => "core.resource.run.ee",
        PatternKind::Pst => "core.resource.run.pst",
    }
}

/// Median over `bodies` of the per-body value `f` extracts.
fn median_over(bodies: &[u32], f: impl Fn(u32) -> f64) -> f64 {
    let mut values: Vec<f64> = bodies.iter().map(|&b| f(b)).collect();
    host::median(&mut values)
}

fn rate(count: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        count as f64 / secs
    } else {
        0.0
    }
}

/// What the alternating bodies of a traced run produced.
struct Flow {
    untraced_walls: Vec<f64>,
    traced_walls: Vec<f64>,
    /// Process CPU seconds of each traced body.
    traced_cpu: Vec<f64>,
    /// Body ids of the traced bodies, as the spans carry them.
    bodies: Vec<u32>,
    pattern_events: PatternEvents,
    sink_bytes: u64,
}

fn alternate(args: &RunArgs, stream: &Path, ops: &mut Ops) -> Flow {
    let w = args.workload;
    let mut flow = Flow {
        untraced_walls: Vec::new(),
        traced_walls: Vec::new(),
        traced_cpu: Vec::new(),
        bodies: Vec::new(),
        pattern_events: PatternEvents::default(),
        sink_bytes: 0,
    };
    let pairs = if args.smoke { 2 } else { MIN_PAIRS };
    let t0 = Instant::now();
    while flow.bodies.len() < pairs
        || (!args.smoke && t0.elapsed().as_secs_f64() < args.seconds * FLOW_SHARE)
    {
        let (wall, p) = workloads::body(w, args.seed, stream, Ctx::OFF).expect("untraced body");
        ops.body(&p);
        flow.untraced_walls.push(wall);

        let id = flow.bodies.len() as u32;
        let cpu0 = CpuTime::now();
        let (wall, p) = if w.is_serve() {
            let (wall, p, bytes) =
                serve_body(w, args.seed, stream, Ctx::body(id)).expect("traced body");
            flow.sink_bytes = bytes;
            (wall, p)
        } else {
            let (wall, p, events) = ensemble_body(w, args.seed, DriveMode::Parallel, Ctx::body(id))
                .expect("traced body");
            flow.pattern_events = events;
            (wall, p)
        };
        flow.traced_cpu.push(CpuTime::now().since(cpu0).total());
        ops.body(&p);
        flow.traced_walls.push(wall);
        flow.bodies.push(id);
    }
    flow
}

/// One served session evaluated again, outside the service: the steps of
/// `run_simulated_traced` / `run_federated_traced` one by one, each in its
/// own span, then the three consumers of the session's trace.
fn replay_session(
    config: &WorkloadConfig,
    index: usize,
    arrival: &SessionArrival,
    ctx: Ctx,
) -> Result<(ExecutionReport, u64), EntkError> {
    let mut pattern = ctx.span("workload.arrival.build_pattern", |_| {
        arrival.build_pattern()
    })?;
    let seed = session_seed(config.seed, index);
    let (report, telemetry): (ExecutionReport, Telemetry) =
        ctx.span("core.resource.run_traced", |ctx| {
            let mut handle = ctx.span("core.resource.construct", |_| match config.backend {
                StreamBackend::Simulated => ResourceHandle::simulated(
                    ResourceConfig::new(config.resource.clone(), arrival.cores, walltime()),
                    SimulatedConfig {
                        seed,
                        ..SimulatedConfig::default()
                    },
                ),
                StreamBackend::Federated { members } => {
                    ResourceHandle::federated(FederatedConfig {
                        seed,
                        clusters: (0..members)
                            .map(|_| {
                                ClusterSpec::new(config.resource.clone(), arrival.cores, walltime())
                            })
                            .collect(),
                        ..FederatedConfig::default()
                    })
                }
            })?;
            ctx.span("core.resource.allocate", |_| handle.allocate())?;
            let run = ctx.span(run_span(arrival.pattern), |_| handle.run(pattern.as_mut()))?;
            let mut session = ctx.span("core.resource.deallocate", |_| handle.deallocate())?;
            session.pattern = run.pattern;
            let telemetry = handle
                .telemetry()
                .expect("simulated backends keep a trace")
                .snapshot();
            ctx.span("core.resource.drop", |_| drop(handle));
            Ok::<_, EntkError>((session, telemetry))
        })?;
    let cc = ctx.span("core.trace_check.cross_check", |_| {
        cross_check(&report, &telemetry.tracer)
    });
    assert!(
        cc.within(1e-6),
        "session {index}: trace diverges from accounting"
    );
    let jsonl = ctx.span("sim.trace.to_jsonl", |_| telemetry.tracer.to_jsonl());
    let fp = ctx.span("workload.runner.fnv64", |_| fnv64(jsonl.as_bytes()));
    Ok((report, fp))
}

/// The `trace_fp` of every line of a served stream, in line order.
fn served_fingerprints(stream: &Path) -> Vec<String> {
    const KEY: &str = "\"trace_fp\":\"";
    std::fs::read_to_string(stream)
        .expect("reading the served stream")
        .lines()
        .map(|line| {
            let at = line.find(KEY).expect("stream line carries trace_fp") + KEY.len();
            line[at..at + 16].to_string()
        })
        .collect()
}

/// Events and sessions of the replay pass, and how many of its sessions
/// did not reproduce the fingerprint the service emitted.
struct Replay {
    body: u32,
    cpu: f64,
    sessions: u64,
    mismatched: u64,
    /// Events processed up to the end of `run`, by pattern shape.
    events: [u64; 4],
}

/// Replays every arrival of the stream through the per-session pipeline
/// on this thread and checks each fingerprint against the served line.
fn replay(w: Workload, seed: u64, stream: &Path, body: u32) -> Replay {
    let served = served_fingerprints(stream);
    let config = stream_config(w, seed);
    let ctx = Ctx::body(body);
    let mut out = Replay {
        body,
        cpu: 0.0,
        sessions: 0,
        mismatched: 0,
        events: [0; 4],
    };
    let mut source = arrivals(w, seed).expect("opening the arrival stream");
    let cpu0 = CpuTime::now();
    while let Some(arrival) = source.next_arrival().expect("pulling an arrival") {
        let index = out.sessions as usize;
        let (report, fp) = replay_session(&config, index, &arrival, ctx).expect("replayed session");
        if served.get(index).map(String::as_str) != Some(format!("{fp:016x}").as_str()) {
            eprintln!(
                "session {index}: replayed trace_fp {fp:016x} != served {:?}",
                served.get(index)
            );
            out.mismatched += 1;
        }
        out.events[arrival.pattern as usize] += report.events;
        out.sessions += 1;
    }
    out.cpu = CpuTime::now().since(cpu0).total();
    assert_eq!(
        out.sessions as usize,
        served.len(),
        "replay and stream lengths differ"
    );
    out
}

fn ensemble_metrics(m: &mut Metrics, spans: &[Span], flow: &Flow) {
    let over =
        |name: &'static str| median_over(&flow.bodies, |b| spans::total_secs(spans, name, b));
    m.set("core.pattern.build_s", over("core.pattern.build"));
    m.set("core.resource.construct_s", over("core.resource.construct"));
    m.set("core.resource.allocate_s", over("core.resource.allocate"));
    let eop = over("core.resource.run.eop");
    let sal = over("core.resource.run.sal");
    m.set("core.resource.run_s", eop + sal);
    m.set(
        "core.resource.deallocate_s",
        over("core.resource.deallocate"),
    );
    m.set("core.resource.drop_s", over("core.resource.drop"));
    m.set(
        "core.run.eop.events_per_s",
        rate(flow.pattern_events.eop, eop),
    );
    m.set(
        "core.run.sal.events_per_s",
        rate(flow.pattern_events.sal, sal),
    );
}

fn serve_metrics(m: &mut Metrics, spans: &[Span], flow: &mut Flow, r: &Replay, sessions: u64) {
    let over =
        |name: &'static str| median_over(&flow.bodies, |b| spans::total_secs(spans, name, b));
    let count =
        |name: &'static str| median_over(&flow.bodies, |b| spans::count(spans, name, b) as f64);
    let arrival_s = over("workload.arrival.next");
    let sink_s = over("workload.sink.write");
    m.set("workload.arrival.next_s", arrival_s);
    m.set("workload.arrival.count", count("workload.arrival.next"));
    m.set("workload.sink.write_s", sink_s);
    m.set("workload.sink.writes", count("workload.sink.write"));
    m.set("workload.sink.bytes", flow.sink_bytes as f64);

    // The replay pass is one body of its own.
    let total = |name: &str| spans::total_secs(spans, name, r.body);
    m.set(
        "workload.arrival.build_pattern_s",
        total("workload.arrival.build_pattern"),
    );
    m.set(
        "core.resource.construct_s",
        total("core.resource.construct"),
    );
    m.set("core.resource.allocate_s", total("core.resource.allocate"));
    m.set(
        "core.resource.run_s",
        PatternKind::ALL.iter().map(|&k| total(run_span(k))).sum(),
    );
    m.set(
        "core.resource.deallocate_s",
        total("core.resource.deallocate"),
    );
    m.set("core.resource.drop_s", total("core.resource.drop"));
    m.set(
        "core.resource.run_traced_s",
        total("core.resource.run_traced"),
    );
    m.set(
        "core.trace_check.cross_check_s",
        total("core.trace_check.cross_check"),
    );
    m.set("sim.trace.to_jsonl_s", total("sim.trace.to_jsonl"));
    m.set("workload.runner.fnv64_s", total("workload.runner.fnv64"));
    let events = |k: PatternKind| rate(r.events[k as usize], total(run_span(k)));
    m.set("core.run.eop.events_per_s", events(PatternKind::Eop));
    m.set("core.run.sal.events_per_s", events(PatternKind::Sal));

    let serve_wall = host::median(&mut flow.untraced_walls.clone());
    let serve_cpu = host::median(&mut flow.traced_cpu);
    m.set("workload.service.eval_cpu_s", r.cpu);
    m.set(
        "workload.service.self_cpu_s",
        serve_cpu - r.cpu - arrival_s - sink_s,
    );
    m.set("workload.service.eval_overlap", r.cpu / serve_wall);
    m.set(
        "workload.service.sessions_per_s",
        sessions as f64 / serve_wall,
    );
}

/// `ensemble-fed-100k` under the serial drive: same bytes out, and the
/// ratio of its wall to the parallel drive's.
fn parallel_speedup(args: &RunArgs, ops: &mut Ops, parallel_walls: &[f64]) -> f64 {
    let repeats = if args.smoke { 2 } else { MIN_PAIRS };
    let mut serial: Vec<f64> = (0..repeats)
        .map(|_| {
            let (wall, p, _) = ensemble_body(args.workload, args.seed, DriveMode::Serial, Ctx::OFF)
                .expect("serial-drive body");
            ops.body(&p);
            wall
        })
        .collect();
    host::median(&mut serial) / host::median(&mut parallel_walls.to_vec())
}

/// One ensemble of pipelines ten times the workload's size, once: too
/// unsteady on this machine to be an end-to-end metric, recorded so that
/// a later change can explain it.
fn eop_big(args: &RunArgs, m: &mut Metrics) {
    let tasks = args.workload.size * 10;
    let cpu0 = CpuTime::now();
    let t0 = Instant::now();
    let mut handle = ResourceHandle::simulated(
        ResourceConfig::new(workloads::RESOURCE, 1024, walltime()),
        SimulatedConfig {
            seed: args.seed,
            telemetry: false,
            ..SimulatedConfig::default()
        },
    )
    .expect("simulated handle");
    handle.allocate().expect("allocate");
    let run = handle.run(&mut eop_pattern(tasks)).expect("run");
    let session = handle.deallocate().expect("deallocate");
    drop(handle);
    let wall = t0.elapsed().as_secs_f64();
    let cpu = CpuTime::now().since(cpu0);
    assert!(
        !run.partial && session.task_count() == tasks,
        "the big ensemble completes"
    );
    m.set("core.run.eop_1m.events_per_s", session.events as f64 / wall);
    m.set("core.run.eop_1m.sys_share", cpu.sys / cpu.total().max(1e-9));
}

/// Runs the workload traced and prints the per-layer metrics. Returns
/// whether every operation succeeded.
pub fn run(args: &RunArgs) -> bool {
    let w = args.workload;
    let stream = StreamFile(stream_path(w));
    let mut calib = vec![host::calib_mops()];

    let (_, warmup) = workloads::body(w, args.seed, &stream.0, Ctx::OFF).expect("warm-up body");
    let mut ops = Ops::new(args, warmup.clone());
    let mut flow = alternate(args, &stream.0, &mut ops);

    let mut m = Metrics::new(&metrics::PER_LAYER);
    let mut replayed = None;
    if w.is_serve() {
        // The last body written to the stream file is a traced one of the
        // same seed, so its lines are the ones to replay against.
        let r = replay(w, args.seed, &stream.0, flow.bodies.len() as u32);
        ops.attempted += r.sessions;
        ops.failed += r.mismatched;
        replayed = Some(r);
    }
    if w.kind == Kind::EnsembleFed {
        m.set(
            "core.plugin_sim.parallel_speedup",
            parallel_speedup(args, &mut ops, &flow.untraced_walls),
        );
    }
    if w.kind == Kind::Ensemble {
        eop_big(args, &mut m);
    }

    let spans = spans::take();
    match &replayed {
        Some(r) => serve_metrics(&mut m, &spans, &mut flow, r, warmup.sessions),
        None => ensemble_metrics(&mut m, &spans, &flow),
    }
    let untraced = host::median(&mut flow.untraced_walls);
    let traced = host::median(&mut flow.traced_walls);
    m.set(
        "harness.trace_overhead_share",
        (traced - untraced) / untraced,
    );

    probes::run_all(
        args.seed,
        Scale(if args.smoke { SMOKE_SHRINK } else { 1 }),
        &mut m,
    );
    calib.push(host::calib_mops());
    m.set("host.nproc", host::nproc() as f64);
    m.set("host.calib_mops", host::median(&mut calib));

    let trace_path = out_dir().join(format!("trace-{}.json", w.name));
    spans::write_json(&spans, &trace_path).expect("writing the span file");
    println!("spans {} -> {}", spans.len(), trace_path.display());
    metrics::print_result(&m, ops.attempted, ops.failed);
    ops.failed == 0
}
