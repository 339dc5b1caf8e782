//! End-to-end sweep benchmark: times every figure (and ablation) sweep
//! and emits a machine-readable `BENCH.json` so the performance trajectory
//! can be tracked across changes.
//!
//! ```text
//! cargo run --release -p entk-bench --bin bench -- [OPTIONS]
//!
//!   --scale N         divide fig5–fig9 problem sizes by N   [default: 32]
//!   --seed S          sweep seed                            [default: 2016]
//!   --only a,b        run only the named sweeps (e.g. fig3,fig4)
//!   --out PATH        output path                   [default: BENCH.json]
//!   --trace PATH      also write a Chrome trace-event JSON of one
//!                     representative session (open in Perfetto or
//!                     chrome://tracing)
//!   --scale-sweep     run the fig10 throughput scaling sweep instead of
//!                     the figure sweeps: events/sec and wall-clock for
//!                     EoP/SAL ensembles of 10^3 → --max-tasks tasks
//!   --max-tasks N     largest fig10 ensemble            [default: 1000000]
//!   --members N       federated scale sweep: late-bind each ensemble
//!                     across N simulated clusters and report events/sec
//!                     scaling vs a single member (implies --scale-sweep
//!                     semantics; N >= 2)
//!   --budget-secs S   fail unless the whole scale sweep finishes within
//!                     S seconds of wall clock (CI scale-smoke assertion)
//!   --baseline PATH   perf-regression gate: compare the scale sweep's
//!                     events/sec (largest point per series) against the
//!                     committed floors in PATH (BENCH-BASELINE.json) and
//!                     fail on a regression past the file's tolerance;
//!                     --scale-sweep also gates peak RSS per task at its
//!                     largest point against ceilings.fig10_rss_kb_per_task
//!   --workload        run the fig11 open-loop workload sweep instead:
//!                     the synthetic trace served at each admission-slot
//!                     width on the simulated and federated backends,
//!                     with replay-identity and cross-check assertions,
//!                     plus the fifo-vs-fair-share fairness ablation on
//!                     the hot-tenant trace; writes WORKLOAD.json +
//!                     WORKLOAD.jsonl. With --baseline, the serve path's
//!                     events/sec is gated against the fig11 floors
//!   --policy P        fig11 admission policy: fifo | fair [default: fifo]
//!   --sessions N      fig11 stream length                  [default: 24]
//!   --tenants N       fig11 tenant population               [default: 8]
//!   --serve-scale     (with --workload) run the out-of-core serve-scale
//!                     sweep instead of fig11: synthetic streams of
//!                     10^3 → --max-sessions sessions served end-to-end
//!                     through the bounded-memory streaming engine on the
//!                     simulated and federated backends, recording
//!                     events/sec, wall, and peak RSS (VmHWM); asserts
//!                     RSS flatness (final peak <= 2x the 10^4 peak).
//!                     With --baseline, each leg's events/sec is gated
//!                     against floors.serve_scale and the final VmHWM
//!                     against ceilings.serve_scale_rss_kb
//!   --max-sessions N  largest serve-scale stream        [default: 1000000]
//! ```
//!
//! Every figure entry records its row count and `secs`, the wall-clock of
//! the sweep. That the rows themselves repeat is pinned elsewhere: the
//! committed `results/*.txt` (asserted byte for byte by `tests/figures.rs`)
//! and the replay checks of the `resilience` binary.

use entk_bench::{
    fairness_ablation_with, federated_resilience, fig11_with_policy, figures, leg_jsonl,
    resilience_sweep, serve_scale_axis, serve_scale_point, vm_hwm_kb, FairnessAblation, Row,
    FIG11_HALF_LIFE_SECS, FIG11_SESSIONS, FIG11_SLOTS, FIG11_TENANTS, SERVE_SCALE_SLOTS,
    SERVE_SCALE_TENANTS,
};
use entk_workload::{AdmissionPolicy, StreamBackend};
use serde_json::json;
use std::time::Instant;

/// One-line diagnostic + non-zero exit: how every identity, cross-check,
/// budget, or baseline violation leaves the process, so CI logs end with
/// the reason instead of a panic backtrace.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// The two backends both workload sweeps serve their streams on.
const STREAM_BACKENDS: [StreamBackend; 2] = [
    StreamBackend::Simulated,
    StreamBackend::Federated { members: 2 },
];

struct Options {
    scale: usize,
    seed: u64,
    only: Option<Vec<String>>,
    out: Option<String>,
    trace: Option<String>,
    scale_sweep: bool,
    max_tasks: usize,
    members: usize,
    budget_secs: Option<f64>,
    baseline: Option<String>,
    workload: bool,
    policy: AdmissionPolicy,
    sessions: usize,
    tenants: u64,
    serve_scale: bool,
    max_sessions: usize,
}

impl Options {
    /// Output path: `--out` if given, else the mode's canonical name.
    fn out_path(&self) -> String {
        self.out.clone().unwrap_or_else(|| {
            if self.workload {
                "WORKLOAD.json".to_string()
            } else {
                "BENCH.json".to_string()
            }
        })
    }
}

fn parse_args() -> Options {
    let mut opts = Options {
        scale: 32,
        seed: 2016,
        only: None,
        out: None,
        trace: None,
        scale_sweep: false,
        max_tasks: 1_000_000,
        members: 1,
        budget_secs: None,
        baseline: None,
        workload: false,
        policy: AdmissionPolicy::Fifo,
        sessions: FIG11_SESSIONS,
        tenants: FIG11_TENANTS,
        serve_scale: false,
        max_sessions: 1_000_000,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--scale" => opts.scale = value("--scale").parse().expect("--scale: integer"),
            "--seed" => opts.seed = value("--seed").parse().expect("--seed: integer"),
            "--only" => {
                opts.only = Some(
                    value("--only")
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .collect(),
                )
            }
            "--out" => opts.out = Some(value("--out")),
            "--trace" => opts.trace = Some(value("--trace")),
            "--scale-sweep" => opts.scale_sweep = true,
            "--max-tasks" => {
                opts.max_tasks = value("--max-tasks").parse().expect("--max-tasks: integer")
            }
            "--members" => {
                opts.members = value("--members").parse().expect("--members: integer");
                opts.scale_sweep = true;
                assert!(opts.members >= 2, "--members needs at least 2 clusters");
            }
            "--budget-secs" => {
                opts.budget_secs = Some(value("--budget-secs").parse().expect("--budget-secs: f64"))
            }
            "--baseline" => opts.baseline = Some(value("--baseline")),
            "--workload" => opts.workload = true,
            "--policy" => {
                let name = value("--policy");
                opts.policy = match AdmissionPolicy::parse(&name) {
                    Ok(AdmissionPolicy::Fifo) => AdmissionPolicy::Fifo,
                    Ok(AdmissionPolicy::FairShare { .. }) => AdmissionPolicy::FairShare {
                        half_life_secs: FIG11_HALF_LIFE_SECS,
                    },
                    Err(e) => panic!("{e}"),
                };
            }
            "--sessions" => {
                opts.sessions = value("--sessions").parse().expect("--sessions: integer")
            }
            "--tenants" => opts.tenants = value("--tenants").parse().expect("--tenants: integer"),
            "--serve-scale" => {
                opts.serve_scale = true;
                opts.workload = true;
            }
            "--max-sessions" => {
                opts.max_sessions = value("--max-sessions")
                    .parse()
                    .expect("--max-sessions: integer");
                assert!(
                    opts.max_sessions >= 1000,
                    "--max-sessions needs at least 1000"
                );
            }
            other => panic!("unknown argument {other:?} (see --help in the module docs)"),
        }
    }
    opts
}

/// The `--scale-sweep` mode: the fig10 throughput scaling figure —
/// events/sec and wall-clock for EoP/SAL ensembles from 10^3 up to
/// `--max-tasks` tasks.
fn run_scale_sweep(opts: &Options) {
    let t0 = Instant::now();
    let rows = figures::fig10(opts.seed, opts.max_tasks);
    let total = t0.elapsed().as_secs_f64();
    // VmHWM only rises and the sweep holds one session at a time, so it is
    // the resident set of the largest point.
    let largest = rows.iter().map(|r| r.x).fold(0.0, f64::max);
    let rss_kb_per_task = vm_hwm_kb().map(|kb| kb as f64 / largest);

    let points: Vec<_> = rows.iter().map(point_json).collect();
    for row in &rows {
        println!(
            "{:>6} n={:<8} wall {:>8.3}s  {:>12.0} events  {:>12.0} events/sec  ttc {:.1}",
            row.series,
            row.x,
            row.value("wall_secs").unwrap_or(0.0),
            row.value("events").unwrap_or(0.0),
            row.value("events_per_sec").unwrap_or(0.0),
            row.value("ttc").unwrap_or(0.0),
        );
    }

    println!("{:>6}: {total:.3}s", "fig10");

    let bench = json!({
        "version": 2,
        "members": 1,
        "seed": opts.seed,
        "max_tasks": opts.max_tasks,
        "figures": [{
            "name": "fig10",
            "rows": rows.len(),
            "secs": total,
            "rss_kb_per_task": rss_kb_per_task,
            "points": points,
        }],
        "total_secs": total,
    });
    finish(opts, &bench, total, "scale sweep");
    if let Some(path) = &opts.baseline {
        check_floors(path, "fig10", &largest_point_rates(&rows));
        check_rss_per_task(path, rss_kb_per_task);
    }
}

/// One point of a fig10 sweep as its report lists it.
fn point_json(row: &Row) -> serde_json::Value {
    json!({
        "series": row.series,
        "tasks": row.x,
        "ttc": row.value("ttc"),
        "events": row.value("events"),
        "wall_secs": row.value("wall_secs"),
        "events_per_sec": row.value("events_per_sec"),
    })
}

/// How every sweep mode ends: the report goes to `--out`, and the sweep
/// (`what`) must have finished within `--budget-secs` of wall clock.
fn finish(opts: &Options, report: &serde_json::Value, total: f64, what: &str) {
    write_report(opts, report);
    if let Some(budget) = opts.budget_secs {
        if total > budget {
            fail(format!(
                "{what} took {total:.3}s, over the {budget:.3}s wall budget"
            ));
        }
        println!("within wall budget: {total:.3}s <= {budget:.3}s");
    }
}

/// Renders `report` to the `--out` path.
fn write_report(opts: &Options, report: &serde_json::Value) {
    let out = opts.out_path();
    let rendered = serde_json::to_string_pretty(report).expect("serialize report");
    std::fs::write(&out, rendered + "\n").expect("write report");
    println!("wrote {out}");
}

/// Events/sec at the largest point of each series of a sweep.
fn largest_point_rates(rows: &[Row]) -> Vec<(String, f64)> {
    let largest = |row: &&Row| rows.iter().all(|r| r.series != row.series || r.x <= row.x);
    rows.iter()
        .filter(largest)
        .filter_map(|row| Some((row.series.clone(), row.value("events_per_sec")?)))
        .collect()
}

/// The measured rate of `series`, if the sweep has one.
fn rate_of(rates: &[(String, f64)], series: &str) -> Option<f64> {
    let found = rates.iter().find(|(label, _)| label == series);
    found.map(|&(_, rate)| rate)
}

/// The committed baseline document and its tolerance.
fn read_baseline(path: &str) -> (serde_json::Value, f64) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format!("cannot read baseline {path}: {e}")));
    let baseline: serde_json::Value =
        serde_json::from_str(&text).unwrap_or_else(|e| fail(format!("bad baseline {path}: {e}")));
    let tolerance = baseline["tolerance"].as_f64().unwrap_or(0.25);
    (baseline, tolerance)
}

/// The memory half of the fig10 gate: peak RSS per task of the largest
/// sweep point must stay under `ceilings.fig10_rss_kb_per_task` (with the
/// file's tolerance as headroom), so the per-task diet cannot regress
/// unnoticed the way throughput could under the old floors.
fn check_rss_per_task(path: &str, measured: Option<f64>) {
    let (baseline, tolerance) = read_baseline(path);
    let Some(ceiling) = baseline["ceilings"]["fig10_rss_kb_per_task"].as_f64() else {
        fail(format!(
            "baseline {path} has no ceilings.fig10_rss_kb_per_task"
        ));
    };
    let Some(measured) = measured else {
        fail("baseline has an RSS ceiling but VmHWM is unavailable on this host");
    };
    let max_ok = ceiling * (1.0 + tolerance);
    if measured > max_ok {
        fail(format!(
            "memory regression: fig10 peak RSS {measured:.2} KiB/task exceeds ceiling \
             {ceiling:.2} + {:.0}% tolerance = {max_ok:.2}",
            tolerance * 100.0
        ));
    }
    println!(
        "baseline fig10 RSS: {measured:.2} KiB/task <= {max_ok:.2} \
         (ceiling {ceiling:.2}, tolerance {:.0}%)",
        tolerance * 100.0
    );
}

/// The `--baseline PATH` perf-regression gate: the committed
/// `BENCH-BASELINE.json` records an events/sec floor per series under
/// `floors.<figure>`; the run fails when a series' `measured` throughput
/// drops more than the file's tolerance below its floor.
fn check_floors(path: &str, figure: &str, measured: &[(String, f64)]) {
    let (baseline, tolerance) = read_baseline(path);
    let Some(floors) = baseline["floors"][figure].as_object() else {
        fail(format!("baseline {path} has no floors for {figure}"));
    };
    for (series, floor) in floors {
        let floor = floor
            .as_f64()
            .unwrap_or_else(|| fail(format!("baseline {figure}/{series}: non-numeric floor")));
        let measured = rate_of(measured, series).unwrap_or_else(|| {
            fail(format!(
                "baseline {figure}/{series}: the sweep measured no such series"
            ))
        });
        let min_ok = floor * (1.0 - tolerance);
        if measured < min_ok {
            fail(format!(
                "perf regression: {figure}/{series} measured {measured:.0} events/sec, \
                 below floor {floor:.0} - {:.0}% tolerance = {min_ok:.0}",
                tolerance * 100.0
            ));
        }
        println!(
            "baseline {figure}/{series}: {measured:.0} events/sec >= {min_ok:.0} \
             (floor {floor:.0}, tolerance {:.0}%)",
            tolerance * 100.0
        );
    }
}

/// Wall-clock and throughput summary of one federated sweep leg.
fn fed_leg(opts: &Options, members: usize, label: &str) -> (Vec<Row>, f64) {
    let t0 = Instant::now();
    let rows = figures::fig10_federated_with(opts.seed, opts.max_tasks, members);
    let secs = t0.elapsed().as_secs_f64();
    for row in &rows {
        println!(
            "{label:>16} {:>4} n={:<8} wall {:>8.3}s  {:>12.0} events  {:>12.0} events/sec",
            row.series,
            row.x,
            row.value("wall_secs").unwrap_or(0.0),
            row.value("events").unwrap_or(0.0),
            row.value("events_per_sec").unwrap_or(0.0),
        );
    }
    (rows, secs)
}

/// The `--members N` mode: the federated fig10 throughput sweep. Each
/// ensemble is late-bound across N simulated clusters, and events/sec
/// scaling is reported against a single-member baseline (strong scaling:
/// same task counts, N× the clusters). Member windows run on the session's
/// own thread, so the ratio reads the cost of the windowed merge.
fn run_fed_scale_sweep(opts: &Options) {
    let members = opts.members;
    let (single_rows, single_secs) = fed_leg(opts, 1, "1-member");
    let (fed_rows, fed_secs) = fed_leg(opts, members, &format!("{members}-member"));
    let total = single_secs + fed_secs;
    println!("fig10_federated: 1-member {single_secs:.3}s  {members}-member {fed_secs:.3}s");

    // Strong-scaling ratio per series at the largest common point:
    // events/sec with N members over events/sec with 1 member.
    let single_rates = largest_point_rates(&single_rows);
    let fed_rates = largest_point_rates(&fed_rows);
    let mut scaling = serde_json::Map::new();
    for series in ["eop", "sal"] {
        let base = rate_of(&single_rates, series).unwrap_or(0.0);
        let fed = rate_of(&fed_rates, series).unwrap_or(0.0);
        let ratio = fed / base.max(1e-9);
        println!(
            "{series}: events/sec x{ratio:.2} from 1 -> {members} members \
             ({base:.0} -> {fed:.0})"
        );
        scaling.insert(series.to_string(), json!(ratio));
    }

    let points: Vec<_> = single_rows
        .iter()
        .chain(&fed_rows)
        .map(|row| {
            let mut point = point_json(row);
            point["members"] = json!(row.value("members"));
            point
        })
        .collect();
    let entry = json!({
        "name": "fig10_federated",
        "rows": points.len(),
        "single_member_secs": single_secs,
        "federated_secs": fed_secs,
        "scaling": scaling,
        "points": points,
    });
    let bench = json!({
        "version": 1,
        "members": members,
        "seed": opts.seed,
        "max_tasks": opts.max_tasks,
        "figures": [entry],
        "total_secs": total,
    });
    finish(opts, &bench, total, "federated scale sweep");
    if let Some(path) = &opts.baseline {
        check_floors(path, "fig10_federated", &fed_rates);
    }
}

/// The `--workload` mode: the fig11 open-loop workload sweep — the
/// synthetic trace served at each admission-slot width on the simulated
/// and two-member federated backends, under the `--policy` admission
/// policy. Each leg runs twice; the replay must be byte-identical
/// (reports and stream JSONL), and every point must hold the `<= 1 µs`
/// cross-check budget. The fifo-vs-fair-share fairness ablation then
/// serves the hot-tenant trace under both policies on the same arrivals.
/// `WORKLOAD.json` and the combined stream JSONL contain only
/// deterministic values, so both files are byte-identical under replay;
/// wall-clock timings go to stdout. With `--baseline`, each leg's
/// events/sec is gated against the file's `fig11` floors.
fn run_workload_sweep(opts: &Options) {
    let (seed, sessions, tenants) = (opts.seed, opts.sessions, opts.tenants);
    let policy = opts.policy;
    let mut all_points = Vec::new();
    let mut jsonl = String::new();
    let mut leg_rates = Vec::new();
    let mut total = 0.0f64;
    for backend in STREAM_BACKENDS {
        let label = backend.label();
        let t0 = Instant::now();
        let points = fig11_with_policy(seed, sessions, tenants, backend, policy)
            .unwrap_or_else(|e| fail(format!("fig11 {label}: {e}")));
        let secs = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let replay = fig11_with_policy(seed, sessions, tenants, backend, policy)
            .unwrap_or_else(|e| fail(format!("fig11 {label} replay: {e}")));
        let replay_secs = t1.elapsed().as_secs_f64();
        total += secs + replay_secs;
        if points != replay {
            fail(format!(
                "fig11 {label}: replay diverged from the first run \
                 (same seed must serve a byte-identical stream)"
            ));
        }
        let mut leg_events = 0u64;
        for p in &points {
            if p.report.max_cross_check_err_secs > 1e-6 {
                fail(format!(
                    "fig11 {label} slots={}: cross-check error {:.3e}s exceeds \
                     the 1e-6s budget",
                    p.slots, p.report.max_cross_check_err_secs
                ));
            }
            leg_events += p.report.total_events;
            println!(
                "{label:>12} slots={:<2} p50 {:>9.1}s  p95 {:>9.1}s  p99 {:>9.1}s  \
                 makespan {:>9.1}s  queue peak {:>4.0}  cc {:.1e}",
                p.slots,
                p.report.latency.p50,
                p.report.latency.p95,
                p.report.latency.p99,
                p.report.makespan_secs,
                p.report.queue_depth_peak,
                p.report.max_cross_check_err_secs,
            );
        }
        let rate = leg_events as f64 / secs.max(1e-12);
        println!(
            "{label:>12}: {sessions} sessions x {} slot widths ({} admission) \
             in {secs:.3}s (+ replay {replay_secs:.3}s, identical)  {rate:.0} events/sec",
            FIG11_SLOTS.len(),
            policy.label(),
        );
        leg_rates.push((label, rate));
        jsonl.push_str(&leg_jsonl(&points));
        all_points.extend(points);
    }

    let t2 = Instant::now();
    let ablation = fairness_ablation_with(seed, sessions, tenants)
        .unwrap_or_else(|e| fail(format!("fairness ablation: {e}")));
    let ablation_replay = fairness_ablation_with(seed, sessions, tenants)
        .unwrap_or_else(|e| fail(format!("fairness ablation replay: {e}")));
    total += t2.elapsed().as_secs_f64();
    if ablation != ablation_replay {
        fail("fairness ablation: replay diverged from the first run");
    }
    println!("fairness ablation (hot-tenant trace, 2 slots):");
    for (label, report) in [("fifo", &ablation.fifo), ("fair-share", &ablation.fair)] {
        println!(
            "{label:>12}: hot-tenant p99 {:>9.1}s  worst light-tenant p99 {:>9.1}s",
            FairnessAblation::hot_p99(report),
            FairnessAblation::light_worst_p99(report),
        );
    }
    let (fifo_light, fair_light) = (
        FairnessAblation::light_worst_p99(&ablation.fifo),
        FairnessAblation::light_worst_p99(&ablation.fair),
    );
    if fair_light > fifo_light {
        fail(format!(
            "fairness ablation: fair-share worsened the worst light-tenant \
             p99 ({fair_light:.1}s vs fifo {fifo_light:.1}s)"
        ));
    }

    let workload = json!({
        "version": 2,
        "seed": seed,
        "sessions": sessions,
        "tenants": tenants,
        "slots": FIG11_SLOTS,
        "policy": policy.label(),
        "points": all_points.iter().map(|p| p.to_json()).collect::<Vec<_>>(),
        "fairness": ablation.to_json(),
        "checks": {
            "replay_identical": true,
            "cross_check_budget_secs": 1e-6,
            "fair_share_light_tenant_no_worse": true,
        },
    });
    let out = opts.out_path();
    let jsonl_path = out
        .strip_suffix(".json")
        .map(|stem| format!("{stem}.jsonl"))
        .unwrap_or_else(|| format!("{out}.jsonl"));
    std::fs::write(&jsonl_path, &jsonl).expect("write workload JSONL");
    println!("wrote {jsonl_path}");
    finish(opts, &workload, total, "workload sweep");
    if let Some(path) = &opts.baseline {
        check_floors(path, "fig11", &leg_rates);
    }
}

/// The `--workload --serve-scale` mode: the out-of-core bounded-memory
/// proof. Synthetic streams of 10^3 → `--max-sessions` sessions are
/// served end-to-end through `ServiceEngine::run_streaming` (records
/// rendered to a null sink and dropped) on the simulated and two-member
/// federated backends, ascending, recording events/sec, wall-clock, the
/// engine's own peak-residency witness, and the process peak RSS
/// (`VmHWM`) after every point. Because `VmHWM` is monotone, the
/// ascending axis makes the flat-memory comparison valid: the sweep
/// fails unless the final peak stays within 2x the peak measured after
/// the first 10^4-session point — RSS(10^6) <= 2 x RSS(10^4).
fn run_serve_scale_sweep(opts: &Options) {
    let axis = serve_scale_axis(opts.max_sessions);
    let mut points = Vec::new();
    let mut leg_rates = Vec::new();
    let mut hwm_at_1e4: Option<u64> = None;
    let mut total = 0.0f64;
    for backend in STREAM_BACKENDS {
        let label = backend.label();
        let mut last_rate = 0.0;
        for &sessions in &axis {
            let p = serve_scale_point(opts.seed, sessions, backend)
                .unwrap_or_else(|e| fail(format!("serve-scale {label} n={sessions}: {e}")));
            total += p.wall_secs;
            last_rate = p.events_per_sec;
            println!(
                "{label:>12} sessions={sessions:<8} wall {:>8.2}s  {:>9.0} events/sec  \
                 peak resident {:>4}  VmHWM {}",
                p.wall_secs,
                p.events_per_sec,
                p.stats.peak_resident_sessions,
                p.vm_hwm_kb
                    .map(|kb| format!("{kb} KiB"))
                    .unwrap_or_else(|| "n/a".into()),
            );
            if p.stats.sessions != sessions {
                fail(format!(
                    "serve-scale {label} n={sessions}: engine served {} sessions",
                    p.stats.sessions
                ));
            }
            if sessions == 10_000 && hwm_at_1e4.is_none() {
                hwm_at_1e4 = p.vm_hwm_kb;
            }
            points.push(p);
        }
        leg_rates.push((label, last_rate));
    }

    let hwm_final = points.last().and_then(|p| p.vm_hwm_kb);
    if let (Some(base), Some(last)) = (hwm_at_1e4, hwm_final) {
        if opts.max_sessions > 10_000 && last > base * 2 {
            fail(format!(
                "serve-scale memory is not flat: final VmHWM {last} KiB exceeds \
                 2x the 10^4-session peak {base} KiB"
            ));
        }
        println!(
            "memory flatness: final VmHWM {last} KiB <= 2 x {base} KiB \
             (10^4-session peak)"
        );
    }

    let report = json!({
        "version": 1,
        "seed": opts.seed,
        "slots": SERVE_SCALE_SLOTS,
        "tenants": SERVE_SCALE_TENANTS,
        "sessions_axis": axis,
        "points": points.iter().map(|p| p.to_json()).collect::<Vec<_>>(),
        "vm_hwm_kb_at_1e4": hwm_at_1e4,
        "vm_hwm_kb_final": hwm_final,
        "checks": {
            "rss_flatness_factor": 2.0,
            "rss_flat": true,
        },
    });
    finish(opts, &report, total, "serve-scale sweep");
    if let Some(path) = &opts.baseline {
        check_floors(path, "serve_scale", &leg_rates);
        check_serve_scale_rss(path, hwm_final);
    }
}

/// The memory half of the serve-scale gate: the process's final `VmHWM`
/// must stay under `ceilings.serve_scale_rss_kb`, when the file has one
/// (with the file's tolerance as headroom).
fn check_serve_scale_rss(path: &str, hwm_kb: Option<u64>) {
    let (baseline, tolerance) = read_baseline(path);
    if let Some(ceiling) = baseline["ceilings"]["serve_scale_rss_kb"].as_u64() {
        let Some(hwm) = hwm_kb else {
            fail("baseline has an RSS ceiling but VmHWM is unavailable on this host");
        };
        let max_ok = (ceiling as f64 * (1.0 + tolerance)) as u64;
        if hwm > max_ok {
            fail(format!(
                "memory regression: serve-scale VmHWM {hwm} KiB exceeds ceiling \
                 {ceiling} KiB + {:.0}% tolerance = {max_ok} KiB",
                tolerance * 100.0
            ));
        }
        println!(
            "baseline serve_scale RSS: {hwm} KiB <= {max_ok} KiB \
             (ceiling {ceiling} KiB, tolerance {:.0}%)",
            tolerance * 100.0
        );
    }
}

fn main() {
    let opts = parse_args();
    if opts.serve_scale {
        run_serve_scale_sweep(&opts);
        return;
    }
    if opts.workload {
        run_workload_sweep(&opts);
        return;
    }
    if opts.members >= 2 {
        run_fed_scale_sweep(&opts);
        return;
    }
    if opts.scale_sweep {
        run_scale_sweep(&opts);
        return;
    }
    let seed = opts.seed;
    let scale = opts.scale;

    type Sweep = (&'static str, Box<dyn Fn() -> Vec<Row>>);
    let sweeps: Vec<Sweep> = vec![
        ("fig3", Box::new(move || figures::fig3(seed))),
        ("fig4", Box::new(move || figures::fig4(seed))),
        ("fig5", Box::new(move || figures::fig5(seed, scale))),
        ("fig6", Box::new(move || figures::fig6(seed, scale))),
        ("fig7", Box::new(move || figures::fig7(seed, scale))),
        ("fig8", Box::new(move || figures::fig8(seed, scale))),
        ("fig9", Box::new(move || figures::fig9(seed, scale))),
        (
            "ablation_exchange",
            Box::new(move || figures::ablation_exchange(seed)),
        ),
        (
            "ablation_overhead",
            Box::new(move || figures::ablation_overhead(seed)),
        ),
        (
            "ablation_faults",
            Box::new(move || figures::ablation_faults(seed)),
        ),
        (
            "ablation_pilots",
            Box::new(move || figures::ablation_pilots(seed)),
        ),
        (
            "ablation_scheduler",
            Box::new(move || figures::ablation_scheduler(seed)),
        ),
        (
            "resilience",
            Box::new(move || resilience_sweep(seed, scale)),
        ),
        (
            "resilience_federated",
            Box::new(move || federated_resilience(seed)),
        ),
    ];

    let mut entries = Vec::new();
    let mut total = 0.0f64;
    for (name, sweep) in &sweeps {
        if let Some(only) = &opts.only {
            if !only.iter().any(|o| o == name) {
                continue;
            }
        }
        let t0 = Instant::now();
        let rows = sweep().len();
        let secs = t0.elapsed().as_secs_f64();
        total += secs;
        println!("{name:>20}: {secs:.3}s ({rows} rows)");
        entries.push(json!({ "name": *name, "rows": rows, "secs": secs }));
    }
    println!("{:>20}: {total:.3}s", "total");

    let bench = json!({
        "version": 2,
        "scale": scale,
        "seed": seed,
        "figures": entries,
        "total_secs": total,
    });
    write_report(&opts, &bench);

    if let Some(path) = &opts.trace {
        // Cross-checked inside: the exported trace always agrees with the
        // accounted overhead breakdown.
        let trace = figures::representative_trace(opts.seed);
        std::fs::write(path, trace).expect("write trace");
        println!("wrote {path}");
    }
}
