//! `entk` — run Ensemble Toolkit workloads from JSON specs.
//!
//! ```text
//! entk run <spec.json> [--json] [--trace <path>]
//!                                   execute a workload, print the report;
//!                                   --trace writes the session's event
//!                                   trace (Chrome trace-event JSON for
//!                                   Perfetto / chrome://tracing, or JSONL
//!                                   when the path ends in .jsonl)
//! entk run --workload <spec.json> [--json] [--trace <path>]
//!                                   serve an open-loop session stream
//!                                   described by a stream spec (see
//!                                   `entk_workload::StreamSpec`): per-
//!                                   tenant latency percentiles, queue
//!                                   depth, makespan; --trace writes the
//!                                   stream JSONL (one line per session)
//! entk serve <spec.json> [--policy <name>] [--strict] [--json]
//!            [--jsonl <path>] [--stream]
//!            [--checkpoint-at <K> --checkpoint <path>] [--resume <path>]
//!                                   run the multi-tenant session service
//!                                   over a stream spec: live admission
//!                                   under the chosen policy, per-session
//!                                   failure records, and arrival-boundary
//!                                   checkpoint/restore. --checkpoint-at K
//!                                   stops at the K-th arrival boundary
//!                                   and writes the checkpoint (plus the
//!                                   emitted JSONL prefix); --resume picks
//!                                   a checkpoint up and emits the exact
//!                                   byte-identical suffix. The spec's
//!                                   report sinks see every record as it
//!                                   is emitted. --stream retains nothing
//!                                   in memory: same bytes to --jsonl and
//!                                   to the sinks, scalar stats in place
//!                                   of the full report (a sink that needs
//!                                   the report, `summary`, is rejected)
//! entk check <spec.json>            validate a spec without running it:
//!                                   backend, resources, core counts,
//!                                   scheduler and kernel plugins resolve.
//!                                   A document with a top-level "source"
//!                                   is a stream spec and resolves what
//!                                   `serve` resolves (sinks stay unopened)
//! entk kernels                      list available kernel plugins
//! ```

use entk_cli::{KernelSpec, PatternSpec, WorkloadSpec};
use entk_core::ComponentSpec;
use entk_sim::Tracer;
use entk_workload::{
    admission_policies, ServeStats, ServiceCheckpoint, ServiceEngine, StreamSpec, WorkloadReport,
};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let usage = "usage: entk run [--workload] <spec.json> [--json] [--trace <path>]";
            let as_json = args.iter().any(|a| a == "--json");
            let workload = args.iter().any(|a| a == "--workload");
            let trace_pos = args.iter().position(|a| a == "--trace");
            let trace_path = match trace_pos {
                Some(i) => match args.get(i + 1) {
                    Some(p) => Some(p.clone()),
                    None => {
                        eprintln!("{usage}");
                        return ExitCode::FAILURE;
                    }
                },
                None => None,
            };
            // The spec path is the first non-flag argument after `run`
            // that is not the value of --trace.
            let Some(path) = args
                .iter()
                .enumerate()
                .skip(1)
                .find(|(i, a)| !a.starts_with("--") && trace_pos != Some(i.wrapping_sub(1)))
                .map(|(_, a)| a)
            else {
                eprintln!("{usage}");
                return ExitCode::FAILURE;
            };
            if workload {
                return run_stream(path, as_json, trace_path);
            }
            match load(path).and_then(|spec| spec.run_traced().map_err(|e| e.to_string())) {
                Ok((report, telemetry)) => {
                    if as_json {
                        println!(
                            "{}",
                            serde_json::to_string_pretty(&report).expect("report serializes")
                        );
                    } else {
                        print!("{report}");
                    }
                    if let Some(trace_path) = trace_path {
                        match telemetry {
                            Some(t) => {
                                if let Err(e) = write_trace(&t.tracer, &trace_path) {
                                    eprintln!("error: writing {trace_path:?}: {e}");
                                    return ExitCode::FAILURE;
                                }
                                eprintln!("trace written to {trace_path}");
                            }
                            None => eprintln!(
                                "note: --trace ignored (local backend has no virtual-time trace)"
                            ),
                        }
                    }
                    if report.failed_tasks > 0 {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("serve") => serve_stream(&args[1..]),
        Some("check") => {
            let Some(path) = args.get(1) else {
                eprintln!("usage: entk check <spec.json>");
                return ExitCode::FAILURE;
            };
            let checked = read(path).and_then(|text| {
                if is_stream_spec(&text) {
                    check_stream(&text)
                } else {
                    check(&WorkloadSpec::from_json(&text).map_err(|e| e.to_string())?)
                }
            });
            match checked {
                Ok(summary) => {
                    println!("ok: {summary}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("kernels") => {
            for name in entk_kernels::KernelRegistry::with_builtins().names() {
                println!("{name}");
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: entk <run|serve|check|kernels> [args]");
            ExitCode::FAILURE
        }
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))
}

/// A document with a top-level `"source"` is a stream spec: no key of a
/// single-session spec has that name, and every stream spec needs it.
fn is_stream_spec(text: &str) -> bool {
    serde_json::from_str::<serde_json::Value>(text).is_ok_and(|doc| doc.get("source").is_some())
}

/// Loads a single-session spec for `entk run`. A stream spec is named as
/// one, with the commands that serve it, instead of failing on the first
/// key the single-session loader does not know.
fn load(path: &str) -> Result<WorkloadSpec, String> {
    let text = read(path)?;
    if is_stream_spec(&text) {
        return Err(format!(
            "{path:?} is a stream spec (it has a top-level \"source\"): serve it with \
             `entk serve` or `entk run --workload`"
        ));
    }
    WorkloadSpec::from_json(&text).map_err(|e| e.to_string())
}

/// `entk check` on a stream spec: exactly what `entk serve` resolves before
/// its first session — loader checks, service configuration, and the
/// arrival source opened (not pulled). Sink files are not created.
fn check_stream(text: &str) -> Result<String, String> {
    let spec = StreamSpec::from_json(text).map_err(|e| e.to_string())?;
    let config = spec.service_config().map_err(|e| e.to_string())?;
    spec.source_stream().map_err(|e| e.to_string())?;
    Ok(format!(
        "stream of {} arrivals on {} ({}, {} slots, {} admission)",
        spec.source.kind,
        spec.resource,
        config.stream.backend.label(),
        spec.slots,
        config.policy.label()
    ))
}

/// `entk check`: everything `entk run` resolves by name, without running.
/// Building the pattern exercises shape validation; building the handle
/// resolves backend, resources, core counts and scheduler with the errors
/// a run stops on; and each declared kernel must be a registered plugin (a
/// run would go through and fail every task of that stage instead).
fn check(spec: &WorkloadSpec) -> Result<String, String> {
    let pattern = spec.build_pattern();
    spec.handle().map_err(|e| e.to_string())?;
    let kernels: Vec<&KernelSpec> = match &spec.pattern {
        PatternSpec::Bag { kernel, .. } | PatternSpec::Exchange { kernel, .. } => vec![kernel],
        PatternSpec::Pipelines { stages, .. } => stages.iter().collect(),
        PatternSpec::Sal {
            simulation,
            analysis,
            ..
        } => vec![simulation, analysis],
    };
    let registry = entk_kernels::KernelRegistry::with_builtins();
    for kernel in kernels {
        registry.get(&kernel.plugin).map_err(|e| e.to_string())?;
    }
    Ok(format!(
        "{} on {} ({} cores, backend {})",
        pattern.name(),
        spec.resource.name,
        spec.resource.cores,
        spec.backend
    ))
}

/// Streams a session trace to `path`: JSONL when the path ends in `.jsonl`,
/// Chrome trace-event JSON otherwise. Nothing but the writer's buffer is held
/// beside the trace itself.
fn write_trace(tracer: &Tracer, path: &str) -> std::io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    if path.ends_with(".jsonl") {
        tracer.write_jsonl(&mut out)?;
    } else {
        tracer.write_chrome_json(&mut out)?;
    }
    out.flush()
}

/// The `run --workload` mode: serve the open-loop session stream a
/// [`StreamSpec`] describes and print the stream report.
fn run_stream(path: &str, as_json: bool, trace_path: Option<String>) -> ExitCode {
    let outcome = read(path)
        .and_then(|text| StreamSpec::from_json(&text).map_err(|e| e.to_string()))
        .and_then(|spec| spec.run().map_err(|e| e.to_string()));
    let out = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_stream_report(&out.report, as_json);
    if let Some(trace_path) = trace_path {
        if let Err(e) = std::fs::write(&trace_path, &out.jsonl) {
            eprintln!("error: writing {trace_path:?}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("stream JSONL written to {trace_path}");
    }
    ExitCode::SUCCESS
}

fn print_stream_report(r: &WorkloadReport, as_json: bool) {
    if as_json {
        println!(
            "{}",
            serde_json::to_string_pretty(r).expect("stream report serializes")
        );
        return;
    }
    println!(
        "stream: {} sessions from {} tenants on {} ({}, {} slots, {} admission)",
        r.sessions, r.tenants, r.resource, r.backend, r.slots, r.policy
    );
    println!(
        "  status: {} ok, {} partial, {} failed, {} rejected",
        r.ok_sessions, r.partial_sessions, r.failed_sessions, r.rejected_sessions
    );
    println!(
        "  makespan {:.1}s  latency p50 {:.1}s p95 {:.1}s p99 {:.1}s",
        r.makespan_secs, r.latency.p50, r.latency.p95, r.latency.p99
    );
    println!(
        "  queue depth peak {:.0} mean {:.2}  events {}  cross-check {:.1e}s",
        r.queue_depth_peak, r.queue_depth_mean, r.total_events, r.max_cross_check_err_secs
    );
    println!("  stream fingerprint {}", r.stream_fp);
    for t in &r.per_tenant {
        println!(
            "  tenant {:>4}: {:>3} sessions  p50 {:>8.1}s  p95 {:>8.1}s  p99 {:>8.1}s",
            t.tenant, t.sessions, t.p50, t.p95, t.p99
        );
    }
}

fn print_serve_stats(stats: &ServeStats, as_json: bool) {
    if as_json {
        println!(
            "{}",
            serde_json::to_string_pretty(stats).expect("serve stats serialize")
        );
        return;
    }
    println!(
        "streamed: {} sessions from {} tenants \
         ({} ok / {} partial / {} failed / {} rejected)",
        stats.sessions,
        stats.tenants,
        stats.ok_sessions,
        stats.partial_sessions,
        stats.failed_sessions,
        stats.rejected_sessions
    );
    println!(
        "  makespan {:.1}s  latency mean {:.1}s max {:.1}s",
        stats.makespan_secs, stats.mean_latency_secs, stats.max_latency_secs
    );
    println!(
        "  peak resident sessions {}  stream fingerprint {}",
        stats.peak_resident_sessions, stats.stream_fp
    );
}

/// The `serve` subcommand: the session service with policy override,
/// strictness, checkpoint/resume, and bounded-memory streaming.
fn serve_stream(args: &[String]) -> ExitCode {
    let usage = "usage: entk serve <spec.json> [--policy <name>] [--strict] [--json] \
                 [--jsonl <path>] [--stream] \
                 [--checkpoint-at <K> --checkpoint <path>] [--resume <path>]";
    let as_json = args.iter().any(|a| a == "--json");
    let strict = args.iter().any(|a| a == "--strict");
    let streaming = args.iter().any(|a| a == "--stream");
    let value_of = |flag: &str| -> Result<Option<String>, String> {
        match args.iter().position(|a| a == flag) {
            Some(i) => args
                .get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .cloned()
                .map(Some)
                .ok_or_else(|| format!("{flag} needs a value")),
            None => Ok(None),
        }
    };
    let parsed = (|| -> Result<ExitCode, String> {
        let policy_arg = value_of("--policy")?;
        let jsonl_path = value_of("--jsonl")?;
        let checkpoint_path = value_of("--checkpoint")?;
        let resume_path = value_of("--resume")?;
        let checkpoint_at = value_of("--checkpoint-at")?
            .map(|v| {
                v.parse::<usize>()
                    .map_err(|_| format!("--checkpoint-at needs an arrival index, got {v:?}"))
            })
            .transpose()?;
        let value_positions: Vec<usize> = [
            "--policy",
            "--jsonl",
            "--checkpoint",
            "--resume",
            "--checkpoint-at",
        ]
        .iter()
        .filter_map(|f| args.iter().position(|a| a == f).map(|i| i + 1))
        .collect();
        let spec_path = args
            .iter()
            .enumerate()
            .find(|(i, a)| !a.starts_with("--") && !value_positions.contains(i))
            .map(|(_, a)| a.clone())
            .ok_or_else(|| usage.to_string())?;

        let text = read(&spec_path)?;
        let mut spec = StreamSpec::from_json(&text).map_err(|e| e.to_string())?;
        if let Some(p) = policy_arg {
            // Any registered admission policy; typos list the valid names.
            if !admission_policies().contains(&p) {
                return Err(admission_policies().unknown(&p).to_string());
            }
            spec.policy = ComponentSpec::named(p);
        }
        if strict {
            spec.strict = true;
        }
        let config = spec.service_config().map_err(|e| e.to_string())?;
        if streaming
            && (resume_path.is_some() || checkpoint_at.is_some() || checkpoint_path.is_some())
        {
            return Err("--stream is incompatible with checkpoint/resume".to_string());
        }
        // Arrivals are never materialized: the engine pulls the spec's
        // source lazily, which is what keeps `--stream` serves flat in
        // memory no matter how long the trace is.
        let arrivals = spec.source_stream().map_err(|e| e.to_string())?;
        let mut engine = match &resume_path {
            Some(path) => {
                let ckpt_text = std::fs::read_to_string(path)
                    .map_err(|e| format!("reading checkpoint {path:?}: {e}"))?;
                let ckpt = ServiceCheckpoint::from_json(&ckpt_text).map_err(|e| e.to_string())?;
                ServiceEngine::restore(config, arrivals, &ckpt)
            }
            None => ServiceEngine::new(config, arrivals),
        }
        .map_err(|e| e.to_string())?;

        if let Some(k) = checkpoint_at {
            let ckpt_path = checkpoint_path
                .ok_or_else(|| "--checkpoint-at needs --checkpoint <path>".to_string())?;
            engine.run_to_boundary(k).map_err(|e| e.to_string())?;
            std::fs::write(&ckpt_path, engine.checkpoint().to_json())
                .map_err(|e| format!("writing checkpoint {ckpt_path:?}: {e}"))?;
            if let Some(path) = jsonl_path {
                std::fs::write(&path, engine.emitted_jsonl())
                    .map_err(|e| format!("writing {path:?}: {e}"))?;
                eprintln!("emitted JSONL prefix written to {path}");
            }
            eprintln!(
                "checkpoint at arrival boundary {} written to {ckpt_path} \
                 ({} sessions emitted)",
                engine.ingested(),
                engine.emitted_jsonl().lines().count()
            );
            return Ok(ExitCode::SUCCESS);
        }

        for sink in spec.build_sinks().map_err(|e| e.to_string())? {
            engine.attach(sink);
        }
        // One serve; `--stream` only decides whether the engine retains
        // what it emits. Without retention the rows go to --jsonl as they
        // are emitted and the summary is the scalar stats; with it, the
        // rows this engine emitted (everything, or exactly the suffix
        // after a resumed checkpoint, so prefix + suffix concatenate to
        // the full stream byte-for-byte) are written once the report is.
        if streaming {
            let path = jsonl_path.ok_or_else(|| "--stream needs --jsonl <path>".to_string())?;
            let file =
                std::fs::File::create(&path).map_err(|e| format!("creating {path:?}: {e}"))?;
            let mut out = std::io::BufWriter::new(file);
            let stats = engine.run_streaming(&mut out).map_err(|e| e.to_string())?;
            std::io::Write::flush(&mut out).map_err(|e| format!("writing {path:?}: {e}"))?;
            print_serve_stats(&stats, as_json);
            eprintln!("stream JSONL written to {path}");
        } else {
            let out = engine.run().map_err(|e| e.to_string())?;
            print_stream_report(&out.report, as_json);
            if let Some(path) = jsonl_path {
                std::fs::write(&path, &out.suffix_jsonl)
                    .map_err(|e| format!("writing {path:?}: {e}"))?;
                eprintln!("stream JSONL written to {path}");
            }
        }
        Ok(ExitCode::SUCCESS)
    })();
    match parsed {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{usage}");
            ExitCode::FAILURE
        }
    }
}
