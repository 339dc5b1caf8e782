//! `entk` — run Ensemble Toolkit workloads from JSON specs.
//!
//! ```text
//! entk run <spec.json> [--json] [--trace <path>]
//!     execute a single-session spec and print the report; --trace writes
//!     the session's event trace (Chrome trace-event JSON for Perfetto /
//!     chrome://tracing, or JSONL when the path ends in .jsonl)
//! entk serve <spec.json> [--policy <name>] [--strict] [--json]
//!            [--jsonl <path>] [--stream]
//!            [--checkpoint-at <K> --checkpoint <path>] [--resume <path>]
//!     serve a stream spec through the multi-tenant session service: live
//!     admission under the chosen policy, per-session failure records, the
//!     spec's report sinks fed as records are emitted. --checkpoint-at K
//!     stops at the K-th arrival boundary and writes the checkpoint (plus
//!     the emitted JSONL prefix); --resume picks one up and emits the
//!     byte-identical suffix. --stream retains nothing in memory: same
//!     bytes to --jsonl and to the sinks, scalar stats in place of the full
//!     report (a sink that needs the report, `summary`, is refused)
//! entk check <spec.json>
//!     load either kind of document and resolve everything `run` / `serve`
//!     resolves before its first task or session, running nothing and
//!     creating no file
//! entk kernels
//!     list available kernel plugins
//! ```
//!
//! A spec file is parsed once into a [`Document`] — a stream spec if it has
//! a top-level `"source"`, a single-session spec otherwise — and the three
//! verbs dispatch on it: `run` on a stream spec (or `serve` on a session)
//! names the verb that takes it. Each verb's flags are one [`Verb`] table
//! read by one parser, so a flag the verb does not have, a second
//! positional or a missing value is a usage error that lists the verb's
//! flags and runs nothing.
//!
//! Exit status: 0, or 1 after an `error: …` line on stderr or when `run`
//! had failed tasks. A reader that closes stdout early (`entk run spec.json
//! --json | head -1`) ends the output, not the verb: the rest of stdout is
//! dropped, files are still written and the status is the one above.

use entk_cli::Document;
use entk_core::{ComponentSpec, EntkError};
use entk_sim::Tracer;
use entk_workload::{ServeStats, ServiceCheckpoint, ServiceEngine, WorkloadReport};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

/// Whatever stopped a verb; `main` prints it after `error: `.
type Failure = Box<dyn std::error::Error>;

/// `println!` for a reader that may stop reading: see [`out`].
macro_rules! outln {
    ($($arg:tt)*) => {
        out(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes to stdout. A closed pipe is the end of the output, not of the
/// verb, so the write is dropped; any other failure stops with status 1.
fn out(text: std::fmt::Arguments) {
    if let Err(e) = std::io::stdout().lock().write_fmt(text) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("error: writing to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// One verb's command line: `entk <name> <spec.json>` plus its flags, each
/// with the name of the value it takes, if it takes one.
struct Verb {
    name: &'static str,
    flags: &'static [(&'static str, Option<&'static str>)],
}

const RUN: Verb = Verb {
    name: "run",
    flags: &[("--json", None), ("--trace", Some("path"))],
};

const SERVE: Verb = Verb {
    name: "serve",
    flags: &[
        ("--policy", Some("name")),
        ("--strict", None),
        ("--json", None),
        ("--jsonl", Some("path")),
        ("--stream", None),
        ("--checkpoint-at", Some("K")),
        ("--checkpoint", Some("path")),
        ("--resume", Some("path")),
    ],
};

const CHECK: Verb = Verb {
    name: "check",
    flags: &[],
};

/// A parsed command line: the spec path and the flags that were given.
struct Args {
    spec: String,
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(name, _)| *name == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.given.iter().find(|(name, _)| *name == flag)?;
        value.as_deref()
    }
}

impl Verb {
    /// A command-line mistake: the message, then the verb's flags.
    fn usage_error(&self, msg: impl std::fmt::Display) -> Failure {
        let flags: String = self
            .flags
            .iter()
            .map(|(flag, value)| match value {
                Some(value) => format!(" [{flag} <{value}>]"),
                None => format!(" [{flag}]"),
            })
            .collect();
        format!("{msg}\nusage: entk {} <spec.json>{flags}", self.name).into()
    }

    /// Reads `args` (everything after the verb) against the verb's table.
    fn parse(&self, args: &[String]) -> Result<Args, Failure> {
        let mut spec = None;
        let mut given = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                if let Some(first) = spec.replace(arg.clone()) {
                    let msg = format!("unexpected argument {arg:?} after spec {first:?}");
                    return Err(self.usage_error(msg));
                }
                continue;
            }
            let Some((flag, value)) = self.flags.iter().find(|(flag, _)| flag == arg) else {
                return Err(self.usage_error(format!("unknown flag {arg}")));
            };
            let value = match value {
                None => None,
                Some(what) => match args.next().filter(|v| !v.starts_with("--")) {
                    Some(v) => Some(v.clone()),
                    None => return Err(self.usage_error(format!("{flag} needs a <{what}>"))),
                },
            };
            given.push((*flag, value));
        }
        match spec {
            Some(spec) => Ok(Args { spec, given }),
            None => Err(self.usage_error("missing <spec.json>")),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (verb, rest) = match args.split_first() {
        Some((verb, rest)) => (verb.as_str(), rest),
        None => ("", &[][..]),
    };
    let outcome = match verb {
        "run" => RUN.parse(rest).and_then(|args| run(&args)),
        "serve" => SERVE.parse(rest).and_then(|args| serve(&args)),
        "check" => CHECK.parse(rest).and_then(|args| check(&args)),
        "kernels" => {
            for name in entk_kernels::KernelRegistry::with_builtins().names() {
                outln!("{name}");
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("expected a verb\nusage: entk <run|serve|check|kernels> [args]".into()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

/// Reads and loads the spec file at `path`.
fn load(path: &str) -> Result<Document, Failure> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
    Ok(Document::from_json(&text)?)
}

/// `entk run`: execute a single-session spec and print its report.
fn run(args: &Args) -> Result<ExitCode, Failure> {
    let Document::Session(spec) = load(&args.spec)? else {
        let what = "is a stream spec (it has a top-level \"source\"): serve it with `entk serve`";
        return Err(format!("{:?} {what}", args.spec).into());
    };
    let (report, telemetry) = spec.run_traced()?;
    if args.has("--json") {
        print_json(&report);
    } else {
        out(format_args!("{report}"));
    }
    if let Some(trace_path) = args.value("--trace") {
        match telemetry {
            Some(t) => {
                write_trace(&t.tracer, trace_path)
                    .map_err(|e| format!("writing {trace_path:?}: {e}"))?;
                eprintln!("trace written to {trace_path}");
            }
            None => eprintln!("note: --trace ignored (local backend has no virtual-time trace)"),
        }
    }
    Ok(if report.failed_tasks > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `entk check`: the loader vets the document itself (keys, component
/// params, kernel arguments, values); this then builds what `run` / `serve`
/// builds before its first task or session, with the errors they stop on.
fn check(args: &Args) -> Result<ExitCode, Failure> {
    match load(&args.spec)? {
        Document::Session(spec) => {
            // Backend, resources, core counts and scheduler resolve here.
            spec.handle()?;
            outln!(
                "ok: {} on {} ({} cores, backend {})",
                spec.build_pattern().name(),
                spec.resource.name,
                spec.resource.cores,
                spec.backend
            );
        }
        Document::Stream(spec) => {
            let config = spec.service_config()?;
            // The source is opened, not pulled; sink files are not created.
            spec.source_stream()?;
            outln!(
                "ok: stream of {} arrivals on {} ({}, {} slots, {} admission)",
                spec.source.kind,
                spec.resource,
                config.stream.backend.label(),
                spec.slots,
                config.policy.label()
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn print_json(report: &impl serde::Serialize) {
    let text = serde_json::to_string_pretty(report).expect("reports serialize");
    outln!("{text}");
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

fn print_stream_report(r: &WorkloadReport, as_json: bool) {
    if as_json {
        return print_json(r);
    }
    outln!(
        "stream: {} sessions from {} tenants on {} ({}, {} slots, {} admission)",
        r.sessions,
        r.tenants,
        r.resource,
        r.backend,
        r.slots,
        r.policy
    );
    outln!(
        "  status: {} ok, {} partial, {} failed, {} rejected",
        r.ok_sessions,
        r.partial_sessions,
        r.failed_sessions,
        r.rejected_sessions
    );
    outln!(
        "  makespan {:.1}s  latency p50 {:.1}s p95 {:.1}s p99 {:.1}s",
        r.makespan_secs,
        r.latency.p50,
        r.latency.p95,
        r.latency.p99
    );
    outln!(
        "  queue depth peak {:.0} mean {:.2}  events {}  cross-check {:.1e}s",
        r.queue_depth_peak,
        r.queue_depth_mean,
        r.total_events,
        r.max_cross_check_err_secs
    );
    outln!("  stream fingerprint {}", r.stream_fp);
    for t in &r.per_tenant {
        outln!(
            "  tenant {:>4}: {:>3} sessions  p50 {:>8.1}s  p95 {:>8.1}s  p99 {:>8.1}s",
            t.tenant,
            t.sessions,
            t.p50,
            t.p95,
            t.p99
        );
    }
}

fn print_serve_stats(stats: &ServeStats, as_json: bool) {
    if as_json {
        return print_json(stats);
    }
    outln!(
        "streamed: {} sessions from {} tenants \
         ({} ok / {} partial / {} failed / {} rejected)",
        stats.sessions,
        stats.tenants,
        stats.ok_sessions,
        stats.partial_sessions,
        stats.failed_sessions,
        stats.rejected_sessions
    );
    outln!(
        "  makespan {:.1}s  latency mean {:.1}s max {:.1}s",
        stats.makespan_secs,
        stats.mean_latency_secs,
        stats.max_latency_secs
    );
    outln!(
        "  peak resident sessions {}  stream fingerprint {}",
        stats.peak_resident_sessions,
        stats.stream_fp
    );
}

/// `entk serve`: the session service with policy override, strictness,
/// checkpoint/resume, and bounded-memory streaming.
fn serve(args: &Args) -> Result<ExitCode, Failure> {
    let as_json = args.has("--json");
    let streaming = args.has("--stream");
    let jsonl_path = args.value("--jsonl");
    let resume_path = args.value("--resume");
    let checkpoint_at = args
        .value("--checkpoint-at")
        .map(|v| {
            v.parse::<usize>().map_err(|_| {
                SERVE.usage_error(format!("--checkpoint-at needs an arrival index, got {v:?}"))
            })
        })
        .transpose()?;
    let checkpoint = match (checkpoint_at, args.value("--checkpoint")) {
        (Some(k), Some(path)) => Some((k, path)),
        (None, None) => None,
        (Some(_), None) => return Err(SERVE.usage_error("--checkpoint-at needs --checkpoint")),
        (None, Some(_)) => return Err(SERVE.usage_error("--checkpoint needs --checkpoint-at")),
    };
    if streaming && (resume_path.is_some() || checkpoint.is_some()) {
        return Err(SERVE.usage_error("--stream is incompatible with checkpoint/resume"));
    }
    if streaming && jsonl_path.is_none() {
        return Err(SERVE.usage_error("--stream needs --jsonl"));
    }

    let Document::Stream(mut spec) = load(&args.spec)? else {
        let what = "is a single-session spec (it has no top-level \"source\"): run it with";
        return Err(format!("{:?} {what} `entk run`", args.spec).into());
    };
    if let Some(policy) = args.value("--policy") {
        // Any registered admission policy; a typo lists the valid names.
        spec.policy = ComponentSpec::named(policy);
    }
    if args.has("--strict") {
        spec.strict = true;
    }
    let config = spec.service_config()?;
    // Arrivals are never materialized: the engine pulls the spec's
    // source lazily, which is what keeps `--stream` serves flat in
    // memory no matter how long the trace is.
    let arrivals = spec.source_stream()?;
    let mut engine = match resume_path {
        Some(path) => {
            let ckpt_text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading checkpoint {path:?}: {e}"))?;
            let ckpt = ServiceCheckpoint::from_json(&ckpt_text)?;
            // A boundary already served cannot be stopped at again.
            if let Some((k, _)) = checkpoint.filter(|&(k, _)| k < ckpt.next_arrival) {
                let msg = "is behind the resumed checkpoint, whose next_arrival is";
                let msg = format!("--checkpoint-at {k} {msg} {}", ckpt.next_arrival);
                return Err(EntkError::Usage(msg).into());
            }
            ServiceEngine::restore(config, arrivals, &ckpt)?
        }
        None => ServiceEngine::new(config, arrivals)?,
    };
    // Sinks see a whole serve; a run that stops at a checkpoint feeds none.
    if checkpoint.is_none() {
        for sink in spec.build_sinks()? {
            engine.attach(sink);
        }
    }
    // Every drive writes each row to `out` as it is emitted: the whole
    // stream, the prefix up to a checkpoint, or the suffix after the
    // resumed one, so prefix + suffix is the full stream byte for byte.
    let file: Box<dyn Write> = match jsonl_path {
        Some(path) => Box::new(File::create(path).map_err(|e| format!("creating {path:?}: {e}"))?),
        None => Box::new(std::io::sink()),
    };
    let mut out = BufWriter::new(file);
    // One serve; `--stream` only decides whether the engine retains what
    // it emits, and so whether the summary is the report or the scalar
    // stats. A run that stops at a checkpoint has a note instead.
    let (what, note) = match checkpoint {
        Some((k, ckpt_path)) => {
            let emitted = engine.run_to_boundary(k, &mut out)?;
            let ckpt = engine.checkpoint();
            std::fs::write(ckpt_path, ckpt.to_json())
                .map_err(|e| format!("writing checkpoint {ckpt_path:?}: {e}"))?;
            let at = ckpt.next_arrival;
            let note = format!(
                "checkpoint at arrival boundary {at} written to {ckpt_path} \
                 ({emitted} sessions emitted)"
            );
            ("emitted JSONL prefix", Some(note))
        }
        None if streaming => {
            print_serve_stats(&engine.run_streaming(&mut out)?, as_json);
            ("stream JSONL", None)
        }
        None => {
            print_stream_report(&engine.run(&mut out)?, as_json);
            ("stream JSONL", None)
        }
    };
    let path = jsonl_path.unwrap_or_default();
    out.flush().map_err(|e| format!("writing {path:?}: {e}"))?;
    if jsonl_path.is_some() {
        eprintln!("{what} written to {path}");
    }
    if let Some(note) = note {
        eprintln!("{note}");
    }
    Ok(ExitCode::SUCCESS)
}
