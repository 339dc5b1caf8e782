//! The repository benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark run     [--seed <n>] [--runs <k>] [--seconds <s>] [--out <file>] [--write-expected] [--smoke]
//! benchmark trace   [--seed <n>] [--seconds <s>] [--out <file>] [--smoke]
//! benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is one run of one workload in this process; its last
//! line of standard output is the result object. `run` and `trace` start
//! that form once per workload in a fresh process each (fresh peak-RSS
//! counter, fresh allocator) and print every metric by name.

mod compare;
mod host;
mod layers;
mod measure;
mod metrics;
mod null_backend;
mod probes;
mod spans;
mod workloads;

use measure::RunArgs;
use std::time::Instant;
use workloads::{Workload, DEFAULT_SEED, WORKLOADS};

/// Seconds a run measures for when the caller does not say.
const DEFAULT_SECONDS: f64 = 24.0;

fn usage(problem: &str) -> ! {
    eprintln!("benchmark: {problem}");
    eprintln!("usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    eprintln!("       benchmark run|trace [--seed <n>] [--seconds <s>] [--out <file>] [--smoke]");
    eprintln!("       benchmark compare <a.json> <b.json>");
    std::process::exit(2);
}

/// Flags of every form but `compare`.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    setup_only: bool,
    runs: usize,
    out: Option<String>,
    write_expected: bool,
}

fn parse_flags(args: &[String]) -> Flags {
    let mut f = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        setup_only: false,
        runs: 1,
        out: None,
        write_expected: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
                .as_str()
        };
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> T {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("{flag}: not a number: {v}")))
        }
        match flag.as_str() {
            "--workload" => f.workload = Some(value().to_string()),
            "--seed" => f.seed = num(flag, value()),
            "--seconds" => f.seconds = num(flag, value()),
            "--trace" => f.trace = num::<u8>(flag, value()) != 0,
            "--runs" => f.runs = num(flag, value()),
            "--out" => f.out = Some(value().to_string()),
            "--smoke" => f.smoke = true,
            "--setup-only" => f.setup_only = true,
            "--write-expected" => f.write_expected = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    f
}

/// One run of one workload in a fresh process; returns whether it
/// succeeded and what it printed.
fn child(flags: &Flags, workload: Workload, seed: u64, trace: bool) -> (bool, String) {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &flags.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if flags.smoke {
        cmd.arg("--smoke");
    }
    // Standard error passes through, so a diverging body is visible.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("spawning a workload run");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// `run` and `trace`: every workload, `--runs` times with seeds counting
/// up from `--seed`, each in its own process.
fn run_all(flags: &Flags, trace: bool) -> bool {
    let mut ok = true;
    let mut results = Vec::new();
    let mut projections = Vec::new();
    for run in 0..flags.runs as u64 {
        let seed = flags.seed + run;
        for workload in WORKLOADS {
            let (succeeded, stdout) = child(flags, workload, seed, trace);
            ok &= succeeded;
            for line in stdout.lines() {
                if let Some(metric) = line.strip_prefix("metric ") {
                    println!("{} {metric}", workload.name);
                } else if line.starts_with("ops_") {
                    println!("{} {line}", workload.name);
                } else if let Some(p) = line.strip_prefix("projection ") {
                    projections.push(format!("  \"{}\": {p}", workload.name));
                }
            }
            let Some(result) = stdout.lines().last().filter(|l| l.starts_with('{')) else {
                eprintln!("benchmark: {} printed no result", workload.name);
                ok = false;
                continue;
            };
            results.push(format!(
                "  {{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, \"result\": {result}}}",
                workload.name,
                u8::from(trace)
            ));
        }
    }
    if let Some(path) = &flags.out {
        let doc = format!("{{\"runs\": [\n{}\n]}}\n", results.join(",\n"));
        std::fs::write(path, doc).unwrap_or_else(|e| usage(&format!("writing {path}: {e}")));
    }
    if flags.write_expected {
        if flags.seed != DEFAULT_SEED || flags.runs != 1 || flags.smoke || trace {
            usage("--write-expected describes one full-size untraced run at the default seed");
        }
        let doc = format!("{{\n{}\n}}\n", projections.join(",\n"));
        std::fs::write(measure::expected_path(), doc).expect("writing expected.json");
    }
    ok
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ok = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => usage("compare takes two result files"),
        },
        Some(form @ ("run" | "trace")) => {
            let flags = parse_flags(&args[1..]);
            refuse_debug(&flags);
            run_all(&flags, form == "trace")
        }
        _ => {
            let flags = parse_flags(&args);
            refuse_debug(&flags);
            let name = flags
                .workload
                .as_deref()
                .unwrap_or_else(|| usage("--workload is required"));
            let workload = Workload::by_name(name)
                .unwrap_or_else(|| usage(&format!("unknown workload {name}")));
            let run = RunArgs {
                workload: if flags.smoke {
                    workload.smoke()
                } else {
                    workload
                },
                seed: flags.seed,
                seconds: flags.seconds,
                smoke: flags.smoke,
            };
            if flags.setup_only {
                measure::setup_only(&run, started);
                true
            } else if flags.trace {
                layers::run(&run)
            } else {
                measure::run(&run)
            }
        }
    };
    std::process::exit(if ok { 0 } else { 1 });
}

/// Timings of an unoptimised build say nothing; only the smoke test, which
/// checks what is printed and not how fast, may run one.
fn refuse_debug(flags: &Flags) {
    if cfg!(debug_assertions) && !flags.smoke {
        usage("refusing to measure a debug build; use `cargo run --release`");
    }
}
