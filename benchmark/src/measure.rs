//! The untraced run: set-up samples, one warm-up body, then timed bodies
//! for the requested duration. No span is recorded anywhere in this run.

use crate::host::{self, CpuTime};
use crate::metrics::{self, Metrics};
use crate::spans::Ctx;
use crate::workloads::{self, Projection, Workload, DEFAULT_SEED};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Fresh child processes a run takes its `setup_s` from.
const SETUP_SAMPLES: usize = 4;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

/// Directory for everything a run writes: the serve workloads' stream
/// output (removed when the run ends) and the traced run's span file.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("creating benchmark/out");
    dir
}

/// Where this process streams serve output. The process id keeps
/// concurrent runs (the smoke test beside a manual run) apart.
pub fn stream_path(w: Workload) -> PathBuf {
    out_dir().join(format!("tmp-{}-{}.jsonl", w.name, std::process::id()))
}

/// Removes the stream file when the run ends, however it ends.
pub struct StreamFile(pub PathBuf);

impl Drop for StreamFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The projections of every workload at the default seed and full size,
/// as committed in `expected.json`.
pub fn expected_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json")
}

fn expected_projection(w: Workload) -> Option<Projection> {
    let text = std::fs::read_to_string(expected_path()).ok()?;
    let doc: serde_json::Value = serde_json::from_str(&text).expect("expected.json is JSON");
    let entry = doc.get(w.name)?;
    Some(serde_json::from_value(entry).expect("expected.json holds projections"))
}

/// Counts the operations a run attempted and the ones that failed: every
/// session served and every body run. A session that did not end `ok`
/// fails; a body whose projection differs from the reference fails.
pub struct Ops {
    reference: Projection,
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Starts counting from the warm-up body, which is itself checked
    /// against `expected.json` when the run is one that file describes.
    pub fn new(args: &RunArgs, warmup: Projection) -> Ops {
        let mut ops = Ops {
            reference: warmup.clone(),
            attempted: 0,
            failed: 0,
        };
        if args.seed == DEFAULT_SEED && !args.smoke {
            match expected_projection(args.workload) {
                Some(expected) => ops.reference = expected,
                None => eprintln!(
                    "warning: {} has no entry in expected.json; run `run --write-expected`",
                    args.workload.name
                ),
            }
        }
        ops.body(&warmup);
        ops
    }

    pub fn body(&mut self, p: &Projection) {
        self.attempted += p.sessions + 1;
        self.failed += p.sessions_not_ok;
        if *p != self.reference {
            eprintln!(
                "body diverged:\n  got      {p:?}\n  expected {:?}",
                self.reference
            );
            self.failed += 1;
        }
    }
}

/// Set-up as a fresh process pays it: from process start to the end of
/// the first body (input generation, engine and pool construction, first
/// touch of every page the body needs).
pub fn setup_only(args: &RunArgs, started: Instant) {
    let stream = StreamFile(stream_path(args.workload));
    workloads::body(args.workload, args.seed, &stream.0, Ctx::OFF).expect("set-up body");
    println!("setup_s {:?}", started.elapsed().as_secs_f64());
}

fn setup_in_child(args: &RunArgs) -> f64 {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", args.workload.name, "--setup-only"])
        .args(["--seed", &args.seed.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().expect("spawning the set-up child");
    assert!(
        out.status.success(),
        "set-up child failed: {:?}",
        out.status
    );
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .find_map(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.parse().ok())
        .expect("set-up child printed setup_s")
}

/// Runs the workload untraced and prints the end-to-end metrics. Returns
/// whether every operation succeeded.
pub fn run(args: &RunArgs) -> bool {
    let w = args.workload;
    let samples = if args.smoke { 2 } else { SETUP_SAMPLES };
    // Before this process grows: a child is a cold start, this process's
    // own first body (binary already paged in, no exec) is not quite one.
    let mut setups: Vec<f64> = (0..samples).map(|_| setup_in_child(args)).collect();

    let stream = StreamFile(stream_path(w));
    let (_, warmup) = workloads::body(w, args.seed, &stream.0, Ctx::OFF).expect("warm-up body");
    println!(
        "projection {}",
        serde_json::to_string(&warmup).expect("projection serializes")
    );
    let mut ops = Ops::new(args, warmup.clone());

    // One (wall, CPU) sample per timed body. Peak memory is read after a
    // fixed number of bodies, because it creeps up with every body the
    // allocator has served and faster machines fit more bodies in a run.
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut peak_rss = 0.0;
    let t0 = Instant::now();
    while walls.len() < w.min_bodies || (!args.smoke && t0.elapsed().as_secs_f64() < args.seconds) {
        let cpu0 = CpuTime::now();
        let (wall, p) = workloads::body(w, args.seed, &stream.0, Ctx::OFF).expect("timed body");
        cpus.push(CpuTime::now().since(cpu0).total());
        ops.body(&p);
        walls.push(wall);
        if walls.len() == w.min_bodies {
            peak_rss = host::peak_rss_mib();
        }
    }
    // The raw samples, for whoever has to explain an odd run.
    let listed = |samples: &[f64]| {
        let listed: Vec<String> = samples.iter().map(|s| format!("{s:.4}")).collect();
        listed.join(" ")
    };
    println!("setup_samples_s {}", listed(&setups));
    println!("body_walls_s {}", listed(&walls));
    println!("body_cpus_s {}", listed(&cpus));

    let mevents = warmup.events as f64 / 1e6;
    let mut m = Metrics::new(&metrics::END_TO_END);
    m.set("setup_s", host::second_fastest(&mut setups));
    m.set(
        "events_per_s",
        warmup.events as f64 / host::second_fastest(&mut walls),
    );
    m.set(
        "cpu_s_per_mevent",
        host::second_fastest(&mut cpus) / mevents,
    );
    m.set("peak_rss_mib", peak_rss);
    metrics::print_result(&m, ops.attempted, ops.failed);
    ops.failed == 0
}
