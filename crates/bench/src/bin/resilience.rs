//! Resilience-sweep harness with built-in determinism checks, run by CI's
//! `resilience-smoke` job at reduced scale.
//!
//! ```text
//! cargo run --release -p entk-bench --bin resilience -- [OPTIONS]
//!
//!   --scale N     divide ensemble sizes by N            [default: 8]
//!   --seed S      sweep seed                            [default: 2016]
//!   --backend B   simulated | federated          [default: simulated]
//!   --out PATH    output path                [default: RESILIENCE.json]
//! ```
//!
//! Two checks must hold (the process asserts them, so CI fails loudly):
//!
//! 1. **Replay** — running the sweep twice with the same seed yields
//!    byte-identical JSON rows.
//! 2. **Zero-rate is free** — rate-0 rows with a fault injector installed
//!    equal the rows of a platform with no injector at all.
//!
//! `--backend federated` swaps the single-cluster sweep for the federated
//! two-cluster points (one member crash-heavy, one clean) and asserts the
//! replay check on those rows; the zero-rate check is specific to the
//! task-failure injector and does not apply.

use entk_bench::{baseline_rows, federated_resilience, resilience, resilience_sweep};
use serde_json::json;

/// One-line diagnostic + non-zero exit for determinism-check failures, so
/// CI logs end with the reason instead of a panic backtrace.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

struct Options {
    scale: usize,
    seed: u64,
    backend: String,
    out: String,
}

fn parse_args() -> Options {
    let mut opts = Options {
        scale: 8,
        seed: 2016,
        backend: "simulated".to_string(),
        out: "RESILIENCE.json".to_string(),
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
            "--backend" => opts.backend = value("--backend"),
            "--out" => opts.out = value("--out"),
            other => panic!("unknown argument {other:?} (see module docs)"),
        }
    }
    assert!(
        matches!(opts.backend.as_str(), "simulated" | "federated"),
        "unknown backend {:?} (use \"simulated\" or \"federated\")",
        opts.backend
    );
    opts
}

/// The `--backend federated` mode: paired clean / crash-heavy federation
/// rows with the replay determinism check.
fn run_federated(opts: &Options) {
    let seed = opts.seed;

    let rows = federated_resilience(seed);
    let replay_identical = rows == federated_resilience(seed);
    if !replay_identical {
        fail("same seed must replay to byte-identical federated rows");
    }

    for row in &rows {
        println!(
            "series={} mtbf={} {}",
            row.series,
            row.x,
            row.values
                .iter()
                .map(|(n, v)| format!("{n}={v:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }

    let out = json!({
        "version": 1,
        "backend": "federated",
        "seed": seed,
        "retries": resilience::FED_RETRIES,
        "crash_mtbf_secs": resilience::FED_CRASH_MTBF_SECS,
        "patterns": resilience::PATTERNS,
        "rows": rows,
        "checks": {
            "replay_identical": replay_identical,
        },
    });
    let rendered = serde_json::to_string_pretty(&out).expect("serialize RESILIENCE.json");
    std::fs::write(&opts.out, rendered + "\n").expect("write RESILIENCE.json");
    println!("wrote {} (all determinism checks passed)", opts.out);
}

fn main() {
    let opts = parse_args();
    if opts.backend == "federated" {
        run_federated(&opts);
        return;
    }
    let (seed, scale) = (opts.seed, opts.scale);

    let rows = resilience_sweep(seed, scale);
    let replay = resilience_sweep(seed, scale);
    let rows_json = serde_json::to_string(&rows).expect("serialize rows");
    let replay_identical = rows_json == serde_json::to_string(&replay).expect("serialize rows");
    if !replay_identical {
        fail("same seed must replay to byte-identical rows");
    }

    let baseline = baseline_rows(seed, scale);
    let zero_rows: Vec<_> = rows.iter().filter(|r| r.x == 0.0).cloned().collect();
    let zero_rate_matches_baseline = zero_rows == baseline;
    if !zero_rate_matches_baseline {
        fail("rate-0 rows with an injector must equal the no-injector baseline");
    }

    for row in &rows {
        println!(
            "series={} rate={} {}",
            row.series,
            row.x,
            row.values
                .iter()
                .map(|(n, v)| format!("{n}={v:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }

    let out = json!({
        "version": 1,
        "backend": "simulated",
        "seed": seed,
        "scale": scale,
        "rates": resilience::RATES,
        "retries": resilience::RETRIES,
        "patterns": resilience::PATTERNS,
        "rows": rows,
        "checks": {
            "replay_identical": replay_identical,
            "zero_rate_matches_baseline": zero_rate_matches_baseline,
        },
    });
    let rendered = serde_json::to_string_pretty(&out).expect("serialize RESILIENCE.json");
    std::fs::write(&opts.out, rendered + "\n").expect("write RESILIENCE.json");
    println!("wrote {} (all determinism checks passed)", opts.out);
}
