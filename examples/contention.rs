//! Capacity planning under queue contention: how execution strategies
//! (paper §V / Ref. [23]) change time-to-completion when the target machine
//! is busy.
//!
//! The same 128-task campaign runs on a simulated Comet whose batch queue
//! carries competing background jobs and charges longer waits for larger
//! requests. Three acquisition strategies are compared: one big pilot,
//! split pilots with late binding, and split pilots on a backfilling queue.
//!
//! Run with: `cargo run --release --example contention`

use entk_core::prelude::*;
use entk_sim::Dist;
use serde_json::json;

fn campaign() -> BagOfTasks {
    BagOfTasks::new(128, |i| {
        KernelCall::new("misc.sleep", json!({ "secs": 60.0 + (i % 7) as f64 }))
    })
}

fn busy_comet() -> entk_cluster::PlatformSpec {
    let mut p = entk_cluster::PlatformSpec::comet();
    p.queue_wait_per_core = 1.5; // larger requests wait longer
    p
}

fn load() -> entk_cluster::BackgroundLoad {
    entk_cluster::BackgroundLoad {
        mean_interarrival_secs: 120.0,
        cores: Dist::Uniform { lo: 24.0, hi: 96.0 },
        runtime: Dist::Uniform {
            lo: 300.0,
            hi: 1200.0,
        },
        initial_jobs: 3,
    }
}

fn run(label: &str, strategy: PilotStrategy, scheduler: &str) -> f64 {
    let config = ResourceConfig::new("xsede.comet", 128, SimDuration::from_secs(1_000_000));
    let sim = SimulatedConfig {
        seed: 7,
        platform: Some(busy_comet()),
        background_load: Some(load()),
        pilot_strategy: strategy,
        scheduler: Some(entk_core::ComponentSpec::named(scheduler)),
        ..Default::default()
    };
    let mut pattern = campaign();
    let report = run_simulated(config, sim, &mut pattern).expect("campaign completes");
    println!(
        "{label:<34} TTC {:>9.1}s  (resource wait {:>8.1}s, exec {:>7.1}s)",
        report.ttc.as_secs_f64(),
        report.overheads.resource_wait.as_secs_f64(),
        report.exec_time().as_secs_f64()
    );
    report.ttc.as_secs_f64()
}

fn main() {
    println!("128 tasks x ~60 s on a busy Comet (3 jobs queued, Poisson arrivals):\n");
    let single = run(
        "one 128-core pilot, FIFO queue",
        PilotStrategy::single(),
        "fifo",
    );
    let split = run(
        "8 x 16-core pilots, FIFO queue",
        PilotStrategy::split(8),
        "fifo",
    );
    let backfill = run(
        "8 x 16-core pilots, EASY backfill",
        PilotStrategy::split(8),
        "backfill",
    );
    println!();
    println!(
        "splitting saves {:.0}% of TTC; backfill saves {:.0}% more",
        100.0 * (1.0 - split / single),
        100.0 * (1.0 - backfill / split)
    );
    assert!(split <= single, "split pilots should not be slower here");
}
