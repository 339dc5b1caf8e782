//! ExTASY-style adaptive sampling: Simulation-Analysis Loop with real MD
//! and real CoCo analysis, plus the paper's §V adaptivity extension —
//! the analysis decides how many simulations the next iteration runs.
//!
//! Each iteration: (1) an ensemble of toy-MD simulations produces solute
//! conformations; (2) CoCo fits a PCA, measures how much of the projected
//! space is covered, and proposes starting structures in unexplored
//! regions; (3) the ensemble size adapts to the measured coverage.
//!
//! Run with: `cargo run --release --example adaptive_sampling`

use entk_core::prelude::*;
use serde_json::json;
use std::sync::{Arc, Mutex};

fn main() {
    let iterations = 3;
    let initial_sims = 3;

    // Shared state: new start conformations proposed by the latest CoCo
    // pass, consumed by the next iteration's simulations.
    let starts: Arc<Mutex<Vec<serde_json::Value>>> = Arc::new(Mutex::new(Vec::new()));
    let occupancy_log: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));

    let starts_sim = Arc::clone(&starts);
    let starts_ana = Arc::clone(&starts);
    let occupancy_ana = Arc::clone(&occupancy_log);

    let mut pattern = SimulationAnalysisLoop::new(
        iterations,
        initial_sims,
        move |iter, idx| {
            let mut args = json!({
                "n_atoms": 60,
                "steps": 100,
                "record_every": 25,
                "seed": (iter * 1000 + idx) as u64,
            });
            // Seed this simulation from a CoCo-proposed structure if one
            // is available.
            if let Some(start) = starts_sim.lock().unwrap().get(idx) {
                args["start"] = json!([start]);
            }
            KernelCall::new("md.amber", args)
        },
        move |_iter, outs| {
            // Pool all frames from this iteration's simulations.
            let mut frames: Vec<serde_json::Value> = Vec::new();
            for o in outs {
                if let Some(fs) = o["frames"].as_array() {
                    frames.extend(fs.iter().cloned());
                }
            }
            let _ = &starts_ana; // captured for the completion hook below
            let _ = &occupancy_ana;
            vec![KernelCall::new(
                "ana.coco",
                json!({ "frames": frames, "n_new": 6, "grid": 8 }),
            )]
        },
    )
    .with_adaptivity({
        let starts = Arc::clone(&starts);
        let occupancy_log = Arc::clone(&occupancy_log);
        move |_iter, analysis_outputs| {
            let out = &analysis_outputs[0];
            let occupancy = out["occupancy"].as_f64().unwrap_or(0.0);
            occupancy_log.lock().unwrap().push(occupancy);
            *starts.lock().unwrap() = out["new_starts"].as_array().cloned().unwrap_or_default();
            // Low coverage ⇒ widen the ensemble; high coverage ⇒ shrink it.
            if occupancy < 0.3 {
                6
            } else {
                3
            }
        }
    });

    let mut handle = ResourceHandle::local(3).expect("local handle");
    handle.allocate().expect("local pool ready");
    let report = handle.run(&mut pattern).expect("adaptive SAL completes");
    handle.deallocate().expect("teardown");

    println!("iterations       : {}", pattern.completed_iterations());
    println!("total tasks      : {}", report.task_count());
    println!("wall time        : {}", report.ttc);
    for (i, occ) in occupancy_log.lock().unwrap().iter().enumerate() {
        println!("iter {i} projected-space occupancy: {:.2}", occ);
    }
    assert_eq!(report.failed_tasks, 0);
    assert_eq!(pattern.completed_iterations(), iterations);
}
