//! REMD → WHAM: a two-phase campaign on one allocation.
//!
//! Phase 1 runs temperature-REMD (the paper's EE pattern) with real toy-MD
//! energies, using a *wrapper pattern* — a user-defined decorator around
//! `EnsembleExchange` that records every replica's (temperature, energy)
//! sample as it streams past. This is the paper's "building blocks"
//! thesis in action: patterns compose and extend without touching the
//! toolkit.
//!
//! Phase 2 feeds the samples to the `ana.wham` kernel and prints mean
//! energy and heat capacity across the ladder.
//!
//! Run with: `cargo run --release --example remd_wham`

use entk_core::prelude::*;
use serde_json::json;

/// Decorator pattern: delegates to an inner EE pattern while harvesting
/// (temperature, potential energy) pairs from simulation results.
struct RecordingRemd {
    inner: EnsembleExchange,
    temps: Vec<f64>,
    /// One sample list per ladder rung.
    samples: Vec<Vec<f64>>,
}

impl RecordingRemd {
    fn new(inner: EnsembleExchange, temps: Vec<f64>) -> Self {
        let n = temps.len();
        RecordingRemd {
            inner,
            temps,
            samples: vec![Vec::new(); n],
        }
    }

    fn rung_of_temp(&self, t: f64) -> usize {
        self.temps
            .iter()
            .enumerate()
            .min_by(|a, b| {
                (a.1 - t)
                    .abs()
                    .partial_cmp(&(b.1 - t).abs())
                    .expect("finite temps")
            })
            .map(|(i, _)| i)
            .expect("non-empty ladder")
    }
}

impl ExecutionPattern for RecordingRemd {
    fn name(&self) -> &str {
        "recording-remd"
    }
    fn on_start(&mut self) -> Vec<Task> {
        self.inner.on_start()
    }
    fn on_task_done(&mut self, result: &TaskResult) -> Vec<Task> {
        if &*result.stage == "simulation" && result.success {
            if let (Some(t), Some(e)) = (
                result.output["temperature"].as_f64(),
                result.output["potential"].as_f64(),
            ) {
                let rung = self.rung_of_temp(t);
                self.samples[rung].push(e);
            }
        }
        self.inner.on_task_done(result)
    }
    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
    fn progress(&self) -> String {
        self.inner.progress()
    }
}

fn main() {
    let replicas = 4;
    let cycles = 6;
    let ladder = TemperatureLadder::geometric(replicas, 0.6, 1.8);
    let temps = ladder.temps().to_vec();

    let ee = EnsembleExchange::new(replicas, cycles, ladder, |replica, cycle, temp| {
        KernelCall::new(
            "md.amber",
            json!({
                "n_atoms": 60, "steps": 60, "record_every": 60,
                "temperature": temp,
                "seed": (replica * 97 + cycle * 13) as u64,
            }),
        )
    });
    let mut remd = RecordingRemd::new(ee, temps.clone());

    let mut handle = ResourceHandle::local(4).expect("local handle");
    handle.allocate().expect("local pool ready");
    let report = handle.run(&mut remd).expect("REMD completes");
    println!(
        "phase 1 (REMD): {} tasks in {}; samples per rung: {:?}",
        report.task_count(),
        report.ttc,
        remd.samples.iter().map(Vec::len).collect::<Vec<_>>()
    );

    // Phase 2: WHAM over the harvested energies, on the same allocation.
    let samples = remd.samples.clone();
    let temps_for_wham = temps.clone();
    let mut wham_stage = BagOfTasks::new(1, move |_| {
        KernelCall::new(
            "ana.wham",
            json!({
                "energy_samples": samples,
                "temperatures": temps_for_wham,
                "n_bins": 30,
            }),
        )
    });

    // Capture the analysis output through another thin wrapper.
    struct Capture<P: ExecutionPattern> {
        inner: P,
        output: Option<serde_json::Value>,
    }
    impl<P: ExecutionPattern> ExecutionPattern for Capture<P> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn on_start(&mut self) -> Vec<Task> {
            self.inner.on_start()
        }
        fn on_task_done(&mut self, result: &TaskResult) -> Vec<Task> {
            if result.success {
                self.output = Some(result.output.clone());
            }
            self.inner.on_task_done(result)
        }
        fn is_done(&self) -> bool {
            self.inner.is_done()
        }
    }
    let mut capture = Capture {
        inner: &mut wham_stage, // &mut P is itself a pattern
        output: None,
    };

    handle.run(&mut capture).expect("WHAM completes");
    handle.deallocate().expect("teardown");

    let wham = capture.output.expect("WHAM produced output");
    println!(
        "phase 2 (WHAM): converged after {} iterations",
        wham["iterations"]
    );
    println!("  T        <E>        C_v");
    let ts = wham["target_temps"].as_array().unwrap();
    let es = wham["mean_energies"].as_array().unwrap();
    let cs = wham["heat_capacities"].as_array().unwrap();
    for i in 0..ts.len() {
        println!(
            "  {:<8.3} {:<10.2} {:<8.2}",
            ts[i].as_f64().unwrap(),
            es[i].as_f64().unwrap(),
            cs[i].as_f64().unwrap()
        );
    }
    // Physical sanity: mean energy rises with temperature.
    let e: Vec<f64> = es.iter().filter_map(|v| v.as_f64()).collect();
    assert!(
        e.windows(2).all(|w| w[1] >= w[0]),
        "⟨E⟩ must rise with T: {e:?}"
    );
}
