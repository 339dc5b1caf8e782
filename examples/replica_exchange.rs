//! Replica-exchange molecular dynamics with *real* execution.
//!
//! The Ensemble-Exchange pattern (paper §III-D2, Figs. 5–6) drives the toy
//! MD engine locally: each replica integrates a solvated surrogate peptide
//! at its ladder temperature, exchanges use the Metropolis criterion on
//! real potential energies, and replicas walk the temperature ladder.
//!
//! Run with: `cargo run --release --example replica_exchange`

use entk_core::prelude::*;
use serde_json::json;

fn main() {
    let replicas = 6;
    let cycles = 4;
    let ladder = TemperatureLadder::geometric(replicas, 0.6, 2.0);
    println!(
        "T-REMD: {replicas} replicas × {cycles} cycles, ladder {:?}",
        ladder
            .temps()
            .iter()
            .map(|t| (t * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );

    let mut pattern = EnsembleExchange::new(replicas, cycles, ladder, |replica, cycle, temp| {
        KernelCall::new(
            "md.amber",
            json!({
                "n_atoms": 60,            // small surrogate for a snappy demo
                "steps": 80,
                "record_every": 40,
                "temperature": temp,
                "seed": (replica * 101 + cycle) as u64,
            }),
        )
    });

    let mut handle = ResourceHandle::local(replicas.min(4)).expect("local handle");
    handle.allocate().expect("local pool ready");
    let report = handle.run(&mut pattern).expect("REMD completes");
    handle.deallocate().expect("teardown");

    let (accepted, attempted) = pattern.swap_stats();
    println!("wall time        : {}", report.ttc);
    println!(
        "md segments      : {}",
        report.stage_exec_summary("simulation").count()
    );
    println!(
        "exchange sweeps  : {}",
        report.stage_exec_summary("exchange").count()
    );
    println!(
        "swap acceptance  : {accepted}/{attempted} ({:.0}%)",
        if attempted == 0 {
            0.0
        } else {
            100.0 * accepted as f64 / attempted as f64
        }
    );
    println!("final rungs      : {:?}", pattern.rungs());
    assert_eq!(report.failed_tasks, 0);
}
