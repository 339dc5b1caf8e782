//! The paper's figure claims as tests, at reduced scale: every qualitative
//! statement the evaluation section makes must hold in this reproduction.
//! (Full-scale numbers live in EXPERIMENTS.md / `cargo run -p entk-bench`.)

use entk_bench::{fig3, fig4, fig5, fig6, fig7, fig9, Row};

fn series(rows: &[Row], name: &str, value: &str) -> Vec<f64> {
    rows.iter()
        .filter(|r| r.series.contains(name))
        .map(|r| r.value(value).expect("value present"))
        .collect()
}

#[test]
fn fig3_claims_exec_flat_core_constant_pattern_linear() {
    let rows = fig3(2016);
    // "application execution times remain relatively similar at all the
    // configurations across patterns"
    for kind in ["pipeline", "sal", "ee"] {
        let exec = series(&rows, kind, "exec_time");
        let min = exec.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = exec.iter().cloned().fold(0.0, f64::max);
        assert!(max / min < 2.5, "{kind} exec time flat: {exec:?}");
    }
    // "The Core overhead … remains constant in all the configurations"
    let core = series(&rows, "pipeline", "core_overhead");
    let cmin = core.iter().cloned().fold(f64::INFINITY, f64::min);
    let cmax = core.iter().cloned().fold(0.0, f64::max);
    assert!(cmax / cmin < 1.3, "core overhead constant: {core:?}");
    // "The … Pattern overhead … depends on the number of tasks"
    let pat = series(&rows, "pipeline", "pattern_overhead");
    assert!(
        pat.last().unwrap() > &(4.0 * pat[0]),
        "pattern ∝ tasks: {pat:?}"
    );
}

#[test]
fn fig4_claim_kernel_swap_leaves_overheads_unchanged() {
    let f3 = fig3(2016);
    let f4 = fig4(2016);
    // "changing the kernel plugins … does not effect the overhead"
    let core3 = series(&f3, "sal", "core_overhead");
    let core4 = series(&f4, "gromacs-lsdmap", "core_overhead");
    for (a, b) in core3.iter().zip(&core4) {
        assert!(
            (a - b).abs() / a.max(*b) < 0.3,
            "core overhead invariant under kernel swap: {core3:?} vs {core4:?}"
        );
    }
    let pat4 = series(&f4, "gromacs-lsdmap", "pattern_overhead");
    assert!(
        pat4.last().unwrap() > &(4.0 * pat4[0]),
        "still ∝ tasks: {pat4:?}"
    );
}

#[test]
fn fig5_claims_sim_halves_exchange_constant() {
    let replicas = 160;
    let rows = fig5(2016, 16); // 160 replicas, cores 1..160
                               // "simulation time decreases to half its value when the number of
                               // cores are doubled": at reduced scale, core counts do not divide the
                               // replica count evenly, so check the exact law the halving comes from —
                               // simulation time ∝ number of execution waves, ceil(R / cores).
    let per_wave: Vec<f64> = rows
        .iter()
        .map(|r| {
            let waves = (replicas as f64 / r.x).ceil();
            r.value("simulation_time").unwrap() / waves
        })
        .collect();
    let min = per_wave.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = per_wave.iter().cloned().fold(0.0, f64::max);
    assert!(
        max / min < 1.4,
        "sim time ∝ waves (constant per-wave time): {per_wave:?}"
    );
    // "The exchange times … remain constant"
    let ex = series(&rows, "replicas", "exchange_time");
    let emin = ex.iter().cloned().fold(f64::INFINITY, f64::min);
    let emax = ex.iter().cloned().fold(0.0, f64::max);
    assert!(emax / emin < 1.5, "exchange constant: {ex:?}");
}

#[test]
fn fig6_claims_sim_constant_exchange_grows() {
    let rows = fig6(2016, 8); // replicas = cores, 2..320
    let sim = series(&rows, "replicas", "simulation_time");
    let smin = sim.iter().cloned().fold(f64::INFINITY, f64::min);
    let smax = sim.iter().cloned().fold(0.0, f64::max);
    // "the simulation time remains relatively constant"
    assert!(smax / smin < 1.6, "weak-scaled sim flat: {sim:?}");
    // "The exchange times, however, increases … depends on the number of
    // replicas"
    let ex = series(&rows, "replicas", "exchange_time");
    assert!(
        ex.last().unwrap() > &(2.0 * ex[0]),
        "exchange grows with replicas: {ex:?}"
    );
}

#[test]
fn fig7_claims_sim_linear_analysis_constant() {
    let rows = fig7(2016, 8); // 128 sims, cores 8..128
    let sim = series(&rows, "sims", "simulation_time");
    for pair in sim.windows(2) {
        assert!(
            pair[1] < pair[0],
            "strong scaling decreases sim time: {sim:?}"
        );
    }
    // end-to-end speedup close to the core ratio
    let speedup = sim[0] / sim.last().unwrap();
    assert!(speedup > 8.0, "16× cores ⇒ ≥8× faster: {speedup}");
    // "the analysis execution time remains constant for all configurations"
    let ana = series(&rows, "sims", "analysis_time");
    let amin = ana.iter().cloned().fold(f64::INFINITY, f64::min);
    let amax = ana.iter().cloned().fold(0.0, f64::max);
    assert!(amax / amin < 1.3, "analysis constant: {ana:?}");
}

/// The committed `results/*.txt` are the figure binaries' stdout at seed
/// 2016 and full scale, byte for byte (trace fingerprints included), in
/// debug and release builds alike: the paper's figures are pinned the way
/// the traces are (`crates/bench/tests/golden_trace.rs`).
#[test]
fn committed_results_are_the_figure_binaries_output() {
    for name in [
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "ablations",
    ] {
        let path = format!("{}/results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
        let committed =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        let regenerated = entk_bench::figure_text(name, 2016, 1);
        let first_diff = committed
            .lines()
            .zip(regenerated.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| committed.lines().count().min(regenerated.lines().count()));
        assert!(
            committed == regenerated,
            "results/{name}.txt no longer matches the {name} binary (first difference at \
             line {}):\n  committed:   {}\n  regenerated: {}\nIf the change is intended, \
             regenerate with\n  cargo run --release -p entk-bench --bin {name} > \
             results/{name}.txt\nand re-read EXPERIMENTS.md against the new numbers.",
            first_diff + 1,
            committed.lines().nth(first_diff).unwrap_or("<end of file>"),
            regenerated
                .lines()
                .nth(first_diff)
                .unwrap_or("<end of file>"),
        );
    }
}

#[test]
fn fig9_claim_mpi_execution_drops_linearly() {
    let rows = fig9(2016, 8); // 8 sims, cores/sim 1,16,32,64
    let exec = series(&rows, "sims", "mean_sim_exec");
    // "execution time of the simulations drops linearly with the number of
    // cores used"
    assert!(
        exec.windows(2).all(|w| w[1] < w[0]),
        "monotone drop: {exec:?}"
    );
    assert!(exec[0] / exec[1] > 8.0, "1→16 cores ⇒ ≥8×: {exec:?}");
}
