//! Runs the ablation experiments over design choices (exchange topology,
//! overhead sensitivity, unit-scheduler policy, pilot splitting, fault
//! tolerance). Usage: `cargo run --release -p entk-bench --bin ablations [seed]`.
fn main() {
    entk_bench::figure_main("ablations");
}
