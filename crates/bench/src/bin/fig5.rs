//! Regenerates the paper's Fig. 5 series at full scale. Usage:
//! `cargo run --release -p entk-bench --bin fig5 [seed] [scale]` where
//! scale divides the problem size (1 = the paper's full configuration).
fn main() {
    entk_bench::figure_main("fig5");
}
