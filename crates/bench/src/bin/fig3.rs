//! Regenerates the paper's Fig. 3 series. Usage: `cargo run --release -p entk-bench --bin fig3 [seed]`.
fn main() {
    entk_bench::figure_main("fig3");
}
