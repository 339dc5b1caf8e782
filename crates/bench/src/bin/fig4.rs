//! Regenerates the paper's Fig. 4 series. Usage: `cargo run --release -p entk-bench --bin fig4 [seed]`.
fn main() {
    entk_bench::figure_main("fig4");
}
