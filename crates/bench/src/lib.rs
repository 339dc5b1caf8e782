//! # entk-bench — figure harnesses for the EnTK paper reproduction
//!
//! One runner per figure of the paper's evaluation (Figs. 3–9), plus
//! ablations over the design choices DESIGN.md calls out. Binaries under
//! `src/bin/` print each figure's series; criterion benches under
//! `benches/` time the same code paths at reduced scale.

#![warn(missing_docs)]

pub mod figures;
pub mod resilience;
pub mod workload;

pub use figures::{
    ablation_exchange, ablation_faults, ablation_overhead, ablation_pilots, ablation_scheduler,
    deterministic_view, fig10, fig3, fig4, fig5, fig6, fig7, fig8, fig9, figure_main, figure_text,
    print_rows, Row, FIG10_TRACE_LIMIT, NONDETERMINISTIC_VALUES,
};
pub use resilience::{
    baseline_rows, federated_point, federated_resilience, resilience_point, resilience_sweep,
};
pub use workload::{
    fairness_ablation_with, fig11_with, fig11_with_policy, leg_jsonl, serve_scale_axis,
    serve_scale_point, vm_hwm_kb, FairnessAblation, ServeScalePoint, WorkloadPoint,
    FIG11_HALF_LIFE_SECS, FIG11_SESSIONS, FIG11_SLOTS, FIG11_TENANTS, SERVE_SCALE_SLOTS,
    SERVE_SCALE_TENANTS,
};
