//! HPC platform specifications.
//!
//! Presets mirror the machines used in the paper's evaluation (§IV):
//! XSEDE Comet (validation, Figs. 3–4), XSEDE Stampede (SAL scaling,
//! Figs. 7–9), and LSU SuperMIC (EE scaling, Figs. 5–6). Delay
//! distributions are calibrated so the simulated overhead decomposition
//! matches the paper's qualitative behaviour: constant per-resource costs,
//! per-task costs linear in the number of tasks.

use entk_sim::Dist;
use serde::{Deserialize, Serialize};

/// Static description of a simulated HPC machine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlatformSpec {
    /// Human-readable machine name, e.g. `"xsede.comet"`.
    pub name: String,
    /// Number of compute nodes.
    pub nodes: usize,
    /// Cores per node.
    pub cores_per_node: usize,
    /// Memory per node in GB (bookkeeping only; jobs may request memory).
    pub mem_per_node_gb: u64,
    /// Relative compute speed factor; kernel cost models divide by this.
    pub perf_factor: f64,
    /// Time a submitted batch job waits before becoming eligible to run
    /// (models scheduler cycles and competing load).
    pub queue_wait: Dist,
    /// Additional queue wait per requested core, in seconds — models the
    /// fact that larger allocations wait longer in shared batch queues.
    pub queue_wait_per_core: f64,
    /// One-time cost of launching a batch job once nodes are assigned
    /// (prologue, environment setup).
    pub job_startup: Dist,
    /// Per-process launch cost inside a running job (aprun/ssh/fork cost
    /// paid per task by the pilot agent).
    pub task_launch: Dist,
    /// Network latency in seconds for control messages between the
    /// submitting host and the machine.
    pub control_latency: Dist,
    /// Shared-filesystem bandwidth in bytes/second for staging.
    pub fs_bandwidth: f64,
    /// Per-file filesystem operation latency in seconds.
    pub fs_latency: Dist,
}

impl PlatformSpec {
    /// Total core count of the machine.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }

    /// XSEDE Comet: 1984 nodes × 24 cores, 120 GB/node (paper §IV).
    pub fn comet() -> Self {
        PlatformSpec {
            name: "xsede.comet".into(),
            nodes: 1984,
            cores_per_node: 24,
            mem_per_node_gb: 120,
            perf_factor: 1.0,
            queue_wait: Dist::Constant(0.0),
            queue_wait_per_core: 0.0,
            job_startup: Dist::Normal {
                mean: 45.0,
                sd: 5.0,
            },
            task_launch: Dist::Normal {
                mean: 0.10,
                sd: 0.01,
            },
            control_latency: Dist::Constant(0.05),
            fs_bandwidth: 2.0e9,
            fs_latency: Dist::Constant(0.002),
        }
    }

    /// XSEDE Stampede: 6400 nodes × 16 cores, 32 GB/node (paper §IV).
    pub fn stampede() -> Self {
        PlatformSpec {
            name: "xsede.stampede".into(),
            nodes: 6400,
            cores_per_node: 16,
            mem_per_node_gb: 32,
            perf_factor: 0.9,
            queue_wait: Dist::Constant(0.0),
            queue_wait_per_core: 0.0,
            job_startup: Dist::Normal {
                mean: 60.0,
                sd: 8.0,
            },
            task_launch: Dist::Normal {
                mean: 0.12,
                sd: 0.015,
            },
            control_latency: Dist::Constant(0.06),
            fs_bandwidth: 1.5e9,
            fs_latency: Dist::Constant(0.003),
        }
    }

    /// LSU SuperMIC: 360 nodes × 20 cores, 60 GB/node (paper §IV).
    pub fn supermic() -> Self {
        PlatformSpec {
            name: "lsu.supermic".into(),
            nodes: 360,
            cores_per_node: 20,
            mem_per_node_gb: 60,
            perf_factor: 0.85,
            queue_wait: Dist::Constant(0.0),
            queue_wait_per_core: 0.0,
            job_startup: Dist::Normal {
                mean: 50.0,
                sd: 6.0,
            },
            task_launch: Dist::Normal {
                mean: 0.11,
                sd: 0.012,
            },
            control_latency: Dist::Constant(0.08),
            fs_bandwidth: 1.0e9,
            fs_latency: Dist::Constant(0.004),
        }
    }

    /// A small machine for tests and examples: `nodes` × `cores_per_node`
    /// with negligible overheads.
    pub fn local(nodes: usize, cores_per_node: usize) -> Self {
        PlatformSpec {
            name: "localhost".into(),
            nodes,
            cores_per_node,
            mem_per_node_gb: 16,
            perf_factor: 1.0,
            queue_wait: Dist::ZERO,
            queue_wait_per_core: 0.0,
            job_startup: Dist::Constant(0.1),
            task_launch: Dist::Constant(0.001),
            control_latency: Dist::ZERO,
            fs_bandwidth: 5.0e9,
            fs_latency: Dist::ZERO,
        }
    }

    /// Canonical labels of the presets [`PlatformSpec::by_name`] resolves
    /// (it also takes their short aliases); what an "unknown resource"
    /// message lists.
    pub const NAMES: [&'static str; 4] =
        ["xsede.comet", "xsede.stampede", "lsu.supermic", "localhost"];

    /// Looks up a preset by resource label (as used by the ResourceHandle),
    /// e.g. `"xsede.comet"`.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "xsede.comet" | "comet" => Some(Self::comet()),
            "xsede.stampede" | "stampede" => Some(Self::stampede()),
            "lsu.supermic" | "supermic" | "xsede.supermic" => Some(Self::supermic()),
            "localhost" | "local" => Some(Self::local(4, 8)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_specs() {
        let comet = PlatformSpec::comet();
        assert_eq!(comet.nodes, 1984);
        assert_eq!(comet.cores_per_node, 24);
        assert_eq!(comet.total_cores(), 47_616);

        let stampede = PlatformSpec::stampede();
        assert_eq!(stampede.nodes, 6400);
        assert_eq!(stampede.cores_per_node, 16);

        let supermic = PlatformSpec::supermic();
        assert_eq!(supermic.nodes, 360);
        assert_eq!(supermic.cores_per_node, 20);
        assert_eq!(supermic.total_cores(), 7200);
    }

    #[test]
    fn lookup_by_name_and_aliases() {
        assert_eq!(PlatformSpec::by_name("xsede.comet").unwrap().nodes, 1984);
        assert_eq!(
            PlatformSpec::by_name("supermic").unwrap().cores_per_node,
            20
        );
        assert!(PlatformSpec::by_name("nonexistent").is_none());
        for name in PlatformSpec::NAMES {
            assert!(PlatformSpec::by_name(name).is_some(), "{name}");
        }
    }

    #[test]
    fn supermic_fits_fig5_workload() {
        // Fig. 5 uses up to 2560 cores on SuperMIC; the machine must hold them.
        assert!(PlatformSpec::supermic().total_cores() >= 2560);
    }

    #[test]
    fn stampede_fits_fig8_workload() {
        // Fig. 8 scales to 4096 cores on Stampede.
        assert!(PlatformSpec::stampede().total_cores() >= 4096);
    }
}
