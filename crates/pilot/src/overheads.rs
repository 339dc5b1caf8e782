//! Configurable runtime overheads.
//!
//! The paper decomposes time-to-completion into EnTK overheads and
//! RADICAL-Pilot overheads (Fig. 3 and §IV-A): per-resource costs that are
//! constant, and per-unit costs that grow linearly with the number of tasks.
//! These distributions model the RP side; the EnTK side is modelled in
//! `entk-core::overheads`.

use entk_sim::Dist;
use serde::{Deserialize, Serialize};

/// Delay model for the pilot runtime's own machinery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeOverheads {
    /// One-time cost of preparing and submitting a pilot (container job
    /// assembly, batch-submission round-trip).
    pub pilot_submission: Dist,
    /// Fixed cost per `submit_units` call (database round-trip in RP).
    pub unit_submit_fixed: Dist,
    /// Additional cost *per unit* in a `submit_units` call.
    pub unit_submit_per_unit: Dist,
    /// Unit-manager scheduling cost per unit per pass.
    pub scheduling_per_unit: Dist,
    /// Agent-side dispatch cost per unit, paid in addition to the
    /// platform's `task_launch` (process spawn) cost.
    pub agent_dispatch: Dist,
}

impl RuntimeOverheads {
    /// Calibrated defaults: per-unit costs of a few milliseconds, fixed
    /// costs of a few seconds, matching the order of magnitude RP reports.
    pub fn radical_pilot() -> Self {
        RuntimeOverheads {
            pilot_submission: Dist::Normal { mean: 2.0, sd: 0.2 },
            unit_submit_fixed: Dist::Normal {
                mean: 0.5,
                sd: 0.05,
            },
            unit_submit_per_unit: Dist::Normal {
                mean: 0.012,
                sd: 0.002,
            },
            scheduling_per_unit: Dist::Normal {
                mean: 0.004,
                sd: 0.001,
            },
            agent_dispatch: Dist::Normal {
                mean: 0.02,
                sd: 0.004,
            },
        }
    }

    /// All-zero overheads, isolating application time in ablations.
    pub fn zero() -> Self {
        RuntimeOverheads {
            pilot_submission: Dist::ZERO,
            unit_submit_fixed: Dist::ZERO,
            unit_submit_per_unit: Dist::ZERO,
            scheduling_per_unit: Dist::ZERO,
            agent_dispatch: Dist::ZERO,
        }
    }

    /// Uniformly scales all mean costs by `factor` (sensitivity ablation).
    pub fn scaled(&self, factor: f64) -> Self {
        fn scale(d: Dist, f: f64) -> Dist {
            match d {
                Dist::Constant(v) => Dist::Constant(v * f),
                Dist::Uniform { lo, hi } => Dist::Uniform {
                    lo: lo * f,
                    hi: hi * f,
                },
                Dist::Normal { mean, sd } => Dist::Normal {
                    mean: mean * f,
                    sd: sd * f,
                },
                Dist::Exponential { mean } => Dist::Exponential { mean: mean * f },
                Dist::LogNormal { mu, sigma } => Dist::LogNormal {
                    mu: mu + f.ln(),
                    sigma,
                },
            }
        }
        RuntimeOverheads {
            pilot_submission: scale(self.pilot_submission, factor),
            unit_submit_fixed: scale(self.unit_submit_fixed, factor),
            unit_submit_per_unit: scale(self.unit_submit_per_unit, factor),
            scheduling_per_unit: scale(self.scheduling_per_unit, factor),
            agent_dispatch: scale(self.agent_dispatch, factor),
        }
    }
}

impl Default for RuntimeOverheads {
    fn default() -> Self {
        Self::radical_pilot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entk_sim::SimRng;

    #[test]
    fn defaults_have_small_per_unit_costs() {
        let o = RuntimeOverheads::radical_pilot();
        assert!(o.unit_submit_per_unit.mean() < 0.1);
        assert!(o.scheduling_per_unit.mean() < 0.1);
        assert!(o.pilot_submission.mean() >= 1.0);
    }

    #[test]
    fn zero_overheads_sample_to_zero() {
        let o = RuntimeOverheads::zero();
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(o.pilot_submission.sample(&mut rng), 0.0);
            assert_eq!(o.agent_dispatch.sample(&mut rng), 0.0);
        }
    }

    #[test]
    fn scaling_multiplies_means() {
        let o = RuntimeOverheads::radical_pilot().scaled(10.0);
        let base = RuntimeOverheads::radical_pilot();
        assert!(
            (o.unit_submit_per_unit.mean() - 10.0 * base.unit_submit_per_unit.mean()).abs() < 1e-9
        );
        assert!((o.pilot_submission.mean() - 10.0 * base.pilot_submission.mean()).abs() < 1e-9);
    }
}
