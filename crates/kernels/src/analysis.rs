//! Analysis kernels: `ana.coco`, `ana.lsdmap` and `ana.wham`.
//!
//! CoCo and LSDMap are *serial* analyses over the whole ensemble, so their
//! cost grows linearly with the number of contributing simulations — the
//! property the paper's SAL scaling figures (7 and 8) exhibit.

use crate::plugin::{
    check_secs, count, linear_duration, one, Args, KernelError, TypedKernel, UnitPlan,
};
use entk_analysis::{coco, lsdmap, CocoConfig, LsdmapConfig};
use entk_cluster::PlatformSpec;
use entk_sim::SimRng;
use serde::Deserialize;
use serde_json::{json, Value};

/// Refuses a call carrying neither a real run's frames nor a model run's
/// simulation count.
fn needs_input(frames: &Option<Vec<Vec<f64>>>, n_sims: Option<u64>) -> Result<(), KernelError> {
    match (frames, n_sims) {
        (None, None) => Err(KernelError::new("need frames (real) or n_sims (model)")),
        _ => Ok(()),
    }
}

/// Arguments of `ana.coco`.
#[derive(Deserialize)]
#[serde(deny_unknown_fields)]
pub(crate) struct CocoArgs {
    /// Trajectory frames a real run analyses, one row of coordinates each.
    #[serde(default)]
    frames: Option<Vec<Vec<f64>>>,
    /// Simulations a model run stands for: drives cost and input staging.
    /// A call with `frames` alone plans as 0 of them.
    #[serde(default)]
    n_sims: Option<u64>,
    /// New starting conformations to suggest.
    #[serde(default = "count::<1>")]
    n_new: u64,
    /// Principal components spanning the sampled space (real runs).
    #[serde(default = "count::<2>")]
    n_components: u64,
    /// Histogram bins per component (real runs).
    #[serde(default = "count::<10>")]
    grid: u64,
    /// Cost-model base in seconds on a `perf_factor` 1.0 platform.
    #[serde(default = "default_coco_base_secs")]
    base_secs: f64,
    /// Cost-model slope in seconds per simulation.
    #[serde(default = "default_coco_per_sim_secs")]
    per_sim_secs: f64,
}

fn default_coco_base_secs() -> f64 {
    5.0
}

fn default_coco_per_sim_secs() -> f64 {
    0.05
}

impl Args for CocoArgs {
    fn check(&self) -> Result<(), KernelError> {
        needs_input(&self.frames, self.n_sims)?;
        check_secs("base_secs", self.base_secs)?;
        check_secs("per_sim_secs", self.per_sim_secs)
    }
}

/// CoCo analysis kernel (`ana.coco`).
///
/// Real mode consumes `frames` and emits `n_new` suggested starting
/// conformations. Model mode consumes `n_sims` and emits placeholder
/// bookkeeping. Cost: `base_secs + per_sim_secs × n_sims`.
#[derive(Debug, Default)]
pub struct CocoKernel;

impl TypedKernel for CocoKernel {
    type Args = CocoArgs;

    fn name(&self) -> &str {
        "ana.coco"
    }

    fn plan(
        &self,
        args: Self::Args,
        _cores: usize,
        platform: &PlatformSpec,
        rng: &mut SimRng,
    ) -> Result<UnitPlan, KernelError> {
        let n_sims = args.n_sims.unwrap_or(0);
        Ok(UnitPlan {
            duration: linear_duration(args.base_secs, args.per_sim_secs, n_sims, platform, rng),
            input_bytes: n_sims * 16 * 1024,
            output_bytes: args.n_new * 8 * 1024,
        })
    }

    fn execute_model(&self, args: Self::Args, rng: &mut SimRng) -> Result<Value, KernelError> {
        Ok(json!({
            "n_new": args.n_new,
            "occupancy": 0.1 + 0.4 * rng.uniform(),
            "modeled": true,
        }))
    }

    fn execute(&self, args: Self::Args) -> Result<Value, KernelError> {
        let frames = args
            .frames
            .ok_or_else(|| KernelError::new("missing frames for real CoCo"))?;
        if frames.is_empty() {
            return Err(KernelError::new("CoCo needs at least one frame"));
        }
        let config = CocoConfig {
            n_components: args.n_components as usize,
            grid: args.grid as usize,
        };
        let result = coco(&frames, args.n_new as usize, config);
        Ok(json!({
            "n_new": result.new_starts.len(),
            "new_starts": result.new_starts,
            "occupancy": result.occupancy,
            "modeled": false,
        }))
    }
}

/// Arguments of `ana.lsdmap`.
#[derive(Deserialize)]
#[serde(deny_unknown_fields)]
pub(crate) struct LsdmapArgs {
    /// Trajectory frames a real run embeds, one row of coordinates each.
    #[serde(default)]
    frames: Option<Vec<Vec<f64>>>,
    /// Simulations a model run stands for: drives cost and input staging.
    /// A call with `frames` alone plans as 0 of them.
    #[serde(default)]
    n_sims: Option<u64>,
    /// Leading diffusion coordinates to return (real runs).
    #[serde(default = "count::<2>")]
    n_coords: u64,
    /// Scale on the kernel bandwidth the real run estimates.
    #[serde(default = "one")]
    epsilon_scale: f64,
    /// Cost-model base in seconds on a `perf_factor` 1.0 platform.
    #[serde(default = "default_lsdmap_base_secs")]
    base_secs: f64,
    /// Cost-model slope in seconds per simulation.
    #[serde(default = "default_lsdmap_per_sim_secs")]
    per_sim_secs: f64,
}

fn default_lsdmap_base_secs() -> f64 {
    4.0
}

fn default_lsdmap_per_sim_secs() -> f64 {
    0.04
}

impl Args for LsdmapArgs {
    fn check(&self) -> Result<(), KernelError> {
        needs_input(&self.frames, self.n_sims)?;
        check_secs("base_secs", self.base_secs)?;
        check_secs("per_sim_secs", self.per_sim_secs)
    }
}

/// LSDMap analysis kernel (`ana.lsdmap`).
///
/// Real mode runs a diffusion map over `frames` and returns the leading
/// diffusion coordinates; model mode uses `n_sims`. Cost: `base_secs +
/// per_sim_secs × n_sims`.
#[derive(Debug, Default)]
pub struct LsdmapKernel;

impl TypedKernel for LsdmapKernel {
    type Args = LsdmapArgs;

    fn name(&self) -> &str {
        "ana.lsdmap"
    }

    fn plan(
        &self,
        args: Self::Args,
        _cores: usize,
        platform: &PlatformSpec,
        rng: &mut SimRng,
    ) -> Result<UnitPlan, KernelError> {
        let n_sims = args.n_sims.unwrap_or(0);
        Ok(UnitPlan {
            duration: linear_duration(args.base_secs, args.per_sim_secs, n_sims, platform, rng),
            input_bytes: n_sims * 16 * 1024,
            output_bytes: 0,
        })
    }

    fn execute_model(&self, _args: Self::Args, rng: &mut SimRng) -> Result<Value, KernelError> {
        Ok(json!({
            "spectral_gap": 0.2 + 0.6 * rng.uniform(),
            "modeled": true,
        }))
    }

    fn execute(&self, args: Self::Args) -> Result<Value, KernelError> {
        let frames = args
            .frames
            .ok_or_else(|| KernelError::new("missing frames for real LSDMap"))?;
        if frames.len() < 2 {
            return Err(KernelError::new("LSDMap needs at least two frames"));
        }
        let config = LsdmapConfig {
            n_coords: args.n_coords as usize,
            epsilon_scale: args.epsilon_scale,
        };
        let result = lsdmap(&frames, config);
        let gap = if result.eigenvalues.len() > 2 {
            result.eigenvalues[1] - result.eigenvalues[2]
        } else {
            0.0
        };
        Ok(json!({
            "coords": result.coords,
            "eigenvalues": result.eigenvalues[..result.eigenvalues.len().min(8)],
            "spectral_gap": gap,
            "epsilon": result.epsilon,
            "modeled": false,
        }))
    }
}

/// Arguments of `ana.wham`.
#[derive(Deserialize)]
#[serde(deny_unknown_fields)]
pub(crate) struct WhamArgs {
    /// Per-replica potential-energy samples a real run combines.
    #[serde(default)]
    energy_samples: Option<Vec<Vec<f64>>>,
    /// Each replica's temperature, in `energy_samples`' order (real runs).
    #[serde(default)]
    temperatures: Option<Vec<f64>>,
    /// Temperatures to evaluate observables at; `temperatures` when absent.
    #[serde(default)]
    target_temps: Option<Vec<f64>>,
    /// Energy histogram bins (at least 2 are used).
    #[serde(default = "count::<60>")]
    n_bins: u64,
    /// Samples a model run stands for: drives cost and input staging. A
    /// call with `energy_samples` alone plans as 10 000 of them.
    #[serde(default)]
    n_samples: Option<u64>,
    /// Cost-model base in seconds on a `perf_factor` 1.0 platform.
    #[serde(default = "default_wham_base_secs")]
    base_secs: f64,
    /// Cost-model slope in seconds per sample.
    #[serde(default = "default_per_sample_secs")]
    per_sample_secs: f64,
}

fn default_wham_base_secs() -> f64 {
    2.0
}

fn default_per_sample_secs() -> f64 {
    2e-5
}

impl Args for WhamArgs {
    fn check(&self) -> Result<(), KernelError> {
        if self.energy_samples.is_none() && self.n_samples.is_none() {
            return Err(KernelError::new(
                "need energy_samples (real) or n_samples (model)",
            ));
        }
        check_secs("base_secs", self.base_secs)?;
        check_secs("per_sample_secs", self.per_sample_secs)
    }
}

/// WHAM post-processing kernel (`ana.wham`): combines per-replica energy
/// histograms from a T-REMD run into density-of-states estimates and
/// thermodynamic observables at arbitrary temperatures. Model mode:
/// `n_samples` drives the cost only.
#[derive(Debug, Default)]
pub struct WhamKernel;

impl TypedKernel for WhamKernel {
    type Args = WhamArgs;

    fn name(&self) -> &str {
        "ana.wham"
    }

    fn plan(
        &self,
        args: Self::Args,
        _cores: usize,
        platform: &PlatformSpec,
        rng: &mut SimRng,
    ) -> Result<UnitPlan, KernelError> {
        let n = args.n_samples.unwrap_or(10_000);
        Ok(UnitPlan {
            duration: linear_duration(args.base_secs, args.per_sample_secs, n, platform, rng),
            input_bytes: n * 8,
            output_bytes: 0,
        })
    }

    fn execute_model(&self, _args: Self::Args, rng: &mut SimRng) -> Result<Value, KernelError> {
        Ok(json!({ "converged": true, "residual": 1e-9 * rng.uniform(), "modeled": true }))
    }

    fn execute(&self, args: Self::Args) -> Result<Value, KernelError> {
        let samples = args
            .energy_samples
            .ok_or_else(|| KernelError::new("missing energy_samples"))?;
        let temps = args
            .temperatures
            .ok_or_else(|| KernelError::new("missing temperatures"))?;
        if samples.len() != temps.len() {
            return Err(KernelError::new(
                "energy_samples/temperatures length mismatch",
            ));
        }
        if samples.iter().all(Vec::is_empty) {
            return Err(KernelError::new("no energy samples"));
        }
        let result = entk_analysis::wham(&samples, &temps, (args.n_bins as usize).max(2), 500);
        let targets = args.target_temps.unwrap_or_else(|| temps.clone());
        let mean_energies: Vec<f64> = targets.iter().map(|&t| result.mean_energy_at(t)).collect();
        let heat_capacities: Vec<f64> = targets
            .iter()
            .map(|&t| result.heat_capacity_at(t))
            .collect();
        Ok(json!({
            "target_temps": targets,
            "mean_energies": mean_energies,
            "heat_capacities": heat_capacities,
            "f_k": result.f_k,
            "residual": result.residual,
            "iterations": result.iterations,
            "modeled": false,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::{CocoKernel, LsdmapKernel, WhamKernel};
    use crate::plugin::KernelPlugin;
    use entk_cluster::PlatformSpec;
    use entk_sim::SimRng;
    use serde_json::{json, Value};

    fn rng() -> SimRng {
        SimRng::seed_from_u64(1)
    }

    fn blob_frames(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let c = if i % 2 == 0 { 0.0 } else { 15.0 };
                vec![c + (i % 5) as f64 * 0.1, c - (i % 3) as f64 * 0.1, c]
            })
            .collect()
    }

    #[test]
    fn coco_real_returns_new_starts() {
        let out = CocoKernel
            .execute(&json!({ "frames": blob_frames(40), "n_new": 5 }))
            .unwrap();
        assert_eq!(out["n_new"], 5);
        assert_eq!(out["new_starts"].as_array().unwrap().len(), 5);
        assert!(out["occupancy"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn coco_model_needs_n_sims() {
        assert!(CocoKernel.validate(&json!({})).is_err());
        let out = CocoKernel
            .execute_model(&json!({ "n_sims": 64, "n_new": 8 }), &mut rng())
            .unwrap();
        assert_eq!(out["n_new"], 8);
        assert_eq!(out["modeled"], true);
    }

    #[test]
    fn analysis_cost_is_serial_and_linear() {
        let spec = PlatformSpec::stampede();
        let mut r = rng();
        let avg = |n: u64, cores: usize, r: &mut SimRng| {
            (0..16)
                .map(|_| {
                    let plan = CocoKernel.plan(&json!({ "n_sims": n }), cores, &spec, r);
                    plan.unwrap().duration.as_secs_f64()
                })
                .sum::<f64>()
                / 16.0
        };
        // Serial: cores do not help.
        let c1 = avg(1024, 1, &mut r);
        let c64 = avg(1024, 64, &mut r);
        assert!(
            (c1 - c64).abs() / c1 < 0.1,
            "serial analysis: {c1} vs {c64}"
        );
        // Linear growth in simulations (Fig. 8's analysis curve).
        let small = avg(64, 1, &mut r);
        let large = avg(4096, 1, &mut r);
        assert!(large / small > 10.0, "growth {small} -> {large}");
    }

    #[test]
    fn lsdmap_real_separates_two_blobs() {
        let out = LsdmapKernel
            .execute(&json!({ "frames": blob_frames(30), "n_coords": 2 }))
            .unwrap();
        assert!(out["spectral_gap"].as_f64().unwrap() > 0.0);
        assert_eq!(out["coords"].as_array().unwrap().len(), 30);
    }

    #[test]
    fn lsdmap_rejects_tiny_inputs() {
        assert!(LsdmapKernel
            .execute(&json!({ "frames": [[1.0, 2.0]] }))
            .is_err());
        assert!(LsdmapKernel.execute(&json!({})).is_err());
    }

    #[test]
    fn staging_grows_with_ensemble() {
        let (spec, mut r) = (PlatformSpec::stampede(), rng());
        let mut staged = |kernel: &dyn KernelPlugin, args: Value| {
            let plan = kernel.plan(&args, 1, &spec, &mut r).unwrap();
            (plan.input_bytes, plan.output_bytes)
        };
        let coco = |n_sims: u64| json!({ "n_sims": n_sims, "n_new": 3 });
        assert_eq!(
            staged(&CocoKernel, coco(64)),
            (64 * 16 * 1024, 3 * 8 * 1024)
        );
        assert_eq!(staged(&CocoKernel, coco(1024)).0, 1024 * 16 * 1024);
        assert_eq!(
            staged(&LsdmapKernel, json!({ "n_sims": 64 })),
            (64 * 16 * 1024, 0)
        );
        // One default per key: a call with real input alone plans as 0
        // simulations, staging included.
        assert_eq!(
            staged(&CocoKernel, json!({ "frames": [[1.0]] })),
            (0, 8 * 1024)
        );
        assert_eq!(staged(&WhamKernel, json!({ "n_samples": 500 })), (4000, 0));
    }
}

#[cfg(test)]
mod wham_kernel_tests {
    use super::WhamKernel;
    use crate::plugin::KernelPlugin;
    use entk_cluster::PlatformSpec;
    use entk_sim::SimRng;
    use serde_json::json;

    #[test]
    fn wham_kernel_computes_observables() {
        // Energies scaling with temperature (like a real system).
        let samples: Vec<Vec<f64>> = [0.5, 1.0, 2.0]
            .iter()
            .map(|&t: &f64| {
                (0..2000)
                    .map(|i| t * (4.0 + ((i * 37) % 100) as f64 / 50.0))
                    .collect()
            })
            .collect();
        let out = WhamKernel
            .execute(&json!({
                "energy_samples": samples,
                "temperatures": [0.5, 1.0, 2.0],
                "target_temps": [0.75, 1.5],
            }))
            .unwrap();
        let means = out["mean_energies"].as_array().unwrap();
        assert_eq!(means.len(), 2);
        assert!(means[0].as_f64().unwrap() < means[1].as_f64().unwrap());
    }

    #[test]
    fn wham_kernel_validates_inputs() {
        assert!(WhamKernel.validate(&json!({})).is_err());
        assert!(WhamKernel
            .execute(&json!({ "energy_samples": [[1.0]], "temperatures": [1.0, 2.0] }))
            .is_err());
        assert!(WhamKernel
            .execute(&json!({ "energy_samples": [[]], "temperatures": [1.0] }))
            .is_err());
    }

    #[test]
    fn wham_cost_scales_with_samples() {
        let spec = PlatformSpec::supermic();
        let mut r = SimRng::seed_from_u64(1);
        let mut cost = |n: u64| {
            let plan = WhamKernel.plan(&json!({ "n_samples": n }), 1, &spec, &mut r);
            plan.unwrap().duration.as_secs_f64()
        };
        let small = cost(1000);
        let large = cost(1_000_000);
        assert!(large > small + 10.0);
    }
}
