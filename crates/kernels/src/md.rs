//! MD kernels: `md.amber`, `md.gromacs`, and `md.exchange`.
//!
//! The science kernels of the paper's workloads. Real execution integrates
//! the toy MD engine on the alanine-dipeptide surrogate; model execution
//! samples energies from the temperature-dependent distribution the real
//! engine produces. Cost models reproduce the runtime properties the paper
//! measures: MD time ∝ steps × atoms / cores, exchange time ∝ replicas.

use crate::plugin::{
    check_count, check_secs, count, linear_duration, one, Args, KernelError, TypedKernel, UnitPlan,
};
use entk_cluster::PlatformSpec;
use entk_md::{alanine_dipeptide_surrogate, exchange_probability, EngineFlavor, MdEngine};
use entk_sim::{SimDuration, SimRng};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Deserialize;
use serde_json::{json, Value};

/// Seconds per MD step per atom per core at perf_factor 1.0: calibrated so a
/// 2881-atom, 3000-step (6 ps) single-core segment costs ≈ 22 s.
const SECS_PER_STEP_ATOM: f64 = 2.5e-6;

/// Arguments of `md.amber` and `md.gromacs`.
#[derive(Deserialize)]
#[serde(deny_unknown_fields)]
pub(crate) struct MdArgs {
    /// Atoms in the system (the paper's solvated alanine dipeptide).
    #[serde(default = "count::<2881>")]
    n_atoms: u64,
    /// Integration steps of the segment (3000 = 6 ps).
    #[serde(default = "count::<3000>")]
    steps: u64,
    /// Thermostat temperature in reduced units.
    #[serde(default = "one")]
    temperature: f64,
    /// Seed of a real run's initial velocities and thermostat.
    #[serde(default)]
    seed: u64,
    /// Steps between recorded trajectory frames.
    #[serde(default = "count::<100>")]
    record_every: u64,
    /// Solute start conformations for a real run; the first row is applied
    /// when it holds three coordinates per solute atom.
    #[serde(default)]
    start: Option<Vec<Vec<f64>>>,
}

impl Args for MdArgs {
    fn check(&self) -> Result<(), KernelError> {
        check_count("n_atoms", self.n_atoms)?;
        check_count("steps", self.steps)?;
        check_count("record_every", self.record_every)?;
        if !(self.temperature.is_finite() && self.temperature > 0.0) {
            let why = format!("must be finite and > 0, got {:?}", self.temperature);
            return Err(KernelError::arg("temperature", why));
        }
        Ok(())
    }
}

impl MdArgs {
    /// Trajectory frames the segment records.
    fn frames(&self) -> u64 {
        (self.steps / self.record_every).max(1)
    }
}

/// An MD-segment kernel standing in for Amber (`md.amber`) or Gromacs
/// (`md.gromacs`).
#[derive(Debug)]
pub struct MdKernel {
    flavor: EngineFlavor,
}

impl MdKernel {
    /// Amber-flavored kernel.
    pub fn amber() -> Self {
        MdKernel {
            flavor: EngineFlavor::Amber,
        }
    }

    /// Gromacs-flavored kernel.
    pub fn gromacs() -> Self {
        MdKernel {
            flavor: EngineFlavor::Gromacs,
        }
    }
}

impl TypedKernel for MdKernel {
    type Args = MdArgs;

    fn name(&self) -> &str {
        match self.flavor {
            EngineFlavor::Amber => "md.amber",
            EngineFlavor::Gromacs => "md.gromacs",
        }
    }

    fn plan(
        &self,
        args: Self::Args,
        cores: usize,
        platform: &PlatformSpec,
        rng: &mut SimRng,
    ) -> Result<UnitPlan, KernelError> {
        let base = 0.5;
        let compute = SECS_PER_STEP_ATOM * args.steps as f64 * args.n_atoms as f64
            / (cores.max(1) as f64 * platform.perf_factor);
        let jitter = (1.0 + 0.03 * rng.standard_normal()).max(0.5);
        Ok(UnitPlan {
            duration: SimDuration::from_secs_f64((base + compute) * jitter),
            // Coordinates + velocities, 6 f64 per atom.
            input_bytes: args.n_atoms * 48,
            output_bytes: args.frames() * args.n_atoms.min(22) * 24,
        })
    }

    fn execute_model(&self, args: Self::Args, rng: &mut SimRng) -> Result<Value, KernelError> {
        // Potential-energy model matching the toy engine's behaviour:
        // per-particle mean rises roughly linearly with temperature.
        let mean = args.n_atoms as f64 * (-2.5 + 1.4 * args.temperature);
        let sd = (args.n_atoms as f64).sqrt() * 0.9;
        let potential = rng.normal(mean, sd);
        Ok(json!({
            "engine": self.name(),
            "potential": potential,
            "temperature": args.temperature,
            "n_frames": args.frames(),
            "modeled": true,
        }))
    }

    fn execute(&self, args: Self::Args) -> Result<Value, KernelError> {
        let (t, seed) = (args.temperature, args.seed);
        let mut sys = alanine_dipeptide_surrogate(args.n_atoms as usize, seed);
        // Apply a provided solute conformation (relative coordinates
        // around the current solute centroid).
        if let Some(conf) = args.start.as_ref().and_then(|rows| rows.first()) {
            if conf.len() == 3 * sys.n_solute {
                let centre = sys.box_len / 2.0;
                for i in 0..sys.n_solute {
                    for a in 0..3 {
                        sys.positions[i][a] = (centre + conf[3 * i + a]).rem_euclid(sys.box_len);
                    }
                }
            }
        }
        sys.thermalize(t, seed ^ 0xBEEF);
        let mut engine = MdEngine::new(self.flavor);
        engine.config.temperature = t;
        engine.config.record_every = args.record_every as usize;
        let result = engine.run(&mut sys, args.steps as usize, seed ^ 0xD1CE);
        let frames: Vec<Vec<f64>> = result.trajectory.frames().to_vec();
        Ok(json!({
            "engine": self.name(),
            "potential": result.final_potential,
            "temperature": result.mean_temperature,
            "n_frames": frames.len(),
            "frames": frames,
            "modeled": false,
        }))
    }
}

/// Arguments of `md.exchange`.
#[derive(Deserialize)]
#[serde(deny_unknown_fields)]
pub(crate) struct ExchangeArgs {
    /// Each replica's potential energy; needed to decide swaps.
    #[serde(default)]
    energies: Option<Vec<f64>>,
    /// Each replica's current temperature, in `energies`' order.
    #[serde(default)]
    temperatures: Option<Vec<f64>>,
    /// Replica count when only the cost is wanted and no `energies` are
    /// given.
    #[serde(default)]
    n_replicas: Option<u64>,
    /// Ladder pairing: even (0, 1)(2, 3)… or odd (1, 2)(3, 4)… by parity.
    #[serde(default)]
    phase: u64,
    /// Seed of the Metropolis draws.
    #[serde(default)]
    seed: u64,
    /// Cost-model slope in seconds per replica.
    #[serde(default = "default_per_replica_secs")]
    per_replica_secs: f64,
    /// Cost-model base in seconds on a `perf_factor` 1.0 platform.
    #[serde(default = "one")]
    base_secs: f64,
}

fn default_per_replica_secs() -> f64 {
    0.005
}

impl Args for ExchangeArgs {
    fn check(&self) -> Result<(), KernelError> {
        check_secs("base_secs", self.base_secs)?;
        check_secs("per_replica_secs", self.per_replica_secs)?;
        let Some(energies) = &self.energies else {
            return match self.n_replicas {
                Some(_) => Ok(()),
                None => Err(KernelError::new("need energies or n_replicas")),
            };
        };
        let temps = self.temperatures.as_deref().unwrap_or_default();
        if energies.len() != temps.len() {
            let (n, m) = (temps.len(), energies.len());
            let why = format!("length mismatch: {n} for {m} energies");
            return Err(KernelError::arg("temperatures", why));
        }
        for (key, values) in [("energies", energies.as_slice()), ("temperatures", temps)] {
            if let Some(bad) = values.iter().find(|v| !v.is_finite()) {
                return Err(KernelError::arg(
                    key,
                    format_args!("must be finite, got {bad:?}"),
                ));
            }
        }
        Ok(())
    }
}

/// The temperature-exchange kernel (`md.exchange`) used in the EE pattern's
/// exchange stage.
///
/// Stateless Metropolis sweep: given each replica's potential energy and
/// current temperature, decide neighbour swaps for the given `phase`
/// (even/odd pairing). Real and model execution are identical — the
/// decision *is* the computation.
#[derive(Debug, Default)]
pub struct ExchangeKernel;

impl ExchangeKernel {
    fn decide(args: ExchangeArgs) -> Result<Value, KernelError> {
        let energies = args
            .energies
            .ok_or_else(|| KernelError::new("missing energies"))?;
        // `check` matched its length to `energies`.
        let temps = args.temperatures.unwrap_or_default();
        let mut rng = StdRng::seed_from_u64(args.seed);

        // Order replicas by temperature, pair ladder neighbours.
        let n = energies.len();
        let mut by_temp: Vec<usize> = (0..n).collect();
        by_temp.sort_by(|&a, &b| temps[a].partial_cmp(&temps[b]).expect("finite temps"));
        let mut swaps = Vec::new();
        let mut attempted = 0u64;
        let mut k = args.phase as usize % 2;
        while k + 1 < n {
            let (ra, rb) = (by_temp[k], by_temp[k + 1]);
            let p = exchange_probability(energies[ra], temps[ra], energies[rb], temps[rb]);
            attempted += 1;
            if rng.random::<f64>() < p {
                swaps.push(json!([ra, rb]));
            }
            k += 2;
        }
        let accepted = swaps.len() as u64;
        Ok(json!({
            "swaps": swaps,
            "attempted": attempted,
            "accepted": accepted,
        }))
    }
}

impl TypedKernel for ExchangeKernel {
    type Args = ExchangeArgs;

    fn name(&self) -> &str {
        "md.exchange"
    }

    fn plan(
        &self,
        args: Self::Args,
        _cores: usize,
        platform: &PlatformSpec,
        rng: &mut SimRng,
    ) -> Result<UnitPlan, KernelError> {
        // `check` saw one of the two.
        let n = match &args.energies {
            Some(energies) => energies.len() as u64,
            None => args.n_replicas.unwrap_or(0),
        };
        let (base, per) = (args.base_secs, args.per_replica_secs);
        Ok(UnitPlan {
            duration: linear_duration(base, per, n, platform, rng),
            ..UnitPlan::default()
        })
    }

    fn execute_model(&self, args: Self::Args, _rng: &mut SimRng) -> Result<Value, KernelError> {
        Self::decide(args)
    }

    fn execute(&self, args: Self::Args) -> Result<Value, KernelError> {
        Self::decide(args)
    }
}

#[cfg(test)]
mod tests {
    use super::{ExchangeKernel, MdKernel};
    use crate::plugin::KernelPlugin;
    use entk_cluster::PlatformSpec;
    use entk_sim::SimRng;
    use serde_json::{json, Value};

    fn rng() -> SimRng {
        SimRng::seed_from_u64(1)
    }

    #[test]
    fn amber_real_run_produces_frames_and_energy() {
        let out = MdKernel::amber()
            .execute(&json!({ "n_atoms": 60, "steps": 100, "record_every": 50, "seed": 3 }))
            .unwrap();
        assert_eq!(out["engine"], "md.amber");
        assert_eq!(out["n_frames"], 2);
        assert!(out["potential"].as_f64().unwrap().is_finite());
        assert_eq!(out["frames"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn model_energy_tracks_temperature() {
        let mut r = rng();
        let sample = |t: f64, r: &mut SimRng| {
            (0..32)
                .map(|i| {
                    MdKernel::amber()
                        .execute_model(&json!({ "n_atoms": 500, "temperature": t, "seed": i }), r)
                        .unwrap()["potential"]
                        .as_f64()
                        .unwrap()
                })
                .sum::<f64>()
                / 32.0
        };
        let cold = sample(0.5, &mut r);
        let hot = sample(2.0, &mut r);
        assert!(hot > cold, "model energies: cold {cold}, hot {hot}");
    }

    #[test]
    fn md_cost_matches_paper_calibration() {
        // 2881 atoms, 6 ps (3000 steps), 1 core: ≈ 22 s on perf 1.0.
        let mut r = rng();
        let plan = MdKernel::amber().plan(&json!({}), 1, &PlatformSpec::comet(), &mut r);
        let c = plan.unwrap().duration.as_secs_f64();
        assert!((15.0..30.0).contains(&c), "cost {c}");
    }

    #[test]
    fn md_cost_scales_with_cores_steps_atoms() {
        let spec = PlatformSpec::comet();
        let mut r = SimRng::seed_from_u64(0);
        let mut cost = |args: Value, cores| {
            // Average over draws to suppress jitter.
            (0..16)
                .map(|_| {
                    let plan = MdKernel::amber().plan(&args, cores, &spec, &mut r);
                    plan.unwrap().duration.as_secs_f64()
                })
                .sum::<f64>()
                / 16.0
        };
        let base = cost(json!({ "steps": 3000 }), 1);
        let mpi16 = cost(json!({ "steps": 3000 }), 16);
        assert!(base / mpi16 > 8.0, "MPI speedup {}", base / mpi16);
        let short = cost(json!({ "steps": 300 }), 1);
        assert!(base / short > 5.0, "step scaling {}", base / short);
    }

    #[test]
    fn md_validation_rejects_nonsense() {
        let k = MdKernel::gromacs();
        for (args, path) in [
            (json!({ "steps": 0 }), "/steps"),
            (json!({ "n_atoms": 0 }), "/n_atoms"),
            (json!({ "record_every": 0 }), "/record_every"),
            (json!({ "temperature": -1.0 }), "/temperature"),
            (json!({ "stepz": 5 }), "/stepz"),
            (json!({ "steps": 5.5 }), "/steps"),
            (json!({ "start": [[0.0, "x"]] }), "/start/0/1"),
        ] {
            let err = k.validate(&args).unwrap_err();
            assert_eq!(err.path, path, "{err}");
            // Every face refuses what `validate` does, before drawing.
            let mut r = rng();
            let planned = k.plan(&args, 1, &PlatformSpec::comet(), &mut r);
            assert_eq!(planned.unwrap_err(), err);
            assert_eq!(k.execute_model(&args, &mut r).unwrap_err(), err);
            assert_eq!(k.execute(&args).unwrap_err(), err);
            assert_eq!(r.uniform(), rng().uniform(), "{path} drew from the rng");
        }
        assert!(k.validate(&json!({})).is_ok());
        // An integer reads where a float is declared.
        assert!(k.validate(&json!({ "temperature": 1 })).is_ok());
    }

    #[test]
    fn start_conformation_is_applied() {
        let conf: Vec<f64> = (0..66).map(|i| (i % 7) as f64 * 0.1).collect();
        let out = MdKernel::amber()
            .execute(&json!({
                "n_atoms": 60, "steps": 1, "record_every": 1, "seed": 5,
                "start": [conf],
            }))
            .unwrap();
        assert!(out["potential"].as_f64().unwrap().is_finite());
    }

    #[test]
    fn exchange_swaps_hot_low_energy_pairs() {
        // Replica 0: cold with high energy; replica 1: hot with low energy
        // => certain swap.
        let out = ExchangeKernel
            .execute(&json!({
                "energies": [100.0, -100.0],
                "temperatures": [0.5, 2.0],
                "seed": 1,
            }))
            .unwrap();
        assert_eq!(out["attempted"], 1);
        assert_eq!(out["accepted"], 1);
        assert_eq!(out["swaps"][0][0], 0);
        assert_eq!(out["swaps"][0][1], 1);
    }

    #[test]
    fn exchange_phase_shifts_pairing() {
        let args = |phase: u64| {
            json!({
                "energies": [0.0, 0.0, 0.0, 0.0],
                "temperatures": [1.0, 1.2, 1.4, 1.6],
                "phase": phase,
            })
        };
        let even = ExchangeKernel.execute(&args(0)).unwrap();
        let odd = ExchangeKernel.execute(&args(1)).unwrap();
        assert_eq!(even["attempted"], 2);
        assert_eq!(odd["attempted"], 1);
    }

    #[test]
    fn exchange_cost_linear_in_replicas() {
        let spec = PlatformSpec::supermic();
        let mut r = SimRng::seed_from_u64(2);
        let avg_cost = |n: u64, r: &mut SimRng| {
            (0..16)
                .map(|_| {
                    let plan = ExchangeKernel.plan(&json!({ "n_replicas": n }), 1, &spec, r);
                    plan.unwrap().duration.as_secs_f64()
                })
                .sum::<f64>()
                / 16.0
        };
        let small = avg_cost(20, &mut r);
        let large = avg_cost(2560, &mut r);
        assert!(large > small + 10.0, "exchange cost: {small} -> {large}");
    }

    #[test]
    fn exchange_rejects_mismatched_arrays() {
        let err = ExchangeKernel
            .execute(&json!({ "energies": [1.0], "temperatures": [1.0, 2.0] }))
            .unwrap_err();
        assert!(err.message.contains("mismatch"));
        // `validate` refuses it too, and missing or unusable inputs.
        for (args, why) in [
            (
                json!({ "energies": [1.0], "temperatures": [1.0, 2.0] }),
                "mismatch",
            ),
            (json!({ "energies": [1.0] }), "mismatch"),
            (
                json!({ "temperatures": [1.0] }),
                "need energies or n_replicas",
            ),
            (
                json!({ "n_replicas": 4, "per_replica_secs": -1.0 }),
                "per_replica_secs must",
            ),
            (
                json!({ "n_replicas": 2.5 }),
                "n_replicas: expected unsigned",
            ),
        ] {
            let err = ExchangeKernel.validate(&args).unwrap_err();
            assert!(err.message.contains(why), "{args}: {err}");
        }
        assert!(ExchangeKernel.validate(&json!({ "n_replicas": 4 })).is_ok());
    }
}
