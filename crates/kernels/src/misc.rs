//! Utility kernels: `misc.mkfile`, `misc.ccount`, `misc.sleep`, `misc.stress`.
//!
//! `mkfile` and `ccount` are the two kernels of the paper's validation
//! application (Fig. 3): stage 1 creates a file per task, stage 2 counts the
//! characters in it.

use crate::plugin::{check_secs, count, one, Args, KernelError, TypedKernel, UnitPlan};
use entk_cluster::PlatformSpec;
use entk_sim::{SimDuration, SimRng};
use serde::Deserialize;
use serde_json::{json, Value};
use std::io::{Read, Write};

/// Arguments of `misc.mkfile` and `misc.ccount`.
#[derive(Deserialize)]
#[serde(deny_unknown_fields)]
pub(crate) struct FileArgs {
    /// The file a real run creates (`mkfile`) or reads (`ccount`); a
    /// simulated run never opens it.
    #[serde(default)]
    path: Option<String>,
    /// Characters `mkfile` writes and stages out; the size a simulated
    /// `ccount` stages in and reports.
    #[serde(default = "count::<1024>")]
    bytes: u64,
    /// Cost-model base in seconds on a `perf_factor` 1.0 platform.
    #[serde(default = "one")]
    base_secs: f64,
}

impl Args for FileArgs {
    fn check(&self) -> Result<(), KernelError> {
        check_secs("base_secs", self.base_secs)
    }
}

impl FileArgs {
    /// Constant base plus the file's transfer time, with a 2 % jitter.
    fn duration(&self, platform: &PlatformSpec, rng: &mut SimRng) -> SimDuration {
        let io = self.bytes as f64 / platform.fs_bandwidth;
        let jitter = 1.0 + 0.02 * rng.standard_normal();
        SimDuration::from_secs_f64((self.base_secs / platform.perf_factor + io) * jitter.max(0.5))
    }

    fn path(&self, kernel: &str) -> Result<&str, KernelError> {
        self.path
            .as_deref()
            .ok_or_else(|| KernelError::new(format!("a real {kernel} needs a path")))
    }
}

/// Creates a file of `bytes` characters at `path` (real mode), or models a
/// constant-time file creation (simulated mode).
#[derive(Debug, Default)]
pub struct MkfileKernel;

impl TypedKernel for MkfileKernel {
    type Args = FileArgs;

    fn name(&self) -> &str {
        "misc.mkfile"
    }

    fn plan(
        &self,
        args: Self::Args,
        _cores: usize,
        platform: &PlatformSpec,
        rng: &mut SimRng,
    ) -> Result<UnitPlan, KernelError> {
        Ok(UnitPlan {
            duration: args.duration(platform, rng),
            input_bytes: 0,
            output_bytes: args.bytes,
        })
    }

    fn execute_model(&self, args: Self::Args, _rng: &mut SimRng) -> Result<Value, KernelError> {
        Ok(json!({ "bytes": args.bytes }))
    }

    fn execute(&self, args: Self::Args) -> Result<Value, KernelError> {
        let path = args.path("mkfile")?;
        let bytes = args.bytes as usize;
        let mut f = std::fs::File::create(path)
            .map_err(|e| KernelError::new(format!("mkfile {path:?}: {e}")))?;
        let chunk = vec![b'x'; 8192.min(bytes.max(1))];
        let mut written = 0;
        while written < bytes {
            let n = chunk.len().min(bytes - written);
            f.write_all(&chunk[..n])
                .map_err(|e| KernelError::new(format!("mkfile write: {e}")))?;
            written += n;
        }
        Ok(json!({ "bytes": written, "path": path }))
    }
}

/// Counts characters in a file (real mode) or reports the modelled size
/// (simulated mode).
#[derive(Debug, Default)]
pub struct CcountKernel;

impl TypedKernel for CcountKernel {
    type Args = FileArgs;

    fn name(&self) -> &str {
        "misc.ccount"
    }

    fn plan(
        &self,
        args: Self::Args,
        _cores: usize,
        platform: &PlatformSpec,
        rng: &mut SimRng,
    ) -> Result<UnitPlan, KernelError> {
        Ok(UnitPlan {
            duration: args.duration(platform, rng),
            input_bytes: args.bytes,
            output_bytes: 0,
        })
    }

    fn execute_model(&self, args: Self::Args, _rng: &mut SimRng) -> Result<Value, KernelError> {
        Ok(json!({ "chars": args.bytes }))
    }

    fn execute(&self, args: Self::Args) -> Result<Value, KernelError> {
        let path = args.path("ccount")?;
        let mut f = std::fs::File::open(path)
            .map_err(|e| KernelError::new(format!("ccount {path:?}: {e}")))?;
        let mut buf = [0u8; 8192];
        let mut count: u64 = 0;
        loop {
            let n = f
                .read(&mut buf)
                .map_err(|e| KernelError::new(format!("ccount read: {e}")))?;
            if n == 0 {
                break;
            }
            count += n as u64;
        }
        Ok(json!({ "chars": count, "path": path }))
    }
}

/// Arguments of `misc.sleep`.
#[derive(Deserialize)]
#[serde(deny_unknown_fields)]
pub(crate) struct SleepArgs {
    /// Seconds the task occupies its cores (required). A real run sleeps
    /// at most 5 of them.
    secs: f64,
}

impl Args for SleepArgs {
    fn check(&self) -> Result<(), KernelError> {
        check_secs("secs", self.secs)
    }
}

/// Fixed-duration kernel for tests and calibration.
#[derive(Debug, Default)]
pub struct SleepKernel;

impl TypedKernel for SleepKernel {
    type Args = SleepArgs;

    fn name(&self) -> &str {
        "misc.sleep"
    }

    fn plan(
        &self,
        args: Self::Args,
        _cores: usize,
        _platform: &PlatformSpec,
        _rng: &mut SimRng,
    ) -> Result<UnitPlan, KernelError> {
        Ok(UnitPlan {
            duration: SimDuration::from_secs_f64(args.secs),
            ..UnitPlan::default()
        })
    }

    fn execute_model(&self, args: Self::Args, _rng: &mut SimRng) -> Result<Value, KernelError> {
        Ok(json!({ "slept": args.secs }))
    }

    fn execute(&self, args: Self::Args) -> Result<Value, KernelError> {
        std::thread::sleep(std::time::Duration::from_secs_f64(args.secs.min(5.0)));
        Ok(json!({ "slept": args.secs }))
    }
}

/// Arguments of `misc.stress`.
#[derive(Deserialize)]
#[serde(deny_unknown_fields)]
pub(crate) struct StressArgs {
    /// Square roots to sum.
    #[serde(default = "count::<1_000_000>")]
    iters: u64,
}

impl Args for StressArgs {}

/// CPU-burning kernel for local throughput experiments.
#[derive(Debug, Default)]
pub struct StressKernel;

impl TypedKernel for StressKernel {
    type Args = StressArgs;

    fn name(&self) -> &str {
        "misc.stress"
    }

    fn plan(
        &self,
        args: Self::Args,
        cores: usize,
        platform: &PlatformSpec,
        _rng: &mut SimRng,
    ) -> Result<UnitPlan, KernelError> {
        // ~50 M simple float ops per second per modelled core.
        let secs = args.iters as f64 / (5e7 * platform.perf_factor * cores as f64);
        Ok(UnitPlan {
            duration: SimDuration::from_secs_f64(secs),
            ..UnitPlan::default()
        })
    }

    fn execute_model(&self, args: Self::Args, _rng: &mut SimRng) -> Result<Value, KernelError> {
        Ok(json!({ "iters": args.iters }))
    }

    fn execute(&self, args: Self::Args) -> Result<Value, KernelError> {
        let mut acc = 0.0f64;
        for i in 0..args.iters {
            acc += ((i % 1000) as f64).sqrt();
        }
        Ok(json!({ "iters": args.iters, "acc": acc }))
    }
}

#[cfg(test)]
mod tests {
    use super::{CcountKernel, MkfileKernel, SleepKernel, StressKernel};
    use crate::plugin::{KernelPlugin, UnitPlan};
    use entk_cluster::PlatformSpec;
    use entk_sim::{SimDuration, SimRng};
    use serde_json::{json, Value};

    fn rng() -> SimRng {
        SimRng::seed_from_u64(1)
    }

    /// The planned duration in seconds.
    fn cost(
        kernel: &dyn KernelPlugin,
        args: Value,
        cores: usize,
        platform: &PlatformSpec,
        rng: &mut SimRng,
    ) -> f64 {
        let plan = kernel.plan(&args, cores, platform, rng).unwrap();
        plan.duration.as_secs_f64()
    }

    #[test]
    fn mkfile_then_ccount_roundtrip_on_disk() {
        let dir = std::env::temp_dir().join("entk-kernels-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mkfile-roundtrip.txt");
        let path_s = path.to_str().unwrap();

        let out = MkfileKernel
            .execute(&json!({ "path": path_s, "bytes": 20_000 }))
            .unwrap();
        assert_eq!(out["bytes"], 20_000);

        let counted = CcountKernel.execute(&json!({ "path": path_s })).unwrap();
        assert_eq!(counted["chars"], 20_000);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ccount_missing_file_fails() {
        let err = CcountKernel
            .execute(&json!({ "path": "/nonexistent/entk/file" }))
            .unwrap_err();
        assert!(err.message.contains("ccount"));
    }

    #[test]
    fn mkfile_model_matches_bytes() {
        let out = MkfileKernel
            .execute_model(&json!({ "bytes": 4096 }), &mut rng())
            .unwrap();
        assert_eq!(out["bytes"], 4096);
        // A misspelt or mistyped size must not model the default 1024.
        for args in [json!({ "byts": 4096 }), json!({ "bytes": "4 KiB" })] {
            assert!(MkfileKernel.execute_model(&args, &mut rng()).is_err());
            assert!(CcountKernel.validate(&args).is_err());
        }
    }

    #[test]
    fn costs_are_near_base_and_platform_scaled() {
        let comet = PlatformSpec::comet();
        let mut r = rng();
        let c = cost(
            &MkfileKernel,
            json!({ "base_secs": 2.0 }),
            1,
            &comet,
            &mut r,
        );
        assert!((c - 2.0).abs() < 0.3, "cost {c}");
        // Slower platform (perf_factor < 1) costs more.
        let supermic = PlatformSpec::supermic();
        let c2 = cost(
            &CcountKernel,
            json!({ "base_secs": 2.0 }),
            1,
            &supermic,
            &mut r,
        );
        assert!(c2 > 2.0, "cost {c2}");
    }

    #[test]
    fn sleep_validates_and_models() {
        assert!(SleepKernel.validate(&json!({})).is_err());
        assert!(SleepKernel.validate(&json!({ "secs": 3.0 })).is_ok());
        // Ran as a zero-second task, died at the wall time, or panicked
        // the real sleep.
        for secs in [-5.0, 1e300] {
            let args = json!({ "secs": secs });
            let err = SleepKernel.validate(&args).unwrap_err();
            assert_eq!(err.path, "/secs", "{err}");
            assert_eq!(SleepKernel.execute(&args).unwrap_err(), err);
        }
        let plan = SleepKernel
            .plan(&json!({ "secs": 3 }), 1, &PlatformSpec::comet(), &mut rng())
            .unwrap();
        let three_secs = UnitPlan {
            duration: SimDuration::from_secs(3),
            ..UnitPlan::default()
        };
        assert_eq!(plan, three_secs);
    }

    #[test]
    fn stress_cost_scales_inverse_with_cores() {
        let comet = PlatformSpec::comet();
        let mut r = rng();
        let args = json!({ "iters": 100_000_000u64 });
        let c1 = cost(&StressKernel, args.clone(), 1, &comet, &mut r);
        let c4 = cost(&StressKernel, args, 4, &comet, &mut r);
        assert!((c1 / c4 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn stress_executes_real_work() {
        let out = StressKernel
            .execute(&json!({ "iters": 10_000u64 }))
            .unwrap();
        assert!(out["acc"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn staging_sizes_follow_bytes() {
        let (comet, mut r) = (PlatformSpec::comet(), rng());
        let made = MkfileKernel.plan(&json!({ "bytes": 555 }), 1, &comet, &mut r);
        let made = made.unwrap();
        assert_eq!((made.input_bytes, made.output_bytes), (0, 555));
        let counted = CcountKernel.plan(&json!({ "bytes": 777 }), 1, &comet, &mut r);
        let counted = counted.unwrap();
        assert_eq!((counted.input_bytes, counted.output_bytes), (777, 0));
    }
}
