//! The kernel-plugin abstraction (paper §III-B, component 2).
//!
//! A kernel plugin "abstracts a computational task … an instantiation of a
//! specific science tool along with the required software environment",
//! hiding tool- and resource-specific peculiarities. Here a plugin exposes
//! three faces over one set of declared arguments:
//!
//! * a **plan** — the platform-aware estimated runtime and the staging
//!   volumes of one unit, used when units execute in virtual time;
//! * a **model execution** — a cheap surrogate producing the *semantic*
//!   outputs patterns need (energies for exchanges, new starts from
//!   analysis) during simulated runs;
//! * a **real execution** — the actual computation (file I/O, toy MD,
//!   PCA/diffusion maps) for local runs.
//!
//! A built-in kernel declares its arguments as one crate-private
//! `#[serde(deny_unknown_fields)]` struct: its fields, their
//! `#[serde(default = …)]`s and their doc comments are the only statement
//! of the keys the kernel takes, their types and their defaults, and its
//! `Args::check` the only statement of the values it refuses. It
//! implements only the crate-private `TypedKernel`, whose faces take that
//! struct, and one blanket [`KernelPlugin`] impl reads the JSON arguments
//! through `parse` before each face and is its `validate`. So no built-in reads its
//! `args` any other way, and a misspelt key, a wrong type or an impossible
//! value is the same [`KernelError`] wherever it is met — at `entk check`,
//! at submission, or at execution — before anything is drawn.

use entk_cluster::PlatformSpec;
use entk_sim::{SimDuration, SimRng};
use serde::{Deserialize, Map};
use serde_json::Value;
use std::fmt;

/// Error raised by kernel validation or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelError {
    /// What went wrong.
    pub message: String,
    /// The JSON pointer of the value at fault within the arguments
    /// (`/start/0/1`; [`serde::DeError::pointer`] of a value that did not
    /// read), or `""` when no one argument is: a spec loader appends it to
    /// the template's `args` and points at that line.
    pub path: String,
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kernel error: {}", self.message)
    }
}

impl std::error::Error for KernelError {}

impl KernelError {
    /// Convenience constructor.
    pub fn new(msg: impl Into<String>) -> Self {
        KernelError {
            message: msg.into(),
            path: String::new(),
        }
    }

    /// An error about the value of argument `key`: "`key` `why`".
    pub fn arg(key: &str, why: impl fmt::Display) -> Self {
        KernelError {
            message: format!("{key} {why}"),
            path: format!("/{key}"),
        }
    }
}

/// A bound kernel invocation: plugin name plus instantiation arguments.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct KernelCall {
    /// Registry key, e.g. `"md.amber"`.
    pub plugin: String,
    /// Kernel-specific arguments.
    pub args: Value,
    /// Cores the task uses.
    pub cores: usize,
    /// Whether the task is MPI (multi-core).
    pub mpi: bool,
}

impl KernelCall {
    /// Creates a single-core call.
    pub fn new(plugin: impl Into<String>, args: Value) -> Self {
        KernelCall {
            plugin: plugin.into(),
            args,
            cores: 1,
            mpi: false,
        }
    }

    /// Sets core count and MPI flag (builder style).
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self.mpi = cores > 1;
        self
    }
}

/// What one unit asks of a simulated machine: how long it occupies its
/// cores and how much it stages in and out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitPlan {
    /// Estimated wall time on the platform with the bound cores.
    pub duration: SimDuration,
    /// Modelled input staging volume in bytes.
    pub input_bytes: u64,
    /// Modelled output staging volume in bytes.
    pub output_bytes: u64,
}

/// The kernel-plugin interface.
pub trait KernelPlugin: Send + Sync {
    /// Registry name, e.g. `"md.amber"`.
    fn name(&self) -> &str;

    /// Validates instantiation arguments: keys, types and values.
    fn validate(&self, _args: &Value) -> Result<(), KernelError> {
        Ok(())
    }

    /// Plans one unit on `platform` using `cores` cores. Arguments
    /// [`KernelPlugin::validate`] refuses fail here the same way, before
    /// anything is drawn from `rng`.
    fn plan(
        &self,
        args: &Value,
        cores: usize,
        platform: &PlatformSpec,
        rng: &mut SimRng,
    ) -> Result<UnitPlan, KernelError>;

    /// Cheap surrogate execution for simulated runs.
    fn execute_model(&self, args: &Value, rng: &mut SimRng) -> Result<Value, KernelError>;

    /// Real execution for local runs.
    fn execute(&self, args: &Value) -> Result<Value, KernelError>;
}

/// A built-in kernel over its declared arguments: the faces of
/// [`KernelPlugin`] after the one `parse` the blanket impl below runs.
/// Crate-private, so only the built-ins implement it.
pub(crate) trait TypedKernel: Send + Sync {
    /// The declared arguments.
    type Args: Args;

    /// Registry name, e.g. `"md.amber"`.
    fn name(&self) -> &str;

    /// [`KernelPlugin::plan`] over the parsed arguments.
    fn plan(
        &self,
        args: Self::Args,
        cores: usize,
        platform: &PlatformSpec,
        rng: &mut SimRng,
    ) -> Result<UnitPlan, KernelError>;

    /// [`KernelPlugin::execute_model`] over the parsed arguments.
    fn execute_model(&self, args: Self::Args, rng: &mut SimRng) -> Result<Value, KernelError>;

    /// [`KernelPlugin::execute`] over the parsed arguments.
    fn execute(&self, args: Self::Args) -> Result<Value, KernelError>;
}

impl<K: TypedKernel> KernelPlugin for K {
    fn name(&self) -> &str {
        TypedKernel::name(self)
    }

    fn validate(&self, args: &Value) -> Result<(), KernelError> {
        parse::<K::Args>(args).map(drop)
    }

    fn plan(
        &self,
        args: &Value,
        cores: usize,
        platform: &PlatformSpec,
        rng: &mut SimRng,
    ) -> Result<UnitPlan, KernelError> {
        TypedKernel::plan(self, parse(args)?, cores, platform, rng)
    }

    fn execute_model(&self, args: &Value, rng: &mut SimRng) -> Result<Value, KernelError> {
        TypedKernel::execute_model(self, parse(args)?, rng)
    }

    fn execute(&self, args: &Value) -> Result<Value, KernelError> {
        TypedKernel::execute(self, parse(args)?)
    }
}

/// The declared arguments of a built-in kernel.
pub(crate) trait Args: Deserialize {
    /// Refuses values no run can mean; keys and types are the struct's.
    fn check(&self) -> Result<(), KernelError> {
        Ok(())
    }
}

/// Reads and checks a kernel's arguments (no arguments read as `{}`): the
/// one place a built-in kernel's `args` become typed values.
fn parse<A: Args>(args: &Value) -> Result<A, KernelError> {
    let parsed = match args {
        Value::Null => A::from_value(&Value::Object(Map::new())),
        given => A::from_value(given),
    };
    let parsed = parsed.map_err(|e| KernelError {
        message: e.to_string(),
        path: e.pointer().to_string(),
    })?;
    parsed.check()?;
    Ok(parsed)
}

/// The default of a count argument, written at its field:
/// `#[serde(default = "count::<1024>")]`.
pub(crate) fn count<const N: u64>() -> u64 {
    N
}

/// The default of an `f64` argument that scales: a base of one second, unit
/// temperature, an estimate taken as it is.
pub(crate) fn one() -> f64 {
    1.0
}

/// The cost model of a serial kernel: `base_secs` on the platform plus
/// `per_item_secs` for each of `items`, whatever the cores, with a 2 % jitter.
pub(crate) fn linear_duration(
    base_secs: f64,
    per_item_secs: f64,
    items: u64,
    platform: &PlatformSpec,
    rng: &mut SimRng,
) -> SimDuration {
    let jitter = (1.0 + 0.02 * rng.standard_normal()).max(0.5);
    SimDuration::from_secs_f64(
        (base_secs / platform.perf_factor + per_item_secs * items as f64) * jitter,
    )
}

/// Refuses seconds (a duration, or a rate per item) virtual time cannot
/// hold: negative, not a number, or beyond [`SimDuration::MAX`], where
/// [`SimDuration::from_secs_f64`] would clamp them to another experiment.
pub(crate) fn check_secs(key: &str, secs: f64) -> Result<(), KernelError> {
    let max = SimDuration::MAX.as_secs_f64();
    if (0.0..max).contains(&secs) {
        return Ok(());
    }
    Err(KernelError::arg(
        key,
        format_args!("must be finite, >= 0 and below {max:.1e} s, got {secs:?}"),
    ))
}

/// Refuses a zero where the count divides or sizes the work.
pub(crate) fn check_count(key: &str, count: u64) -> Result<(), KernelError> {
    match count {
        0 => Err(KernelError::arg(key, "must be at least 1, got 0")),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    /// One field of each kind a built-in declares.
    #[derive(Debug, Deserialize)]
    #[serde(deny_unknown_fields)]
    struct Probe {
        a: f64,
        #[serde(default)]
        b: u64,
        #[serde(default)]
        c: Option<String>,
        #[serde(default)]
        rows: Option<Vec<Vec<f64>>>,
    }

    impl Args for Probe {
        fn check(&self) -> Result<(), KernelError> {
            check_secs("a", self.a)?;
            check_count("b", self.b)
        }
    }

    #[test]
    fn kernel_call_builder() {
        let call = KernelCall::new("md.amber", json!({"steps": 100})).with_cores(16);
        assert_eq!(call.cores, 16);
        assert!(call.mpi);
        let single = KernelCall::new("misc.mkfile", json!({}));
        assert!(!single.mpi);
    }

    #[test]
    fn parse_reads_typed_fields_and_defaults() {
        let args = json!({"a": 1.5, "b": 7, "c": "hi", "rows": [[1.0, 2.0], [3.0, 4.0]]});
        let probe: Probe = parse(&args).unwrap();
        assert_eq!((probe.a, probe.b, probe.c.as_deref()), (1.5, 7, Some("hi")));
        assert_eq!(probe.rows.unwrap(), vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        // An integer reads where a float is declared; absent keys default.
        let probe: Probe = parse(&json!({"a": 2, "b": 1})).unwrap();
        assert_eq!((probe.a, probe.c, probe.rows), (2.0, None, None));
    }

    #[test]
    fn parse_reports_missing_fields() {
        let err = parse::<Probe>(&json!({})).unwrap_err();
        assert!(err.message.contains("missing field `a`"), "{err}");
        // No arguments at all read as `{}`.
        assert_eq!(parse::<Probe>(&Value::Null).unwrap_err(), err);
    }

    #[test]
    fn parse_refuses_wrong_types() {
        for (args, key, path) in [
            (json!({"a": "not a number"}), "a", "/a"),
            (json!({"a": 1.0, "b": 2.5}), "b", "/b"),
            (json!({"a": 1.0, "b": "2"}), "b", "/b"),
            (json!({"a": 1.0, "b": -2}), "b", "/b"),
            (
                json!({"a": 1.0, "rows": [[1.0], ["bad"]]}),
                "rows",
                "/rows/1/0",
            ),
        ] {
            let err = parse::<Probe>(&args).unwrap_err();
            assert_eq!(err.path, path, "{err}");
            assert!(
                err.message.starts_with(&format!("{key}: expected ")),
                "{err}"
            );
        }
    }

    #[test]
    fn parse_refuses_unknown_keys_naming_the_declared_ones() {
        let err = parse::<Probe>(&json!({"a": 1.0, "bb": 2})).unwrap_err();
        assert_eq!(err.path, "/bb");
        assert_eq!(
            err.message,
            "unknown key \"bb\" (known keys: a, b, c, rows)"
        );
    }

    #[test]
    fn parse_checks_values_after_types() {
        for (a, ok) in [
            (0.0, true),
            (1e13, true),
            (-5.0, false),
            (1e300, false),
            (f64::INFINITY, false),
            (f64::NAN, false),
        ] {
            let outcome = check_secs("a", a);
            assert_eq!(outcome.is_ok(), ok, "{a}: {outcome:?}");
        }
        let err = parse::<Probe>(&json!({"a": -5.0, "b": 1})).unwrap_err();
        assert_eq!(err.path, "/a");
        assert_eq!(
            err.message,
            "a must be finite, >= 0 and below 1.8e13 s, got -5.0"
        );
        let err = parse::<Probe>(&json!({"a": 1.0, "b": 0})).unwrap_err();
        assert_eq!(err.message, "b must be at least 1, got 0");
    }
}

#[cfg(test)]
mod one_parse {
    use crate::registry::KernelRegistry;
    use entk_cluster::PlatformSpec;
    use entk_sim::SimRng;
    use serde_json::{json, Value};

    /// Each built-in with arguments it refuses, and the pointer each is
    /// refused at: a misspelt key, a wrong type, and a value its
    /// `Args::check` refuses (`misc.stress` declares no such value).
    fn refused() -> Vec<(&'static str, Vec<(Value, &'static str)>)> {
        let md = || {
            vec![
                (json!({ "stepz": 5 }), "/stepz"),
                (json!({ "steps": 5.5 }), "/steps"),
                (json!({ "steps": 0 }), "/steps"),
            ]
        };
        let file = || {
            vec![
                (json!({ "byts": 4096 }), "/byts"),
                (json!({ "bytes": "4 KiB" }), "/bytes"),
                (json!({ "base_secs": -1.0 }), "/base_secs"),
            ]
        };
        vec![
            ("misc.mkfile", file()),
            ("misc.ccount", file()),
            (
                "misc.sleep",
                vec![
                    (json!({ "secs": 1.0, "sec": 1.0 }), "/sec"),
                    (json!({ "secs": "1" }), "/secs"),
                    (json!({ "secs": 1e300 }), "/secs"),
                ],
            ),
            (
                "misc.stress",
                vec![
                    (json!({ "iter": 10 }), "/iter"),
                    (json!({ "iters": 2.5 }), "/iters"),
                ],
            ),
            ("md.amber", md()),
            ("md.gromacs", md()),
            (
                "md.exchange",
                vec![
                    (json!({ "n_replicas": 4, "phse": 1 }), "/phse"),
                    (json!({ "n_replicas": 2.5 }), "/n_replicas"),
                    (
                        json!({ "n_replicas": 4, "per_replica_secs": -1.0 }),
                        "/per_replica_secs",
                    ),
                ],
            ),
            (
                "ana.coco",
                vec![
                    (json!({ "n_sims": 4, "n_neww": 1 }), "/n_neww"),
                    (json!({ "n_sims": "4" }), "/n_sims"),
                    (json!({ "n_sims": 4, "base_secs": -1.0 }), "/base_secs"),
                ],
            ),
            (
                "ana.lsdmap",
                vec![
                    (json!({ "n_sims": 4, "n_coord": 2 }), "/n_coord"),
                    (
                        json!({ "n_sims": 4, "epsilon_scale": "x" }),
                        "/epsilon_scale",
                    ),
                    (
                        json!({ "n_sims": 4, "per_sim_secs": 1e300 }),
                        "/per_sim_secs",
                    ),
                ],
            ),
            (
                "ana.wham",
                vec![
                    (json!({ "n_samples": 4, "nbins": 2 }), "/nbins"),
                    (json!({ "n_samples": -1 }), "/n_samples"),
                    (json!({ "n_samples": 4, "base_secs": -1.0 }), "/base_secs"),
                ],
            ),
        ]
    }

    /// Every face of every built-in refuses what `validate` refuses, with
    /// the same error, before drawing from its generator: the arguments
    /// are read once, by the adapter, whichever face is called.
    #[test]
    fn every_face_of_every_builtin_refuses_alike_before_drawing() {
        let registry = KernelRegistry::with_builtins();
        let table = refused();
        let mut names: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        assert_eq!(names, registry.names(), "one row per built-in");
        let platform = PlatformSpec::stampede();
        let undrawn = SimRng::seed_from_u64(7).uniform();
        for (name, rows) in table {
            let plugin = registry.get(name).unwrap();
            for (args, path) in rows {
                let err = plugin.validate(&args).unwrap_err();
                assert_eq!(err.path, path, "{name} {args}: {err}");
                let mut rng = SimRng::seed_from_u64(7);
                let planned = plugin.plan(&args, 4, &platform, &mut rng);
                assert_eq!(planned.unwrap_err(), err, "{name} {args}: plan");
                let modeled = plugin.execute_model(&args, &mut rng);
                assert_eq!(modeled.unwrap_err(), err, "{name} {args}: execute_model");
                assert_eq!(plugin.execute(&args).unwrap_err(), err, "{name} {args}");
                assert_eq!(rng.uniform(), undrawn, "{name} {args} drew from the rng");
            }
        }
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn kernel_call_serde_roundtrip() {
        let call =
            KernelCall::new("md.amber", json!({"steps": 100, "temperature": 1.5})).with_cores(8);
        let text = serde_json::to_string(&call).unwrap();
        let back: KernelCall = serde_json::from_str(&text).unwrap();
        assert_eq!(back, call);
        assert!(back.mpi);
    }
}

#[cfg(test)]
mod cost_model_props {
    use crate::registry::KernelRegistry;
    use entk_cluster::PlatformSpec;
    use entk_sim::SimRng;
    use proptest::prelude::*;
    use serde_json::{json, Value};

    /// Each built-in kernel with arguments of its own drawn from the basic
    /// parameters: a kernel refuses every key it does not declare.
    fn own_args(steps: u64, n_atoms: u64) -> [(&'static str, Value); 10] {
        let md = json!({ "steps": steps, "n_atoms": n_atoms });
        [
            ("misc.mkfile", json!({ "bytes": n_atoms })),
            ("misc.ccount", json!({ "bytes": n_atoms })),
            ("misc.sleep", json!({ "secs": steps as f64 / 1000.0 })),
            ("misc.stress", json!({ "iters": steps })),
            ("md.amber", md.clone()),
            ("md.gromacs", md),
            ("md.exchange", json!({ "n_replicas": n_atoms })),
            ("ana.coco", json!({ "n_sims": n_atoms })),
            ("ana.lsdmap", json!({ "n_sims": n_atoms })),
            ("ana.wham", json!({ "n_samples": steps })),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every built-in kernel plans a finite, bounded duration on every
        /// platform for arbitrary basic parameters.
        #[test]
        fn prop_costs_are_sane(
            steps in 1u64..10_000,
            n_atoms in 1u64..5_000,
            cores in 1usize..64,
            seed in 0u64..100,
        ) {
            let registry = KernelRegistry::with_builtins();
            let mut rng = SimRng::seed_from_u64(seed);
            let platforms = [
                PlatformSpec::comet(),
                PlatformSpec::stampede(),
                PlatformSpec::supermic(),
            ];
            let kernels = own_args(steps, n_atoms);
            prop_assert_eq!(kernels.len(), registry.names().len());
            for platform in &platforms {
                for (name, args) in &kernels {
                    let plugin = registry.get(name).unwrap();
                    let plan = plugin.plan(args, cores, platform, &mut rng).unwrap();
                    let secs = plan.duration.as_secs_f64();
                    prop_assert!(secs.is_finite(), "{name} cost not finite");
                    prop_assert!(secs >= 0.0, "{name} cost negative");
                    prop_assert!(secs < 1e7, "{name} cost absurd: {secs}");
                }
            }
        }

        /// MPI-capable kernels never cost more with more cores.
        #[test]
        fn prop_md_cost_monotone_in_cores(steps in 100u64..5_000, seed in 0u64..50) {
            let registry = KernelRegistry::with_builtins();
            let plugin = registry.get("md.amber").unwrap();
            let platform = PlatformSpec::stampede();
            let args = json!({ "steps": steps, "n_atoms": 2881 });
            // Average over draws to suppress jitter.
            let avg = |cores: usize, seed: u64| {
                let mut rng = SimRng::seed_from_u64(seed);
                (0..16)
                    .map(|_| plugin.plan(&args, cores, &platform, &mut rng).unwrap())
                    .map(|plan| plan.duration.as_secs_f64())
                    .sum::<f64>()
                    / 16.0
            };
            let c1 = avg(1, seed);
            let c8 = avg(8, seed);
            let c64 = avg(64, seed);
            prop_assert!(c8 < c1, "8 cores faster than 1: {c8} vs {c1}");
            prop_assert!(c64 < c8, "64 cores faster than 8: {c64} vs {c8}");
        }
    }
}
