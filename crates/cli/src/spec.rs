//! JSON workload specifications: declare a resource, a pattern, and the
//! kernels of each stage; the CLI compiles the spec into toolkit calls.
//!
//! Kernel arguments support placeholder substitution so one template
//! describes a whole ensemble: any string value `"$index"`, `"$iteration"`,
//! `"$cycle"`, `"$replica"`, `"$temperature"`, or `"$n_sims"` is replaced
//! by the corresponding number at task-creation time.

use entk_core::prelude::*;
use entk_core::{reject_unknown_keys, usage_at, EntkError};
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

/// Top-level workload specification.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Resource request.
    pub resource: ResourceSpec,
    /// Backend selection: `"simulated"` (default), `"local"`, or
    /// `"federated"`.
    #[serde(default = "default_backend")]
    pub backend: String,
    /// Additional member clusters for the federated backend; the top-level
    /// `resource` is the first member. Ignored by the other backends.
    #[serde(default)]
    pub federation: Vec<ResourceSpec>,
    /// Master seed for simulated runs.
    #[serde(default = "default_seed")]
    pub seed: u64,
    /// The pattern to run.
    pub pattern: PatternSpec,
    /// Simulated-backend tuning (ignored by the local backend).
    #[serde(default)]
    pub tuning: TuningSpec,
}

/// Optional simulated-backend tuning knobs.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TuningSpec {
    /// Batch-scheduler plugin: any registered scheduler name (`fifo`,
    /// `backfill`, `fair_share`, `priority_aging`, `sjf`, `round_robin`),
    /// either bare or as `{"name", "params"}` with typed params.
    #[serde(default)]
    pub batch_policy: Option<entk_core::ComponentSpec>,
    /// Split the request across this many pilots with late binding.
    #[serde(default)]
    pub pilots: Option<usize>,
    /// Extra queue-wait seconds per requested core.
    #[serde(default)]
    pub queue_wait_per_core: Option<f64>,
    /// Competing background load on the machine.
    #[serde(default)]
    pub background: Option<BackgroundSpec>,
    /// Retry budget for failed tasks.
    #[serde(default)]
    pub retries: Option<u32>,
}

/// Background-load description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BackgroundSpec {
    /// Mean inter-arrival of competing jobs (seconds, exponential).
    pub mean_interarrival_secs: f64,
    /// Cores per competing job.
    pub cores: usize,
    /// Runtime of competing jobs in seconds.
    pub runtime_secs: f64,
    /// Jobs already queued at submission time.
    #[serde(default)]
    pub initial_jobs: usize,
}

fn default_backend() -> String {
    "simulated".into()
}

fn default_seed() -> u64 {
    2016
}

/// Resource request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResourceSpec {
    /// Resource label (`"xsede.comet"`, `"local"`, …).
    pub name: String,
    /// Cores to acquire.
    pub cores: usize,
    /// Wall time in seconds.
    pub walltime_secs: u64,
}

/// A kernel invocation template.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelSpec {
    /// Registry name, e.g. `"md.amber"`.
    pub plugin: String,
    /// Arguments; string values may contain placeholders.
    #[serde(default)]
    pub args: Value,
    /// Cores per task.
    #[serde(default = "one")]
    pub cores: usize,
}

fn one() -> usize {
    1
}

/// The supported pattern shapes.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum PatternSpec {
    /// A bag of `n` independent tasks.
    Bag {
        /// Task count.
        n: usize,
        /// Kernel template (placeholder: `$index`).
        kernel: KernelSpec,
    },
    /// An ensemble of `n` pipelines with one kernel per stage.
    Pipelines {
        /// Pipeline count.
        n: usize,
        /// One kernel template per stage (placeholder: `$index`).
        stages: Vec<KernelSpec>,
    },
    /// A simulation-analysis loop.
    Sal {
        /// Loop iterations.
        iterations: usize,
        /// Simulations per iteration.
        sims: usize,
        /// Simulation kernel (placeholders: `$index`, `$iteration`).
        simulation: KernelSpec,
        /// Analysis kernel (placeholders: `$iteration`, `$n_sims`).
        analysis: KernelSpec,
    },
    /// Temperature replica exchange.
    Exchange {
        /// Replica count (= ladder size).
        replicas: usize,
        /// MD+exchange cycles.
        cycles: usize,
        /// Coldest ladder temperature.
        t_min: f64,
        /// Hottest ladder temperature.
        t_max: f64,
        /// MD segment kernel (placeholders: `$replica`, `$cycle`,
        /// `$temperature`).
        kernel: KernelSpec,
    },
}

/// Substitutes `$name` placeholders in string values by numbers.
fn substitute(value: &Value, vars: &[(&str, f64)]) -> Value {
    match value {
        Value::String(s) => {
            for (name, v) in vars {
                if s == &format!("${name}") {
                    // Integral values stay integers for u64-typed kernel args.
                    if v.fract() == 0.0 && *v >= 0.0 {
                        return json!(*v as u64);
                    }
                    return json!(v);
                }
            }
            value.clone()
        }
        Value::Array(items) => Value::Array(items.iter().map(|i| substitute(i, vars)).collect()),
        Value::Object(map) => Value::Object(
            map.iter()
                .map(|(k, v)| (k.clone(), substitute(v, vars)))
                .collect(),
        ),
        other => other.clone(),
    }
}

fn bind(spec: &KernelSpec, vars: &[(&str, f64)]) -> KernelCall {
    let args = if spec.args.is_null() {
        json!({})
    } else {
        substitute(&spec.args, vars)
    };
    KernelCall::new(spec.plugin.clone(), args).with_cores(spec.cores)
}

/// Checks every object of a spec against the keys its struct reads. An
/// object that is absent or of the wrong shape passes; typed
/// deserialization reports those.
fn reject_unknown_spec_keys(text: &str, spec: &Value) -> Result<(), EntkError> {
    reject_unknown_keys(
        text,
        spec,
        &[
            "resource",
            "backend",
            "federation",
            "seed",
            "pattern",
            "tuning",
        ],
    )?;
    let members = spec["federation"].as_array().into_iter().flatten();
    for resource in std::iter::once(&spec["resource"]).chain(members) {
        reject_unknown_keys(text, resource, &["name", "cores", "walltime_secs"])?;
    }
    let tuning = &spec["tuning"];
    reject_unknown_keys(
        text,
        tuning,
        &[
            "batch_policy",
            "pilots",
            "queue_wait_per_core",
            "background",
            "retries",
        ],
    )?;
    reject_unknown_keys(
        text,
        &tuning["background"],
        &[
            "mean_interarrival_secs",
            "cores",
            "runtime_secs",
            "initial_jobs",
        ],
    )?;
    let pattern = &spec["pattern"];
    // Per kind: the pattern's keys, and which of them hold kernel templates.
    let (keys, kernels): (&[&str], &[&str]) = match pattern["kind"].as_str() {
        Some("bag") => (&["kind", "n", "kernel"], &["kernel"]),
        Some("pipelines") => (&["kind", "n", "stages"], &["stages"]),
        Some("sal") => (
            &["kind", "iterations", "sims", "simulation", "analysis"],
            &["simulation", "analysis"],
        ),
        Some("exchange") => (
            &["kind", "replicas", "cycles", "t_min", "t_max", "kernel"],
            &["kernel"],
        ),
        _ => return Ok(()),
    };
    reject_unknown_keys(text, pattern, keys)?;
    for key in kernels {
        // `stages` is a list of templates, the others hold one.
        let templates = match &pattern[*key] {
            Value::Array(list) => list.as_slice(),
            one => std::slice::from_ref(one),
        };
        for kernel in templates {
            reject_unknown_keys(text, kernel, &["plugin", "args", "cores"])?;
        }
    }
    Ok(())
}

/// Refuses resource and tuning values no run can mean: a zero wall time (the
/// pilot dies as it starts), a queue wait that is negative or not finite
/// (it ran as zero), a background load whose arrivals leave no gap for
/// virtual time to advance in. `check` builds the handle and would pass the
/// first and the last; `run` then drained early or never returned.
fn check_resources(text: &str, spec: &WorkloadSpec) -> Result<(), EntkError> {
    let refuse = |key: &str, msg: String| Err(usage_at(text, key, EntkError::Usage(msg)));
    let zero_walltime = |what: &str| format!("{what} must be at least 1, got 0");
    if spec.resource.walltime_secs == 0 {
        return refuse("walltime_secs", zero_walltime("walltime_secs"));
    }
    // Every member has the key, so point at the list and name the member.
    if let Some(i) = spec.federation.iter().position(|m| m.walltime_secs == 0) {
        let what = format!("federation[{i}].walltime_secs");
        return refuse("federation", zero_walltime(&what));
    }
    if let Some(per_core) = spec.tuning.queue_wait_per_core {
        if !(per_core.is_finite() && per_core >= 0.0) {
            let msg = format!("queue_wait_per_core must be finite and >= 0, got {per_core}");
            return refuse("queue_wait_per_core", msg);
        }
    }
    if let Some(bg) = &spec.tuning.background {
        for (key, value) in [
            ("mean_interarrival_secs", bg.mean_interarrival_secs),
            ("runtime_secs", bg.runtime_secs),
        ] {
            if !(value.is_finite() && value > 0.0) {
                let msg = format!("{key} must be finite and > 0, got {value}");
                return refuse(key, msg);
            }
        }
        if bg.cores == 0 {
            let msg = "background.cores must be at least 1, got 0".to_string();
            return refuse("background", msg);
        }
    }
    Ok(())
}

/// Refuses a pattern no run can mean — an empty ensemble, or a temperature
/// ladder that does not rise from a positive `t_min` — pointing at the
/// key's line. The pattern constructors assert these conditions, so such a
/// spec would otherwise panic in [`WorkloadSpec::build_pattern`].
fn check_pattern(text: &str, pattern: &PatternSpec) -> Result<(), EntkError> {
    let refuse = |key: &str, msg: String| Err(usage_at(text, key, EntkError::Usage(msg)));
    let at_least_one = |key: &str, count: usize| match count {
        0 => refuse(key, format!("{key} must be at least 1, got 0")),
        _ => Ok(()),
    };
    match pattern {
        PatternSpec::Bag { n, .. } => at_least_one("n", *n),
        PatternSpec::Pipelines { n, stages } => {
            if stages.is_empty() {
                return refuse("stages", "stages must list at least one kernel".into());
            }
            at_least_one("n", *n)
        }
        PatternSpec::Sal {
            iterations, sims, ..
        } => {
            at_least_one("iterations", *iterations)?;
            at_least_one("sims", *sims)
        }
        PatternSpec::Exchange {
            replicas,
            cycles,
            t_min,
            t_max,
            ..
        } => {
            at_least_one("replicas", *replicas)?;
            at_least_one("cycles", *cycles)?;
            if !(t_min.is_finite() && *t_min > 0.0) {
                return refuse(
                    "t_min",
                    format!("t_min must be finite and > 0, got {t_min}"),
                );
            }
            if !(t_max.is_finite() && t_max > t_min) {
                return refuse(
                    "t_max",
                    format!("t_max must be finite and above t_min ({t_min}), got {t_max}"),
                );
            }
            Ok(())
        }
    }
}

impl WorkloadSpec {
    /// Parses a spec from JSON text. A key no spec object takes fails with
    /// its line and the keys that exist, the way a stream spec's does: a
    /// typoed `"tuning"` must not run the untuned experiment. So does a
    /// pattern that is empty or whose temperature ladder is impossible, and
    /// a wall time, queue wait or background load no machine can have.
    pub fn from_json(text: &str) -> Result<Self, EntkError> {
        let bad = |e| EntkError::Usage(format!("bad spec: {e}"));
        let value: Value = serde_json::from_str(text).map_err(bad)?;
        reject_unknown_spec_keys(text, &value)?;
        let spec: WorkloadSpec = serde_json::from_value(&value).map_err(bad)?;
        check_resources(text, &spec)?;
        check_pattern(text, &spec.pattern)?;
        Ok(spec)
    }

    /// Compiles the pattern description into an executable pattern.
    pub fn build_pattern(&self) -> Box<dyn ExecutionPattern + Send> {
        match self.pattern.clone() {
            PatternSpec::Bag { n, kernel } => Box::new(BagOfTasks::new(n, move |i| {
                bind(&kernel, &[("index", i as f64)])
            })),
            PatternSpec::Pipelines { n, stages } => {
                let labels: Vec<String> = (0..stages.len()).map(|s| format!("stage-{s}")).collect();
                Box::new(
                    EnsembleOfPipelines::new(n, stages.len(), move |p, s| {
                        bind(&stages[s], &[("index", p as f64)])
                    })
                    .with_stage_labels(labels),
                )
            }
            PatternSpec::Sal {
                iterations,
                sims,
                simulation,
                analysis,
            } => Box::new(SimulationAnalysisLoop::new(
                iterations,
                sims,
                move |iter, i| {
                    bind(
                        &simulation,
                        &[("index", i as f64), ("iteration", iter as f64)],
                    )
                },
                move |iter, outs| {
                    vec![bind(
                        &analysis,
                        &[("iteration", iter as f64), ("n_sims", outs.len() as f64)],
                    )]
                },
            )),
            PatternSpec::Exchange {
                replicas,
                cycles,
                t_min,
                t_max,
                kernel,
            } => Box::new(EnsembleExchange::new(
                replicas,
                cycles,
                TemperatureLadder::geometric(replicas, t_min, t_max),
                move |r, c, t| {
                    bind(
                        &kernel,
                        &[
                            ("replica", r as f64),
                            ("cycle", c as f64),
                            ("temperature", t),
                        ],
                    )
                },
            )),
        }
    }

    /// Runs the workload and returns the report.
    pub fn run(&self) -> Result<entk_core::ExecutionReport, EntkError> {
        self.run_traced().map(|(report, _)| report)
    }

    /// Like [`WorkloadSpec::run`], but also returns the session telemetry —
    /// the cross-layer event trace and metrics — on the simulated backend.
    /// `None` on the local backend, which executes in real time and has no
    /// virtual-clock trace.
    pub fn run_traced(
        &self,
    ) -> Result<(entk_core::ExecutionReport, Option<entk_sim::Telemetry>), EntkError> {
        let mut handle = self.handle()?;
        let (report, telemetry) = handle.execute(self.build_pattern().as_mut())?;
        Ok((report, handle.telemetry().map(|_| telemetry)))
    }

    /// Builds the resource handle the spec asks for without running
    /// anything. Construction resolves the backend, every resource name,
    /// the core counts and the batch scheduler, so the errors are exactly
    /// the ones a run would stop on.
    pub fn handle(&self) -> Result<ResourceHandle, EntkError> {
        match self.backend.as_str() {
            "simulated" => {
                let config = ResourceConfig::new(
                    self.resource.name.clone(),
                    self.resource.cores,
                    SimDuration::from_secs(self.resource.walltime_secs),
                );
                let mut sim = SimulatedConfig {
                    seed: self.seed,
                    scheduler: self.tuning.batch_policy.clone(),
                    ..Default::default()
                };
                if let Some(n) = self.tuning.pilots {
                    sim.pilot_strategy = if n <= 1 {
                        entk_core::PilotStrategy::single()
                    } else {
                        entk_core::PilotStrategy::split(n)
                    };
                }
                if let Some(retries) = self.tuning.retries {
                    sim.fault = entk_core::FaultConfig::retries(retries);
                }
                if self.tuning.queue_wait_per_core.is_some() || self.tuning.background.is_some() {
                    let mut platform = entk_cluster::PlatformSpec::by_name(&self.resource.name)
                        .ok_or_else(|| {
                            EntkError::Resource(format!(
                                "unknown resource {:?}",
                                self.resource.name
                            ))
                        })?;
                    if let Some(per_core) = self.tuning.queue_wait_per_core {
                        platform.queue_wait_per_core = per_core;
                    }
                    sim.platform = Some(platform);
                }
                if let Some(bg) = &self.tuning.background {
                    sim.background_load = Some(entk_cluster::BackgroundLoad {
                        mean_interarrival_secs: bg.mean_interarrival_secs,
                        cores: entk_sim::Dist::Constant(bg.cores as f64),
                        runtime: entk_sim::Dist::Constant(bg.runtime_secs),
                        initial_jobs: bg.initial_jobs,
                    });
                }
                ResourceHandle::simulated(config, sim)
            }
            "federated" => {
                if self.tuning.queue_wait_per_core.is_some() || self.tuning.background.is_some() {
                    return Err(EntkError::Usage(
                        "queue_wait_per_core/background tuning is not supported on the \
                         federated backend"
                            .to_string(),
                    ));
                }
                let mut config = FederatedConfig {
                    seed: self.seed,
                    scheduler: self.tuning.batch_policy.clone(),
                    ..Default::default()
                };
                if let Some(retries) = self.tuning.retries {
                    config.fault = entk_core::FaultConfig::retries(retries);
                }
                config.clusters = std::iter::once(&self.resource)
                    .chain(self.federation.iter())
                    .map(|r| {
                        let mut member = ClusterSpec::new(
                            r.name.clone(),
                            r.cores,
                            SimDuration::from_secs(r.walltime_secs),
                        );
                        if let Some(n) = self.tuning.pilots {
                            member.pilots = n.max(1);
                        }
                        member
                    })
                    .collect();
                ResourceHandle::federated(config)
            }
            "local" => Ok(ResourceHandle::local(self.resource.cores)),
            other => Err(EntkError::Usage(format!(
                "unknown backend {other:?} (use \"simulated\", \"local\", or \"federated\")"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placeholder_substitution_types() {
        let v = json!({ "seed": "$index", "temperature": "$temperature", "keep": "plain" });
        let out = substitute(&v, &[("index", 3.0), ("temperature", 1.25)]);
        assert_eq!(out["seed"], 3); // integral → u64
        assert_eq!(out["temperature"], 1.25);
        assert_eq!(out["keep"], "plain");
    }

    #[test]
    fn substitution_recurses_into_arrays() {
        let v = json!([{ "x": "$index" }, "$index"]);
        let out = substitute(&v, &[("index", 7.0)]);
        assert_eq!(out[0]["x"], 7);
        assert_eq!(out[1], 7);
    }

    #[test]
    fn parses_a_full_spec() {
        let text = r#"{
            "resource": { "name": "xsede.comet", "cores": 24, "walltime_secs": 3600 },
            "pattern": {
                "kind": "pipelines",
                "n": 24,
                "stages": [
                    { "plugin": "misc.mkfile", "args": { "bytes": 1024 } },
                    { "plugin": "misc.ccount", "args": { "bytes": 1024 } }
                ]
            }
        }"#;
        let spec = WorkloadSpec::from_json(text).unwrap();
        assert_eq!(spec.backend, "simulated");
        assert_eq!(spec.seed, 2016);
        let report = spec.run().unwrap();
        assert_eq!(report.task_count(), 48);
        assert_eq!(report.failed_tasks, 0);
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(WorkloadSpec::from_json("{}").is_err());
        assert!(WorkloadSpec::from_json("not json").is_err());
        let bad_backend = r#"{
            "resource": { "name": "local", "cores": 2, "walltime_secs": 10 },
            "backend": "cloud",
            "pattern": { "kind": "bag", "n": 1,
                         "kernel": { "plugin": "misc.sleep", "args": { "secs": 0.1 } } }
        }"#;
        let spec = WorkloadSpec::from_json(bad_backend).unwrap();
        assert!(spec.run().is_err());
    }

    #[test]
    fn federated_spec_spans_member_clusters() {
        let text = r#"{
            "resource": { "name": "xsede.comet", "cores": 16, "walltime_secs": 100000 },
            "backend": "federated",
            "seed": 9,
            "federation": [
                { "name": "xsede.stampede", "cores": 16, "walltime_secs": 100000 }
            ],
            "tuning": { "retries": 2 },
            "pattern": { "kind": "bag", "n": 48,
                         "kernel": { "plugin": "misc.sleep", "args": { "secs": 10.0 } } }
        }"#;
        let spec = WorkloadSpec::from_json(text).unwrap();
        let (report, telemetry) = spec.run_traced().unwrap();
        assert_eq!(report.resource, "federated:xsede.comet+xsede.stampede");
        assert_eq!(report.cores, 32);
        assert_eq!(report.task_count(), 48);
        assert_eq!(report.failed_tasks, 0);
        // Federated runs are simulated, so the virtual-time trace exists.
        assert!(telemetry.is_some());
    }

    #[test]
    fn sal_spec_runs_with_placeholders() {
        let text = r#"{
            "resource": { "name": "xsede.stampede", "cores": 8, "walltime_secs": 100000 },
            "seed": 7,
            "pattern": {
                "kind": "sal",
                "iterations": 2,
                "sims": 8,
                "simulation": { "plugin": "md.amber",
                                "args": { "steps": 300, "seed": "$index" } },
                "analysis": { "plugin": "ana.coco", "args": { "n_sims": "$n_sims" } }
            }
        }"#;
        let report = WorkloadSpec::from_json(text).unwrap().run().unwrap();
        assert_eq!(report.task_count(), 2 * 9);
        assert_eq!(report.failed_tasks, 0);
    }

    #[test]
    fn exchange_spec_uses_ladder_temperatures() {
        let text = r#"{
            "resource": { "name": "lsu.supermic", "cores": 4, "walltime_secs": 100000 },
            "pattern": {
                "kind": "exchange",
                "replicas": 4,
                "cycles": 2,
                "t_min": 0.8,
                "t_max": 2.0,
                "kernel": { "plugin": "md.amber",
                            "args": { "steps": 300, "n_atoms": 200,
                                       "temperature": "$temperature",
                                       "seed": "$replica" } }
            }
        }"#;
        let report = WorkloadSpec::from_json(text).unwrap().run().unwrap();
        assert_eq!(
            report
                .tasks
                .iter()
                .filter(|t| &*t.stage == "simulation")
                .count(),
            8
        );
        assert_eq!(report.failed_tasks, 0);
    }
}

#[cfg(test)]
mod tuning_tests {
    use super::*;

    #[test]
    fn tuned_spec_runs_under_contention() {
        let text = r#"{
            "resource": { "name": "xsede.comet", "cores": 48, "walltime_secs": 1000000 },
            "seed": 5,
            "tuning": {
                "batch_policy": "backfill",
                "pilots": 4,
                "queue_wait_per_core": 1.0,
                "retries": 2,
                "background": {
                    "mean_interarrival_secs": 300.0,
                    "cores": 24,
                    "runtime_secs": 120.0,
                    "initial_jobs": 1
                }
            },
            "pattern": { "kind": "bag", "n": 32,
                         "kernel": { "plugin": "misc.sleep", "args": { "secs": 10.0 } } }
        }"#;
        let spec = WorkloadSpec::from_json(text).unwrap();
        let report = spec.run().unwrap();
        assert_eq!(report.task_count(), 32);
        assert_eq!(report.failed_tasks, 0);
        // Contention + per-core queue wait visible in the resource wait.
        assert!(report.overheads.resource_wait.as_secs_f64() > 10.0);
    }

    #[test]
    fn unknown_batch_policy_is_rejected() {
        let text = r#"{
            "resource": { "name": "local", "cores": 2, "walltime_secs": 100 },
            "tuning": { "batch_policy": "priority" },
            "pattern": { "kind": "bag", "n": 1,
                         "kernel": { "plugin": "misc.sleep", "args": { "secs": 0.1 } } }
        }"#;
        let spec = WorkloadSpec::from_json(text).unwrap();
        assert!(spec.run().is_err());
    }

    #[test]
    fn tuning_defaults_to_empty() {
        let text = r#"{
            "resource": { "name": "local", "cores": 2, "walltime_secs": 100 },
            "pattern": { "kind": "bag", "n": 1,
                         "kernel": { "plugin": "misc.sleep", "args": { "secs": 0.1 } } }
        }"#;
        let spec = WorkloadSpec::from_json(text).unwrap();
        assert!(spec.tuning.batch_policy.is_none());
        assert!(spec.tuning.background.is_none());
    }
}
