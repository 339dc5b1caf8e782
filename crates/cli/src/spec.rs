//! JSON spec documents. A single-session spec ([`WorkloadSpec`]) declares a
//! resource, a pattern and the kernels of each stage, and the CLI compiles
//! it into toolkit calls; a document with a top-level `"source"` is a
//! stream spec. [`Document::from_json`] parses the text once and loads
//! whichever it is.
//!
//! The keys an object takes are the fields of the struct it deserializes
//! into — each is `#[serde(deny_unknown_fields)]` and nothing else lists
//! them — so a misspelt key at any depth fails the load with its line and
//! the keys that exist. The `check_*` functions refuse what would load and
//! then run a different experiment than the file describes.
//!
//! Kernel arguments support placeholder substitution so one template
//! describes a whole ensemble: a string value `"$name"` naming one of its
//! role's placeholders (`"$index"` for a bag; `Role::bind` lists them all)
//! is replaced by the task's number at task-creation time.

use entk_core::prelude::*;
use entk_core::registry::schedulers;
use entk_core::{EntkError, FaultConfig, SpecDoc};
use entk_workload::StreamSpec;
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

/// What a spec file holds: one session (`entk run`), or — when it has a
/// top-level `"source"`, which no key of a single-session spec is called
/// and every stream spec needs — a stream of them (`entk serve`).
#[derive(Debug, Clone)]
pub enum Document {
    /// A single-session spec.
    Session(WorkloadSpec),
    /// A stream spec.
    Stream(StreamSpec),
}

impl Document {
    /// Parses `text` once and loads it as the document it is; both loaders
    /// report mistakes as `workload spec line N: …` usage errors.
    pub fn from_json(text: &str) -> Result<Self, EntkError> {
        let doc = SpecDoc::parse(text)?;
        if doc.value.get("source").is_some() {
            StreamSpec::from_doc(&doc).map(Document::Stream)
        } else {
            WorkloadSpec::from_doc(&doc).map(Document::Session)
        }
    }
}

/// Top-level workload specification.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct WorkloadSpec {
    /// Resource request.
    pub resource: ResourceSpec,
    /// Backend selection: `"simulated"` (default), `"local"`, or
    /// `"federated"`.
    #[serde(default = "default_backend")]
    pub backend: String,
    /// Additional member clusters for the federated backend; the top-level
    /// `resource` is the first member. Refused on the other backends.
    #[serde(default)]
    pub federation: Vec<ResourceSpec>,
    /// Master seed for simulated runs.
    #[serde(default = "default_seed")]
    pub seed: u64,
    /// The pattern to run.
    pub pattern: PatternSpec,
    /// Backend tuning.
    #[serde(default)]
    pub tuning: TuningSpec,
}

/// Optional tuning knobs; the loader refuses one the chosen backend would
/// not read.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
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
#[serde(deny_unknown_fields)]
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
#[serde(deny_unknown_fields)]
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
#[serde(deny_unknown_fields)]
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
#[serde(tag = "kind", rename_all = "snake_case", deny_unknown_fields)]
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

/// A kernel template's role in its pattern, with the numbers of the task
/// it is bound for, in the order [`Role::bind`] names them.
#[derive(Clone, Copy)]
enum Role {
    /// A bag task or a pipeline's stage: index.
    Member(usize),
    /// A loop's simulation: index, iteration.
    Simulation(usize, usize),
    /// A loop iteration's analysis: iteration, simulations.
    Analysis(usize, usize),
    /// A replica's MD segment: replica, cycle, temperature.
    Replica(usize, usize, f64),
}

impl Role {
    /// Binds `spec` for this role's task: the one statement of the
    /// placeholders each role's template may use. `build_pattern` binds
    /// every task through it, and `check_kernels` the first.
    fn bind(self, spec: &KernelSpec) -> KernelCall {
        let n = |count: usize| count as f64;
        let vars: &[(&str, f64)] = match self {
            Role::Member(i) => &[("index", n(i))],
            Role::Simulation(i, iter) => &[("index", n(i)), ("iteration", n(iter))],
            Role::Analysis(iter, sims) => &[("iteration", n(iter)), ("n_sims", n(sims))],
            Role::Replica(r, c, t) => &[("replica", n(r)), ("cycle", n(c)), ("temperature", t)],
        };
        let args = match &spec.args {
            Value::Null => json!({}),
            args => substitute(args, vars),
        };
        KernelCall::new(spec.plugin.clone(), args).with_cores(spec.cores)
    }
}

/// Refuses a key the chosen backend does not read: it would load, and the
/// run would not be the one the file describes. Only the federated backend
/// has members; it has no per-machine queue wait or background load; the
/// local backend runs real kernels on this host and reads `retries` alone.
fn check_backend_keys(doc: &SpecDoc, spec: &WorkloadSpec) -> Result<(), EntkError> {
    let tuning = &spec.tuning;
    // Each key's pointer with whether it is set and whether the federated
    // backend reads it; the simulated backend reads all but `federation`,
    // the local backend none of them.
    let keys = [
        ("/federation", !spec.federation.is_empty(), true),
        ("/tuning/batch_policy", tuning.batch_policy.is_some(), true),
        ("/tuning/pilots", tuning.pilots.is_some(), true),
        (
            "/tuning/queue_wait_per_core",
            tuning.queue_wait_per_core.is_some(),
            false,
        ),
        ("/tuning/background", tuning.background.is_some(), false),
    ];
    let backend = spec.backend.as_str();
    let unread = keys.iter().find(|(at, set, federated)| {
        *set && match backend {
            "simulated" => *at == "/federation",
            "federated" => !federated,
            "local" => true,
            // An unknown backend is `handle`'s error.
            _ => false,
        }
    });
    match unread {
        Some((at, ..)) => {
            let key = at.rsplit('/').next().unwrap_or(at);
            let msg = format!("{key} is not read by the {backend:?} backend");
            Err(doc.usage_at(at, EntkError::Usage(msg)))
        }
        None => Ok(()),
    }
}

/// Refuses resource and tuning values no run can mean: no local core to
/// run on (`handle` refuses it too, without a line; the discrete-event
/// backends name their platform's size there), a zero wall time (the
/// pilot dies as it starts) or one past the clock's last whole second (it
/// wrapped to a tiny one), a queue wait that is negative or not finite
/// (it ran as zero), a background load whose arrivals leave no gap for
/// virtual time to advance in. `check` builds the handle and would pass the
/// first and the last; `run` then drained early or never returned. A
/// background load that queues more jobs than the machine has cores is
/// refused here on its line and by the handle without one (building that
/// queue exhausted memory).
fn check_resources(doc: &SpecDoc, spec: &WorkloadSpec) -> Result<(), EntkError> {
    let refuse = |at: &str, msg: String| Err(doc.usage_at(at, EntkError::Usage(msg)));
    // Whole seconds the clock can hold; past them the wall time wrapped.
    let max_walltime = SimDuration::MAX.as_micros() / 1_000_000;
    let bad_walltime = |what: &str, secs: u64| match secs {
        0 => Some(format!("{what} must be at least 1, got 0")),
        s if s > max_walltime => Some(format!("{what} must be at most {max_walltime}, got {s}")),
        _ => None,
    };
    if spec.backend == "local" && spec.resource.cores == 0 {
        let msg = "resource.cores must be at least 1, got 0".to_string();
        return refuse("/resource/cores", msg);
    }
    if let Some(msg) = bad_walltime("walltime_secs", spec.resource.walltime_secs) {
        return refuse("/resource/walltime_secs", msg);
    }
    for (i, member) in spec.federation.iter().enumerate() {
        let what = format!("federation[{i}].walltime_secs");
        if let Some(msg) = bad_walltime(&what, member.walltime_secs) {
            return refuse(&format!("/federation/{i}/walltime_secs"), msg);
        }
    }
    if let Some(per_core) = spec.tuning.queue_wait_per_core {
        if !(per_core.is_finite() && per_core >= 0.0) {
            let msg = format!("queue_wait_per_core must be finite and >= 0, got {per_core}");
            return refuse("/tuning/queue_wait_per_core", msg);
        }
    }
    if let Some(bg) = &spec.tuning.background {
        for (key, value) in [
            ("mean_interarrival_secs", bg.mean_interarrival_secs),
            ("runtime_secs", bg.runtime_secs),
        ] {
            if !(value.is_finite() && value > 0.0) {
                let msg = format!("{key} must be finite and > 0, got {value}");
                return refuse(&format!("/tuning/background/{key}"), msg);
            }
        }
        if bg.cores == 0 {
            let msg = "background.cores must be at least 1, got 0".to_string();
            return refuse("/tuning/background/cores", msg);
        }
        // Every competing job holds a core: more queued jobs than the
        // machine has cores only exhausts memory while the queue is built.
        if let Some(platform) = entk_cluster::PlatformSpec::by_name(&spec.resource.name) {
            let cores = platform.total_cores();
            if bg.initial_jobs > cores {
                let msg = format!(
                    "initial_jobs must be at most {cores} (the cores of {}), got {}",
                    platform.name, bg.initial_jobs
                );
                return refuse("/tuning/background/initial_jobs", msg);
            }
        }
    }
    Ok(())
}

/// Refuses a pattern no run can mean — an empty ensemble, or a temperature
/// ladder that does not rise from a positive `t_min` — pointing at the
/// key's line. The pattern constructors assert these conditions, so such a
/// spec would otherwise panic in [`WorkloadSpec::build_pattern`].
fn check_pattern(doc: &SpecDoc, pattern: &PatternSpec) -> Result<(), EntkError> {
    let refuse =
        |key: &str, msg| Err(doc.usage_at(&format!("/pattern/{key}"), EntkError::Usage(msg)));
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

/// Refuses a kernel template every task built from it would fail on: binds
/// its first task with the [`Role::bind`] that builds every task and asks
/// the plugin to validate the arguments. Its `cores` must also fit where a
/// task runs: `resource.cores` on the local backend, where a task holds
/// them for real, and one pilot's share of the largest member on the
/// discrete-event backends ([`entk_core::max_unit_cores`], their clamp).
/// A run would otherwise go through and report the whole stage failed.
fn check_kernels(doc: &SpecDoc, spec: &WorkloadSpec) -> Result<(), EntkError> {
    // Each template with its pointer under `/pattern` and its first task.
    let templates = match &spec.pattern {
        PatternSpec::Bag { kernel, .. } => vec![("kernel".to_string(), kernel, Role::Member(0))],
        PatternSpec::Pipelines { stages, .. } => (stages.iter().enumerate())
            .map(|(i, stage)| (format!("stages/{i}"), stage, Role::Member(0)))
            .collect(),
        PatternSpec::Sal {
            sims,
            simulation,
            analysis,
            ..
        } => vec![
            ("simulation".to_string(), simulation, Role::Simulation(0, 0)),
            ("analysis".to_string(), analysis, Role::Analysis(0, *sims)),
        ],
        PatternSpec::Exchange { t_min, kernel, .. } => {
            vec![("kernel".to_string(), kernel, Role::Replica(0, 0, *t_min))]
        }
    };
    let registry = KernelRegistry::with_builtins();
    // One pilot's share of the largest member, as the simulated backend
    // clamps a unit. A zero-core member is `handle`'s error.
    let pilots = spec.tuning.pilots.unwrap_or(1);
    let per_pilot = std::iter::once(&spec.resource)
        .chain(&spec.federation)
        .map(|r| entk_core::max_unit_cores(r.cores, pilots))
        .max()
        .unwrap_or(0);
    let (slots, of) = match spec.backend.as_str() {
        "local" => (spec.resource.cores, "resource.cores"),
        "simulated" => (per_pilot, "resource.cores per pilot"),
        "federated" => (per_pilot, "the largest member's cores per pilot"),
        // An unknown backend is `handle`'s error.
        _ => (0, ""),
    };
    for (at, template, role) in templates {
        let call = role.bind(template);
        let refuse = |key: &str, why: String| {
            let msg = format!("kernel {:?}: {why}", call.plugin);
            doc.usage_at(&format!("/pattern/{at}/{key}"), EntkError::Usage(msg))
        };
        // On the refused argument's line, or else the plugin's.
        registry
            .get(&call.plugin)
            .and_then(|plugin| plugin.validate(&call.args))
            .map_err(|e| match e.path.as_str() {
                "" => refuse("plugin", e.message),
                path => refuse(&format!("args{path}"), e.message),
            })?;
        if slots > 0 && !(1..=slots).contains(&call.cores) {
            return Err(refuse(
                "cores",
                format!(
                    "cores must be within 1..={slots} ({of}) on the {:?} backend, got {}",
                    spec.backend, call.cores
                ),
            ));
        }
    }
    Ok(())
}

impl WorkloadSpec {
    /// Parses a spec from JSON text; see [`WorkloadSpec::from_doc`].
    pub fn from_json(text: &str) -> Result<Self, EntkError> {
        Self::from_doc(&SpecDoc::parse(text)?)
    }

    /// Reads a spec out of a parsed document: typed deserialization refuses
    /// every key no struct takes (a typoed `"tuning"` must not run the
    /// untuned experiment), the scheduler is checked against its registry
    /// and the `check_*` functions refuse the rest, each on its line.
    pub fn from_doc(doc: &SpecDoc) -> Result<Self, EntkError> {
        let spec: WorkloadSpec = doc.typed()?;
        if let Some(scheduler) = &spec.tuning.batch_policy {
            schedulers().check(doc, "/tuning/batch_policy", scheduler)?;
        }
        check_backend_keys(doc, &spec)?;
        check_resources(doc, &spec)?;
        check_pattern(doc, &spec.pattern)?;
        check_kernels(doc, &spec)?;
        Ok(spec)
    }

    /// Compiles the pattern description into an executable pattern.
    pub fn build_pattern(&self) -> Box<dyn ExecutionPattern + Send> {
        match self.pattern.clone() {
            PatternSpec::Bag { n, kernel } => {
                Box::new(BagOfTasks::new(n, move |i| Role::Member(i).bind(&kernel)))
            }
            PatternSpec::Pipelines { n, stages } => {
                let labels: Vec<String> = (0..stages.len()).map(|s| format!("stage-{s}")).collect();
                Box::new(
                    EnsembleOfPipelines::new(n, stages.len(), move |p, s| {
                        Role::Member(p).bind(&stages[s])
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
                move |iter, i| Role::Simulation(i, iter).bind(&simulation),
                move |iter, outs| vec![Role::Analysis(iter, outs.len()).bind(&analysis)],
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
                move |r, c, t| Role::Replica(r, c, t).bind(&kernel),
            )),
        }
    }

    /// Runs the workload and returns the report.
    pub fn run(&self) -> Result<entk_core::ExecutionReport, EntkError> {
        self.run_traced().map(|(report, _)| report)
    }

    /// Like [`WorkloadSpec::run`], but also returns the session telemetry —
    /// the cross-layer event trace — on the simulated backend.
    /// `None` on the local backend, which executes in real time and has no
    /// virtual-clock trace.
    pub fn run_traced(
        &self,
    ) -> Result<(entk_core::ExecutionReport, Option<entk_sim::Telemetry>), EntkError> {
        let handle = self.handle()?;
        let traced = handle.telemetry().is_some();
        let (report, telemetry) = handle.execute(self.build_pattern().as_mut())?;
        Ok((report, traced.then_some(telemetry)))
    }

    /// Builds the resource handle the spec asks for without running
    /// anything. Construction resolves the backend, every resource name,
    /// the core counts and the batch scheduler, so the errors are exactly
    /// the ones a run would stop on.
    pub fn handle(&self) -> Result<ResourceHandle, EntkError> {
        let fault = self
            .tuning
            .retries
            .map(FaultConfig::retries)
            .unwrap_or_default();
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
                    fault,
                    ..Default::default()
                };
                if let Some(n) = self.tuning.pilots {
                    sim.pilot_strategy = if n <= 1 {
                        entk_core::PilotStrategy::single()
                    } else {
                        entk_core::PilotStrategy::split(n)
                    };
                }
                // An unknown resource is left to the handle, which names it.
                if let Some(per_core) = self.tuning.queue_wait_per_core {
                    let platform = entk_cluster::PlatformSpec::by_name(&self.resource.name);
                    sim.platform = platform.map(|mut p| {
                        p.queue_wait_per_core = per_core;
                        p
                    });
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
                let mut config = FederatedConfig {
                    seed: self.seed,
                    scheduler: self.tuning.batch_policy.clone(),
                    fault,
                    ..Default::default()
                };
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
            "local" => ResourceHandle::local_with(
                self.resource.cores,
                KernelRegistry::with_builtins(),
                fault,
            ),
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
        let err = WorkloadSpec::from_json(text).expect_err("unregistered scheduler");
        let msg = err.to_string();
        assert!(
            msg.contains("line 3: unknown scheduler \"priority\""),
            "{msg}"
        );
    }

    /// The local backend used to drop `tuning.retries`.
    #[test]
    fn local_backend_honours_the_retry_budget() {
        let text = r#"{
            "resource": { "name": "local", "cores": 1, "walltime_secs": 100 },
            "backend": "local",
            "tuning": { "retries": 2 },
            "pattern": { "kind": "bag", "n": 1,
                         "kernel": { "plugin": "misc.ccount",
                                     "args": { "path": "/nonexistent/entk-retries" } } }
        }"#;
        let report = WorkloadSpec::from_json(text).unwrap().run().unwrap();
        assert_eq!(report.failed_tasks, 1);
        assert_eq!(report.total_retries, 2);
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
