//! JSON stream specifications: one spec file selects the workload source,
//! backend, admission policy, batch-scheduler plugin, fault grid, and
//! report sinks of a served stream — every component resolved by name
//! through the registries, never a `match` arm. `entk serve` serves one and
//! `entk check` vets one; a document is a stream spec when it has a
//! top-level `"source"`.
//!
//! ```json
//! {
//!   "seed": 42,
//!   "resource": "xsede.stampede",
//!   "slots": 4,
//!   "backend": "simulated",
//!   "policy": "fair",
//!   "scheduler": { "name": "priority_aging", "params": { "aging_rate": 2.0 } },
//!   "fault": { "name": "retries", "params": { "max_retries": 2 } },
//!   "sinks": [ { "name": "jsonl", "params": { "path": "rows.jsonl" } } ],
//!   "source": { "kind": "poisson", "sessions": 50, "tenants": 8,
//!               "mean_interarrival_secs": 30.0 }
//! }
//! ```
//!
//! The keys an object takes are the fields of the struct it deserializes
//! into, and nothing else states them: [`StreamSpec`] for the document, a
//! plugin's params struct for its `"params"` block (for a source, the rest
//! of the `"source"` object). Each is `#[serde(deny_unknown_fields)]`, so
//! a misspelt key at any depth fails the load with its line and the keys
//! that exist instead of serving with the default it was meant to replace.

use crate::arrival::{check_mean_gap, ArrivalStream, OpenLoopProcess, WorkloadGenerator};
use crate::runner::{StreamBackend, WorkloadConfig, WorkloadReport};
use crate::service::{
    admission_policies, check_failure_rate, check_half_life, check_members, check_queue_depth,
    check_resource, check_slots, AdmissionPolicy, SaturationMode, ServiceConfig, ServiceEngine,
};
use crate::sink::{sinks, ReportSink};
use crate::trace::{CsvTrace, HotTenantTrace, SyntheticTrace};
use entk_core::registry::{faults, schedulers};
use entk_core::{ComponentSpec, EntkError, Registry, SpecDoc};
use serde::{DeError, Deserialize, Serialize};
use serde_json::Value;
use std::sync::OnceLock;

/// Top-level stream specification.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct StreamSpec {
    /// Master seed.
    #[serde(default = "default_seed")]
    pub seed: u64,
    /// Resource sessions run on.
    #[serde(default = "default_resource")]
    pub resource: String,
    /// Concurrent admission slots.
    #[serde(default = "default_slots")]
    pub slots: usize,
    /// Backend: `"simulated"` (default) or `"federated"`.
    #[serde(default = "default_backend")]
    pub backend: String,
    /// Member clusters per session on the federated backend.
    #[serde(default = "default_members")]
    pub members: usize,
    /// Admission policy plugin: `"fifo"` (default), `"fair"`, or an
    /// object with params.
    #[serde(default = "default_policy")]
    pub policy: ComponentSpec,
    /// Fair-share usage half-life in virtual seconds (0 = no decay);
    /// used when the policy's own params leave it unset.
    #[serde(default)]
    pub half_life_secs: f64,
    /// Bound on the pending admission queue (`null` = unbounded).
    #[serde(default)]
    pub max_queue_depth: Option<usize>,
    /// What happens past the bound: `"reject"` (default) or `"defer"`.
    #[serde(default = "default_saturation")]
    pub saturation: String,
    /// `true` restores stream-fatal failure semantics.
    #[serde(default)]
    pub strict: bool,
    /// Per-unit failure-injection probability for every session backend.
    #[serde(default)]
    pub unit_failure_rate: f64,
    /// Batch-scheduler plugin threaded into every session's backend
    /// (`null` keeps the backend's policy default).
    #[serde(default)]
    pub scheduler: Option<ComponentSpec>,
    /// Fault-grid plugin threaded into every session's backend (`null`
    /// means no retries, no watchdog).
    #[serde(default)]
    pub fault: Option<ComponentSpec>,
    /// Report sinks fed as the stream is served (empty = report only).
    #[serde(default)]
    pub sinks: Vec<ComponentSpec>,
    /// Where the arrivals come from.
    pub source: SourceDecl,
}

fn default_seed() -> u64 {
    2016
}
fn default_resource() -> String {
    "xsede.stampede".into()
}
fn default_slots() -> usize {
    4
}
fn default_backend() -> String {
    "simulated".into()
}
fn default_members() -> usize {
    2
}
fn default_policy() -> ComponentSpec {
    ComponentSpec::named("fifo")
}
fn default_saturation() -> String {
    "reject".into()
}

/// A workload-source declaration: a JSON object whose `"kind"` names a
/// registered source plugin; the rest of the object is that plugin's
/// params block.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceDecl {
    /// Registered source name (`poisson`, `burst`, `synthetic`,
    /// `hot_tenant`, `trace`/`csv`).
    pub kind: String,
    /// The full declaration object, `"kind"` included.
    pub decl: Value,
}

impl SourceDecl {
    /// The declaration as its registry reads it: the plugin is handed the
    /// object without `"kind"`, every other key being one of its params.
    fn component(&self) -> ComponentSpec {
        let mut params = self.decl.clone();
        if let Some(object) = params.as_object_mut() {
            object.remove("kind");
        }
        ComponentSpec::with_params(self.kind.clone(), params)
    }
}

impl Serialize for SourceDecl {
    fn to_value(&self) -> Value {
        self.decl.clone()
    }
}

impl Deserialize for SourceDecl {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v.as_object().ok_or_else(|| {
            DeError::custom("workload source must be an object with a \"kind\" field".to_string())
        })?;
        let kind = obj.get("kind").and_then(Value::as_str).ok_or_else(|| {
            DeError::custom("workload source needs a string \"kind\" field".to_string())
        })?;
        Ok(SourceDecl {
            kind: kind.to_string(),
            decl: v.clone(),
        })
    }
}

/// Build context of workload-source factories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceCtx {
    /// Master seed; every generated source derives from it.
    pub seed: u64,
}

/// Params of the `poisson` source plugin.
#[derive(Debug, Clone, Deserialize)]
#[serde(deny_unknown_fields)]
struct PoissonParams {
    /// Sessions to emit.
    sessions: usize,
    /// Tenant population size.
    tenants: u64,
    /// Mean inter-arrival gap, seconds.
    mean_interarrival_secs: f64,
}

/// Params of the `burst` source plugin.
#[derive(Debug, Clone, Deserialize)]
#[serde(deny_unknown_fields)]
struct BurstParams {
    /// Sessions to emit.
    sessions: usize,
    /// Tenant population size.
    tenants: u64,
    /// Sessions per burst.
    burst_size: usize,
    /// Mean gap between bursts, seconds.
    mean_gap_secs: f64,
}

/// Params of the `synthetic` and `hot_tenant` source plugins.
#[derive(Debug, Clone, Deserialize)]
#[serde(deny_unknown_fields)]
struct MixtureParams {
    /// Sessions to emit.
    sessions: usize,
    /// Tenant population size.
    tenants: u64,
}

/// Params of the `trace` (alias `csv`) source plugin.
#[derive(Debug, Clone, Deserialize)]
#[serde(deny_unknown_fields)]
struct TraceParams {
    /// Path to the trace file.
    path: String,
}

/// The workload-source registry: every `"kind"` a spec's `"source"`
/// object can name. Factories open the source as a lazy pull stream.
pub fn sources() -> &'static Registry<Box<dyn ArrivalStream>, SourceCtx> {
    static TABLE: OnceLock<Registry<Box<dyn ArrivalStream>, SourceCtx>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut r = Registry::new("workload source");
        r.register("poisson", |ctx: &SourceCtx, p: PoissonParams| {
            OpenLoopProcess::poisson(ctx.seed, p.sessions, p.tenants, p.mean_interarrival_secs)
                .stream()
        });
        r.register("burst", |ctx: &SourceCtx, p: BurstParams| {
            OpenLoopProcess::burst(
                ctx.seed,
                p.sessions,
                p.tenants,
                p.burst_size,
                p.mean_gap_secs,
            )
            .stream()
        });
        r.register("synthetic", |ctx: &SourceCtx, p: MixtureParams| {
            SyntheticTrace::new(ctx.seed, p.sessions, p.tenants).stream()
        });
        r.register("hot_tenant", |ctx: &SourceCtx, p: MixtureParams| {
            HotTenantTrace::new(ctx.seed, p.sessions, p.tenants).stream()
        });
        for name in ["trace", "csv"] {
            r.register(name, |_: &SourceCtx, p: TraceParams| {
                CsvTrace::from_path(&p.path)?.stream()
            });
        }
        r
    })
}

impl StreamSpec {
    /// Parses and validates a spec from JSON text; see
    /// [`StreamSpec::from_doc`].
    pub fn from_json(text: &str) -> Result<Self, EntkError> {
        Self::from_doc(&SpecDoc::parse(text)?)
    }

    /// Reads a spec out of a parsed document: typed deserialization
    /// refuses every key no struct takes, each named component is checked
    /// against its registry (the name is registered, the params block
    /// deserializes; nothing is constructed, so no sink file is created),
    /// and values no run can mean are refused. Every failure is an
    /// [`EntkError::Usage`] carrying its line in the text.
    pub fn from_doc(doc: &SpecDoc) -> Result<Self, EntkError> {
        let spec: StreamSpec = doc.typed()?;
        admission_policies().check(doc, "/policy", &spec.policy)?;
        if let Some(scheduler) = &spec.scheduler {
            schedulers().check(doc, "/scheduler", scheduler)?;
        }
        if let Some(fault) = &spec.fault {
            faults().check(doc, "/fault", fault)?;
        }
        for (i, sink) in spec.sinks.iter().enumerate() {
            sinks().check(doc, &format!("/sinks/{i}"), sink)?;
        }
        sources().check_in(doc, "/source/kind", "/source", &spec.source.component())?;
        spec.check_values(doc)?;
        Ok(spec)
    }

    /// Rejects values no run can mean — a failure rate that is no
    /// probability, a negative half-life (top-level or in the policy's
    /// params), a resource that is no platform, no slot, a queue bound of
    /// zero, an unknown backend or saturation mode, a federation of fewer
    /// than two, a mean arrival gap the clock cannot hold — and a key set
    /// in `doc` that nothing reads (`members` off the federated backend,
    /// `saturation` without a queue bound, a top-level `half_life_secs`
    /// no fair policy takes), pointing at their line.
    /// [`ServiceEngine`] repeats the value checks for configs built in code.
    fn check_values(&self, doc: &SpecDoc) -> Result<(), EntkError> {
        let at = |pointer: &'static str| move |e| doc.usage_at(pointer, e);
        check_failure_rate(self.unit_failure_rate).map_err(at("/unit_failure_rate"))?;
        check_slots(self.slots).map_err(at("/slots"))?;
        check_queue_depth(self.max_queue_depth).map_err(at("/max_queue_depth"))?;
        SaturationMode::parse(&self.saturation).map_err(at("/saturation"))?;
        if doc.value.get("saturation").is_some() && self.max_queue_depth.is_none() {
            let msg = "saturation is not read without a max_queue_depth".to_string();
            return Err(at("/saturation")(EntkError::Usage(msg)));
        }
        match self.backend().map_err(at("/backend"))? {
            StreamBackend::Federated { members } => {
                check_members(members).map_err(at("/members"))?
            }
            StreamBackend::Simulated if doc.value.get("members").is_some() => {
                let msg = format!("members is not read by the {:?} backend", self.backend);
                return Err(at("/members")(EntkError::Usage(msg)));
            }
            StreamBackend::Simulated => {}
        }
        let policy = admission_policies()
            .build(&self.policy, &())
            .map_err(at("/policy"))?;
        check_half_life(self.half_life_secs).map_err(at("/half_life_secs"))?;
        check_half_life(policy.half_life_secs()).map_err(at("/policy/params/half_life_secs"))?;
        let by = match policy {
            AdmissionPolicy::Fifo => Some("the fifo policy"),
            _ => (policy.half_life_secs() != 0.0).then_some("a fair policy that sets its own"),
        };
        if let (Some(by), Some(_)) = (by, doc.value.get("half_life_secs")) {
            let msg = format!("half_life_secs is not read by {by}");
            return Err(at("/half_life_secs")(EntkError::Usage(msg)));
        }
        check_resource(&self.resource).map_err(at("/resource"))?;
        for key in ["mean_interarrival_secs", "mean_gap_secs"] {
            if let Some(secs) = self.source.decl.get(key).and_then(Value::as_f64) {
                check_mean_gap(key, secs)
                    .map_err(|e| doc.usage_at(&format!("/source/{key}"), e))?;
            }
        }
        Ok(())
    }

    /// Opens the spec's arrival source as a lazy pull stream (without
    /// serving or materializing it).
    pub fn source_stream(&self) -> Result<Box<dyn ArrivalStream>, EntkError> {
        sources().build(&self.source.component(), &SourceCtx { seed: self.seed })
    }

    /// Compiles the backend/slots/seed fields — plus the scheduler and
    /// fault plugins — into a runner config. Plugin params are built once
    /// here so a bad params block fails before any session runs.
    pub fn config(&self) -> Result<WorkloadConfig, EntkError> {
        let backend = self.backend()?;
        if let Some(spec) = &self.scheduler {
            schedulers().build(spec, &())?;
        }
        let fault = match &self.fault {
            Some(spec) => faults().build(spec, &())?,
            None => entk_core::FaultConfig::default(),
        };
        Ok(WorkloadConfig {
            seed: self.seed,
            resource: self.resource.clone(),
            slots: self.slots,
            backend,
            unit_failure_rate: self.unit_failure_rate,
            scheduler: self.scheduler.clone(),
            fault,
        })
    }

    /// The backend the spec names, with its member count.
    fn backend(&self) -> Result<StreamBackend, EntkError> {
        match self.backend.as_str() {
            "simulated" => Ok(StreamBackend::Simulated),
            "federated" => Ok(StreamBackend::Federated {
                members: self.members,
            }),
            other => Err(EntkError::Usage(format!(
                "unknown backend {other:?} (use \"simulated\" or \"federated\")"
            ))),
        }
    }

    /// Compiles the full service configuration: the runner config plus
    /// admission policy, backpressure, and failure-strictness. A
    /// fair-share policy whose params leave the half-life at zero takes
    /// the spec's top-level `half_life_secs` (the pre-registry shape).
    pub fn service_config(&self) -> Result<ServiceConfig, EntkError> {
        let mut policy = admission_policies().build(&self.policy, &())?;
        if let AdmissionPolicy::FairShare { half_life_secs } = &mut policy {
            if *half_life_secs == 0.0 {
                *half_life_secs = self.half_life_secs;
            }
        }
        Ok(ServiceConfig {
            stream: self.config()?,
            policy,
            max_queue_depth: self.max_queue_depth,
            saturation: SaturationMode::parse(&self.saturation)?,
            strict: self.strict,
        })
    }

    /// Builds the spec's report sinks (opens their output files).
    pub fn build_sinks(&self) -> Result<Vec<Box<dyn ReportSink>>, EntkError> {
        self.sinks.iter().map(|s| sinks().build(s, &())).collect()
    }

    /// Serves the stream under the spec's full service configuration,
    /// with the declared sinks attached: they see every record as it is
    /// emitted and are finished with the report.
    pub fn run(&self) -> Result<WorkloadReport, EntkError> {
        let mut engine = ServiceEngine::new(self.service_config()?, self.source_stream()?)?;
        for sink in self.build_sinks()? {
            engine.attach(sink);
        }
        engine.run(&mut std::io::sink())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_runs_a_poisson_spec() {
        let text = r#"{
            "seed": 7,
            "slots": 2,
            "source": { "kind": "poisson", "sessions": 8, "tenants": 3,
                        "mean_interarrival_secs": 60.0 }
        }"#;
        let spec = StreamSpec::from_json(text).unwrap();
        assert_eq!(spec.backend, "simulated");
        assert_eq!(spec.resource, "xsede.stampede");
        assert_eq!(spec.policy, ComponentSpec::named("fifo"));
        let report = spec.run().unwrap();
        assert_eq!(report.sessions, 8);
        assert!(report.max_cross_check_err_secs <= 1e-6);
    }

    #[test]
    fn synthetic_spec_runs_federated() {
        let text = r#"{
            "seed": 3,
            "backend": "federated",
            "members": 2,
            "slots": 2,
            "source": { "kind": "synthetic", "sessions": 6, "tenants": 2 }
        }"#;
        let report = StreamSpec::from_json(text).unwrap().run().unwrap();
        assert_eq!(report.backend, "federated:2");
        assert_eq!(report.sessions, 6);
    }

    #[test]
    fn bad_specs_are_usage_errors() {
        assert!(StreamSpec::from_json("{}").is_err());
        assert!(StreamSpec::from_json("not json").is_err());
        let bad_backend = r#"{
            "backend": "cloud",
            "source": { "kind": "synthetic", "sessions": 4, "tenants": 2 }
        }"#;
        let err = StreamSpec::from_json(bad_backend).expect_err("unknown backend");
        assert!(matches!(err, EntkError::Usage(_)), "{err}");
        let missing_trace = r#"{
            "source": { "kind": "trace", "path": "/nonexistent/trace.csv" }
        }"#;
        assert!(StreamSpec::from_json(missing_trace).unwrap().run().is_err());
    }

    #[test]
    fn unknown_keys_fail_with_their_line_number() {
        let text = r#"{
            "seed": 7,
            "polcy": "fifo",
            "source": { "kind": "synthetic", "sessions": 4, "tenants": 2 }
        }"#;
        let err = StreamSpec::from_json(text).expect_err("typoed key");
        let msg = err.to_string();
        assert!(msg.contains("workload spec line 3"), "{msg}");
        assert!(msg.contains("unknown key \"polcy\""), "{msg}");
        assert!(msg.contains("policy"), "{msg}");
    }

    #[test]
    fn impossible_values_fail_with_their_key_and_line() {
        let spec = |line: &str| {
            format!(
                "{{\n  \"seed\": 7,\n  {line},\n  \"source\": \
                 {{ \"kind\": \"synthetic\", \"sessions\": 4, \"tenants\": 2 }}\n}}"
            )
        };
        for (line, needle) in [
            (
                r#""unit_failure_rate": 2.0"#,
                "unit_failure_rate must be a probability in [0, 1], got 2",
            ),
            (
                r#""unit_failure_rate": -1.0"#,
                "unit_failure_rate must be a probability in [0, 1], got -1",
            ),
            (
                r#""half_life_secs": -600.0"#,
                "half_life_secs must be finite and >= 0, got -600",
            ),
            (
                r#""policy": { "name": "fair", "params": { "half_life_secs": -5.0 } }"#,
                "half_life_secs must be finite and >= 0, got -5",
            ),
            (
                r#""resource": "nope""#,
                "unknown resource \"nope\" (known platforms: xsede.comet, xsede.stampede",
            ),
            (r#""slots": 0"#, "slots must be >= 1"),
            (r#""max_queue_depth": 0"#, "max_queue_depth must be >= 1"),
            (
                r#""backend": "federated", "members": 1"#,
                "federated stream backend needs at least 2 members",
            ),
        ] {
            let err = StreamSpec::from_json(&spec(line)).expect_err(line);
            assert!(matches!(err, EntkError::Usage(_)), "{err}");
            let msg = err.to_string();
            assert!(msg.contains("workload spec line 3: "), "{msg}");
            assert!(msg.contains(needle), "{msg}");
        }
        // The edges of the ranges are values, not mistakes.
        for line in [
            r#""unit_failure_rate": 1.0"#,
            r#""policy": "fair", "half_life_secs": 0.0"#,
            r#""resource": "comet""#,
            r#""slots": 1, "max_queue_depth": 1"#,
            r#""max_queue_depth": 1, "saturation": "defer""#,
            r#""backend": "federated", "members": 2"#,
        ] {
            StreamSpec::from_json(&spec(line)).expect(line);
        }
    }

    /// `Registry::check` accepts and refuses what `build` does, over all
    /// five tables, and constructs nothing: a checked sink has no file.
    #[test]
    fn check_agrees_with_build_over_every_table_and_creates_nothing() {
        fn agree<T, C>(r: &Registry<T, C>, ctx: &C, name: &str, params: &str, accepted: bool) {
            let spec = ComponentSpec::with_params(name, serde_json::from_str(params).unwrap());
            let checked = r.check(&SpecDoc::parse("{}").unwrap(), "", &spec);
            assert_eq!(checked.is_ok(), accepted, "{name} {params}: {checked:?}");
            assert_eq!(r.build(&spec, ctx).is_ok(), accepted, "{name} {params}");
        }
        for (name, params, ok) in [
            ("fifo", "null", true),
            ("fifo", "{}", true),
            ("fifo", r#"{"x": 1}"#, false),
            ("priority_aging", r#"{"aging_rate": 2.0}"#, true),
            ("priority_aging", r#"{"aging_rat": 2.0}"#, false),
            ("fair_share", r#"{"half_life_secs": "soon"}"#, false),
            ("sjw", "null", false),
        ] {
            agree(schedulers(), &(), name, params, ok);
        }
        for (name, params, ok) in [
            ("none", "null", true),
            ("retries", r#"{"max_retries": 5, "graceful": true}"#, true),
            ("retries", r#"{"max_retrys": 5}"#, false),
            ("chaos", "null", false),
        ] {
            agree(faults(), &(), name, params, ok);
        }
        for (name, params, ok) in [
            ("fifo", "null", true),
            ("fair", r#"{"half_life_secs": 60.0}"#, true),
            ("fair-share", r#"{"half_life_sec": 60.0}"#, false),
            ("fare", "null", false),
        ] {
            agree(admission_policies(), &(), name, params, ok);
        }
        let ctx = SourceCtx { seed: 1 };
        for (name, params, ok) in [
            ("synthetic", r#"{"sessions": 4, "tenants": 2}"#, true),
            (
                "synthetic",
                r#"{"sessions": 4, "tenants": 2, "tennants": 9}"#,
                false,
            ),
            ("poisson", r#"{"sessions": 4, "tenants": 2}"#, false),
            ("burst", "null", false),
            ("cloud", "{}", false),
        ] {
            agree(sources(), &ctx, name, params, ok);
        }
        let path = std::env::temp_dir().join(format!("entk-check-{}.jsonl", std::process::id()));
        let with_path = format!(r#"{{"path": {:?}}}"#, path.to_str().unwrap());
        let spec = ComponentSpec::with_params("jsonl", serde_json::from_str(&with_path).unwrap());
        sinks()
            .check(&SpecDoc::parse("{}").unwrap(), "", &spec)
            .expect("a path is all a jsonl sink needs");
        assert!(!path.exists(), "check created the sink's file");
        let period = |secs: &str| with_path.replace('}', &format!(r#", "period_secs": {secs}}}"#));
        for (name, params, ok) in [
            ("jsonl", with_path.as_str(), true),
            ("gauges", r#"{"period_secs": 5.0}"#, false),
            ("gauges", &period("1e-9"), false),
            ("gauges", &period("1e300"), false),
            ("gauges", &period("5.0"), true),
            ("summary", "null", false),
            ("csv", with_path.as_str(), false),
        ] {
            agree(sinks(), &(), name, params, ok);
        }
        assert!(path.exists(), "build opens it");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_component_names_fail_with_line_and_alternatives() {
        let text = r#"{
            "policy": "priority",
            "source": { "kind": "synthetic", "sessions": 4, "tenants": 2 }
        }"#;
        let err = StreamSpec::from_json(text).expect_err("unregistered policy");
        let msg = err.to_string();
        assert!(msg.contains("workload spec line 2"), "{msg}");
        assert!(msg.contains("unknown admission policy"), "{msg}");
        assert!(msg.contains("fifo") && msg.contains("fair"), "{msg}");

        let text = r#"{
            "scheduler": "sjw",
            "source": { "kind": "synthetic", "sessions": 4, "tenants": 2 }
        }"#;
        let msg = StreamSpec::from_json(text).unwrap_err().to_string();
        assert!(msg.contains("unknown scheduler \"sjw\""), "{msg}");
        assert!(msg.contains("sjf"), "{msg}");

        let text = r#"{
            "source": { "kind": "cloud", "sessions": 4, "tenants": 2 }
        }"#;
        let msg = StreamSpec::from_json(text).unwrap_err().to_string();
        assert!(msg.contains("unknown workload source \"cloud\""), "{msg}");
        assert!(msg.contains("hot_tenant"), "{msg}");
    }

    #[test]
    fn spec_selects_scheduler_fault_and_sinks_from_registries() {
        let text = r#"{
            "seed": 11,
            "slots": 2,
            "policy": "fair",
            "half_life_secs": 600.0,
            "scheduler": { "name": "priority_aging",
                           "params": { "aging_rate": 2.0, "core_penalty": 1.0 } },
            "fault": { "name": "retries", "params": { "max_retries": 2 } },
            "source": { "kind": "hot_tenant", "sessions": 6, "tenants": 3 }
        }"#;
        let spec = StreamSpec::from_json(text).unwrap();
        let service = spec.service_config().unwrap();
        assert_eq!(
            service.policy,
            AdmissionPolicy::FairShare {
                half_life_secs: 600.0
            }
        );
        assert_eq!(service.stream.fault.max_retries, 2);
        assert_eq!(
            service.stream.scheduler.as_ref().map(|s| s.name.as_str()),
            Some("priority_aging")
        );
        let report = spec.run().unwrap();
        assert_eq!(report.sessions, 6);
        assert_eq!(report.policy, "fair-share");
    }

    #[test]
    fn scheduler_plugin_changes_the_stream_trajectory_deterministically() {
        let base = r#"{
            "seed": 5,
            "slots": 2,
            "source": { "kind": "synthetic", "sessions": 8, "tenants": 3 }
        }"#;
        let with_sjf = r#"{
            "seed": 5,
            "slots": 2,
            "scheduler": "sjf",
            "source": { "kind": "synthetic", "sessions": 8, "tenants": 3 }
        }"#;
        let a = StreamSpec::from_json(base).unwrap().run().unwrap();
        let b = StreamSpec::from_json(with_sjf).unwrap().run().unwrap();
        let b2 = StreamSpec::from_json(with_sjf).unwrap().run().unwrap();
        assert_eq!(b, b2, "plugin runs replay byte-identically");
        assert_eq!(a.sessions, b.sessions);
    }
}
