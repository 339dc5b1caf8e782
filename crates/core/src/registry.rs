//! Pluggable scenario registry: named component factories behind trait
//! objects, so a spec file — not a `match` arm — selects the batch
//! scheduler, admission policy, fault grid, workload source, kernels, and
//! report sinks of a run (EnTK's "decouple what the ensemble does from how
//! it executes", and the follow-up papers' plugin-interface extensibility).
//!
//! Three pieces:
//!
//! * [`ComponentSpec`] — how a spec file names a component: either a bare
//!   string (`"fifo"`) or an object with typed parameters
//!   (`{"name": "fair_share", "params": {"half_life_secs": 600.0}}`).
//! * [`Registry`] — a name → factory map. Factories take the declared
//!   params as a JSON [`Value`] plus a build context `C` and return the
//!   component or a typed [`EntkError::Usage`]. Unknown names fail with an
//!   error listing every registered alternative.
//! * The built-in tables: [`schedulers`] (batch scheduling policies) and
//!   [`faults`] (retry / kill-replace grids) live here; the workload crate
//!   adds admission policies, arrival sources, and report sinks on the
//!   same [`Registry`] type.
//!
//! Adding a plugin is a closed operation on one file: implement the trait,
//! then `register` a factory under a new name (see DESIGN.md §17 — under
//! 30 lines for a new scheduler).
//!
//! Registry resolution happens at session/admission boundaries only —
//! never on the per-event hot path — so the indirection costs nothing at
//! serve scale.

use crate::error::EntkError;
use crate::fault::FaultConfig;
use entk_cluster::{
    EasyBackfillScheduler, FairShareScheduler, FifoScheduler, PriorityAgingScheduler,
    RoundRobinScheduler, SchedulerFactory, SjfScheduler,
};
use entk_sim::SimDuration;
use serde::{DeError, Deserialize, Map, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// A named component selection with optional typed parameters, as written
/// in a spec file. Deserializes from a bare string (`"fifo"`) or an object
/// (`{"name": "fair_share", "params": {...}}`), so pre-registry spec files
/// keep parsing unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentSpec {
    /// Registered component name.
    pub name: String,
    /// Plugin-specific parameters; `Null` means "all defaults".
    pub params: Value,
}

impl ComponentSpec {
    /// A component selected by name with default parameters.
    pub fn named(name: impl Into<String>) -> Self {
        ComponentSpec {
            name: name.into(),
            params: Value::Null,
        }
    }

    /// A component selected by name with explicit parameters.
    pub fn with_params(name: impl Into<String>, params: Value) -> Self {
        ComponentSpec {
            name: name.into(),
            params,
        }
    }
}

impl Serialize for ComponentSpec {
    fn to_value(&self) -> Value {
        if self.params.is_null() {
            Value::String(self.name.clone())
        } else {
            let mut m = Map::new();
            m.insert("name".to_string(), Value::String(self.name.clone()));
            m.insert("params".to_string(), self.params.clone());
            Value::Object(m)
        }
    }
}

impl Deserialize for ComponentSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::String(name) => Ok(ComponentSpec::named(name.clone())),
            Value::Object(m) => {
                let name = m
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| {
                        DeError::custom(
                            "component spec object needs a string \"name\" field".to_string(),
                        )
                    })?
                    .to_string();
                let params = m.get("params").cloned().unwrap_or(Value::Null);
                Ok(ComponentSpec { name, params })
            }
            other => Err(DeError::custom(format!(
                "expected a component name string or {{\"name\", \"params\"}} object, got {other:?}"
            ))),
        }
    }
}

/// A plugin factory: builds a `T` from the shared context and the
/// component's JSON params block.
type Factory<T, C> = Arc<dyn Fn(&C, &Value) -> Result<T, EntkError> + Send + Sync>;

/// A name → factory table for one extension point. `T` is what a factory
/// produces; `C` is the build context threaded through (seed, paths — `()`
/// when none is needed).
pub struct Registry<T, C = ()> {
    kind: &'static str,
    factories: BTreeMap<String, Factory<T, C>>,
}

impl<T, C> Registry<T, C> {
    /// An empty registry; `kind` names the extension point in error
    /// messages ("scheduler", "admission policy", …).
    pub fn new(kind: &'static str) -> Self {
        Registry {
            kind,
            factories: BTreeMap::new(),
        }
    }

    /// Registers `factory` under `name`, replacing any previous entry.
    pub fn register<F>(&mut self, name: impl Into<String>, factory: F)
    where
        F: Fn(&C, &Value) -> Result<T, EntkError> + Send + Sync + 'static,
    {
        self.factories.insert(name.into(), Arc::new(factory));
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.factories.keys().map(String::as_str).collect()
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
    }

    /// What this registry dispenses (for error messages).
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Builds the component a spec names, passing its declared params to
    /// the factory. Unknown names fail with a [`EntkError::Usage`] listing
    /// every registered alternative.
    pub fn build(&self, spec: &ComponentSpec, ctx: &C) -> Result<T, EntkError> {
        match self.factories.get(&spec.name) {
            Some(factory) => factory(ctx, &spec.params),
            None => Err(self.unknown(&spec.name)),
        }
    }

    /// Builds a component by bare name with default parameters.
    pub fn build_named(&self, name: &str, ctx: &C) -> Result<T, EntkError> {
        self.build(&ComponentSpec::named(name), ctx)
    }

    /// The typed unknown-name error: lists the registered alternatives.
    pub fn unknown(&self, name: &str) -> EntkError {
        EntkError::Usage(format!(
            "unknown {} {:?} (registered: {})",
            self.kind,
            name,
            self.names().join(", ")
        ))
    }
}

impl<T, C> std::fmt::Debug for Registry<T, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("kind", &self.kind)
            .field("names", &self.names())
            .finish()
    }
}

/// Parses a plugin's typed params struct from the declared JSON, treating
/// `Null` (no `"params"` key) as "all defaults". Factories call this so a
/// malformed params block fails as a [`EntkError::Usage`] naming the
/// component, not as a panic deep in deserialization.
pub fn params_or_default<P: Deserialize + Default>(
    kind: &str,
    name: &str,
    params: &Value,
) -> Result<P, EntkError> {
    if params.is_null() {
        return Ok(P::default());
    }
    serde_json::from_value(params)
        .map_err(|e| EntkError::Usage(format!("bad params for {kind} {name:?}: {e}")))
}

// ------------------------------------------------------- batch schedulers

/// Params of the `fair_share` scheduler plugin.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FairShareParams {
    /// Usage half-life in seconds.
    #[serde(default = "default_half_life")]
    half_life_secs: f64,
}

fn default_half_life() -> f64 {
    // Matches the pre-registry hard-wired FairShareScheduler::new(3600.0),
    // keeping golden traces for `"batch_policy": "fair_share"` byte-identical.
    3600.0
}

impl Default for FairShareParams {
    fn default() -> Self {
        FairShareParams {
            half_life_secs: default_half_life(),
        }
    }
}

/// Params of the `priority_aging` scheduler plugin.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PriorityAgingParams {
    /// Priority gained per waiting second.
    #[serde(default = "default_aging_rate")]
    aging_rate: f64,
    /// Priority subtracted per requested core.
    #[serde(default = "default_core_penalty")]
    core_penalty: f64,
}

fn default_aging_rate() -> f64 {
    1.0
}

fn default_core_penalty() -> f64 {
    4.0
}

impl Default for PriorityAgingParams {
    fn default() -> Self {
        PriorityAgingParams {
            aging_rate: default_aging_rate(),
            core_penalty: default_core_penalty(),
        }
    }
}

/// The batch-scheduler registry: every named policy a spec file can put
/// behind `"scheduler"` / `"batch_policy"`. Factories return a
/// [`SchedulerFactory`] rather than a built scheduler because federated
/// sessions construct one fresh (stateful) instance per member cluster.
pub fn schedulers() -> &'static Registry<SchedulerFactory> {
    static TABLE: OnceLock<Registry<SchedulerFactory>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut r = Registry::new("scheduler");
        r.register("fifo", |_: &(), params| {
            require_no_params("scheduler", "fifo", params)?;
            Ok(SchedulerFactory::new("fifo", || Box::new(FifoScheduler)))
        });
        r.register("backfill", |_: &(), params| {
            require_no_params("scheduler", "backfill", params)?;
            Ok(SchedulerFactory::new("backfill", || {
                Box::new(EasyBackfillScheduler)
            }))
        });
        r.register("fair_share", |_: &(), params| {
            let p: FairShareParams = params_or_default("scheduler", "fair_share", params)?;
            Ok(SchedulerFactory::new("fair_share", move || {
                Box::new(FairShareScheduler::new(p.half_life_secs))
            }))
        });
        r.register("priority_aging", |_: &(), params| {
            let p: PriorityAgingParams = params_or_default("scheduler", "priority_aging", params)?;
            Ok(SchedulerFactory::new("priority_aging", move || {
                Box::new(PriorityAgingScheduler::new(p.aging_rate, p.core_penalty))
            }))
        });
        r.register("sjf", |_: &(), params| {
            require_no_params("scheduler", "sjf", params)?;
            Ok(SchedulerFactory::new("sjf", || Box::new(SjfScheduler)))
        });
        r.register("round_robin", |_: &(), params| {
            require_no_params("scheduler", "round_robin", params)?;
            Ok(SchedulerFactory::new("round_robin", || {
                Box::<RoundRobinScheduler>::default()
            }))
        });
        r
    })
}

/// Parses a plugin's typed params struct, rejecting a missing params block
/// (for plugins with no sensible defaults, e.g. a sink that needs a path).
pub fn params_required<P: Deserialize>(
    kind: &str,
    name: &str,
    params: &Value,
) -> Result<P, EntkError> {
    if params.is_null() {
        return Err(EntkError::Usage(format!("{kind} {name:?} requires params")));
    }
    serde_json::from_value(params)
        .map_err(|e| EntkError::Usage(format!("bad params for {kind} {name:?}: {e}")))
}

/// Rejects a non-null params block on a parameterless plugin (a typo like
/// `{"name": "fifo", "params": {...}}` should fail loudly, not silently
/// ignore the params).
pub fn require_no_params(kind: &str, name: &str, params: &Value) -> Result<(), EntkError> {
    if params.is_null() {
        Ok(())
    } else {
        Err(EntkError::Usage(format!("{kind} {name:?} takes no params")))
    }
}

// ------------------------------------------------------ spec-text errors

/// 1-based line of the first occurrence of `"needle"` (quoted) in the
/// spec text — good enough to point at the offending key or name.
fn line_of(text: &str, needle: &str) -> Option<usize> {
    let pos = text.find(&format!("\"{needle}\""))?;
    Some(text[..pos].bytes().filter(|&b| b == b'\n').count() + 1)
}

/// Prefixes a usage message with the spec line the `needle` sits on.
/// Every spec loader reports through this, so a typo reads the same in a
/// single-session spec and a stream spec.
pub fn usage_at(text: &str, needle: &str, err: EntkError) -> EntkError {
    match (line_of(text, needle), err) {
        (Some(line), EntkError::Usage(msg)) => {
            EntkError::Usage(format!("workload spec line {line}: {msg}"))
        }
        (_, err) => err,
    }
}

/// Rejects every key of the JSON object `value` that is not in `known`,
/// pointing at its line in `text` and listing the keys that exist: a typo
/// must fail, not run a different experiment than the file describes. A
/// `value` that is no object passes; typed deserialization reports that.
pub fn reject_unknown_keys(text: &str, value: &Value, known: &[&str]) -> Result<(), EntkError> {
    let unknown = value
        .as_object()
        .and_then(|obj| obj.keys().find(|key| !known.contains(&key.as_str())));
    match unknown {
        None => Ok(()),
        Some(key) => Err(usage_at(
            text,
            key,
            EntkError::Usage(format!(
                "unknown key {key:?} (known keys: {})",
                known.join(", ")
            )),
        )),
    }
}

// ------------------------------------------------------------ fault grids

/// Params of the `retries` fault plugin.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RetryParams {
    /// Resubmissions before a task failure is reported to the pattern.
    #[serde(default = "default_max_retries")]
    max_retries: u32,
    /// Kill-replace watchdog in seconds; `0` disables it.
    #[serde(default)]
    task_timeout_secs: f64,
    /// Exponential-backoff base in seconds; `0` disables backoff.
    #[serde(default)]
    backoff_base_secs: f64,
    /// Finish with a partial report if every pilot dies mid-run.
    #[serde(default)]
    graceful: bool,
}

fn default_max_retries() -> u32 {
    3
}

impl Default for RetryParams {
    fn default() -> Self {
        RetryParams {
            max_retries: default_max_retries(),
            task_timeout_secs: 0.0,
            backoff_base_secs: 0.0,
            graceful: false,
        }
    }
}

/// The fault-grid registry: named session-level fault-tolerance policies
/// ([`FaultConfig`]).
pub fn faults() -> &'static Registry<FaultConfig> {
    static TABLE: OnceLock<Registry<FaultConfig>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut r = Registry::new("fault grid");
        r.register("none", |_: &(), params| {
            require_no_params("fault grid", "none", params)?;
            Ok(FaultConfig::default())
        });
        r.register("retries", |_: &(), params| {
            let p: RetryParams = params_or_default("fault grid", "retries", params)?;
            let mut fault = FaultConfig::retries(p.max_retries);
            if p.task_timeout_secs > 0.0 {
                fault = fault.with_timeout(SimDuration::from_secs_f64(p.task_timeout_secs));
            }
            if p.backoff_base_secs > 0.0 {
                fault = fault.with_backoff(crate::fault::BackoffPolicy::exponential(
                    p.backoff_base_secs,
                ));
            }
            if p.graceful {
                fault = fault.graceful();
            }
            Ok(fault)
        });
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use entk_cluster::{PendingView, RunningView};
    use entk_sim::SimTime;

    #[test]
    fn component_spec_round_trips_both_shapes() {
        let bare: ComponentSpec = serde_json::from_str("\"fifo\"").unwrap();
        assert_eq!(bare, ComponentSpec::named("fifo"));
        assert_eq!(serde_json::to_string(&bare).unwrap(), "\"fifo\"");

        let full: ComponentSpec =
            serde_json::from_str(r#"{"name": "fair_share", "params": {"half_life_secs": 600.0}}"#)
                .unwrap();
        assert_eq!(full.name, "fair_share");
        assert_eq!(full.params["half_life_secs"].as_f64(), Some(600.0));
        let text = serde_json::to_string(&full).unwrap();
        let back: ComponentSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(back, full);

        assert!(serde_json::from_str::<ComponentSpec>("17").is_err());
        assert!(serde_json::from_str::<ComponentSpec>(r#"{"params": {}}"#).is_err());
    }

    #[test]
    fn unknown_name_lists_registered_alternatives() {
        let err = schedulers()
            .build_named("priority", &())
            .expect_err("unregistered");
        let EntkError::Usage(msg) = &err else {
            panic!("expected Usage, got {err:?}");
        };
        assert!(msg.contains("unknown scheduler \"priority\""), "{msg}");
        for name in [
            "backfill",
            "fair_share",
            "fifo",
            "priority_aging",
            "round_robin",
            "sjf",
        ] {
            assert!(msg.contains(name), "{msg} missing {name}");
        }
    }

    #[test]
    fn every_registered_scheduler_builds_and_selects() {
        let queue = [PendingView {
            cores: 2,
            walltime: SimDuration::from_secs(60),
            project: "p".into(),
            submitted: SimTime::ZERO,
        }];
        let running: [RunningView; 0] = [];
        for name in schedulers().names() {
            let factory = schedulers().build_named(name, &()).expect(name);
            let mut sched = factory.build();
            let picked = sched.select(&queue, 4, SimTime::ZERO, &running);
            assert_eq!(picked, vec![0], "{name} must start the lone fitting job");
        }
    }

    #[test]
    fn scheduler_params_are_typed_and_validated() {
        let spec = ComponentSpec::with_params(
            "priority_aging",
            serde_json::from_str(r#"{"aging_rate": 2.0, "core_penalty": 0.0}"#).unwrap(),
        );
        schedulers().build(&spec, &()).unwrap();

        let bad = ComponentSpec::with_params(
            "fair_share",
            serde_json::from_str(r#"{"half_life_secs": "soon"}"#).unwrap(),
        );
        let err = schedulers().build(&bad, &()).expect_err("bad params");
        assert!(matches!(err, EntkError::Usage(_)), "{err:?}");

        let stray = ComponentSpec::with_params("fifo", serde_json::from_str("{}").unwrap());
        let err = schedulers().build(&stray, &()).expect_err("no params");
        assert!(err.to_string().contains("takes no params"), "{err}");
    }

    #[test]
    fn fault_grid_builds_typed_configs() {
        assert_eq!(
            faults().build_named("none", &()).unwrap(),
            FaultConfig::default()
        );
        let spec = ComponentSpec::with_params(
            "retries",
            serde_json::from_str(
                r#"{"max_retries": 2, "task_timeout_secs": 30.0, "graceful": true}"#,
            )
            .unwrap(),
        );
        let fault = faults().build(&spec, &()).unwrap();
        assert_eq!(fault.max_retries, 2);
        assert_eq!(fault.task_timeout, Some(SimDuration::from_secs(30)));
        assert!(fault.graceful);
        assert!(faults().build_named("chaos", &()).is_err());
    }

    #[test]
    fn fair_share_default_matches_legacy_half_life() {
        // The hard-wired pre-registry constant; golden traces depend on it.
        assert_eq!(FairShareParams::default().half_life_secs, 3600.0);
    }
}
