//! Pluggable scenario registry: named component factories behind trait
//! objects, so a spec file — not a `match` arm — selects the batch
//! scheduler, admission policy, fault grid, workload source and report
//! sinks of a run (EnTK's "decouple what the ensemble does from how it
//! executes", and the follow-up papers' plugin-interface extensibility).
//!
//! * [`ComponentSpec`] — how a spec file names a component: a bare string
//!   (`"fifo"`) or `{"name": "fair_share", "params": {"half_life_secs":
//!   600.0}}`, and nothing else.
//! * [`Registry`] — a name → plugin table. A plugin is registered with the
//!   struct its params deserialize into, so that struct (marked
//!   `#[serde(deny_unknown_fields)]`) is the one statement of the keys the
//!   plugin takes and of their defaults. [`Registry::build`] parses the
//!   block and calls the constructor; [`Registry::check`] parses it and
//!   stops, which is what a spec loader asks of every component it names.
//! * [`SpecDoc`], the parsed spec every loader reads and reports through:
//!   a refusal names the JSON pointer of what it refuses
//!   (`/pattern/stages/1/args/bytes`) and [`SpecDoc::usage_at`] reads the
//!   line the parser recorded for it, so a mistake reads the same —
//!   `workload spec line N: …` — whichever document it is in, and a key of
//!   the same name earlier in the text cannot take its line.
//! * The built-in tables [`schedulers`] and [`faults`]; the workload crate
//!   adds admission policies, arrival sources and report sinks on the same
//!   [`Registry`] type.
//!
//! Adding a plugin is a closed operation on one file: implement the trait,
//! declare the params struct, `register` a constructor under a new name
//! (DESIGN.md §17). Resolution happens at session and admission boundaries
//! only, never on the per-event path.

use crate::error::EntkError;
use crate::fault::FaultConfig;
use entk_cluster::{
    EasyBackfillScheduler, FairShareScheduler, FifoScheduler, PriorityAgingScheduler,
    RoundRobinScheduler, SchedulerFactory, SjfScheduler,
};
use entk_sim::SimDuration;
use serde::{DeError, Deserialize, Map, Serialize};
use serde_json::{Offsets, Value};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// A named component selection with optional typed parameters, as written
/// in a spec file: a bare string (`"fifo"`) or an object with a `"name"`
/// and, optionally, a `"params"` block.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentSpec {
    /// Registered component name.
    pub name: String,
    /// Plugin-specific parameters; `Null` (no block) reads as `{}`.
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

/// The object shape of a [`ComponentSpec`].
#[derive(Deserialize)]
#[serde(deny_unknown_fields)]
struct ComponentObject {
    name: String,
    #[serde(default)]
    params: Value,
}

impl Deserialize for ComponentSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::String(name) => Ok(ComponentSpec::named(name.clone())),
            Value::Object(_) => {
                let ComponentObject { name, params } = ComponentObject::from_value(v)?;
                Ok(ComponentSpec { name, params })
            }
            other => Err(DeError::custom(format!(
                "expected a component name string or {{\"name\", \"params\"}} object, got {other:?}"
            ))),
        }
    }
}

/// Params of a plugin that takes none: an omitted block or `{}`.
#[derive(Debug, Clone, Copy, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct NoParams {}

/// Reads a params block as the plugin's struct; an omitted block is `{}`.
fn parse_params<P: Deserialize>(params: &Value) -> Result<P, DeError> {
    match params {
        Value::Null => P::from_value(&Value::Object(Map::new())),
        block => P::from_value(block),
    }
}

fn bad_params(kind: &str, name: &str, e: &DeError) -> EntkError {
    EntkError::Usage(format!("bad params for {kind} {name:?}: {e}"))
}

/// Deserializes a params block and calls the plugin's constructor: the
/// outer error is the block's, the inner one the constructor's.
type Build<T, C> = Box<dyn Fn(&C, &Value) -> Result<Result<T, EntkError>, DeError> + Send + Sync>;

/// One registered plugin: its params struct, erased behind the two things
/// a registry does with a params block.
struct Plugin<T, C> {
    /// Deserializes the block into the params struct and drops it.
    check: fn(&Value) -> Result<(), DeError>,
    build: Build<T, C>,
}

/// A name → plugin table for one extension point. `T` is what a plugin
/// constructs; `C` is the build context threaded through (seed, paths —
/// `()` when none is needed).
pub struct Registry<T, C = ()> {
    kind: &'static str,
    plugins: BTreeMap<String, Plugin<T, C>>,
}

impl<T, C> Registry<T, C> {
    /// An empty registry; `kind` names the extension point in error
    /// messages ("scheduler", "admission policy", …).
    pub fn new(kind: &'static str) -> Self {
        Registry {
            kind,
            plugins: BTreeMap::new(),
        }
    }

    /// Registers `construct` under `name`, replacing any previous entry.
    /// `P` is the plugin's params struct ([`NoParams`] when it takes none):
    /// the registry deserializes the spec's block into it, so the
    /// constructor sees typed values and a block `P` refuses never reaches
    /// it.
    pub fn register<P, F>(&mut self, name: &str, construct: F)
    where
        P: Deserialize + 'static,
        F: Fn(&C, P) -> Result<T, EntkError> + Send + Sync + 'static,
    {
        let plugin = Plugin {
            check: |params| parse_params::<P>(params).map(drop),
            build: Box::new(move |ctx, params| Ok(construct(ctx, parse_params(params)?))),
        };
        self.plugins.insert(name.to_string(), plugin);
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.plugins.keys().map(String::as_str).collect()
    }

    /// Builds the component a spec names from its declared params. Unknown
    /// names fail with a [`EntkError::Usage`] listing every registered
    /// alternative, a params block the plugin's struct refuses with one
    /// naming the component.
    pub fn build(&self, spec: &ComponentSpec, ctx: &C) -> Result<T, EntkError> {
        match self.plugins.get(&spec.name) {
            Some(plugin) => (plugin.build)(ctx, &spec.params)
                .map_err(|e| bad_params(self.kind, &spec.name, &e))?,
            None => Err(self.unknown(&spec.name)),
        }
    }

    /// Builds a component by bare name with default parameters.
    pub fn build_named(&self, name: &str, ctx: &C) -> Result<T, EntkError> {
        self.build(&ComponentSpec::named(name), ctx)
    }

    /// Everything [`Registry::build`] refuses short of calling the
    /// constructor — the name is registered and the params block
    /// deserializes — so checking a sink creates no file. `at` is the
    /// component's pointer in `doc` (`/sinks/1`); the error carries the
    /// line of its unknown name, or of the key or value its params refuse.
    pub fn check(&self, doc: &SpecDoc, at: &str, spec: &ComponentSpec) -> Result<(), EntkError> {
        self.check_in(doc, &format!("{at}/name"), &format!("{at}/params"), spec)
    }

    /// [`Registry::check`] with the name and the params block at the
    /// pointers given, as a stream source's `kind` and its flat params are.
    pub fn check_in(
        &self,
        doc: &SpecDoc,
        name_at: &str,
        params_at: &str,
        spec: &ComponentSpec,
    ) -> Result<(), EntkError> {
        let Some(plugin) = self.plugins.get(&spec.name) else {
            return Err(doc.usage_at(name_at, self.unknown(&spec.name)));
        };
        (plugin.check)(&spec.params).map_err(|e| {
            let at = format!("{params_at}{}", e.pointer());
            doc.usage_at(&at, bad_params(self.kind, &spec.name, &e))
        })
    }

    fn unknown(&self, name: &str) -> EntkError {
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

// --------------------------------------------------------- spec documents

/// A parsed spec document: its JSON value and the byte offset at which
/// each of its members and elements starts in the text, keyed by JSON
/// pointer. The one way from a refusal to its line is
/// [`SpecDoc::usage_at`].
pub struct SpecDoc<'a> {
    text: &'a str,
    /// Always holds `""`, the document itself: every pointer has a prefix here.
    offsets: Offsets,
    /// The document.
    pub value: Value,
}

/// Prefixes a usage message with the 1-based line of byte `offset` of the
/// spec text.
fn usage_on(text: &str, offset: usize, err: EntkError) -> EntkError {
    let line = text.as_bytes()[..offset].split(|&b| b == b'\n').count();
    match err {
        EntkError::Usage(msg) => EntkError::Usage(format!("workload spec line {line}: {msg}")),
        err => err,
    }
}

impl<'a> SpecDoc<'a> {
    /// Parses a spec document's text; a syntax error is refused on the line
    /// the parser stopped at.
    pub fn parse(text: &'a str) -> Result<Self, EntkError> {
        let (value, offsets) = serde_json::from_str_located(text).map_err(|e| {
            let err = EntkError::Usage(format!("bad spec: {e}"));
            usage_on(text, e.offset.unwrap_or(0), err)
        })?;
        Ok(SpecDoc {
            text,
            offsets,
            value,
        })
    }

    /// Reads the typed spec `T` out of the document. A key that `T` or a
    /// type inside it refuses fails on its line, with the keys that exist:
    /// a typo must fail, not run a different experiment than the file
    /// describes. A value that does not read fails on its line too.
    pub fn typed<T: Deserialize>(&self) -> Result<T, EntkError> {
        T::from_value(&self.value).map_err(|e| {
            let bad = if e.is_unknown_key() { "" } else { "bad spec: " };
            self.usage_at(e.pointer(), EntkError::Usage(format!("{bad}{e}")))
        })
    }

    /// Prefixes a usage message with the line of the value at JSON pointer
    /// `at` (`/policy/params/half_life_secs`), or of the deepest member or
    /// element holding it that the document has. Every spec loader reports
    /// through this, so a mistake reads the same in a single-session spec
    /// and a stream spec.
    pub fn usage_at(&self, mut at: &str, err: EntkError) -> EntkError {
        while !self.offsets.contains_key(at) {
            at = &at[..at.rfind('/').unwrap_or(0)];
        }
        usage_on(self.text, self.offsets[at], err)
    }
}

// ------------------------------------------------------- batch schedulers

/// Params of the `fair_share` scheduler plugin.
#[derive(Debug, Clone, Deserialize)]
#[serde(deny_unknown_fields)]
struct FairShareParams {
    /// Usage half-life in seconds; `0` disables decay.
    #[serde(default = "default_half_life")]
    half_life_secs: HalfLifeSecs,
}

fn default_half_life() -> HalfLifeSecs {
    // Matches the pre-registry hard-wired FairShareScheduler::new(3600.0),
    // keeping golden traces for `"batch_policy": "fair_share"` byte-identical.
    HalfLifeSecs(3600.0)
}

/// A usage `half_life_secs` the ledger can mean: a negative one ran as no
/// decay at all, which is what 0 asks for.
#[derive(Debug, Clone, Copy)]
struct HalfLifeSecs(f64);

impl Deserialize for HalfLifeSecs {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        off_or_finite(v, |secs| secs > 0.0, "> 0").map(HalfLifeSecs)
    }
}

/// Params of the `priority_aging` scheduler plugin.
#[derive(Debug, Clone, Deserialize)]
#[serde(deny_unknown_fields)]
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

/// The batch-scheduler registry: every named policy a spec file can put
/// behind `"scheduler"` / `"batch_policy"`. Plugins construct a
/// [`SchedulerFactory`] rather than a scheduler because federated sessions
/// build one fresh (stateful) instance per member cluster.
pub fn schedulers() -> &'static Registry<SchedulerFactory> {
    static TABLE: OnceLock<Registry<SchedulerFactory>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut r = Registry::new("scheduler");
        r.register("fifo", |_: &(), _: NoParams| {
            Ok(SchedulerFactory::new("fifo", || Box::new(FifoScheduler)))
        });
        r.register("backfill", |_: &(), _: NoParams| {
            Ok(SchedulerFactory::new("backfill", || {
                Box::new(EasyBackfillScheduler)
            }))
        });
        r.register("fair_share", |_: &(), p: FairShareParams| {
            Ok(SchedulerFactory::new("fair_share", move || {
                Box::new(FairShareScheduler::new(p.half_life_secs.0))
            }))
        });
        r.register("priority_aging", |_: &(), p: PriorityAgingParams| {
            Ok(SchedulerFactory::new("priority_aging", move || {
                Box::new(PriorityAgingScheduler::new(p.aging_rate, p.core_penalty))
            }))
        });
        r.register("sjf", |_: &(), _: NoParams| {
            Ok(SchedulerFactory::new("sjf", || Box::new(SjfScheduler)))
        });
        r.register("round_robin", |_: &(), _: NoParams| {
            Ok(SchedulerFactory::new("round_robin", || {
                Box::<RoundRobinScheduler>::default()
            }))
        });
        r
    })
}

// ------------------------------------------------------------ fault grids

/// Params of the `retries` fault plugin.
#[derive(Debug, Clone, Deserialize)]
#[serde(deny_unknown_fields)]
struct RetryParams {
    /// Resubmissions before a task failure is reported to the pattern.
    #[serde(default = "default_max_retries")]
    max_retries: u32,
    /// Kill-replace watchdog in seconds; `0` disables it.
    #[serde(default)]
    task_timeout_secs: TimeoutSecs,
    /// Exponential-backoff base in seconds; `0` disables backoff.
    #[serde(default)]
    backoff_base_secs: BackoffSecs,
    /// Finish with a partial report if every pilot dies mid-run.
    #[serde(default)]
    graceful: bool,
}

fn default_max_retries() -> u32 {
    3
}

/// A seconds param where 0 means off and anything else must be finite and
/// pass `ok`, refused while the spec is read, where `entk check` sees it.
fn off_or_finite(v: &Value, ok: fn(f64) -> bool, rule: &str) -> Result<f64, DeError> {
    let secs = f64::from_value(v)?;
    if secs == 0.0 || (secs.is_finite() && ok(secs)) {
        return Ok(secs);
    }
    let msg = format!("must be 0 (off) or finite and {rule}, got {secs:?}");
    Err(DeError::custom(msg))
}

/// A `task_timeout_secs` of at least the clock's 1 µs tick: a smaller one
/// rounded to a zero watchdog that killed every task as it started.
#[derive(Debug, Clone, Copy, Default)]
struct TimeoutSecs(f64);

impl Deserialize for TimeoutSecs {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        off_or_finite(v, |secs| secs >= 1e-6, "at least 1e-6 s").map(TimeoutSecs)
    }
}

/// A `backoff_base_secs` the backoff policy can mean.
#[derive(Debug, Clone, Copy, Default)]
struct BackoffSecs(f64);

impl Deserialize for BackoffSecs {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        off_or_finite(v, |secs| secs > 0.0, "> 0").map(BackoffSecs)
    }
}

/// The fault-grid registry: named session-level fault-tolerance policies
/// ([`FaultConfig`]).
pub fn faults() -> &'static Registry<FaultConfig> {
    static TABLE: OnceLock<Registry<FaultConfig>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut r = Registry::new("fault grid");
        r.register("none", |_: &(), _: NoParams| Ok(FaultConfig::default()));
        r.register("retries", |_: &(), p: RetryParams| {
            let mut fault = FaultConfig::retries(p.max_retries);
            if p.task_timeout_secs.0 > 0.0 {
                fault = fault.with_timeout(SimDuration::from_secs_f64(p.task_timeout_secs.0));
            }
            if p.backoff_base_secs.0 > 0.0 {
                fault = fault.with_backoff(crate::fault::BackoffPolicy::exponential(
                    p.backoff_base_secs.0,
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

        // A parameterless plugin takes an empty block and refuses any key.
        let empty = ComponentSpec::with_params("fifo", serde_json::from_str("{}").unwrap());
        schedulers().build(&empty, &()).unwrap();
        let stray =
            ComponentSpec::with_params("fifo", serde_json::from_str(r#"{"x": 1}"#).unwrap());
        let err = schedulers().build(&stray, &()).expect_err("no params");
        assert_eq!(
            err.to_string(),
            "usage error: bad params for scheduler \"fifo\": unknown key \"x\" (known keys: none)"
        );
    }

    #[test]
    fn component_spec_takes_a_name_and_params_and_nothing_else() {
        let err = serde_json::from_str::<ComponentSpec>(r#"{"name": "fair", "parms": {}}"#)
            .expect_err("typoed params");
        assert_eq!(
            err.to_string(),
            "unknown key \"parms\" (known keys: name, params)"
        );
    }

    /// `check` is `build` without the constructor: same names, same params
    /// blocks, the error pointing into the text.
    #[test]
    fn check_refuses_what_build_refuses_without_constructing() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static BUILT: AtomicUsize = AtomicUsize::new(0);
        let mut r: Registry<f64> = Registry::new("gadget");
        r.register("half_life", |_: &(), p: FairShareParams| {
            BUILT.fetch_add(1, Ordering::Relaxed);
            Ok(p.half_life_secs.0)
        });
        let text = "{\n  \"name\": \"half_life\",\n  \"params\": { \"half_life_sec\": 1.0 }\n}";
        let doc = SpecDoc::parse(text).unwrap();
        let spec = |name: &str, params: &str| {
            ComponentSpec::with_params(name, serde_json::from_str(params).unwrap())
        };
        for (case, accepted) in [
            (ComponentSpec::named("half_life"), true),
            (spec("half_life", "{}"), true),
            (spec("half_life", r#"{"half_life_secs": 60.0}"#), true),
            (spec("half_life", r#"{"half_life_secs": "soon"}"#), false),
            (spec("half_life", r#"{"half_life_secs": -5.0}"#), false),
            (spec("half_life", r#"{"half_life_sec": 1.0}"#), false),
            (spec("half_life", "3"), false),
            (ComponentSpec::named("quarter_life"), false),
        ] {
            let before = BUILT.load(Ordering::Relaxed);
            let checked = r.check(&doc, "", &case);
            assert_eq!(BUILT.load(Ordering::Relaxed), before, "check constructed");
            assert_eq!(checked.is_ok(), accepted, "{case:?}: {checked:?}");
            assert_eq!(r.build(&case, &()).is_ok(), accepted, "{case:?}");
        }
        assert_eq!(r.build_named("half_life", &()).unwrap(), 3600.0);
        // The refused key's own line; a refused block points at the block,
        // an unknown name at the name.
        let err = r.check(&doc, "", &spec("half_life", r#"{"half_life_sec": 1.0}"#));
        assert_eq!(
            err.unwrap_err().to_string(),
            "usage error: workload spec line 3: bad params for gadget \"half_life\": \
             unknown key \"half_life_sec\" (known keys: half_life_secs)"
        );
        let err = r.check(&doc, "", &spec("half_life", "3")).unwrap_err();
        assert!(err.to_string().contains("line 3: bad params"), "{err}");
        let err = r.check(&doc, "", &ComponentSpec::named("quarter_life"));
        let err = err.unwrap_err().to_string();
        assert!(
            err.contains("line 2: unknown gadget \"quarter_life\""),
            "{err}"
        );
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
        let omitted: FairShareParams = parse_params(&Value::Null).unwrap();
        assert_eq!(omitted.half_life_secs.0, 3600.0);
    }
}
