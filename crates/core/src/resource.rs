//! The Resource Handle (paper §III-B component 3): allocate resources, run
//! execution patterns on them, deallocate.
//!
//! A handle is one [`crate::session::SessionEngine`] (all backend-independent
//! session semantics) bound to one [`crate::backend::ExecutionBackend`]
//! (simulated, local, or federated).

use crate::backend::ExecutionBackend;
pub use crate::compat::DriveMode;
use crate::error::EntkError;
use crate::fault::FaultConfig;
use crate::overheads::EntkOverheads;
use crate::pattern::ExecutionPattern;
use crate::plugin_local::LocalBackend;
use crate::plugin_sim::{ClusterInit, EventBackend};
use crate::report::ExecutionReport;
use crate::session::SessionEngine;
use entk_cluster::PlatformSpec;
use entk_kernels::KernelRegistry;
use entk_pilot::{RuntimeOverheads, SimRuntimeConfig, UnitOrder};
use entk_sim::{SharedTelemetry, SimDuration, Telemetry};
use serde::{Deserialize, Serialize};

/// What resources the application asks for.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResourceConfig {
    /// Resource label: `"xsede.comet"`, `"xsede.stampede"`, `"lsu.supermic"`
    /// or `"local"`.
    pub resource: String,
    /// Cores to acquire (the pilot size).
    pub cores: usize,
    /// Allocation wall time.
    pub walltime: SimDuration,
}

impl ResourceConfig {
    /// Creates a config.
    pub fn new(resource: impl Into<String>, cores: usize, walltime: SimDuration) -> Self {
        ResourceConfig {
            resource: resource.into(),
            cores,
            walltime,
        }
    }
}

/// How the requested cores are acquired: one big pilot (the paper's
/// configuration) or several smaller ones (the "execution strategy"
/// extension of paper §V / Ref.\[23\] — smaller pilots clear shared batch
/// queues faster when queue wait grows with allocation size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PilotStrategy {
    /// Number of pilots the cores are split across.
    pub count: usize,
    /// Wait for all pilots to activate before `allocate()` returns
    /// (`true`), or for just the first (`false`, late binding).
    pub wait_all: bool,
}

impl PilotStrategy {
    /// The paper's configuration: one pilot holding all cores.
    pub fn single() -> Self {
        PilotStrategy {
            count: 1,
            wait_all: true,
        }
    }

    /// `count` equal pilots; `allocate()` returns at the first active one.
    pub fn split(count: usize) -> Self {
        PilotStrategy {
            count,
            wait_all: false,
        }
    }
}

impl Default for PilotStrategy {
    fn default() -> Self {
        Self::single()
    }
}

/// Tuning of the simulated backend.
#[derive(Debug, Clone)]
pub struct SimulatedConfig {
    /// Master seed; every stochastic component derives from it.
    pub seed: u64,
    /// Platform override; `None` resolves `ResourceConfig::resource` by name.
    pub platform: Option<PlatformSpec>,
    /// EnTK-side overhead model.
    pub entk_overheads: EntkOverheads,
    /// Runtime-side overhead model.
    pub runtime_overheads: RuntimeOverheads,
    /// Probability a unit execution fails (failure injection).
    pub unit_failure_rate: f64,
    /// Retry / kill-replace policy.
    pub fault: FaultConfig,
    /// Pilot acquisition strategy.
    pub pilot_strategy: PilotStrategy,
    /// Synthetic competing workload on the target machine (queue
    /// contention); `None` models a dedicated allocation.
    pub background_load: Option<entk_cluster::cluster::BackgroundLoad>,
    /// Batch scheduler of the target machine: any registered plugin (see
    /// [`crate::registry::schedulers`]); `None` is strict FIFO.
    pub scheduler: Option<crate::registry::ComponentSpec>,
    /// Platform-level fault injection (node crashes, task failures,
    /// stragglers); `None` models a fault-free machine.
    pub fault_profile: Option<entk_cluster::FaultProfile>,
    /// Collect the cross-layer trace (default `true`). Turn
    /// off for throughput measurements at extreme task counts: the trace
    /// grows by tens of records per task and comes to dominate memory and
    /// wall time long before the simulation itself does. Disabling never
    /// changes simulated timings, task outcomes, or RNG draws — only
    /// whether the run leaves an inspectable trace behind.
    pub telemetry: bool,
}

impl Default for SimulatedConfig {
    fn default() -> Self {
        SimulatedConfig {
            seed: 2016,
            platform: None,
            entk_overheads: EntkOverheads::calibrated(),
            runtime_overheads: RuntimeOverheads::radical_pilot(),
            unit_failure_rate: 0.0,
            fault: FaultConfig::default(),
            pilot_strategy: PilotStrategy::single(),
            background_load: None,
            scheduler: None,
            fault_profile: None,
            telemetry: true,
        }
    }
}

/// One member cluster of a federated session: an independently simulated
/// machine with its own platform, batch queue, load, and faults.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Resource label (resolves a [`PlatformSpec`] by name unless
    /// [`ClusterSpec::platform`] overrides it).
    pub resource: String,
    /// Cores to acquire on this cluster.
    pub cores: usize,
    /// Allocation wall time on this cluster.
    pub walltime: SimDuration,
    /// Platform override; `None` resolves `resource` by name.
    pub platform: Option<PlatformSpec>,
    /// Pilots the cores are split across on this cluster.
    pub pilots: usize,
    /// Synthetic competing workload on this cluster's batch queue.
    pub background_load: Option<entk_cluster::cluster::BackgroundLoad>,
    /// Platform-level fault injection on this cluster only.
    pub fault_profile: Option<entk_cluster::FaultProfile>,
    /// Probability a unit execution fails on this cluster.
    pub unit_failure_rate: f64,
}

impl ClusterSpec {
    /// A dedicated, fault-free cluster with one pilot.
    pub fn new(resource: impl Into<String>, cores: usize, walltime: SimDuration) -> Self {
        ClusterSpec {
            resource: resource.into(),
            cores,
            walltime,
            platform: None,
            pilots: 1,
            background_load: None,
            fault_profile: None,
            unit_failure_rate: 0.0,
        }
    }
}

/// Tuning of the federated multi-cluster backend. Session-level knobs
/// (overheads, fault policy, seed) are shared; machine-level knobs live on
/// each [`ClusterSpec`].
#[derive(Debug, Clone)]
pub struct FederatedConfig {
    /// Master seed; each cluster's runtime derives an independent stream.
    pub seed: u64,
    /// EnTK-side overhead model (session-wide).
    pub entk_overheads: EntkOverheads,
    /// Runtime-side overhead model (applied on every cluster).
    pub runtime_overheads: RuntimeOverheads,
    /// Retry / kill-replace policy (session-wide).
    pub fault: FaultConfig,
    /// Batch scheduler of every member cluster: any registered plugin (see
    /// [`crate::registry::schedulers`]); `None` is strict FIFO. Each member
    /// builds its own fresh scheduler instance from the resolved factory.
    pub scheduler: Option<crate::registry::ComponentSpec>,
    /// Wait for all pilots on all clusters before `allocate()` returns
    /// (`false` by default: first active pilot anywhere unblocks the
    /// session — late binding across clusters).
    pub wait_all: bool,
    /// Collect the cross-layer trace.
    pub telemetry: bool,
    /// Accepted and ignored (see [`DriveMode`]).
    pub drive: DriveMode,
    /// Accepted and ignored (see [`DriveMode`]).
    pub sim_threads: usize,
    /// The member clusters (at least one required).
    pub clusters: Vec<ClusterSpec>,
}

impl Default for FederatedConfig {
    fn default() -> Self {
        FederatedConfig {
            seed: 2016,
            entk_overheads: EntkOverheads::calibrated(),
            runtime_overheads: RuntimeOverheads::radical_pilot(),
            fault: FaultConfig::default(),
            scheduler: None,
            wait_all: false,
            telemetry: true,
            drive: DriveMode::default(),
            sim_threads: 0,
            clusters: Vec::new(),
        }
    }
}

/// The conservative lookahead of a federated session's run-phase windows:
/// the guaranteed floor of the earliest session reaction to a member event.
/// The session reacts to unit completions by scheduling the next batch
/// after at least the fixed task-submission overhead; with retries enabled
/// the retry backoff floor (often zero) also bounds the reaction, so
/// retry-heavy configs degrade toward serial-equivalent 1 µs windows.
fn derive_lookahead(overheads: &EntkOverheads, fault: &FaultConfig) -> SimDuration {
    let mut lookahead = overheads.task_submit_fixed.floor();
    if fault.max_retries > 0 {
        let backoff_floor = (fault.backoff.base * (1.0 - fault.backoff.jitter)).max(0.0);
        lookahead = lookahead.min(backoff_floor);
    }
    SimDuration::from_secs_f64(lookahead.max(0.0))
}

enum Inner {
    Event(Box<EventBackend>),
    Local(Box<LocalBackend>),
}

/// A handle to allocated (simulated, local, or federated) resources.
///
/// Lifecycle: [`ResourceHandle::allocate`] → one or more
/// [`ResourceHandle::run`] calls → [`ResourceHandle::deallocate`].
pub struct ResourceHandle {
    session: SessionEngine,
    inner: Inner,
}

impl ResourceHandle {
    /// Creates a handle on the simulated backend with built-in kernels.
    pub fn simulated(config: ResourceConfig, sim: SimulatedConfig) -> Result<Self, EntkError> {
        Self::simulated_with_registry(config, sim, KernelRegistry::with_builtins())
    }

    /// Creates a simulated handle with a custom kernel registry. A simulated
    /// session is a federation of one: the request lowers to a single member
    /// carrying the machine-level knobs and goes through the same builder as
    /// [`ResourceHandle::federated_with_registry`], reporting under the
    /// plain resource name.
    pub fn simulated_with_registry(
        config: ResourceConfig,
        sim: SimulatedConfig,
        registry: KernelRegistry,
    ) -> Result<Self, EntkError> {
        let label = config.resource.clone();
        let lowered = FederatedConfig {
            seed: sim.seed,
            entk_overheads: sim.entk_overheads,
            runtime_overheads: sim.runtime_overheads,
            fault: sim.fault,
            scheduler: sim.scheduler,
            wait_all: sim.pilot_strategy.wait_all,
            telemetry: sim.telemetry,
            // Drive knobs only steer the windowed merge, which needs two
            // members to exist.
            drive: DriveMode::default(),
            sim_threads: 0,
            clusters: vec![ClusterSpec {
                resource: config.resource,
                cores: config.cores,
                walltime: config.walltime,
                platform: sim.platform,
                pilots: sim.pilot_strategy.count,
                background_load: sim.background_load,
                fault_profile: sim.fault_profile,
                unit_failure_rate: sim.unit_failure_rate,
            }],
        };
        Self::event_handle(lowered, registry, label)
    }

    /// Creates a federated handle with built-in kernels: one session
    /// late-binding units across several independently simulated clusters.
    pub fn federated(config: FederatedConfig) -> Result<Self, EntkError> {
        Self::federated_with_registry(config, KernelRegistry::with_builtins())
    }

    /// Creates a federated handle with a custom kernel registry.
    pub fn federated_with_registry(
        config: FederatedConfig,
        registry: KernelRegistry,
    ) -> Result<Self, EntkError> {
        let members: Vec<&str> = config.clusters.iter().map(|c| &*c.resource).collect();
        let label = format!("federated:{}", members.join("+"));
        Self::event_handle(config, registry, label)
    }

    /// The one builder of discrete-event handles: resolves every member's
    /// platform, scheduler and runtime config, and binds the backend to a
    /// session. `label` is the resource name the reports carry.
    fn event_handle(
        config: FederatedConfig,
        registry: KernelRegistry,
        label: String,
    ) -> Result<Self, EntkError> {
        if config.clusters.is_empty() {
            return Err(EntkError::Resource(
                "federated session needs at least one cluster".to_string(),
            ));
        }
        let runtime_seed = config.seed ^ 0x52_55_4E;
        let scheduler = config
            .scheduler
            .as_ref()
            .map(|spec| crate::registry::schedulers().build(spec, &()))
            .transpose()?;
        let mut inits = Vec::with_capacity(config.clusters.len());
        for (i, spec) in config.clusters.into_iter().enumerate() {
            let platform = match spec.platform {
                Some(p) => p,
                None => PlatformSpec::by_name(&spec.resource).ok_or_else(|| {
                    EntkError::Resource(format!("unknown resource {:?}", spec.resource))
                })?,
            };
            if spec.cores == 0 || spec.cores > platform.total_cores() {
                return Err(EntkError::Resource(format!(
                    "requested {} cores; {} has {}",
                    spec.cores,
                    platform.name,
                    platform.total_cores()
                )));
            }
            // A pilot with no wall time dies as it starts, and a background
            // load with no gap between arrivals never lets virtual time
            // advance: the session would drain or spin instead of running.
            if spec.walltime == SimDuration::ZERO {
                return Err(EntkError::Resource(format!(
                    "requested a zero wall time on {}",
                    platform.name
                )));
            }
            if let Some(load) = &spec.background_load {
                for (what, value) in [
                    ("mean inter-arrival", load.mean_interarrival_secs),
                    ("mean runtime", load.runtime.mean()),
                    ("mean cores per job", load.cores.mean()),
                ] {
                    if !(value.is_finite() && value > 0.0) {
                        return Err(EntkError::Resource(format!(
                            "background load on {}: {what} must be finite and > 0, got {value}",
                            platform.name
                        )));
                    }
                }
                // Every competing job holds a core: a longer queue is no
                // machine, only memory.
                let (cores, jobs) = (platform.total_cores(), load.initial_jobs);
                if jobs > cores {
                    return Err(EntkError::Resource(format!(
                        "background load on {}: initial jobs must be at most its {cores} \
                         cores, got {jobs}",
                        platform.name
                    )));
                }
            }
            // Decorrelate the member clusters' stochastic streams while
            // keeping cluster 0 on the classic single-cluster stream.
            let cluster_seed = runtime_seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            inits.push(ClusterInit {
                resource: spec.resource,
                cores: spec.cores,
                walltime: spec.walltime,
                platform,
                runtime_config: SimRuntimeConfig {
                    overheads: config.runtime_overheads,
                    unit_failure_rate: spec.unit_failure_rate,
                    seed: cluster_seed,
                    // The factory is shared; each member's runtime builds
                    // its own fresh scheduler instance from it.
                    scheduler: scheduler.clone(),
                    telemetry: config.telemetry,
                },
                pilot_count: spec.pilots,
                background_load: spec.background_load,
                fault_profile: spec.fault_profile,
            });
        }
        let telemetry = if config.telemetry {
            SharedTelemetry::new()
        } else {
            SharedTelemetry::disabled()
        };
        let backend = EventBackend::new(
            inits,
            registry,
            config.wait_all,
            telemetry.clone(),
            label,
            derive_lookahead(&config.entk_overheads, &config.fault),
        );
        let session =
            SessionEngine::new(config.entk_overheads, config.fault, config.seed, telemetry);
        Ok(ResourceHandle {
            session,
            inner: Inner::Event(Box::new(backend)),
        })
    }

    /// Creates a handle executing kernels for real on `cores` (at least
    /// one) local core slots.
    pub fn local(cores: usize) -> Result<Self, EntkError> {
        Self::local_with(
            cores,
            KernelRegistry::with_builtins(),
            FaultConfig::default(),
        )
    }

    /// Local handle with custom registry and fault policy.
    pub fn local_with(
        cores: usize,
        registry: KernelRegistry,
        fault: FaultConfig,
    ) -> Result<Self, EntkError> {
        if cores == 0 {
            return Err(EntkError::Resource(
                "requested 0 cores; fork://localhost needs at least one".to_string(),
            ));
        }
        // The local backend runs in real time: the session never draws from
        // its RNG (no modeled overheads or backoff), so the seed is inert,
        // and the disabled telemetry pipeline drops every record.
        let session = SessionEngine::new(
            EntkOverheads::calibrated(),
            fault,
            0,
            SharedTelemetry::disabled(),
        );
        Ok(ResourceHandle {
            session,
            inner: Inner::Local(Box::new(LocalBackend::new(cores, registry))),
        })
    }

    /// Sets every simulated pilot runtime's [`UnitOrder`] (ablation hook).
    pub fn set_unit_order(&mut self, order: UnitOrder) {
        if let Inner::Event(b) = &mut self.inner {
            b.set_unit_order(order);
        }
    }

    /// Replaces the task-binding policy (simulated backends only) — the
    /// paper's §V "intelligent" execution plugin.
    pub fn set_binding_policy(&mut self, b: Box<dyn crate::binding::BindingPolicy>) {
        if let Inner::Event(d) = &mut self.inner {
            d.set_binding_policy(b);
        }
    }

    /// The shared cross-layer trace pipeline behind this handle.
    /// `None` on the local backend, which executes in real time and has no
    /// virtual-clock trace.
    pub fn telemetry(&self) -> Option<&SharedTelemetry> {
        match &self.inner {
            Inner::Event(_) => Some(self.session.telemetry()),
            Inner::Local(_) => None,
        }
    }

    /// The session engine and the backend it drives.
    fn parts(&mut self) -> (&mut SessionEngine, &mut dyn ExecutionBackend) {
        let backend: &mut dyn ExecutionBackend = match &mut self.inner {
            Inner::Event(b) => b.as_mut(),
            Inner::Local(b) => b.as_mut(),
        };
        (&mut self.session, backend)
    }

    /// Acquires resources: submits the pilot(s) and waits (in virtual time)
    /// until the allocation is usable.
    pub fn allocate(&mut self) -> Result<(), EntkError> {
        let (session, backend) = self.parts();
        session.allocate(backend)
    }

    /// Runs an execution pattern to completion on the allocated resources.
    pub fn run(
        &mut self,
        pattern: &mut dyn ExecutionPattern,
    ) -> Result<ExecutionReport, EntkError> {
        let (session, backend) = self.parts();
        session.run(backend, pattern)
    }

    /// Releases resources; returns the final session report (including
    /// teardown in the core overhead and total TTC).
    pub fn deallocate(&mut self) -> Result<ExecutionReport, EntkError> {
        let (session, backend) = self.parts();
        session.deallocate(backend)
    }

    /// The whole lifecycle in one call: allocate → run `pattern` →
    /// deallocate, consuming the handle. Returns the session report (the
    /// pattern's task records with the full session TTC and overhead
    /// decomposition, under the pattern's name) and the session telemetry,
    /// moved out rather than copied; it is empty on the local backend (see
    /// [`ResourceHandle::telemetry`]).
    pub fn execute(
        mut self,
        pattern: &mut dyn ExecutionPattern,
    ) -> Result<(ExecutionReport, Telemetry), EntkError> {
        self.allocate()?;
        let (session, backend) = self.parts();
        session.drive(backend, pattern)?;
        let mut report = self.deallocate()?;
        report.pattern = pattern.name().to_string();
        Ok((report, self.session.telemetry().take()))
    }
}

/// Convenience: [`ResourceHandle::execute`] on the simulated backend.
/// Returns the session report: the pattern's task records with the full
/// session TTC and complete overhead decomposition.
pub fn run_simulated(
    config: ResourceConfig,
    sim: SimulatedConfig,
    pattern: &mut dyn ExecutionPattern,
) -> Result<ExecutionReport, EntkError> {
    run_simulated_traced(config, sim, pattern).map(|(report, _)| report)
}

/// Like [`run_simulated`], but also returns the session's telemetry: the
/// cross-layer event trace (exportable as Chrome trace JSON or JSONL). The
/// trace is the input to [`crate::trace_check::cross_check`], which
/// re-derives the overhead breakdown from timestamps and asserts it
/// matches the accounting.
pub fn run_simulated_traced(
    config: ResourceConfig,
    sim: SimulatedConfig,
    pattern: &mut dyn ExecutionPattern,
) -> Result<(ExecutionReport, Telemetry), EntkError> {
    ResourceHandle::simulated(config, sim)?.execute(pattern)
}

/// Convenience: [`ResourceHandle::execute`] on the federated multi-cluster
/// backend.
pub fn run_federated(
    config: FederatedConfig,
    pattern: &mut dyn ExecutionPattern,
) -> Result<ExecutionReport, EntkError> {
    run_federated_traced(config, pattern).map(|(report, _)| report)
}

/// Like [`run_federated`], but also returns the session telemetry: one
/// chronologically interleaved trace covering every member cluster, with
/// per-cluster subject-id offsets keeping pilots/units/jobs/nodes distinct.
pub fn run_federated_traced(
    config: FederatedConfig,
    pattern: &mut dyn ExecutionPattern,
) -> Result<(ExecutionReport, Telemetry), EntkError> {
    ResourceHandle::federated(config)?.execute(pattern)
}
