//! The simulated pilot runtime: pilot manager + unit manager + agent,
//! advanced by discrete events.
//!
//! Reproduces the RADICAL-Pilot execution model (paper §III-C2): pilots are
//! container jobs submitted to the machine's batch system; compute units are
//! scheduled onto pilot cores at the application level, so more tasks than
//! cores can be expressed and executed as capacity frees up.

use crate::description::{PilotDescription, UnitDescription};
use crate::overheads::RuntimeOverheads;
use crate::scheduler::{FirstFitScheduler, PilotView, UnitScheduler, UnitView};
use crate::states::{PilotId, PilotState, UnitId, UnitState};
use entk_cluster::{
    BatchJobDescription, BatchJobId, BatchJobState, Cluster, ClusterEvent, ClusterNotification,
    FifoScheduler, PlatformSpec,
};
use entk_sim::{Context, DenseStore, SharedTelemetry, SimDuration, SimRng, SimTime, Subject};
use std::ops::Range;

/// Events the runtime schedules for itself.
#[derive(Debug, Clone)]
pub enum RuntimeEvent {
    /// Pilot submission overhead paid; submit the container job.
    PilotSubmitted(PilotId),
    /// Unit submission overhead paid; the units of this contiguous raw id
    /// range (one [`SimRuntime::submit_units`] call) enter scheduling.
    UnitsSubmitted(Range<u64>),
    /// Run a unit-scheduler pass.
    SchedulePass,
    /// A unit's input staging finished.
    StageInDone(UnitId),
    /// A unit's launch overhead was paid; execution begins.
    LaunchDone(UnitId),
    /// A unit's modelled execution finished.
    ExecDone(UnitId),
    /// A unit's output staging finished.
    StageOutDone(UnitId),
}

/// State changes reported to the application layer (EnTK).
#[derive(Debug, Clone)]
pub enum RuntimeNotification {
    /// A pilot changed state.
    Pilot {
        /// The pilot.
        id: PilotId,
        /// New state.
        state: PilotState,
        /// When.
        time: SimTime,
    },
    /// A unit changed state.
    Unit {
        /// The unit.
        id: UnitId,
        /// New state.
        state: UnitState,
        /// When.
        time: SimTime,
        /// Failure reason, when `state == Failed`.
        detail: Option<String>,
    },
    /// A node crash shrank a pilot's allocation mid-run; it keeps running
    /// on what remains (shrink-or-die: losing every core fails it instead).
    PilotShrunk {
        /// The pilot.
        id: PilotId,
        /// Cores lost to the crash.
        lost_cores: usize,
        /// Cores the pilot still holds.
        remaining_cores: usize,
        /// When.
        time: SimTime,
    },
}

/// Configuration of a simulated runtime session.
#[derive(Debug, Clone)]
pub struct SimRuntimeConfig {
    /// Runtime overhead model.
    pub overheads: RuntimeOverheads,
    /// Probability that a unit's execution fails (failure injection).
    pub unit_failure_rate: f64,
    /// RNG seed for the runtime's own draws.
    pub seed: u64,
    /// Batch scheduler of the target machine; `None` is strict FIFO with
    /// head-of-line blocking. A factory rather than an instance because
    /// federated sessions build one fresh scheduler per member cluster so
    /// stateful policies (fair-share ledgers, rotation cursors) are never
    /// shared across machines.
    pub scheduler: Option<entk_cluster::SchedulerFactory>,
    /// Collect the cross-layer trace and metrics. Disabling skips every
    /// telemetry record, which matters at million-task scale where the
    /// trace itself (tens of millions of records) dominates memory and a
    /// measurable share of wall time. Simulated timings and RNG draws are
    /// identical either way.
    pub telemetry: bool,
}

impl Default for SimRuntimeConfig {
    fn default() -> Self {
        SimRuntimeConfig {
            overheads: RuntimeOverheads::radical_pilot(),
            unit_failure_rate: 0.0,
            seed: 0x5EED,
            scheduler: None,
            telemetry: true,
        }
    }
}

struct PilotRecord {
    description: PilotDescription,
    state: PilotState,
    /// The container job, once the batch system accepted it.
    job: Option<BatchJobId>,
    free_cores: usize,
    /// Accepted by the pilot manager.
    submitted: SimTime,
    /// Container job submitted to the batch system.
    launched: Option<SimTime>,
    /// Agent became active.
    active: Option<SimTime>,
}

/// One row of the unit table. Of the submitted description it keeps the
/// four numbers virtual-time execution reads — not the name or a real
/// closure, which nothing here runs. Of the unit's lifecycle
/// it keeps the one instant a caller asks for after the fact; the trace is
/// the record of the rest.
struct UnitRecord {
    cores: usize,
    /// Modelled execution time (zero for real work, which has no place in
    /// virtual time).
    duration: SimDuration,
    input_bytes: u64,
    output_bytes: u64,
    state: UnitState,
    pilot: Option<PilotId>,
    /// Cores currently held on the pilot (released at exec end).
    holding: usize,
    /// Pending `ExecDone` event, cancellable if the unit dies early.
    exec_event: Option<entk_sim::EventId>,
    /// Slot in the persistent waiting list while in `Scheduling`.
    waiting_slot: Option<u32>,
    /// When execution finished, whatever the outcome.
    exec_stop: Option<SimTime>,
}

// A row is what every task of an ensemble keeps resident in this layer.
const _: () = assert!(std::mem::size_of::<UnitRecord>() <= 104);

/// Driver event bound: the top-level enum must absorb both runtime and
/// cluster events.
pub trait RuntimeEventSink: From<RuntimeEvent> + From<ClusterEvent> {}
impl<T: From<RuntimeEvent> + From<ClusterEvent>> RuntimeEventSink for T {}

/// The simulated pilot runtime for one target resource.
pub struct SimRuntime {
    cluster: Cluster,
    config: SimRuntimeConfig,
    rng: SimRng,
    scheduler: Box<dyn UnitScheduler>,
    // Dense slab stores: pilot and unit ids are assigned sequentially and
    // never removed, so records live in plain vectors indexed by the raw
    // id — no hashing on the per-event hot path, and iteration is in id
    // order (deterministic without sorting).
    pilots: Vec<PilotRecord>,
    /// By `BatchJobId`; the cluster's background jobs have no entry.
    job_to_pilot: DenseStore<PilotId>,
    units: Vec<UnitRecord>,
    /// Persistent waiting list in submission order. Placed, cancelled, and
    /// failed entries become tombstones instead of being spliced out (no
    /// per-placement `retain`); `compact_waiting` skips leading tombstones
    /// and rebuilds once dead entries outnumber live ones, keeping scans
    /// amortized O(live).
    waiting: Vec<UnitView>,
    /// First slot that may hold a live entry.
    waiting_head: usize,
    /// Live (placeable) entries in `waiting[waiting_head..]`.
    waiting_live: usize,
    /// Tombstones in `waiting[waiting_head..]`.
    waiting_dead: usize,
    /// Monotone upper bound on waiting units' core demand; the doomed-unit
    /// scan in `schedule_pass` runs only when this exceeds the largest
    /// pilot, instead of partitioning the whole list every pass.
    max_waiting_cores: usize,
    /// Set when the waiting set grew or capacity may have freed since the
    /// last pass. Clear means a pass would place nothing (schedulers are
    /// work-conserving, see `UnitScheduler`), so the pass is skipped.
    sched_dirty: bool,
    /// Set when any pilot's state, size, or existence changed; the cached
    /// `pilot_views` / `max_pilot_cores` below are rebuilt lazily.
    pilots_dirty: bool,
    /// Cached scheduler-facing pilot views, index == pilot id.
    pilot_views: Vec<PilotView>,
    /// Cached max core count over non-terminal pilots.
    max_pilot_cores: usize,
    telemetry: SharedTelemetry,
    /// Maintained count of non-terminal units, mirrored into the
    /// `pilot.live_units` gauge without rescanning the unit store.
    live: usize,
    next_pilot: u64,
    next_unit: u64,
}

impl SimRuntime {
    /// Creates a runtime targeting one simulated machine.
    pub fn new(spec: PlatformSpec, config: SimRuntimeConfig) -> Self {
        let telemetry = if config.telemetry {
            SharedTelemetry::new()
        } else {
            SharedTelemetry::disabled()
        };
        Self::with_telemetry(spec, config, telemetry)
    }

    /// Like [`SimRuntime::new`], but recording into a caller-provided
    /// telemetry pipeline. Federated sessions pass each cluster's runtime a
    /// subject-offset view of one shared pipeline so all clusters append to
    /// a single chronologically interleaved trace.
    pub fn with_telemetry(
        spec: PlatformSpec,
        config: SimRuntimeConfig,
        telemetry: SharedTelemetry,
    ) -> Self {
        let seed = config.seed;
        let scheduler: Box<dyn entk_cluster::BatchScheduler> = match &config.scheduler {
            Some(factory) => factory.build(),
            None => Box::new(FifoScheduler),
        };
        let mut cluster = Cluster::with_scheduler(spec, seed ^ 0xC1u64, scheduler);
        cluster.set_telemetry(telemetry.clone());
        SimRuntime {
            cluster,
            rng: SimRng::seed_from_u64(seed),
            config,
            scheduler: Box::new(FirstFitScheduler),
            pilots: Vec::new(),
            job_to_pilot: DenseStore::new(),
            units: Vec::new(),
            waiting: Vec::new(),
            waiting_head: 0,
            waiting_live: 0,
            waiting_dead: 0,
            max_waiting_cores: 0,
            sched_dirty: false,
            pilots_dirty: false,
            pilot_views: Vec::new(),
            max_pilot_cores: 0,
            telemetry,
            live: 0,
            next_pilot: 0,
            next_unit: 0,
        }
    }

    /// Replaces the unit scheduler (ablation hook).
    pub fn set_scheduler(&mut self, scheduler: Box<dyn UnitScheduler>) {
        self.scheduler = scheduler;
    }

    /// The machine this runtime targets.
    pub fn platform(&self) -> &PlatformSpec {
        self.cluster.spec()
    }

    /// The shared telemetry pipeline this runtime (and its cluster) record
    /// into; clone it into higher layers to join the same trace.
    pub fn telemetry(&self) -> &SharedTelemetry {
        &self.telemetry
    }

    /// Current state of a pilot.
    pub fn pilot_state(&self, id: PilotId) -> Option<PilotState> {
        self.pilots.get(id.0 as usize).map(|p| p.state)
    }

    /// Current state of a unit.
    pub fn unit_state(&self, id: UnitId) -> Option<UnitState> {
        self.units.get(id.0 as usize).map(|u| u.state)
    }

    /// When a unit's execution finished; `None` until it has.
    pub fn unit_exec_stop(&self, id: UnitId) -> Option<SimTime> {
        self.units.get(id.0 as usize)?.exec_stop
    }

    /// A pilot's submission overhead (accepted → container job submitted)
    /// and its wait from there until the agent was active; a phase the
    /// pilot has not finished reads zero.
    pub fn pilot_startup(&self, id: PilotId) -> Option<(SimDuration, SimDuration)> {
        let p = self.pilots.get(id.0 as usize)?;
        let submit = p
            .launched
            .map_or(SimDuration::ZERO, |l| l.saturating_since(p.submitted));
        let wait = p
            .active
            .zip(p.launched)
            .map_or(SimDuration::ZERO, |(a, l)| a.saturating_since(l));
        Some((submit, wait))
    }

    /// Free cores across active pilots.
    pub fn free_cores(&self) -> usize {
        self.pilots
            .iter()
            .filter(|p| p.state == PilotState::Active)
            .map(|p| p.free_cores)
            .sum()
    }

    /// Number of units not yet in a terminal state (O(1): the count is
    /// maintained incrementally, not rescanned).
    pub fn live_units(&self) -> usize {
        self.live
    }

    /// Submits a pilot. The pilot-submission overhead is paid before the
    /// container job reaches the batch system.
    pub fn submit_pilot<E: RuntimeEventSink>(
        &mut self,
        description: PilotDescription,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<RuntimeNotification>,
    ) -> Result<PilotId, String> {
        description.validate()?;
        let id = PilotId(self.next_pilot);
        self.next_pilot += 1;
        debug_assert_eq!(id.0 as usize, self.pilots.len());
        self.pilots.push(PilotRecord {
            free_cores: description.cores,
            description,
            state: PilotState::New,
            job: None,
            submitted: ctx.now(),
            launched: None,
            active: None,
        });
        self.pilots_dirty = true;
        let event = PilotState::trace_event(None, PilotState::New);
        let event = event.expect("a submitted pilot is recorded");
        self.telemetry
            .record(ctx.now(), "pilot", event, Subject::Pilot(id.0));
        let delay = self
            .config
            .overheads
            .pilot_submission
            .sample_duration(&mut self.rng);
        ctx.schedule_in(delay, RuntimeEvent::PilotSubmitted(id));
        out.push(RuntimeNotification::Pilot {
            id,
            state: PilotState::New,
            time: ctx.now(),
        });
        Ok(id)
    }

    /// Submits a batch of units. Per-call and per-unit submission overheads
    /// are paid before the units become schedulable. Returns the contiguous
    /// range of raw [`UnitId`]s assigned, in description order.
    pub fn submit_units<E: RuntimeEventSink>(
        &mut self,
        descriptions: impl AsRef<[UnitDescription]>,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<RuntimeNotification>,
    ) -> Result<Range<u64>, String> {
        let descriptions = descriptions.as_ref();
        for d in descriptions {
            d.validate()?;
        }
        let n = descriptions.len() as u64;
        let ids = self.next_unit..self.next_unit + n;
        entk_sim::reserve_batch(&mut self.units, descriptions.len());
        for description in descriptions {
            let id = UnitId(self.next_unit);
            self.next_unit += 1;
            debug_assert_eq!(id.0 as usize, self.units.len());
            self.units.push(UnitRecord {
                cores: description.cores,
                duration: description.duration,
                input_bytes: description.input_bytes,
                output_bytes: description.output_bytes,
                state: UnitState::New,
                pilot: None,
                holding: 0,
                exec_event: None,
                waiting_slot: None,
                exec_stop: None,
            });
            self.live += 1;
            let event = UnitState::trace_event(None, UnitState::New);
            let event = event.expect("a submitted unit is recorded");
            self.telemetry
                .record(ctx.now(), "pilot", event, Subject::Unit(id.0));
            out.push(RuntimeNotification::Unit {
                id,
                state: UnitState::New,
                time: ctx.now(),
                detail: None,
            });
        }
        self.telemetry
            .gauge("pilot.live_units", ctx.now(), self.live as f64);
        let fixed = self
            .config
            .overheads
            .unit_submit_fixed
            .sample(&mut self.rng);
        let per = self
            .config
            .overheads
            .unit_submit_per_unit
            .sample(&mut self.rng);
        let delay = SimDuration::from_secs_f64(fixed + per * n as f64);
        ctx.schedule_in(delay, RuntimeEvent::UnitsSubmitted(ids.clone()));
        Ok(ids)
    }

    /// Cancels a unit that has not finished.
    pub fn cancel_unit<E: RuntimeEventSink>(
        &mut self,
        id: UnitId,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<RuntimeNotification>,
    ) {
        let Some(unit) = self.units.get_mut(id.0 as usize) else {
            return;
        };
        if unit.state.is_terminal() || !unit.state.can_transition_to(UnitState::Canceled) {
            return;
        }
        let released = unit.holding;
        let pilot = unit.pilot;
        unit.holding = 0;
        self.set_unit_state(id, UnitState::Canceled, ctx.now(), None, ctx, out);
        if let (Some(pid), true) = (pilot, released > 0) {
            if let Some(p) = self.pilots.get_mut(pid.0 as usize) {
                p.free_cores += released;
                self.pilots_dirty = true;
            }
            self.sched_dirty = true;
            ctx.schedule_in(SimDuration::ZERO, RuntimeEvent::SchedulePass);
        }
    }

    /// Cancels a pilot: its container job is cancelled and units currently
    /// on it fail; waiting units stay queued for other pilots.
    pub fn cancel_pilot<E: RuntimeEventSink>(
        &mut self,
        id: PilotId,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<RuntimeNotification>,
    ) {
        let Some(p) = self.pilots.get(id.0 as usize) else {
            return;
        };
        if p.state.is_terminal() {
            return;
        }
        if let Some(job) = p.job {
            let mut notes = Vec::new();
            self.cluster.cancel(job, ctx, &mut notes);
            self.apply_cluster_notes(notes, ctx, out);
        } else {
            self.set_pilot_state(id, PilotState::Canceled, ctx.now(), out);
        }
    }

    /// Completes a pilot gracefully: releases the allocation back to the
    /// batch system (used by the resource handle's `deallocate`).
    pub fn finish_pilot<E: RuntimeEventSink>(
        &mut self,
        id: PilotId,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<RuntimeNotification>,
    ) {
        let Some(p) = self.pilots.get(id.0 as usize) else {
            return;
        };
        match p.state {
            PilotState::Active => {
                if let Some(job) = p.job {
                    let mut notes = Vec::new();
                    self.cluster.complete(job, ctx, &mut notes);
                    self.apply_cluster_notes(notes, ctx, out);
                }
            }
            PilotState::New | PilotState::Launching => self.cancel_pilot(id, ctx, out),
            _ => {}
        }
    }

    /// Handles a runtime event.
    pub fn handle<E: RuntimeEventSink>(
        &mut self,
        event: RuntimeEvent,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<RuntimeNotification>,
    ) {
        match event {
            RuntimeEvent::PilotSubmitted(id) => self.on_pilot_submitted(id, ctx, out),
            RuntimeEvent::UnitsSubmitted(ids) => {
                entk_sim::reserve_batch(&mut self.waiting, (ids.end - ids.start) as usize);
                for id in ids.map(UnitId) {
                    if self.units[id.0 as usize].state != UnitState::New {
                        continue;
                    }
                    self.set_unit_state(id, UnitState::Scheduling, ctx.now(), None, ctx, out);
                    let unit = &mut self.units[id.0 as usize];
                    unit.waiting_slot = Some(self.waiting.len() as u32);
                    let cores = unit.cores;
                    self.waiting.push(UnitView { id, cores });
                    self.waiting_live += 1;
                    self.max_waiting_cores = self.max_waiting_cores.max(cores);
                    self.sched_dirty = true;
                }
                self.schedule_pass(ctx, out);
            }
            RuntimeEvent::SchedulePass => self.schedule_pass(ctx, out),
            RuntimeEvent::StageInDone(id) => self.on_stagein_done(id, ctx),
            RuntimeEvent::LaunchDone(id) => self.on_launch_done(id, ctx, out),
            RuntimeEvent::ExecDone(id) => self.on_exec_done(id, ctx, out),
            RuntimeEvent::StageOutDone(id) => self.on_stageout_done(id, ctx, out),
        }
    }

    /// Handles a cluster event (queue movement, walltime, etc.).
    pub fn handle_cluster<E: RuntimeEventSink>(
        &mut self,
        event: ClusterEvent,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<RuntimeNotification>,
    ) {
        let mut notes = Vec::new();
        self.cluster.handle(event, ctx, &mut notes);
        self.apply_cluster_notes(notes, ctx, out);
    }

    /// Mutable access to the cluster, for tests and transfer modelling.
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    fn on_pilot_submitted<E: RuntimeEventSink>(
        &mut self,
        id: PilotId,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<RuntimeNotification>,
    ) {
        let p = self.pilots.get_mut(id.0 as usize).expect("pilot exists");
        if p.state != PilotState::New {
            return;
        }
        let description = BatchJobDescription {
            name: "radical-pilot-agent".into(),
            cores: p.description.cores,
            walltime: p.description.walltime,
            queue: p.description.queue.clone(),
            project: p.description.project.clone(),
        };
        // The cluster's own `Queued` (or `Failed`) note changes nothing
        // here: the pilot is `Launching` either way until the result below.
        let submitted = self.cluster.submit(description, ctx, &mut Vec::new());
        self.set_pilot_state(id, PilotState::Launching, ctx.now(), out);
        match submitted {
            Ok(job) => {
                self.pilots[id.0 as usize].job = Some(job);
                self.job_to_pilot.insert(job.0, id);
            }
            Err(_) => self.on_pilot_gone(id, PilotState::Failed, ctx.now(), ctx, out),
        }
    }

    /// Maps each note about a pilot's container job to the pilot's
    /// transition; notes about background jobs are dropped.
    fn apply_cluster_notes<E: RuntimeEventSink>(
        &mut self,
        notes: Vec<ClusterNotification>,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<RuntimeNotification>,
    ) {
        for note in notes {
            let (job, next, time) = match note {
                ClusterNotification::JobShrunk {
                    id,
                    lost_cores,
                    time,
                    ..
                } => {
                    if let Some(&pid) = self.job_to_pilot.get(id.0) {
                        self.shrink_pilot(pid, lost_cores, time, ctx, out);
                    }
                    continue;
                }
                ClusterNotification::JobState { id, state, time } => {
                    let next = match state {
                        BatchJobState::Queued | BatchJobState::Starting => continue,
                        BatchJobState::Running => PilotState::Active,
                        BatchJobState::Completed => PilotState::Done,
                        BatchJobState::Cancelled => PilotState::Canceled,
                        BatchJobState::TimedOut | BatchJobState::Failed => PilotState::Failed,
                    };
                    (id, next, time)
                }
            };
            let Some(&pid) = self.job_to_pilot.get(job.0) else {
                continue;
            };
            if next == PilotState::Active {
                self.set_pilot_state(pid, next, time, out);
                // New capacity became available.
                self.sched_dirty = true;
                ctx.schedule_in(SimDuration::ZERO, RuntimeEvent::SchedulePass);
            } else {
                self.on_pilot_gone(pid, next, time, ctx, out);
            }
        }
    }

    /// Mid-run capacity loss: a node crash took `lost` cores from the
    /// pilot's allocation. Free cores absorb what they can; the remaining
    /// deficit is covered by killing in-flight units (lowest `UnitId`
    /// first, so the outcome is deterministic). Cores a killed unit held
    /// beyond the deficit survive on other nodes and return to the pilot's
    /// free pool for rescheduling.
    fn shrink_pilot<E: RuntimeEventSink>(
        &mut self,
        pid: PilotId,
        lost: usize,
        time: SimTime,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<RuntimeNotification>,
    ) {
        let Some(p) = self.pilots.get_mut(pid.0 as usize) else {
            return;
        };
        if p.state.is_terminal() {
            return;
        }
        let from_free = p.free_cores.min(lost);
        p.free_cores -= from_free;
        p.description.cores = p.description.cores.saturating_sub(lost);
        let remaining_cores = p.description.cores;
        self.pilots_dirty = true;
        let mut deficit = lost - from_free;
        if deficit > 0 {
            // Id order by construction: the unit store iterates densely.
            let inflight: Vec<UnitId> = self
                .units
                .iter()
                .enumerate()
                .filter(|(_, u)| u.pilot == Some(pid) && u.holding > 0 && !u.state.is_terminal())
                .map(|(i, _)| UnitId(i as u64))
                .collect();
            for id in inflight {
                if deficit == 0 {
                    break;
                }
                let unit = &mut self.units[id.0 as usize];
                if !unit.state.can_transition_to(UnitState::Failed) {
                    continue;
                }
                let held = unit.holding;
                unit.holding = 0;
                let detail = Some("node crash took this unit's cores".into());
                self.set_unit_state(id, UnitState::Failed, time, detail, ctx, out);
                let absorbed = held.min(deficit);
                deficit -= absorbed;
                let surplus = held - absorbed;
                if surplus > 0 {
                    self.pilots[pid.0 as usize].free_cores += surplus;
                }
            }
        }
        self.telemetry
            .record(time, "pilot", "pilot_shrunk", Subject::Pilot(pid.0));
        out.push(RuntimeNotification::PilotShrunk {
            id: pid,
            lost_cores: lost,
            remaining_cores,
            time,
        });
        // Surplus cores may have returned, and the shrunken size changes
        // which waiting units are doomed.
        self.sched_dirty = true;
        ctx.schedule_in(SimDuration::ZERO, RuntimeEvent::SchedulePass);
    }

    fn on_pilot_gone<E: RuntimeEventSink>(
        &mut self,
        pid: PilotId,
        state: PilotState,
        time: SimTime,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<RuntimeNotification>,
    ) {
        self.set_pilot_state(pid, state, time, out);
        // Units in flight on this pilot fail (they lose their cores).
        let victims: Vec<UnitId> = self
            .units
            .iter()
            .enumerate()
            .filter(|(_, u)| u.pilot == Some(pid) && !u.state.is_terminal())
            .map(|(i, _)| UnitId(i as u64))
            .collect();
        for id in victims {
            let unit = &mut self.units[id.0 as usize];
            if unit.state.can_transition_to(UnitState::Failed) {
                unit.holding = 0;
                let detail = Some(format!("{pid} terminated ({state:?})"));
                self.set_unit_state(id, UnitState::Failed, time, detail, ctx, out);
            }
        }
        // Remaining waiting units may still run on other pilots, and the
        // loss of this pilot may doom waiting units that only it could fit.
        self.sched_dirty = true;
        ctx.schedule_in(SimDuration::ZERO, RuntimeEvent::SchedulePass);
    }

    /// The one door through which a pilot's state changes: it checks the
    /// step against the model, writes the record
    /// [`PilotState::trace_event`] names, stamps the startup phase the
    /// pilot finished and tells the application.
    fn set_pilot_state(
        &mut self,
        id: PilotId,
        state: PilotState,
        time: SimTime,
        out: &mut Vec<RuntimeNotification>,
    ) {
        let p = &mut self.pilots[id.0 as usize];
        let event = PilotState::trace_event(Some(p.state), state);
        p.state = state;
        match state {
            PilotState::Launching => p.launched = Some(time),
            PilotState::Active => p.active = Some(time),
            _ => {}
        }
        self.pilots_dirty = true;
        if let Some(event) = event {
            self.telemetry
                .record(time, "pilot", event, Subject::Pilot(id.0));
        }
        out.push(RuntimeNotification::Pilot { id, state, time });
    }

    /// The one door through which a unit's state changes: it checks the
    /// step against the model, writes the record
    /// [`UnitState::trace_event`] names and tells the application. A unit
    /// leaving `Scheduling` leaves the waiting list; one that ends drops
    /// its pending execution event and the `pilot.live_units` gauge.
    fn set_unit_state<E: RuntimeEventSink>(
        &mut self,
        id: UnitId,
        state: UnitState,
        time: SimTime,
        detail: Option<String>,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<RuntimeNotification>,
    ) {
        let unit = &mut self.units[id.0 as usize];
        let event = UnitState::trace_event(Some(unit.state), state);
        unit.state = state;
        let slot = unit.waiting_slot.take();
        let exec_event = unit.exec_event.take_if(|_| state.is_terminal());
        if let Some(slot) = slot {
            self.tombstone_waiting_slot(slot as usize, id);
        }
        if let Some(ev) = exec_event {
            ctx.cancel(ev);
        }
        if let Some(event) = event {
            self.telemetry
                .record(time, "pilot", event, Subject::Unit(id.0));
        }
        if state.is_terminal() {
            self.live -= 1;
            self.telemetry
                .gauge("pilot.live_units", time, self.live as f64);
        }
        out.push(RuntimeNotification::Unit {
            id,
            state,
            time,
            detail,
        });
    }

    /// Marks a waiting-list slot as a tombstone, checking it belongs to
    /// the given unit.
    fn tombstone_waiting_slot(&mut self, slot: usize, id: UnitId) {
        debug_assert_eq!(self.waiting[slot].id, id);
        self.waiting[slot].cores = UnitView::TOMBSTONE_CORES;
        self.waiting_dead += 1;
        self.waiting_live -= 1;
    }

    /// Advances the waiting head past leading tombstones and rebuilds the
    /// list once dead entries outnumber live ones. Amortized O(1) per
    /// placement: every tombstone is skipped or dropped exactly once.
    fn compact_waiting(&mut self) {
        while self.waiting_head < self.waiting.len()
            && self.waiting[self.waiting_head].is_tombstone()
        {
            self.waiting_head += 1;
            self.waiting_dead -= 1;
        }
        if self.waiting_head == self.waiting.len() {
            debug_assert_eq!(self.waiting_live, 0);
            debug_assert_eq!(self.waiting_dead, 0);
            self.waiting.clear();
            self.waiting_head = 0;
            return;
        }
        if self.waiting_dead > self.waiting_live {
            let mut compacted = Vec::with_capacity(self.waiting_live);
            for view in &self.waiting[self.waiting_head..] {
                if !view.is_tombstone() {
                    compacted.push(*view);
                }
            }
            debug_assert_eq!(compacted.len(), self.waiting_live);
            for (slot, view) in compacted.iter().enumerate() {
                self.units[view.id.0 as usize].waiting_slot = Some(slot as u32);
            }
            self.waiting = compacted;
            self.waiting_head = 0;
            self.waiting_dead = 0;
        }
    }

    /// Rebuilds the cached scheduler-facing pilot views (index == pilot
    /// id) and the max non-terminal pilot size. O(pilots), and pilots are
    /// few; the point is not doing it per pass when nothing changed.
    fn rebuild_pilot_cache(&mut self) {
        self.pilots_dirty = false;
        self.pilot_views.clear();
        self.pilot_views
            .extend(self.pilots.iter().enumerate().map(|(i, p)| PilotView {
                id: PilotId(i as u64),
                active: p.state == PilotState::Active,
                free_cores: p.free_cores,
                total_cores: p.description.cores,
            }));
        self.max_pilot_cores = self
            .pilots
            .iter()
            .filter(|p| !p.state.is_terminal())
            .map(|p| p.description.cores)
            .max()
            .unwrap_or(0);
    }

    fn schedule_pass<E: RuntimeEventSink>(
        &mut self,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<RuntimeNotification>,
    ) {
        // Incremental early-out: nothing is waiting, or neither the
        // waiting set nor capacity changed since the last pass — a
        // work-conserving scheduler would place nothing (see the
        // `UnitScheduler` contract), so skip the pass entirely. No-op
        // passes draw no randomness and record nothing, so skipping them
        // is invisible in traces.
        if self.waiting_live == 0 || !self.sched_dirty {
            return;
        }
        self.sched_dirty = false;
        if self.pilots_dirty {
            self.rebuild_pilot_cache();
        }
        // Fail units that can never fit any non-terminal pilot. Gated on
        // a monotone upper bound of waiting core demands, so the scan
        // runs only when a doomed unit may actually exist instead of
        // partitioning the whole list every pass.
        if self.max_waiting_cores > self.max_pilot_cores {
            let max_pilot_cores = self.max_pilot_cores;
            let mut new_max = 0usize;
            for slot in self.waiting_head..self.waiting.len() {
                let view = self.waiting[slot];
                if view.is_tombstone() {
                    continue;
                }
                if view.cores <= max_pilot_cores {
                    new_max = new_max.max(view.cores);
                    continue;
                }
                let detail = Some("no pilot large enough for this unit".into());
                self.set_unit_state(view.id, UnitState::Failed, ctx.now(), detail, ctx, out);
            }
            self.max_waiting_cores = new_max;
            if self.waiting_live == 0 {
                self.compact_waiting();
                return;
            }
        }
        self.compact_waiting();

        let placements = self
            .scheduler
            .assign(&self.waiting[self.waiting_head..], &self.pilot_views);
        for placement in placements {
            let uidx = placement.unit.0 as usize;
            let pidx = placement.pilot.0 as usize;
            let cores = self.units[uidx].cores;
            let pilot = &mut self.pilots[pidx];
            assert!(
                pilot.free_cores >= cores,
                "unit scheduler oversubscribed {}",
                placement.pilot
            );
            pilot.free_cores -= cores;
            let free_now = pilot.free_cores;
            // Keep the cached view exact; no rebuild needed for placements.
            self.pilot_views[pidx].free_cores = free_now;
            let unit = &mut self.units[uidx];
            unit.pilot = Some(placement.pilot);
            unit.holding = cores;
            let staging = UnitState::StagingInput;
            self.set_unit_state(placement.unit, staging, ctx.now(), None, ctx, out);
            // Scheduling bookkeeping cost + staged input bytes.
            let sched_cost = self
                .config
                .overheads
                .scheduling_per_unit
                .sample(&mut self.rng);
            let bytes = self.units[uidx].input_bytes;
            let stage = self.cluster.transfer_duration(bytes);
            let delay = SimDuration::from_secs_f64(sched_cost) + stage;
            ctx.schedule_in(delay, RuntimeEvent::StageInDone(placement.unit));
        }
    }

    fn on_stagein_done<E: RuntimeEventSink>(&mut self, id: UnitId, ctx: &mut Context<'_, E>) {
        let Some(unit) = self.units.get(id.0 as usize) else {
            return;
        };
        if unit.state != UnitState::StagingInput {
            return;
        }
        let dispatch = self.config.overheads.agent_dispatch.sample(&mut self.rng);
        let launch = self.cluster.sample_task_launch();
        ctx.schedule_in(
            SimDuration::from_secs_f64(dispatch) + launch,
            RuntimeEvent::LaunchDone(id),
        );
    }

    fn on_launch_done<E: RuntimeEventSink>(
        &mut self,
        id: UnitId,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<RuntimeNotification>,
    ) {
        let Some(unit) = self.units.get(id.0 as usize) else {
            return;
        };
        if unit.state != UnitState::StagingInput {
            return;
        }
        let duration = unit.duration;
        self.set_unit_state(id, UnitState::Executing, ctx.now(), None, ctx, out);
        // Straggler injection: only touch the duration when a slowdown was
        // actually drawn, so fault-free runs avoid the f64 roundtrip and
        // stay bit-identical to runs without an injector.
        let factor = self.cluster.fault_straggler_factor();
        let duration = if factor != 1.0 {
            SimDuration::from_secs_f64(duration.as_secs_f64() * factor)
        } else {
            duration
        };
        let ev = ctx.schedule_in(duration, RuntimeEvent::ExecDone(id));
        self.units[id.0 as usize].exec_event = Some(ev);
    }

    fn on_exec_done<E: RuntimeEventSink>(
        &mut self,
        id: UnitId,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<RuntimeNotification>,
    ) {
        let Some(unit) = self.units.get_mut(id.0 as usize) else {
            return;
        };
        if unit.state != UnitState::Executing {
            return;
        }
        self.telemetry
            .record(ctx.now(), "pilot", "unit_exec_stop", Subject::Unit(id.0));
        unit.exec_stop = Some(ctx.now());
        unit.exec_event = None;
        // Release cores regardless of outcome.
        let released = unit.holding;
        unit.holding = 0;
        let pilot = unit.pilot;
        // Evaluate both failure sources unconditionally: skipping a draw
        // based on the other's outcome would shift the RNG streams and
        // break replay determinism.
        let legacy_failed =
            self.config.unit_failure_rate > 0.0 && self.rng.chance(self.config.unit_failure_rate);
        let injected_failed = self.cluster.fault_unit_fails();
        let output_bytes = unit.output_bytes;
        let now = ctx.now();
        if legacy_failed || injected_failed {
            let detail = Some("injected execution failure".into());
            self.set_unit_state(id, UnitState::Failed, now, detail, ctx, out);
        } else if output_bytes > 0 {
            self.set_unit_state(id, UnitState::StagingOutput, now, None, ctx, out);
            let stage = self.cluster.transfer_duration(output_bytes);
            ctx.schedule_in(stage, RuntimeEvent::StageOutDone(id));
        } else {
            self.set_unit_state(id, UnitState::Done, now, None, ctx, out);
        }
        if let (Some(pid), true) = (pilot, released > 0) {
            if let Some(p) = self.pilots.get_mut(pid.0 as usize) {
                p.free_cores += released;
                self.pilots_dirty = true;
            }
            self.sched_dirty = true;
            ctx.schedule_in(SimDuration::ZERO, RuntimeEvent::SchedulePass);
        }
    }

    fn on_stageout_done<E: RuntimeEventSink>(
        &mut self,
        id: UnitId,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<RuntimeNotification>,
    ) {
        let staging = self.units.get(id.0 as usize).map(|u| u.state);
        if staging == Some(UnitState::StagingOutput) {
            self.set_unit_state(id, UnitState::Done, ctx.now(), None, ctx, out);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use entk_sim::Engine;
    use std::collections::HashMap;

    /// Top-level event enum for tests.
    #[derive(Debug)]
    pub(crate) enum Ev {
        Rt(RuntimeEvent),
        Cl(ClusterEvent),
    }
    impl From<RuntimeEvent> for Ev {
        fn from(e: RuntimeEvent) -> Ev {
            Ev::Rt(e)
        }
    }
    impl From<ClusterEvent> for Ev {
        fn from(e: ClusterEvent) -> Ev {
            Ev::Cl(e)
        }
    }

    pub(crate) fn quiet_spec(nodes: usize, cpn: usize) -> PlatformSpec {
        let mut s = PlatformSpec::local(nodes, cpn);
        s.job_startup = entk_sim::Dist::Constant(1.0);
        s.task_launch = entk_sim::Dist::Constant(0.01);
        s
    }

    pub(crate) fn quiet_config() -> SimRuntimeConfig {
        SimRuntimeConfig {
            overheads: RuntimeOverheads::zero(),
            unit_failure_rate: 0.0,
            seed: 7,
            scheduler: None,
            telemetry: true,
        }
    }

    /// Boots a pilot, submits `units`, runs to completion; returns
    /// notifications and the runtime.
    pub(crate) fn run_session(
        spec: PlatformSpec,
        config: SimRuntimeConfig,
        pilot_cores: usize,
        units: Vec<UnitDescription>,
    ) -> (Vec<RuntimeNotification>, SimRuntime) {
        let mut rt = SimRuntime::new(spec, config);
        let mut engine: Engine<Ev> = Engine::new();
        let mut log = Vec::new();
        let mut booted = false;
        engine.schedule_in(SimDuration::ZERO, RuntimeEvent::SchedulePass);
        engine.run(|ev, ctx| {
            let mut out = Vec::new();
            if !booted {
                booted = true;
                rt.submit_pilot(
                    PilotDescription::new("local", pilot_cores, SimDuration::from_secs(100_000)),
                    ctx,
                    &mut out,
                )
                .unwrap();
                rt.submit_units(units.clone(), ctx, &mut out).unwrap();
            }
            match ev {
                Ev::Rt(re) => rt.handle(re, ctx, &mut out),
                Ev::Cl(ce) => rt.handle_cluster(ce, ctx, &mut out),
            }
            // Tear the pilot down once all units are terminal.
            if rt.live_units() == 0 && rt.pilot_state(PilotId(0)) == Some(PilotState::Active) {
                rt.finish_pilot(PilotId(0), ctx, &mut out);
            }
            log.extend(out);
        });
        (log, rt)
    }

    /// Seconds from the first execution start to the last execution stop —
    /// the application-execution component of TTC — read off the trace.
    fn exec_span(rt: &SimRuntime) -> f64 {
        let tracer = rt.telemetry().snapshot().tracer;
        let times = |name| tracer.filter("pilot", name).map(|r| r.time);
        let start = times("unit_exec_start").min().expect("a unit started");
        let stop = times("unit_exec_stop").max().expect("a unit stopped");
        stop.saturating_since(start).as_secs_f64()
    }

    fn unit_terminal_states(log: &[RuntimeNotification]) -> HashMap<UnitId, UnitState> {
        let mut m = HashMap::new();
        for n in log {
            if let RuntimeNotification::Unit { id, state, .. } = n {
                if state.is_terminal() {
                    m.insert(*id, *state);
                }
            }
        }
        m
    }

    #[test]
    fn all_units_complete_exactly_once() {
        let units: Vec<_> = (0..10)
            .map(|i| UnitDescription::modeled(format!("t{i}"), SimDuration::from_secs(5)))
            .collect();
        let (log, rt) = run_session(quiet_spec(1, 4), quiet_config(), 4, units);
        let terminals = unit_terminal_states(&log);
        assert_eq!(terminals.len(), 10);
        assert!(terminals.values().all(|&s| s == UnitState::Done));
        // Exactly one Done notification per unit.
        let done_count = log
            .iter()
            .filter(|n| {
                matches!(
                    n,
                    RuntimeNotification::Unit {
                        state: UnitState::Done,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(done_count, 10);
        let executed = (0..10).filter(|&u| rt.unit_exec_stop(UnitId(u)).is_some());
        assert_eq!(executed.count(), 10);
    }

    #[test]
    fn more_units_than_cores_run_in_waves() {
        // 8 units of 5 s on 4 cores => exec span ~ 2 waves.
        let units: Vec<_> = (0..8)
            .map(|i| UnitDescription::modeled(format!("t{i}"), SimDuration::from_secs(5)))
            .collect();
        let (_, rt) = run_session(quiet_spec(1, 4), quiet_config(), 4, units);
        let span = exec_span(&rt);
        assert!(span >= 10.0, "two waves of 5 s, got {span}");
        assert!(span < 12.0, "launch overheads only, got {span}");
    }

    #[test]
    fn mpi_units_hold_multiple_cores() {
        // Two 4-core MPI units on a 4-core pilot must serialize.
        let units: Vec<_> = (0..2)
            .map(|i| {
                UnitDescription::modeled(format!("mpi{i}"), SimDuration::from_secs(5))
                    .with_cores(4)
                    .with_mpi(true)
            })
            .collect();
        let (_, rt) = run_session(quiet_spec(1, 4), quiet_config(), 4, units);
        let span = exec_span(&rt);
        assert!(span >= 10.0, "serialized MPI units, got {span}");
    }

    #[test]
    fn oversized_unit_fails_cleanly() {
        let units = vec![
            UnitDescription::modeled("huge", SimDuration::from_secs(1))
                .with_cores(64)
                .with_mpi(true),
            UnitDescription::modeled("ok", SimDuration::from_secs(1)),
        ];
        let (log, _) = run_session(quiet_spec(1, 4), quiet_config(), 4, units);
        let terminals = unit_terminal_states(&log);
        assert_eq!(terminals[&UnitId(0)], UnitState::Failed);
        assert_eq!(terminals[&UnitId(1)], UnitState::Done);
    }

    #[test]
    fn staging_adds_time_and_states() {
        let units = vec![UnitDescription {
            input_bytes: 50_000_000, // 10 ms at 5 GB/s
            output_bytes: 50_000_000,
            ..UnitDescription::modeled("st", SimDuration::from_secs(1))
        }];
        let (log, _) = run_session(quiet_spec(1, 4), quiet_config(), 4, units);
        let states: Vec<UnitState> = log
            .iter()
            .filter_map(|n| match n {
                RuntimeNotification::Unit { id, state, .. } if *id == UnitId(0) => Some(*state),
                _ => None,
            })
            .collect();
        assert_eq!(
            states,
            vec![
                UnitState::New,
                UnitState::Scheduling,
                UnitState::StagingInput,
                UnitState::Executing,
                UnitState::StagingOutput,
                UnitState::Done
            ]
        );
    }

    #[test]
    fn failure_injection_fails_some_units() {
        let mut cfg = quiet_config();
        cfg.unit_failure_rate = 0.5;
        let units: Vec<_> = (0..40)
            .map(|i| UnitDescription::modeled(format!("t{i}"), SimDuration::from_secs(1)))
            .collect();
        let (log, _) = run_session(quiet_spec(1, 8), cfg, 8, units);
        let terminals = unit_terminal_states(&log);
        let failed = terminals
            .values()
            .filter(|&&s| s == UnitState::Failed)
            .count();
        let done = terminals
            .values()
            .filter(|&&s| s == UnitState::Done)
            .count();
        assert_eq!(failed + done, 40);
        assert!(failed > 5, "expected some failures, got {failed}");
        assert!(done > 5, "expected some successes, got {done}");
    }

    #[test]
    fn cancel_pilot_fails_inflight_units() {
        let mut rt = SimRuntime::new(quiet_spec(1, 4), quiet_config());
        let mut engine: Engine<Ev> = Engine::new();
        let mut log = Vec::new();
        let mut booted = false;
        let mut cancelled = false;
        engine.schedule_in(SimDuration::ZERO, RuntimeEvent::SchedulePass);
        engine.run(|ev, ctx| {
            let mut out = Vec::new();
            if !booted {
                booted = true;
                rt.submit_pilot(
                    PilotDescription::new("local", 4, SimDuration::from_secs(100_000)),
                    ctx,
                    &mut out,
                )
                .unwrap();
                rt.submit_units(
                    vec![UnitDescription::modeled(
                        "long",
                        SimDuration::from_secs(1000),
                    )],
                    ctx,
                    &mut out,
                )
                .unwrap();
            }
            match ev {
                Ev::Rt(re) => rt.handle(re, ctx, &mut out),
                Ev::Cl(ce) => rt.handle_cluster(ce, ctx, &mut out),
            }
            // Cancel the pilot as soon as the unit starts executing.
            if !cancelled
                && out.iter().any(|n| {
                    matches!(
                        n,
                        RuntimeNotification::Unit {
                            state: UnitState::Executing,
                            ..
                        }
                    )
                })
            {
                cancelled = true;
                rt.cancel_pilot(PilotId(0), ctx, &mut out);
            }
            log.extend(out);
        });
        assert!(cancelled);
        let terminals = unit_terminal_states(&log);
        assert_eq!(terminals[&UnitId(0)], UnitState::Failed);
        assert_eq!(rt.pilot_state(PilotId(0)), Some(PilotState::Canceled));
    }

    #[test]
    fn walltime_expiry_fails_pilot_and_units() {
        let units = vec![UnitDescription::modeled(
            "too-long",
            SimDuration::from_secs(500),
        )];
        // Pilot walltime is 10 s; the unit needs 500 s.
        let mut rt = SimRuntime::new(quiet_spec(1, 4), quiet_config());
        let mut engine: Engine<Ev> = Engine::new();
        let mut log = Vec::new();
        let mut booted = false;
        engine.schedule_in(SimDuration::ZERO, RuntimeEvent::SchedulePass);
        engine.run(|ev, ctx| {
            let mut out = Vec::new();
            if !booted {
                booted = true;
                rt.submit_pilot(
                    PilotDescription::new("local", 4, SimDuration::from_secs(10)),
                    ctx,
                    &mut out,
                )
                .unwrap();
                rt.submit_units(units.clone(), ctx, &mut out).unwrap();
            }
            match ev {
                Ev::Rt(re) => rt.handle(re, ctx, &mut out),
                Ev::Cl(ce) => rt.handle_cluster(ce, ctx, &mut out),
            }
            log.extend(out);
        });
        assert_eq!(rt.pilot_state(PilotId(0)), Some(PilotState::Failed));
        let terminals = unit_terminal_states(&log);
        assert_eq!(terminals[&UnitId(0)], UnitState::Failed);
    }

    #[test]
    fn oversized_pilot_fails_when_submitted() {
        // 8 cores on the machine, 10 000 asked for: the batch system
        // refuses the container job, so the pilot never waits in a queue.
        let (log, rt) = run_session(quiet_spec(2, 4), quiet_config(), 10_000, Vec::new());
        let pilot_states: Vec<_> = log
            .iter()
            .filter_map(|n| match n {
                RuntimeNotification::Pilot { state, time, .. } => Some((*state, *time)),
                _ => None,
            })
            .collect();
        let launch = pilot_states[1].1;
        assert_eq!(
            pilot_states,
            [
                (PilotState::New, SimTime::ZERO),
                (PilotState::Launching, launch),
                (PilotState::Failed, launch),
            ]
        );
        let tracer = rt.telemetry().snapshot().tracer;
        assert_eq!(tracer.filter("cluster", "job_rejected").count(), 1);
        assert_eq!(tracer.filter("cluster", "job_queued").count(), 0);
        assert_eq!(tracer.filter("pilot", "pilot_failed").count(), 1);
    }

    #[test]
    fn cancel_waiting_unit_before_any_pilot() {
        let mut rt = SimRuntime::new(quiet_spec(1, 4), quiet_config());
        let mut engine: Engine<Ev> = Engine::new();
        let mut booted = false;
        let mut log = Vec::new();
        engine.schedule_in(SimDuration::ZERO, RuntimeEvent::SchedulePass);
        engine.run(|ev, ctx| {
            let mut out = Vec::new();
            if !booted {
                booted = true;
                let ids = rt
                    .submit_units(
                        vec![UnitDescription::modeled("w", SimDuration::from_secs(1))],
                        ctx,
                        &mut out,
                    )
                    .unwrap();
                rt.cancel_unit(UnitId(ids.start), ctx, &mut out);
            }
            match ev {
                Ev::Rt(re) => rt.handle(re, ctx, &mut out),
                Ev::Cl(ce) => rt.handle_cluster(ce, ctx, &mut out),
            }
            log.extend(out);
        });
        assert_eq!(rt.unit_state(UnitId(0)), Some(UnitState::Canceled));
    }

    #[test]
    fn per_unit_overheads_scale_with_task_count() {
        // The unit-submission delay (fixed + per-unit * n) gates when units
        // become schedulable: with constant overheads the gap from t=0 to the
        // first Scheduling notification must be exactly fixed + per * n.
        let mk_units = |n: usize| {
            (0..n)
                .map(|i| UnitDescription::modeled(format!("t{i}"), SimDuration::from_secs(1)))
                .collect::<Vec<_>>()
        };
        let mut cfg = quiet_config();
        cfg.overheads.unit_submit_per_unit = entk_sim::Dist::Constant(0.01);
        cfg.overheads.unit_submit_fixed = entk_sim::Dist::Constant(0.1);
        let first_scheduling = |log: &[RuntimeNotification]| {
            log.iter()
                .find_map(|n| match n {
                    RuntimeNotification::Unit {
                        state: UnitState::Scheduling,
                        time,
                        ..
                    } => Some(time.as_secs_f64()),
                    _ => None,
                })
                .expect("units entered scheduling")
        };
        let (log_small, _) = run_session(quiet_spec(8, 24), cfg.clone(), 64, mk_units(16));
        let (log_large, _) = run_session(quiet_spec(8, 24), cfg, 64, mk_units(64));
        let small = first_scheduling(&log_small);
        let large = first_scheduling(&log_large);
        assert!(
            (small - (0.1 + 0.01 * 16.0)).abs() < 1e-6,
            "small gap {small}"
        );
        assert!(
            (large - (0.1 + 0.01 * 64.0)).abs() < 1e-6,
            "large gap {large}"
        );
    }
}

#[cfg(test)]
mod tracer_tests {
    use super::tests::*;
    use super::*;
    use entk_sim::SimDuration;

    #[test]
    fn tracer_records_session_events_in_causal_order() {
        let units: Vec<_> = (0..3)
            .map(|i| UnitDescription::modeled(format!("t{i}"), SimDuration::from_secs(5)))
            .collect();
        let (_, rt) = run_session(quiet_spec(1, 4), quiet_config(), 4, units);
        let tracer = rt.telemetry().snapshot().tracer;
        assert_eq!(tracer.filter("pilot", "pilot_submitted").count(), 1);
        assert_eq!(tracer.filter("pilot", "pilot_active").count(), 1);
        assert_eq!(tracer.filter("pilot", "unit_scheduled").count(), 3);
        assert_eq!(tracer.filter("pilot", "unit_exec_start").count(), 3);
        assert_eq!(tracer.filter("pilot", "unit_exec_stop").count(), 3);
        // Causality per unit: scheduled <= exec_start <= exec_stop.
        for u in 0..3u64 {
            let subject = Subject::Unit(u);
            let sched = tracer.time_of("pilot", "unit_scheduled", subject).unwrap();
            let start = tracer.time_of("pilot", "unit_exec_start", subject).unwrap();
            let stop = tracer.time_of("pilot", "unit_exec_stop", subject).unwrap();
            assert!(sched <= start && start <= stop);
        }
    }

    #[test]
    fn pilot_startup_agrees_with_the_trace() {
        let units = vec![UnitDescription::modeled("t", SimDuration::from_secs(5))];
        let mut config = quiet_config();
        config.overheads.pilot_submission = entk_sim::Dist::Constant(2.0);
        let (_, rt) = run_session(quiet_spec(1, 4), config, 4, units);
        let tracer = rt.telemetry().snapshot().tracer;
        let at = |event| {
            let time = tracer.time_of("pilot", event, Subject::Pilot(0));
            time.expect("the pilot went through every phase")
        };
        let (submit, wait) = rt.pilot_startup(PilotId(0)).unwrap();
        assert_eq!(submit, SimDuration::from_secs(2));
        assert_eq!(submit, at("pilot_launched") - at("pilot_submitted"));
        assert_eq!(wait, at("pilot_active") - at("pilot_launched"));
        assert!(wait >= SimDuration::from_secs(1), "job startup is 1 s");
        assert_eq!(rt.pilot_startup(PilotId(1)), None);
    }

    #[test]
    fn trace_spans_cluster_and_pilot_layers() {
        let units: Vec<_> = (0..2)
            .map(|i| UnitDescription::modeled(format!("t{i}"), SimDuration::from_secs(5)))
            .collect();
        let (_, rt) = run_session(quiet_spec(1, 4), quiet_config(), 4, units);
        let tracer = rt.telemetry().snapshot().tracer;
        // The pilot's container job is traced by the cluster layer through
        // the same shared pipeline.
        assert_eq!(tracer.filter("cluster", "job_queued").count(), 1);
        assert_eq!(tracer.filter("cluster", "job_started").count(), 1);
        assert_eq!(tracer.filter("cluster", "job_running").count(), 1);
        assert_eq!(tracer.filter("cluster", "job_completed").count(), 1);
        // Terminal unit outcomes are traced.
        assert_eq!(tracer.filter("pilot", "unit_done").count(), 2);
        // Live-unit gauge drains back to zero.
        let snap = rt.telemetry().snapshot();
        let live = snap.metrics.series("pilot.live_units").unwrap();
        assert_eq!(live.points().last().unwrap().1, 0.0);
    }

    /// A fault-heavy session, checked from its trace alone: a node crash
    /// shrinks the big pilot, tasks fail and straggle, one pilot dies at
    /// its wall time, the application cancels another, and one unit fits
    /// no pilot. Every unit and batch job still ends exactly once, each
    /// unit's records keep their order and the live-unit gauge drains.
    #[test]
    fn fault_heavy_lifecycles_read_off_the_trace() {
        use entk_cluster::FaultProfile;
        use entk_sim::{Dist, Engine};
        use std::collections::HashMap;
        // Three 4-core nodes: pilot 0 spans nodes 0 and 1, which crashes
        // for good at 6 s; pilots 1 (15 s wall time) and 2 share node 2.
        let profile = FaultProfile::seeded(11)
            .with_crash_at(6.0, 0)
            .with_node_crashes(0.0, Dist::Constant(0.0))
            .with_task_failures(0.2)
            .with_stragglers(0.3, Dist::Constant(3.0));
        let pilots = [(8, 100_000), (2, 15), (2, 100_000)];
        let units: Vec<_> = (0..40)
            .map(|i| {
                let unit = UnitDescription::modeled(format!("t{i}"), SimDuration::from_secs(5));
                match i % 4 {
                    0 => UnitDescription {
                        output_bytes: 1_000_000,
                        ..unit
                    },
                    _ => unit,
                }
            })
            .chain([UnitDescription::modeled("huge", SimDuration::from_secs(5))
                .with_cores(16)
                .with_mpi(true)])
            .collect();
        let mut rt = SimRuntime::new(quiet_spec(3, 4), quiet_config());
        let mut engine: Engine<Ev> = Engine::new();
        engine.schedule_in(SimDuration::ZERO, RuntimeEvent::SchedulePass);
        let (mut booted, mut cancelled) = (false, false);
        engine.run(|ev, ctx| {
            let mut out = Vec::new();
            if !booted {
                booted = true;
                rt.cluster_mut().enable_fault_injector(profile.clone(), ctx);
                for (cores, secs) in pilots {
                    let walltime = SimDuration::from_secs(secs);
                    let pilot = PilotDescription::new("local", cores, walltime);
                    rt.submit_pilot(pilot, ctx, &mut out).unwrap();
                }
                rt.submit_units(units.clone(), ctx, &mut out).unwrap();
            }
            match ev {
                Ev::Rt(re) => rt.handle(re, ctx, &mut out),
                Ev::Cl(ce) => rt.handle_cluster(ce, ctx, &mut out),
            }
            if !cancelled && ctx.now() >= SimTime::from_secs(8) {
                cancelled = true;
                rt.cancel_pilot(PilotId(2), ctx, &mut out);
            }
            if rt.live_units() == 0 {
                for p in 0..3 {
                    rt.finish_pilot(PilotId(p), ctx, &mut out);
                }
            }
        });

        let snap = rt.telemetry().snapshot();
        let records = snap.tracer.records();
        let count = |name| records.iter().filter(|r| r.name == name).count();
        for name in [
            "job_shrunk",
            "job_timedout",
            "pilot_cancelled",
            "unit_failed",
        ] {
            assert!(count(name) > 0, "the session never recorded {name}");
        }
        let mut first: HashMap<(Subject, &str), SimTime> = HashMap::new();
        let mut ends: HashMap<Subject, usize> = HashMap::new();
        for r in records {
            first.entry((r.subject, r.name)).or_insert(r.time);
            if matches!(
                r.name,
                "unit_done"
                    | "unit_failed"
                    | "unit_canceled"
                    | "job_completed"
                    | "job_failed"
                    | "job_timedout"
                    | "job_cancelled"
                    | "job_rejected"
            ) {
                *ends.entry(r.subject).or_default() += 1;
            }
        }
        // Exactly one terminal record per unit and per batch job.
        let born: Vec<Subject> = records
            .iter()
            .filter(|r| matches!(r.name, "unit_submitted" | "job_queued"))
            .map(|r| r.subject)
            .collect();
        assert_eq!(born.len(), units.len() + pilots.len());
        assert_eq!(ends.len(), born.len(), "a terminal record for no one");
        for subject in &born {
            assert_eq!(ends.get(subject), Some(&1), "{subject}");
        }
        // scheduled <= exec_start <= exec_stop <= terminal, each step
        // recorded only after the one before it.
        let mut straggled = 0;
        for u in 0..units.len() as u64 {
            let subject = Subject::Unit(u);
            let at = |name| first.get(&(subject, name)).copied();
            let end = ["unit_done", "unit_failed", "unit_canceled"]
                .into_iter()
                .find_map(at);
            let steps = [
                at("unit_scheduled"),
                at("unit_exec_start"),
                at("unit_exec_stop"),
            ];
            let reached: Vec<SimTime> = steps.iter().map_while(|t| *t).chain(end).collect();
            let recorded = steps.iter().flatten().count() + 1;
            assert_eq!(reached.len(), recorded, "{subject}: {steps:?} then {end:?}");
            assert!(reached.is_sorted(), "{subject}: {reached:?}");
            if let (Some(start), Some(stop)) = (steps[1], steps[2]) {
                straggled += usize::from(stop - start == SimDuration::from_secs(15));
            }
        }
        assert!(straggled > 0, "no straggler ran to its end");
        let live = snap.metrics.series("pilot.live_units").unwrap();
        assert_eq!(live.points().last().unwrap().1, 0.0);
    }
}
