//! The simulated pilot runtime: pilot manager + unit manager + agent,
//! advanced by discrete events.
//!
//! Reproduces the RADICAL-Pilot execution model (paper §III-C2): pilots are
//! container jobs submitted to the machine's batch system; compute units are
//! scheduled onto pilot cores at the application level, so more tasks than
//! cores can be expressed and executed as capacity frees up.

use crate::description::{PilotDescription, UnitDescription};
use crate::overheads::RuntimeOverheads;
use crate::states::{PilotId, PilotState, UnitId, UnitState};
use entk_cluster::{
    BatchJobDescription, BatchJobId, BatchJobState, Cluster, ClusterEvent, ClusterNotification,
    FifoScheduler, PlatformSpec,
};
use entk_sim::arena::{self, Window};
use entk_sim::{Context, SharedTelemetry, SimDuration, SimRng, SimTime, TraceKind};
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::ops::Range;

/// Events the runtime schedules for itself.
#[derive(Debug, Clone)]
pub enum RuntimeEvent {
    /// Pilot submission overhead paid; submit the container job.
    PilotSubmitted(PilotId),
    /// Unit submission overhead paid; the units of this contiguous raw id
    /// range (one [`SimRuntime::seal_units`] call) enter scheduling.
    UnitsSubmitted(Range<u64>),
    /// Run a placement pass.
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

/// State changes reported to the application layer (EnTK): every pilot
/// transition, and of a unit's only the start of its execution and its end.
/// A submission is not one: [`SimRuntime::submit_units`] returns the new
/// units' ids. The rest of a unit's lifecycle is read from the trace.
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
    /// A unit began executing or reached a terminal state.
    Unit {
        /// The unit.
        id: UnitId,
        /// New state: [`UnitState::Executing`] or a terminal one.
        state: UnitState,
        /// When.
        time: SimTime,
        /// Failure reason, when `state == Failed`.
        detail: Option<String>,
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
    /// Collect the cross-layer trace. Disabling skips every
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

impl PilotRecord {
    /// Whether the pilot is active with `cores` free.
    fn has_room(&self, cores: u32) -> bool {
        self.state == PilotState::Active && self.free_cores >= cores as usize
    }
}

/// One row of the unit table. Of the submitted description it keeps the
/// four numbers virtual-time execution reads — not the name or a real
/// closure, which nothing here runs. Of the unit's lifecycle
/// it keeps the one instant a caller asks for after the fact; the trace is
/// the record of the rest.
struct UnitRecord {
    /// Modelled execution time (zero for real work, which has no place in
    /// virtual time).
    duration: SimDuration,
    input_bytes: u64,
    output_bytes: u64,
    exec: Exec,
    cores: u32,
    /// Cores currently held on the pilot (released at exec end).
    holding: u32,
    /// Index of the pilot the unit was placed on; [`NO_PILOT`], which
    /// indexes no pilot, before.
    pilot: u32,
    state: UnitState,
}

/// [`UnitRecord::pilot`] of a unit not placed on any pilot.
const NO_PILOT: u32 = u32::MAX;

/// A unit's execution: the pending `ExecDone` event while it runs, then
/// the instant it stopped. Only one is ever live.
#[derive(Clone, Copy)]
enum Exec {
    /// Not executing, and never finished executing.
    Idle,
    /// Executing; the event is cancelled if the unit dies early.
    Running(entk_sim::EventId),
    /// Execution finished at this instant, whatever the outcome.
    Stopped(SimTime),
}

impl Exec {
    fn stopped(self) -> Option<SimTime> {
        match self {
            Exec::Stopped(time) => Some(time),
            Exec::Idle | Exec::Running(_) => None,
        }
    }
}

// A row is what every live task of an ensemble keeps resident in this
// layer.
const _: () = assert!(std::mem::size_of::<Option<UnitRecord>>() <= 56);

/// What a unit table lookup expects of an id the caller still drives.
const HELD: &str = "a unit not yet collected";

/// The order in which a placement pass offers waiting units to the pilots;
/// each unit goes to the first active pilot with room for it (first fit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitOrder {
    /// Arrival order: RADICAL-Pilot's default.
    FirstFit,
    /// Widest first, ties by id, against fragmentation by mixed MPI widths.
    LargestFirst,
}

/// Whether unit `id` is still held and waits in `Scheduling`.
fn waits(units: &Window<UnitRecord>, id: u64) -> bool {
    units
        .get(id)
        .is_some_and(|u| u.state == UnitState::Scheduling)
}

/// Driver event bound: the top-level enum must absorb both runtime and
/// cluster events.
pub trait RuntimeEventSink: From<RuntimeEvent> + From<ClusterEvent> {}
impl<T: From<RuntimeEvent> + From<ClusterEvent>> RuntimeEventSink for T {}

/// The simulated pilot runtime for one target resource. Its caller hears of
/// every pilot transition and, of a unit's, only the start of execution and
/// the end ([`RuntimeNotification`]); the rest is in the trace.
pub struct SimRuntime {
    cluster: Cluster,
    config: SimRuntimeConfig,
    rng: SimRng,
    order: UnitOrder,
    // Dense slab stores indexed by the raw id, which is assigned
    // sequentially: no hashing on the per-event hot path, and iteration is
    // in id order (deterministic without sorting). Pilots are few and never
    // removed. The unit table is a window from the oldest unit not yet
    // collected to the newest: a unit's row leaves when its caller collects
    // it and every older row has left, so the table follows the live width.
    pilots: Vec<PilotRecord>,
    units: Window<UnitRecord>,
    /// The units below this id are sealed ([`Self::seal_units`]).
    sealed: u64,
    /// The ids of the units that entered `Scheduling`, in the order they
    /// arrived. An entry whose unit has left is dropped when a pass meets
    /// it, and all of them before the queue grows.
    waiting: VecDeque<u64>,
    /// `(cores, units)` of the units in `Scheduling`, narrowest first.
    widths: Vec<(u32, u32)>,
    telemetry: SharedTelemetry,
    /// Count of non-terminal units, kept as they start and end.
    pub(crate) live: usize,
    /// Queue entries the placement passes examined.
    #[cfg(test)]
    examined: usize,
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
            order: UnitOrder::FirstFit,
            pilots: Vec::new(),
            units: Window::default(),
            sealed: 0,
            waiting: VecDeque::new(),
            widths: Vec::new(),
            telemetry,
            live: 0,
            #[cfg(test)]
            examined: 0,
        }
    }

    /// Sets the order in which placement passes offer waiting units to the
    /// pilots (ablation hook; a largest-first queue keeps no arrival order).
    pub fn set_unit_order(&mut self, order: UnitOrder) {
        self.order = order;
        self.restore_offer_order();
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

    /// Current state of a unit; `None` once it was collected.
    pub fn unit_state(&self, id: UnitId) -> Option<UnitState> {
        self.units.get(id.0).map(|u| u.state)
    }

    /// When a unit's execution finished; `None` until it has, and once the
    /// unit was collected.
    pub fn unit_exec_stop(&self, id: UnitId) -> Option<SimTime> {
        self.units.get(id.0)?.exec.stopped()
    }

    /// Takes a terminal unit's row out of the unit window and returns when
    /// its execution stopped (`None` if it never finished executing); the
    /// unit then reads as absent to every query. The window's slot leaves
    /// once every older slot has, so a caller that collects each unit as it
    /// ends keeps only the live width resident; one that never collects
    /// keeps every row. `None`, and nothing taken, for a unit not terminal
    /// or already collected.
    pub fn collect_unit(&mut self, id: UnitId) -> Option<SimTime> {
        self.units.get(id.0).filter(|u| u.state.is_terminal())?;
        self.units.take(id.0)?.exec.stopped()
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

    /// Submits a pilot. The pilot-submission overhead is paid before the
    /// container job reaches the batch system.
    pub fn submit_pilot<E: RuntimeEventSink>(
        &mut self,
        description: PilotDescription,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<RuntimeNotification>,
    ) -> Result<PilotId, String> {
        description.validate()?;
        let id = PilotId(self.pilots.len() as u64);
        self.pilots.push(PilotRecord {
            free_cores: description.cores,
            description,
            state: PilotState::New,
            job: None,
            submitted: ctx.now(),
            launched: None,
            active: None,
        });
        let event = PilotState::trace_event(None, PilotState::New);
        let event = event.expect("a submitted pilot is recorded");
        self.telemetry.emit(ctx.now(), event, id.0);
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

    /// Submits a batch of units: [`Self::push_unit`] each after all are
    /// valid, then [`Self::seal_units`]. Returns the contiguous range of raw
    /// [`UnitId`]s assigned, in description order; that range, not `_out`,
    /// tells the caller.
    pub fn submit_units<E: RuntimeEventSink>(
        &mut self,
        descriptions: impl AsRef<[UnitDescription]>,
        ctx: &mut Context<'_, E>,
        _out: &mut Vec<RuntimeNotification>,
    ) -> Result<Range<u64>, String> {
        let descriptions = descriptions.as_ref();
        for d in descriptions {
            d.validate()?;
        }
        self.reserve_units(descriptions.len());
        for d in descriptions {
            self.push_unit(d)?;
        }
        Ok(self.seal_units(ctx))
    }

    /// Makes room in the unit table for a batch of `n` units.
    pub fn reserve_units(&mut self, n: usize) {
        self.units.reserve(n);
    }

    /// Puts a valid unit into the table, in [`UnitState::New`], unsealed:
    /// it is not submitted, traced or scheduled until [`Self::seal_units`].
    /// Returns its raw id.
    pub fn push_unit(&mut self, description: &UnitDescription) -> Result<u64, String> {
        description.validate()?;
        let id = self.units.end();
        let row = UnitRecord {
            duration: description.duration,
            input_bytes: description.input_bytes,
            output_bytes: description.output_bytes,
            exec: Exec::Idle,
            // Past `u32::MAX` a unit fits no pilot either way.
            cores: description.cores.try_into().unwrap_or(u32::MAX),
            holding: 0,
            pilot: NO_PILOT,
            state: UnitState::New,
        };
        // Past the room `reserve_units` made, the window grows by a quarter.
        self.units.insert(id, row);
        self.live += 1;
        Ok(id)
    }

    /// True when a unit was pushed and not yet sealed.
    pub fn has_unsealed_units(&self) -> bool {
        self.sealed < self.units.end()
    }

    /// Submits the units pushed since the last seal as one call: records
    /// each one's `unit_submitted` in id order, and pays the per-call and
    /// per-unit submission overheads before they become schedulable.
    /// Returns their id range.
    pub fn seal_units<E: RuntimeEventSink>(&mut self, ctx: &mut Context<'_, E>) -> Range<u64> {
        let ids = self.sealed..self.units.end();
        self.sealed = ids.end;
        let event = UnitState::trace_event(None, UnitState::New);
        let event = event.expect("a submitted unit is recorded");
        for id in ids.clone() {
            self.telemetry.emit(ctx.now(), event, id);
        }
        let overheads = &self.config.overheads;
        let fixed = overheads.unit_submit_fixed.sample(&mut self.rng);
        let per = overheads.unit_submit_per_unit.sample(&mut self.rng);
        let delay = SimDuration::from_secs_f64(fixed + per * (ids.end - ids.start) as f64);
        ctx.schedule_in(delay, RuntimeEvent::UnitsSubmitted(ids.clone()));
        ids
    }

    /// Cancels a unit that has not finished.
    pub fn cancel_unit<E: RuntimeEventSink>(
        &mut self,
        id: UnitId,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<RuntimeNotification>,
    ) {
        let Some(unit) = self.units.get_mut(id.0) else {
            return;
        };
        if unit.state.is_terminal() || !unit.state.can_transition_to(UnitState::Canceled) {
            return;
        }
        let released = unit.holding as usize;
        let pilot = unit.pilot as usize;
        unit.holding = 0;
        self.set_unit_state(id, UnitState::Canceled, ctx.now(), None, ctx, out);
        if released > 0 {
            if let Some(p) = self.pilots.get_mut(pilot) {
                p.free_cores += released;
            }
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

    /// Completes a pilot at `deallocate`, handing back its allocation and the unit table's room.
    pub fn finish_pilot<E: RuntimeEventSink>(
        &mut self,
        id: PilotId,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<RuntimeNotification>,
    ) {
        self.units.shrink_to_fit();
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
                let batch = (ids.end - ids.start) as usize;
                if arena::growth(self.waiting.len(), self.waiting.capacity(), batch) > 0 {
                    // Growing copies only live entries, and an empty queue
                    // takes fresh room.
                    let units = &self.units;
                    self.waiting.retain(|&id| waits(units, id));
                    if self.waiting.is_empty() {
                        self.waiting = VecDeque::new();
                    }
                    let (len, capacity) = (self.waiting.len(), self.waiting.capacity());
                    let more = arena::growth(len, capacity, batch);
                    self.waiting.reserve_exact(more);
                }
                for id in ids.map(UnitId) {
                    // A unit cancelled before it got here may be collected.
                    if self.unit_state(id) != Some(UnitState::New) {
                        continue;
                    }
                    self.set_unit_state(id, UnitState::Scheduling, ctx.now(), None, ctx, out);
                    self.waiting.push_back(id.0);
                }
                self.restore_offer_order();
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
            Ok(job) => self.pilots[id.0 as usize].job = Some(job),
            Err(_) => self.on_pilot_gone(id, PilotState::Failed, ctx.now(), ctx, out),
        }
    }

    /// The pilot whose container job `job` is; a background job has none.
    fn pilot_of(&self, job: BatchJobId) -> Option<PilotId> {
        let idx = self.pilots.iter().position(|p| p.job == Some(job))?;
        Some(PilotId(idx as u64))
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
                    if let Some(pid) = self.pilot_of(id) {
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
            let Some(pid) = self.pilot_of(job) else {
                continue;
            };
            if next == PilotState::Active {
                self.set_pilot_state(pid, next, time, out);
                // New capacity became available.
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
        let p = self.pilots.get_mut(pid.0 as usize);
        let Some(p) = p.filter(|p| !p.state.is_terminal()) else {
            return;
        };
        let from_free = p.free_cores.min(lost);
        p.free_cores -= from_free;
        p.description.cores = p.description.cores.saturating_sub(lost);
        let mut deficit = lost - from_free;
        if deficit > 0 {
            // Id order by construction: the unit window iterates densely.
            let inflight: Vec<UnitId> = self
                .units
                .iter()
                .filter(|(_, u)| {
                    u64::from(u.pilot) == pid.0 && u.holding > 0 && !u.state.is_terminal()
                })
                .map(|(id, _)| UnitId(id))
                .collect();
            for id in inflight {
                if deficit == 0 {
                    break;
                }
                let unit = self.units.get_mut(id.0).expect(HELD);
                if !unit.state.can_transition_to(UnitState::Failed) {
                    continue;
                }
                let held = unit.holding as usize;
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
        self.telemetry.emit(time, TraceKind::PilotShrunk, pid.0);
        // Surplus cores may have returned, and the shrunken size changes
        // which waiting units are doomed.
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
            .filter(|(_, u)| u64::from(u.pilot) == pid.0 && !u.state.is_terminal())
            .map(|(id, _)| UnitId(id))
            .collect();
        for id in victims {
            let unit = self.units.get_mut(id.0).expect(HELD);
            if unit.state.can_transition_to(UnitState::Failed) {
                unit.holding = 0;
                let detail = Some(format!("{pid} terminated ({state:?})"));
                self.set_unit_state(id, UnitState::Failed, time, detail, ctx, out);
            }
        }
        // Remaining waiting units may still run on other pilots, and the
        // loss of this pilot may doom waiting units that only it could fit.
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
        if let Some(event) = event {
            self.telemetry.emit(time, event, id.0);
        }
        out.push(RuntimeNotification::Pilot { id, state, time });
    }

    /// The one door through which a unit's state changes: it checks the
    /// step against the model and writes the record
    /// [`UnitState::trace_event`] names. It tells the application only of
    /// `Executing` and the terminal states, the two it reads. A unit
    /// entering or leaving `Scheduling` is counted in or out of its width;
    /// one that ends drops its pending execution event and leaves the live
    /// count.
    fn set_unit_state<E: RuntimeEventSink>(
        &mut self,
        id: UnitId,
        state: UnitState,
        time: SimTime,
        detail: Option<String>,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<RuntimeNotification>,
    ) {
        let unit = self.units.get_mut(id.0).expect(HELD);
        let event = UnitState::trace_event(Some(unit.state), state);
        let left = std::mem::replace(&mut unit.state, state);
        if let (Exec::Running(ev), true) = (unit.exec, state.is_terminal()) {
            unit.exec = Exec::Idle;
            ctx.cancel(ev);
        }
        let cores = unit.cores;
        if state == UnitState::Scheduling || left == UnitState::Scheduling {
            self.count_width(cores, state == UnitState::Scheduling);
        }
        if let Some(event) = event {
            self.telemetry.emit(time, event, id.0);
        }
        if state.is_terminal() {
            self.live -= 1;
        }
        if state == UnitState::Executing || state.is_terminal() {
            out.push(RuntimeNotification::Unit {
                id,
                state,
                time,
                detail,
            });
        }
    }

    /// Counts a unit of `cores` into `Scheduling` (`enters`) or out of it.
    fn count_width(&mut self, cores: u32, enters: bool) {
        let found = self
            .widths
            .binary_search_by_key(&cores, |&(width, _)| width);
        match found {
            Ok(i) if enters => self.widths[i].1 += 1,
            Ok(i) if self.widths[i].1 == 1 => drop(self.widths.remove(i)),
            Ok(i) => self.widths[i].1 -= 1,
            Err(i) => self.widths.insert(i, (cores, 1)),
        }
    }

    /// Fails the waiting units wider than every pilot not yet terminal, in
    /// queue order, then places what fits. A pass draws and records
    /// nothing unless it fails or places a unit.
    fn schedule_pass<E: RuntimeEventSink>(
        &mut self,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<RuntimeNotification>,
    ) {
        let Some(&(widest, _)) = self.widths.last() else {
            // Every entry left is of a unit that left `Scheduling`.
            self.waiting.clear();
            if self.waiting.capacity() > arena::SCRATCH_KEEP {
                self.waiting = VecDeque::new();
            }
            return;
        };
        let pilots = self.pilots.iter().filter(|p| !p.state.is_terminal());
        let fits = pilots.map(|p| p.description.cores).max().unwrap_or(0);
        if widest as usize > fits {
            for i in 0..self.waiting.len() {
                let id = self.waiting[i];
                let unit = self.units.get(id);
                if unit.is_some_and(|u| u.state == UnitState::Scheduling && u.cores as usize > fits)
                {
                    let detail = Some("no pilot large enough for this unit".into());
                    self.set_unit_state(UnitId(id), UnitState::Failed, ctx.now(), detail, ctx, out);
                }
            }
        }
        self.place_waiting(ctx, out);
    }

    /// Restores offer order once units joined the queue: largest-first
    /// sorts the live entries widest first, then by id. What was queued
    /// before them is one sorted run, which the stable sort merges.
    fn restore_offer_order(&mut self) {
        if self.order == UnitOrder::LargestFirst {
            let units = &self.units;
            self.waiting.retain(|&id| waits(units, id));
            let key = |&id: &u64| (Reverse(units.get(id).expect(HELD).cores), id);
            self.waiting.make_contiguous().sort_by_key(key);
        }
    }

    /// Offers the queued units in order, each to the first active pilot
    /// with room, until none has room for the narrowest waiting width,
    /// dropping the entries it placed or found gone.
    fn place_waiting<E: RuntimeEventSink>(
        &mut self,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<RuntimeNotification>,
    ) {
        let (mut kept, mut read) = (0, 0);
        while read < self.waiting.len() && self.room_for_narrowest() {
            let id = self.waiting[read];
            read += 1;
            if waits(&self.units, id) && !self.place(id, ctx, out) {
                self.waiting[kept] = id;
                kept += 1;
            }
        }
        #[cfg(test)]
        {
            self.examined += read;
        }
        self.waiting.drain(kept..read);
    }

    /// Whether some active pilot has room for the narrowest waiting unit.
    fn room_for_narrowest(&self) -> bool {
        let narrowest = self.widths.first().map(|&(width, _)| width);
        narrowest.is_some_and(|width| self.pilots.iter().any(|p| p.has_room(width)))
    }

    /// Places waiting unit `id` on the first active pilot with room for it,
    /// if there is one: it takes the cores, starts staging its input and
    /// draws its scheduling cost.
    fn place<E: RuntimeEventSink>(
        &mut self,
        id: u64,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<RuntimeNotification>,
    ) -> bool {
        let cores = self.units.get(id).expect(HELD).cores;
        let Some(pidx) = self.pilots.iter().position(|p| p.has_room(cores)) else {
            return false;
        };
        self.pilots[pidx].free_cores -= cores as usize;
        let unit = self.units.get_mut(id).expect(HELD);
        unit.pilot = u32::try_from(pidx).expect("pilot ids fit in u32");
        unit.holding = cores;
        let input_bytes = unit.input_bytes;
        let staging = UnitState::StagingInput;
        self.set_unit_state(UnitId(id), staging, ctx.now(), None, ctx, out);
        // Scheduling bookkeeping cost + staged input bytes.
        let overheads = &self.config.overheads;
        let sched_cost = overheads.scheduling_per_unit.sample(&mut self.rng);
        let stage = self.cluster.transfer_duration(input_bytes);
        let delay = SimDuration::from_secs_f64(sched_cost) + stage;
        ctx.schedule_in(delay, RuntimeEvent::StageInDone(UnitId(id)));
        true
    }

    fn on_stagein_done<E: RuntimeEventSink>(&mut self, id: UnitId, ctx: &mut Context<'_, E>) {
        let Some(unit) = self.units.get(id.0) else {
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
        let Some(unit) = self.units.get(id.0) else {
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
        self.units.get_mut(id.0).expect(HELD).exec = Exec::Running(ev);
    }

    fn on_exec_done<E: RuntimeEventSink>(
        &mut self,
        id: UnitId,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<RuntimeNotification>,
    ) {
        let Some(unit) = self.units.get_mut(id.0) else {
            return;
        };
        if unit.state != UnitState::Executing {
            return;
        }
        self.telemetry
            .emit(ctx.now(), TraceKind::UnitExecStop, id.0);
        unit.exec = Exec::Stopped(ctx.now());
        // Release cores regardless of outcome.
        let released = unit.holding as usize;
        unit.holding = 0;
        let pilot = unit.pilot as usize;
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
        if released > 0 {
            if let Some(p) = self.pilots.get_mut(pilot) {
                p.free_cores += released;
            }
            ctx.schedule_in(SimDuration::ZERO, RuntimeEvent::SchedulePass);
        }
    }

    fn on_stageout_done<E: RuntimeEventSink>(
        &mut self,
        id: UnitId,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<RuntimeNotification>,
    ) {
        if self.unit_state(id) == Some(UnitState::StagingOutput) {
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
    /// notifications, the runtime and the id range `submit_units` gave.
    pub(crate) fn run_session(
        spec: PlatformSpec,
        config: SimRuntimeConfig,
        pilot_cores: usize,
        units: Vec<UnitDescription>,
    ) -> (Vec<RuntimeNotification>, SimRuntime, Range<u64>) {
        run_ordered(UnitOrder::FirstFit, spec, config, pilot_cores, units)
    }

    /// [`run_session`] with units offered in `order`.
    pub(crate) fn run_ordered(
        order: UnitOrder,
        spec: PlatformSpec,
        config: SimRuntimeConfig,
        pilot_cores: usize,
        units: Vec<UnitDescription>,
    ) -> (Vec<RuntimeNotification>, SimRuntime, Range<u64>) {
        let mut rt = SimRuntime::new(spec, config);
        rt.set_unit_order(order);
        let mut engine: Engine<Ev> = Engine::new();
        let mut log = Vec::new();
        let mut booted = false;
        let mut ids = 0..0;
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
                ids = rt.submit_units(units.clone(), ctx, &mut out).unwrap();
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
        (log, rt, ids)
    }

    /// Seconds from the first execution start to the last execution stop —
    /// the application-execution component of TTC — read off the trace.
    fn exec_span(rt: &SimRuntime) -> f64 {
        let tracer = rt.telemetry().snapshot().tracer;
        let times = |kind| tracer.filter(kind).map(|r| r.time);
        let start = times(TraceKind::UnitExecStart)
            .min()
            .expect("a unit started");
        let stop = times(TraceKind::UnitExecStop)
            .max()
            .expect("a unit stopped");
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
        let (log, rt, _) = run_session(quiet_spec(1, 4), quiet_config(), 4, units);
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

    /// `collect_unit` takes a terminal unit's exec stop once and hides its
    /// row. Rows leave only from the front: an older row not yet collected
    /// keeps the newer collected ones resident until it is collected. A
    /// live unit is not collected, and ids stay monotone past an empty
    /// table.
    #[test]
    fn collected_rows_leave_the_unit_table_from_the_front() {
        let units: Vec<_> = (0..4)
            .map(|i| UnitDescription::modeled(format!("t{i}"), SimDuration::from_secs(5)))
            .collect();
        let (_, mut rt, ids) = run_session(quiet_spec(1, 4), quiet_config(), 4, units);
        assert_eq!(
            rt.units.len(),
            4,
            "a runtime driven directly keeps every row"
        );
        let stop = |rt: &SimRuntime, u| rt.unit_exec_stop(UnitId(u)).expect("executed");
        let stops: Vec<_> = ids.map(|u| stop(&rt, u)).collect();
        assert_eq!(rt.collect_unit(UnitId(2)), Some(stops[2]));
        assert_eq!(rt.collect_unit(UnitId(1)), Some(stops[1]));
        assert_eq!(rt.collect_unit(UnitId(1)), None, "a row is collected once");
        assert_eq!(rt.unit_state(UnitId(1)), None);
        assert_eq!(rt.unit_exec_stop(UnitId(2)), None);
        assert_eq!(rt.units.len(), 4, "unit 0 holds the rows behind it");
        assert_eq!(rt.unit_state(UnitId(0)), Some(UnitState::Done));
        assert_eq!(rt.collect_unit(UnitId(0)), Some(stops[0]));
        assert_eq!(rt.units.len(), 1);
        assert_eq!(rt.unit_state(UnitId(3)), Some(UnitState::Done));
        assert_eq!(rt.collect_unit(UnitId(3)), Some(stops[3]));
        assert_eq!(rt.units.len(), 0);

        let mut engine: Engine<Ev> = Engine::new();
        let unit = UnitDescription::modeled("late", SimDuration::from_secs(5));
        let late = rt.submit_units(vec![unit], &mut engine.context(), &mut Vec::new());
        assert_eq!(late, Ok(4..5), "ids continue past the collected rows");
        assert_eq!(
            rt.collect_unit(UnitId(4)),
            None,
            "a live unit is not collected"
        );
        assert_eq!(rt.unit_state(UnitId(4)), Some(UnitState::New));
        assert_eq!(rt.units.len(), 1);
    }

    #[test]
    fn more_units_than_cores_run_in_waves() {
        // 8 units of 5 s on 4 cores => exec span ~ 2 waves.
        let units: Vec<_> = (0..8)
            .map(|i| UnitDescription::modeled(format!("t{i}"), SimDuration::from_secs(5)))
            .collect();
        let (_, rt, _) = run_session(quiet_spec(1, 4), quiet_config(), 4, units);
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
        let (_, rt, _) = run_session(quiet_spec(1, 4), quiet_config(), 4, units);
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
        let (log, _, _) = run_session(quiet_spec(1, 4), quiet_config(), 4, units);
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
        let (log, rt, ids) = run_session(quiet_spec(1, 4), quiet_config(), 4, units);
        // A submission is not notified: the id range names the unit, and
        // the trace holds its `unit_submitted` record at the submission.
        assert_eq!(ids, 0..1);
        let tracer = rt.telemetry().snapshot().tracer;
        let submitted = tracer.time_of(TraceKind::UnitSubmitted, 0);
        assert_eq!(submitted, Some(SimTime::ZERO));
        // The caller hears of the start of execution and of the end only.
        let states: Vec<UnitState> = log
            .iter()
            .filter_map(|n| match n {
                RuntimeNotification::Unit { id, state, .. } if *id == UnitId(0) => Some(*state),
                _ => None,
            })
            .collect();
        assert_eq!(states, vec![UnitState::Executing, UnitState::Done]);
        // The trace holds the whole lifecycle. `unit_scheduled` is the step
        // from Scheduling into StagingInput; StagingOutput runs from
        // `unit_exec_stop` to `unit_done`. Each staging state lasts its
        // 10 ms transfer (input staging also pays the 10 ms launch).
        let steps: Vec<(&str, f64)> = tracer
            .records()
            .iter()
            .filter(|r| r.subject() == entk_sim::Subject::Unit(0))
            .map(|r| (r.kind.name(), r.time.as_secs_f64()))
            .collect();
        let names: Vec<&str> = steps.iter().map(|&(name, _)| name).collect();
        assert_eq!(
            names,
            [
                "unit_submitted",
                "unit_scheduled",
                "unit_exec_start",
                "unit_exec_stop",
                "unit_done"
            ]
        );
        let gap = |i: usize| steps[i + 1].1 - steps[i].1;
        assert!((gap(1) - 0.02).abs() < 1e-6, "staging in {}", gap(1));
        assert!((gap(2) - 1.0).abs() < 1e-6, "executing {}", gap(2));
        assert!((gap(3) - 0.01).abs() < 1e-6, "staging out {}", gap(3));
        assert_eq!(rt.unit_state(UnitId(0)), Some(UnitState::Done));
    }

    #[test]
    fn failure_injection_fails_some_units() {
        let mut cfg = quiet_config();
        cfg.unit_failure_rate = 0.5;
        let units: Vec<_> = (0..40)
            .map(|i| UnitDescription::modeled(format!("t{i}"), SimDuration::from_secs(1)))
            .collect();
        let (log, _, _) = run_session(quiet_spec(1, 8), cfg, 8, units);
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
        // The pilot's wall time is 100 000 s; the unit needs 200 000 s.
        let units = vec![UnitDescription::modeled(
            "too-long",
            SimDuration::from_secs(200_000),
        )];
        let (log, rt, _) = run_session(quiet_spec(1, 4), quiet_config(), 4, units);
        assert_eq!(rt.pilot_state(PilotId(0)), Some(PilotState::Failed));
        let terminals = unit_terminal_states(&log);
        assert_eq!(terminals[&UnitId(0)], UnitState::Failed);
    }

    #[test]
    fn oversized_pilot_fails_when_submitted() {
        // 8 cores on the machine, 10 000 asked for: the batch system
        // refuses the container job, so the pilot never waits in a queue.
        let (log, rt, _) = run_session(quiet_spec(2, 4), quiet_config(), 10_000, Vec::new());
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
        assert_eq!(tracer.filter(TraceKind::JobRejected).count(), 1);
        assert_eq!(tracer.filter(TraceKind::JobQueued).count(), 0);
        assert_eq!(tracer.filter(TraceKind::PilotFailed).count(), 1);
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
        // first entry into Scheduling must be exactly fixed + per * n. With
        // the pilot up at t=0 and room for every unit, a unit is placed the
        // instant it enters Scheduling, which the trace records as its
        // `unit_scheduled`.
        let mk_units = |n: usize| {
            (0..n)
                .map(|i| UnitDescription::modeled(format!("t{i}"), SimDuration::from_secs(1)))
                .collect::<Vec<_>>()
        };
        let mut cfg = quiet_config();
        cfg.overheads.unit_submit_per_unit = entk_sim::Dist::Constant(0.01);
        cfg.overheads.unit_submit_fixed = entk_sim::Dist::Constant(0.1);
        let mut spec = quiet_spec(8, 24);
        spec.job_startup = entk_sim::Dist::Constant(0.0);
        let first_scheduling = |rt: &SimRuntime| {
            let tracer = rt.telemetry().snapshot().tracer;
            let active = tracer.filter(TraceKind::PilotActive).map(|r| r.time);
            assert_eq!(active.collect::<Vec<_>>(), [SimTime::ZERO]);
            let placed = tracer.filter(TraceKind::UnitScheduled).map(|r| r.time);
            placed
                .min()
                .expect("units entered scheduling")
                .as_secs_f64()
        };
        let (_, rt_small, _) = run_session(spec.clone(), cfg.clone(), 64, mk_units(16));
        let (_, rt_large, _) = run_session(spec, cfg, 64, mk_units(64));
        let small = first_scheduling(&rt_small);
        let large = first_scheduling(&rt_large);
        assert!(
            (small - (0.1 + 0.01 * 16.0)).abs() < 1e-6,
            "small gap {small}"
        );
        assert!(
            (large - (0.1 + 0.01 * 64.0)).abs() < 1e-6,
            "large gap {large}"
        );
    }

    /// ROADMAP 15: 24-core units on a 1 000-core pilot leave 16 cores free
    /// that no waiting unit fits, so a pass ends at the first unit it cannot
    /// place instead of walking the rest of the queue.
    #[test]
    fn a_remainder_narrower_than_every_waiting_unit_ends_the_pass() {
        let units: Vec<_> = (0..20_000)
            .map(|i| {
                UnitDescription::modeled(format!("u{i}"), SimDuration::from_secs(10))
                    .with_cores(24)
                    .with_mpi(true)
            })
            .collect();
        for order in [UnitOrder::FirstFit, UnitOrder::LargestFirst] {
            let (spec, config) = (quiet_spec(1, 1000), quiet_config());
            let (_, rt, _) = run_ordered(order, spec, config, 1000, units.clone());
            let tracer = rt.telemetry().snapshot().tracer;
            let placed = tracer.filter(TraceKind::UnitScheduled).count();
            assert_eq!(placed, 20_000);
            assert!(
                rt.examined <= 2 * placed,
                "{order:?}: {} queue entries examined for {placed} placements",
                rt.examined
            );
        }
    }

    /// A runtime holding `pilots` (state, total cores, free cores) and, in
    /// arrival order `arrival`, a queue of `units` (cores, waits): a unit
    /// that does not wait was cancelled after it entered `Scheduling`, and
    /// every other such one collected.
    fn queued_runtime(
        order: UnitOrder,
        pilots: &[(PilotState, usize, usize)],
        units: &[(u32, bool)],
        arrival: &[usize],
    ) -> SimRuntime {
        let mut rt = SimRuntime::new(quiet_spec(1, 4), quiet_config());
        rt.set_unit_order(order);
        for &(state, total, free_cores) in pilots {
            rt.pilots.push(PilotRecord {
                description: PilotDescription::new("local", total, SimDuration::from_secs(1)),
                state,
                job: None,
                free_cores,
                submitted: SimTime::ZERO,
                launched: None,
                active: None,
            });
        }
        for &(cores, _) in units {
            let unit = UnitDescription::modeled("u", SimDuration::from_secs(1));
            let unit = unit.with_cores(cores as usize).with_mpi(true);
            rt.push_unit(&unit).unwrap();
        }
        let mut engine: Engine<Ev> = Engine::new();
        let (ctx, out) = (&mut engine.context(), &mut Vec::new());
        for &i in arrival {
            let id = UnitId(i as u64);
            rt.set_unit_state(id, UnitState::Scheduling, SimTime::ZERO, None, ctx, out);
            rt.waiting.push_back(id.0);
        }
        // They joined as one batch; some left while they waited.
        rt.restore_offer_order();
        for &i in arrival {
            let id = UnitId(i as u64);
            if !units[i].1 {
                rt.set_unit_state(id, UnitState::Canceled, SimTime::ZERO, None, ctx, out);
                if i % 2 == 0 {
                    rt.collect_unit(id);
                }
            }
        }
        rt
    }

    proptest::proptest! {
        /// One placement pass places what the reference policy of its
        /// order places, in the same order, from the live entries of the
        /// queue in arrival order, and leaves the rest waiting in offer
        /// order: arrival order, or widest first, then by id. Widths are 1
        /// to 64 cores; a pilot is inactive, full, partly free, or smaller
        /// than some widths.
        #[test]
        fn prop_a_pass_places_what_the_reference_policy_places(
            units in proptest::collection::vec((1u32..65, 0u8..4, 0u64..1_000), 0..48),
            pilots in proptest::collection::vec((0u8..4, 1usize..80, 0usize..80), 1..4),
            largest_first in 0u8..2,
        ) {
            use crate::scheduler::{
                FirstFitScheduler, LargestFirstScheduler, PilotView, Placement, UnitScheduler,
                UnitView,
            };
            let pilots: Vec<(PilotState, usize, usize)> = (pilots.iter())
                .map(|&(kind, total, free)| match kind {
                    0 => (PilotState::Launching, total, total),
                    1 => (PilotState::Active, total, 0),
                    _ => (PilotState::Active, total, free % (total + 1)),
                })
                .collect();
            let live: Vec<(u32, bool)> = units.iter().map(|&(c, dead, _)| (c, dead != 0)).collect();
            let mut arrival: Vec<usize> = (0..units.len()).collect();
            arrival.sort_by_key(|&i| units[i].2);
            let (order, mut reference): (_, Box<dyn UnitScheduler>) = match largest_first {
                0 => (UnitOrder::FirstFit, Box::new(FirstFitScheduler)),
                _ => (UnitOrder::LargestFirst, Box::new(LargestFirstScheduler)),
            };
            let mut rt = queued_runtime(order, &pilots, &live, &arrival);

            let views: Vec<UnitView> = (arrival.iter())
                .filter(|&&i| live[i].1)
                .map(|&i| UnitView { id: UnitId(i as u64), cores: live[i].0 as usize })
                .collect();
            let pilot_views: Vec<PilotView> = (pilots.iter().enumerate())
                .map(|(i, &(state, total_cores, free_cores))| PilotView {
                    id: PilotId(i as u64),
                    active: state == PilotState::Active,
                    free_cores,
                    total_cores,
                })
                .collect();
            let expected = reference.assign(&views, &pilot_views);

            let mut engine: Engine<Ev> = Engine::new();
            rt.place_waiting(&mut engine.context(), &mut Vec::new());
            let tracer = rt.telemetry().snapshot().tracer;
            let placed: Vec<Placement> = (tracer.filter(TraceKind::UnitScheduled))
                .map(|r| Placement {
                    unit: UnitId(r.id),
                    pilot: PilotId(u64::from(rt.units.get(r.id).expect(HELD).pilot)),
                })
                .collect();
            proptest::prop_assert_eq!(&placed, &expected);
            let mut offered = views.clone();
            if order == UnitOrder::LargestFirst {
                offered.sort_by_key(|v| (Reverse(v.cores), v.id.0));
            }
            let left: Vec<u64> = (offered.iter().map(|v| v.id.0))
                .filter(|&id| placed.iter().all(|p| p.unit.0 != id))
                .collect();
            let waiting: Vec<u64> = (rt.waiting.iter().copied())
                .filter(|&id| waits(&rt.units, id))
                .collect();
            proptest::prop_assert_eq!(&waiting, &left);
            let counted: u32 = rt.widths.iter().map(|&(_, units)| units).sum();
            proptest::prop_assert_eq!(counted as usize, left.len());
        }
    }
}

#[cfg(test)]
mod tracer_tests {
    use super::tests::*;
    use super::*;
    use entk_sim::{SimDuration, Subject};

    #[test]
    fn tracer_records_session_events_in_causal_order() {
        let units: Vec<_> = (0..3)
            .map(|i| UnitDescription::modeled(format!("t{i}"), SimDuration::from_secs(5)))
            .collect();
        let (_, rt, _) = run_session(quiet_spec(1, 4), quiet_config(), 4, units);
        let tracer = rt.telemetry().snapshot().tracer;
        assert_eq!(tracer.filter(TraceKind::PilotSubmitted).count(), 1);
        assert_eq!(tracer.filter(TraceKind::PilotActive).count(), 1);
        assert_eq!(tracer.filter(TraceKind::UnitScheduled).count(), 3);
        assert_eq!(tracer.filter(TraceKind::UnitExecStart).count(), 3);
        assert_eq!(tracer.filter(TraceKind::UnitExecStop).count(), 3);
        // Causality per unit: scheduled <= exec_start <= exec_stop.
        for u in 0..3u64 {
            let sched = tracer.time_of(TraceKind::UnitScheduled, u).unwrap();
            let start = tracer.time_of(TraceKind::UnitExecStart, u).unwrap();
            let stop = tracer.time_of(TraceKind::UnitExecStop, u).unwrap();
            assert!(sched <= start && start <= stop);
        }
    }

    #[test]
    fn pilot_startup_agrees_with_the_trace() {
        let units = vec![UnitDescription::modeled("t", SimDuration::from_secs(5))];
        let mut config = quiet_config();
        config.overheads.pilot_submission = entk_sim::Dist::Constant(2.0);
        let (_, rt, _) = run_session(quiet_spec(1, 4), config, 4, units);
        let tracer = rt.telemetry().snapshot().tracer;
        let at = |kind| {
            let time = tracer.time_of(kind, 0);
            time.expect("the pilot went through every phase")
        };
        let (submit, wait) = rt.pilot_startup(PilotId(0)).unwrap();
        assert_eq!(submit, SimDuration::from_secs(2));
        let launched = at(TraceKind::PilotLaunched);
        assert_eq!(submit, launched - at(TraceKind::PilotSubmitted));
        assert_eq!(wait, at(TraceKind::PilotActive) - launched);
        assert!(wait >= SimDuration::from_secs(1), "job startup is 1 s");
        assert_eq!(rt.pilot_startup(PilotId(1)), None);
    }

    #[test]
    fn trace_spans_cluster_and_pilot_layers() {
        let units: Vec<_> = (0..2)
            .map(|i| UnitDescription::modeled(format!("t{i}"), SimDuration::from_secs(5)))
            .collect();
        let (_, rt, _) = run_session(quiet_spec(1, 4), quiet_config(), 4, units);
        let tracer = rt.telemetry().snapshot().tracer;
        // The pilot's container job is traced by the cluster layer through
        // the same shared pipeline.
        assert_eq!(tracer.filter(TraceKind::JobQueued).count(), 1);
        assert_eq!(tracer.filter(TraceKind::JobStarted).count(), 1);
        assert_eq!(tracer.filter(TraceKind::JobRunning).count(), 1);
        assert_eq!(tracer.filter(TraceKind::JobCompleted).count(), 1);
        // Terminal unit outcomes are traced.
        assert_eq!(tracer.filter(TraceKind::UnitDone).count(), 2);
        // Every unit reached a final state.
        assert_eq!(rt.live_units(), 0);
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
        use TraceKind::*;
        let count = |kind| records.iter().filter(|r| r.kind == kind).count();
        for kind in [JobShrunk, JobTimedOut, PilotCancelled, UnitFailed] {
            assert!(count(kind) > 0, "the session never recorded {kind:?}");
        }
        let mut first: HashMap<(Subject, TraceKind), SimTime> = HashMap::new();
        let mut ends: HashMap<Subject, usize> = HashMap::new();
        for r in records {
            first.entry((r.subject(), r.kind)).or_insert(r.time);
            if matches!(
                r.kind,
                UnitDone
                    | UnitFailed
                    | UnitCanceled
                    | JobCompleted
                    | JobFailed
                    | JobTimedOut
                    | JobCancelled
                    | JobRejected
            ) {
                *ends.entry(r.subject()).or_default() += 1;
            }
        }
        // Exactly one terminal record per unit and per batch job.
        let born: Vec<Subject> = records
            .iter()
            .filter(|r| matches!(r.kind, UnitSubmitted | JobQueued))
            .map(|r| r.subject())
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
            let at = |kind| first.get(&(subject, kind)).copied();
            let end = [UnitDone, UnitFailed, UnitCanceled]
                .into_iter()
                .find_map(at);
            let steps = [at(UnitScheduled), at(UnitExecStart), at(UnitExecStop)];
            let reached: Vec<SimTime> = steps.iter().map_while(|t| *t).chain(end).collect();
            let recorded = steps.iter().flatten().count() + 1;
            assert_eq!(reached.len(), recorded, "{subject}: {steps:?} then {end:?}");
            assert!(reached.is_sorted(), "{subject}: {reached:?}");
            if let (Some(start), Some(stop)) = (steps[1], steps[2]) {
                straggled += usize::from(stop - start == SimDuration::from_secs(15));
            }
        }
        assert!(straggled > 0, "no straggler ran to its end");
        assert_eq!(rt.live_units(), 0);
    }
}
