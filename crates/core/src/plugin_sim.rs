//! The discrete-event execution backend (paper §III-B component 4).
//!
//! Implements [`ExecutionBackend`] over one or more independently simulated
//! clusters, each a full `Engine` + `SimRuntime` + batch-system stack. There
//! is one constructor and one member list: a simulated session is a
//! federation of one member, a federated session has several, and units are
//! late-bound at submission time to whichever member currently has the most
//! free capacity. Only the *drive* depends on the member count.
//!
//! ## One member: the single-engine drive
//!
//! The lone cluster's engine holds every event of the session, session-level
//! ones included, and `poll` steps it one event at a time; same-instant
//! events fire in insertion order and every layer records straight into the
//! shared telemetry pipeline. The windowed merge below is not a substitute
//! at N = 1: it buffers member telemetry and splices it after the session's
//! own record, and its spine wins time ties, so same-instant pairs
//! (`pilot unit_submitted` / `entk task_submitted`) swap and every golden
//! trace fingerprint would move. That is why the drive stays forked.
//!
//! ## Two or more members: the conservative-lookahead merge
//!
//! Session-level events (boot, batch releases, timeouts, shutdown) move to a
//! dedicated clock *spine* engine, while each member cluster's engine holds
//! only that machine's runtime and batch-system events. Members advance
//! inside bounded *windows*: from the earliest member event time `t_m` up to
//! (strictly before) the horizon `min(t_spine, t_m + lookahead)` — classic
//! conservative PDES. Every event a member processes becomes a *chunk*
//! `(time, member, events, telemetry ops)`; completed chunks are merged in
//! deterministic `(time, member)` order and doled out one per `poll`, so
//! the session observes the exact granularity and order a serial interleave
//! of the same windows would produce. Every window runs on the polling
//! thread (DESIGN.md §13 has the measurement), and the backend is `!Send`
//! like the telemetry handles it holds: a session never leaves the thread
//! that built it, and spawns and joins nothing.
//!
//! Outside the session's run phase (boot, teardown) the lookahead collapses
//! to 1 µs, which makes each window cover exactly one timestamp: the merge
//! then reproduces the serial earliest-event interleave exactly.
//!
//! All session semantics (retry, records, overheads, degradation) live in
//! [`crate::session::SessionEngine`]; this file only turns engine events and
//! runtime notifications into [`BackendEvent`]s and units into simulated
//! work.

use crate::backend::{
    recycle, BackendEvent, BackendStats, ExecutionBackend, Poll, UnitOutcome, UnitSpec,
};
use crate::binding::{BindingPolicy, StaticBinding};
use entk_cluster::{ClusterEvent, FaultProfile, PlatformSpec};
use entk_kernels::{KernelCall, KernelRegistry};
use entk_pilot::{
    PilotDescription, PilotId, PilotState, RuntimeEvent, RuntimeNotification, SimRuntime,
    SimRuntimeConfig, UnitDescription, UnitId, UnitState,
};
use entk_sim::{
    Context, Engine, SharedTelemetry, SimDuration, SimRng, SimTime, Subject, SubjectOffsets,
    TelemetryBuffer,
};
use std::collections::{HashSet, VecDeque};

/// Top-level event type of the simulated toolkit stack. Session-level
/// events (everything but `Rt`/`Cl`) are always scheduled on cluster 0's
/// engine, which acts as the session's clock spine.
#[derive(Debug, Clone)]
pub(crate) enum Ev {
    /// Pilot runtime event.
    Rt(RuntimeEvent),
    /// Batch-system event.
    Cl(ClusterEvent),
    /// Toolkit init + resource request done: boot every cluster.
    Boot,
    /// Pattern overhead paid: these tasks' units are due for submission.
    TasksReady(u64, Vec<u64>),
    /// Kill-replace watchdog for a task.
    TaskTimeout(u64),
    /// Deferred kernel-binding failure becomes deliverable.
    Deliver(u64),
    /// Graceful pilot shutdown across all clusters.
    Shutdown,
    /// Clock-advancing no-op (teardown time).
    Nop,
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

/// One independently simulated cluster: its own event queue, pilot runtime,
/// batch system, fault injector, and pilots.
struct ClusterStack {
    engine: Engine<Ev>,
    runtime: SimRuntime,
    resource: String,
    cores: usize,
    walltime: SimDuration,
    /// Pilots the requested cores are split across (the first absorbs any
    /// remainder).
    pilot_count: usize,
    background_load: Option<entk_cluster::cluster::BackgroundLoad>,
    fault_profile: Option<FaultProfile>,
    pilots: Vec<PilotId>,
    dead_pilots: HashSet<PilotId>,
    /// Buffered telemetry op log (multi-member federated drives only):
    /// this member's layers record here instead of the shared pipeline, and
    /// the merge spine drains it chunk by chunk, so it holds only the ops
    /// of chunks still pending.
    buffer: Option<TelemetryBuffer>,
    /// Ops in `buffer` already claimed by a pending chunk.
    ops_claimed: usize,
    /// Scratch for the runtime's notifications of one event, reused so the
    /// drive allocates no vector per event.
    notes: Vec<RuntimeNotification>,
}

impl ClusterStack {
    /// Enables load/fault models and submits this cluster's pilots.
    fn boot(&mut self, ctx: &mut Context<'_, Ev>, notes: &mut Vec<RuntimeNotification>) {
        if let Some(load) = self.background_load {
            self.runtime.cluster_mut().enable_background_load(load, ctx);
        }
        if let Some(profile) = self.fault_profile.clone() {
            self.runtime
                .cluster_mut()
                .enable_fault_injector(profile, ctx);
        }
        // Split the requested cores across the strategy's pilots; the
        // first pilot absorbs any remainder.
        let n = self.pilot_count;
        let base = self.cores / n;
        for i in 0..n {
            let cores = if i == 0 { base + self.cores % n } else { base };
            let pd = PilotDescription::new(self.resource.clone(), cores, self.walltime);
            match self.runtime.submit_pilot(pd, ctx, notes) {
                Ok(id) => self.pilots.push(id),
                Err(e) => {
                    debug_assert!(false, "pilot description invalid: {e}");
                }
            }
        }
    }

    /// Gracefully finishes this cluster's pilots.
    fn shutdown(&mut self, ctx: &mut Context<'_, Ev>, notes: &mut Vec<RuntimeNotification>) {
        self.runtime.cluster_mut().disable_background_load();
        for p in self.pilots.clone() {
            self.runtime.finish_pilot(p, ctx, notes);
        }
    }

    /// Largest unit this cluster can run: the per-pilot core share while
    /// any pilot may still serve, the full request otherwise (matching the
    /// clamp the single-cluster driver always applied).
    fn max_unit_cores(&self) -> usize {
        self.pilots
            .iter()
            .filter_map(|&p| {
                (self.runtime.pilot_state(p) != Some(PilotState::Failed))
                    .then_some(self.cores / self.pilot_count)
            })
            .max()
            .unwrap_or(self.cores)
            .max(1)
    }

    fn pilots_terminal(&self) -> bool {
        self.pilots.iter().all(|&p| {
            self.runtime
                .pilot_state(p)
                .map(PilotState::is_terminal)
                .unwrap_or(true)
        })
    }

    /// Claims the telemetry ops recorded since the last claim and returns
    /// how many they are. Zero for the unbuffered stack of a one-member
    /// session.
    fn take_ops(&mut self) -> usize {
        let held = self.buffer.as_ref().map_or(0, TelemetryBuffer::len);
        held - std::mem::replace(&mut self.ops_claimed, held)
    }
}

/// One unit of doled-out federated progress: a single member engine event
/// (or an eventless session-side injection), with everything the spine
/// needs to surface it in deterministic order — the backend events it
/// produced, the telemetry ops it recorded, and the pilots it killed
/// (applied at dole time so `capacity_lost()` keeps serial granularity).
struct Chunk {
    time: SimTime,
    member: usize,
    /// How many of the oldest ops in the member's log are this chunk's.
    ops: usize,
    events: Vec<BackendEvent>,
    dead: Vec<PilotId>,
    /// Event chunks are returned by `poll` one at a time; injection chunks
    /// (session-side calls into member runtimes) splice silently.
    eventful: bool,
}

/// Conservative-lookahead merge state of a multi-member backend; `None`
/// with one member, which keeps the single-engine drive.
struct FedState {
    /// The session's clock spine: holds only session-level events (boot,
    /// batch releases, timeouts, shutdown, clock marks).
    spine: Engine<Ev>,
    /// Completed member chunks awaiting dole, sorted by `(time, member)`.
    pending: VecDeque<Chunk>,
    /// Window width beyond the earliest member event during the run phase.
    lookahead: SimDuration,
    /// Latched while the session is in its run phase (first batch scheduled
    /// → shutdown): windows widen to the lookahead. Outside it they stay at
    /// 1 µs — one timestamp per window, exactly the serial interleave.
    windows_on: bool,
}

impl FedState {
    /// Captures telemetry ops a session-side call just recorded into a
    /// member's buffer as an eventless chunk, merged into the dole stream
    /// at the member's current clock (where the ops were timestamped) so
    /// spliced gauge series stay time-ordered.
    fn push_injection(&mut self, stack: &mut ClusterStack, member: usize) {
        let ops = stack.take_ops();
        if ops == 0 {
            return;
        }
        let time = stack.engine.now();
        // After chunks with the same key: same-member ops splice in record
        // order.
        let pos = self
            .pending
            .partition_point(|c| (c.time, c.member) <= (time, member));
        self.pending.insert(
            pos,
            Chunk {
                time,
                member,
                ops,
                events: Vec::new(),
                dead: Vec::new(),
                eventful: false,
            },
        );
    }

    /// Merges freshly windowed chunks (per-member, time-sorted) into the
    /// pending dole stream, keeping `(time, member)` order with existing
    /// chunks winning ties (they were produced by earlier windows).
    fn merge_pending(&mut self, outputs: impl Iterator<Item = Vec<Chunk>>) {
        let mut fresh: Vec<Chunk> = outputs.flatten().collect();
        if fresh.is_empty() {
            return;
        }
        // Stable: per-member chunk order (equal times included) survives.
        fresh.sort_by_key(|c| (c.time, c.member));
        let old = std::mem::take(&mut self.pending);
        let mut merged = VecDeque::with_capacity(old.len() + fresh.len());
        let mut fresh = fresh.into_iter().peekable();
        for chunk in old {
            while fresh
                .peek()
                .is_some_and(|f| (f.time, f.member) < (chunk.time, chunk.member))
            {
                merged.push_back(fresh.next().expect("peeked"));
            }
            merged.push_back(chunk);
        }
        merged.extend(fresh);
        self.pending = merged;
    }
}

/// Runs one member's conservative-lookahead window: processes every event
/// strictly before `horizon`, one chunk per event. Runs member-locally (no
/// shared state beyond the member's own stack), so the order members are
/// visited in cannot show in the chunks.
fn run_member_window(
    member: usize,
    n_clusters: u64,
    stack: &mut ClusterStack,
    horizon: SimTime,
) -> Vec<Chunk> {
    let mut chunks = Vec::new();
    let mut engine = std::mem::take(&mut stack.engine);
    while let Some(t) = engine.next_time() {
        if t >= horizon {
            break;
        }
        let mut events = Vec::new();
        let mut dead = Vec::new();
        {
            let (runtime, notes) = (&mut stack.runtime, &mut stack.notes);
            engine.advance_until(1, horizon, &mut |ev, ctx| {
                match ev {
                    Ev::Rt(re) => runtime.handle(re, ctx, notes),
                    Ev::Cl(ce) => runtime.handle_cluster(ce, ctx, notes),
                    _ => unreachable!("session events are scheduled on the spine"),
                }
                translate_notes(member, n_clusters, notes, ctx.now(), &mut events, &mut dead);
            });
        }
        chunks.push(Chunk {
            time: t,
            member,
            ops: stack.take_ops(),
            events,
            dead,
            eventful: true,
        });
    }
    stack.engine = engine;
    chunks
}

/// Drains one member's runtime notifications into backend events. Failure
/// events carry the *processing* time (`now`), matching how the serial
/// driver applies its fault policy at the step time. Dead pilots are
/// collected, not applied — windowed drives defer them to dole time so
/// `capacity_lost()` is observed with serial granularity.
fn translate_notes(
    member: usize,
    n_clusters: u64,
    notes: &mut Vec<RuntimeNotification>,
    now: SimTime,
    out: &mut Vec<BackendEvent>,
    dead: &mut Vec<PilotId>,
) {
    for note in notes.drain(..) {
        match note {
            RuntimeNotification::Pilot { id, state, .. } => {
                if state == PilotState::Failed || state == PilotState::Canceled {
                    dead.push(id);
                }
            }
            RuntimeNotification::PilotShrunk {
                lost_cores,
                remaining_cores,
                ..
            } => {
                out.push(BackendEvent::CapacityShrunk {
                    lost_cores,
                    remaining_cores,
                });
            }
            RuntimeNotification::Unit {
                id,
                state,
                time,
                detail,
            } => {
                let key = id.0 * n_clusters + member as u64;
                match state {
                    UnitState::Executing => out.push(BackendEvent::UnitStarted { key, time }),
                    UnitState::Done => out.push(BackendEvent::UnitDone { key, time }),
                    UnitState::Failed | UnitState::Canceled => {
                        out.push(BackendEvent::UnitFailed {
                            key,
                            time: now,
                            reason: detail.unwrap_or_else(|| format!("{state:?}")),
                        });
                    }
                    _ => {}
                }
            }
        }
    }
}

/// A unit staged between `prepare_batch` and `commit_batch`.
struct PreparedUnit {
    uid: u64,
    cluster: usize,
    description: UnitDescription,
    /// The member runtime's unit id, once committed.
    unit: Option<u64>,
}

/// What `prepare_batch` and `commit_batch` work in, kept from one batch to
/// the next so that a batch allocates nothing here. Each vector is emptied
/// for its next use and freed if a large batch grew it (see [`recycle`]).
#[derive(Default)]
struct BatchScratch {
    /// Units staged by the last prepare, in batch order.
    prepared: Vec<PreparedUnit>,
    /// Free cores per member when the batch was prepared.
    free: Vec<usize>,
    /// `free` less the cores of the batch's units placed so far.
    remaining: Vec<i64>,
    /// Largest unit per member.
    max_unit: Vec<usize>,
    /// Members with a pilot that may still serve.
    alive: Vec<bool>,
    /// One member's staged descriptions, submitted in one call.
    descriptions: Vec<UnitDescription>,
}

/// The discrete-event [`ExecutionBackend`]: one member cluster for
/// simulated sessions, several for federated ones.
pub(crate) struct EventBackend {
    clusters: Vec<ClusterStack>,
    registry: KernelRegistry,
    binding: Box<dyn BindingPolicy>,
    wait_all: bool,
    /// Resource label reported in stats.
    label: String,
    total_cores: usize,
    /// The un-offset session-level telemetry pipeline.
    telemetry: SharedTelemetry,
    /// The session-wide virtual clock: the time of the last processed event
    /// across all clusters.
    global_now: SimTime,
    scratch: BatchScratch,
    /// The drained vector of the last [`Poll::Events`], handed back by the
    /// session for the next poll to fill.
    spare_events: Vec<BackendEvent>,
    /// Conservative-lookahead merge state; `Some` iff there are ≥ 2 member
    /// clusters.
    fed: Option<FedState>,
}

impl EventBackend {
    /// Builds the backend over `inits` (at least one member). Every member
    /// records into a subject-offset view of one shared telemetry pipeline,
    /// so the session trace stays a single chronologically interleaved
    /// record with collision-free entity ids; member 0's offsets are zero.
    /// Members of a federation buffer their ops only while telemetry is on:
    /// a disabled handle records nothing, so there is no log to keep.
    /// `lookahead` is the run-phase window width of the merge (unused with
    /// one member).
    pub(crate) fn new(
        inits: Vec<ClusterInit>,
        registry: KernelRegistry,
        wait_all: bool,
        telemetry: SharedTelemetry,
        label: String,
        lookahead: SimDuration,
    ) -> Self {
        let total_cores = inits.iter().map(|i| i.cores).sum();
        // A lone member keeps the single-engine drive (and direct telemetry
        // handles); the windowed merge only exists at N ≥ 2.
        let multi = inits.len() >= 2;
        let clusters: Vec<ClusterStack> = inits
            .into_iter()
            .enumerate()
            .map(|(i, init)| {
                let offsets = SubjectOffsets {
                    pilot: i as u64 * 1_000,
                    unit: i as u64 * 1_000_000_000,
                    job: i as u64 * 1_000_000_000,
                    node: i as u64 * 1_000_000,
                };
                let (handle, buffer) = if multi && init.runtime_config.telemetry {
                    let (h, b) = telemetry.buffered(offsets);
                    (h, Some(b))
                } else {
                    (telemetry.with_subject_offsets(offsets), None)
                };
                let runtime =
                    SimRuntime::with_telemetry(init.platform, init.runtime_config, handle);
                ClusterStack {
                    engine: Engine::new(),
                    runtime,
                    resource: init.resource,
                    cores: init.cores,
                    walltime: init.walltime,
                    pilot_count: init.pilot_count.max(1).min(init.cores.max(1)),
                    background_load: init.background_load,
                    fault_profile: init.fault_profile,
                    pilots: Vec::new(),
                    dead_pilots: HashSet::new(),
                    buffer,
                    ops_claimed: 0,
                    notes: Vec::new(),
                }
            })
            .collect();
        let fed = multi.then(|| FedState {
            spine: Engine::new(),
            pending: VecDeque::new(),
            lookahead,
            windows_on: false,
        });
        EventBackend {
            clusters,
            registry,
            binding: Box::new(StaticBinding),
            wait_all,
            label,
            total_cores,
            telemetry,
            global_now: SimTime::ZERO,
            scratch: BatchScratch::default(),
            spare_events: Vec::new(),
            fed,
        }
    }

    /// Replaces the unit scheduler of cluster 0 (ablation hook; federated
    /// member clusters keep the default scheduler).
    pub(crate) fn set_unit_scheduler(&mut self, s: Box<dyn entk_pilot::UnitScheduler>) {
        self.clusters[0].runtime.set_scheduler(s);
    }

    /// Replaces the backend-wide binding policy (paper §V).
    pub(crate) fn set_binding_policy(&mut self, b: Box<dyn BindingPolicy>) {
        self.binding = b;
    }

    fn split_key(&self, key: u64) -> (usize, UnitId) {
        let n = self.clusters.len() as u64;
        ((key % n) as usize, UnitId(key / n))
    }

    /// Late binding: the alive cluster with the most uncommitted free
    /// capacity takes the unit (ties to the lowest index). Commitments may
    /// drive the balance negative, so once every cluster is oversubscribed
    /// the batch keeps spreading to the *least* backlogged queue instead of
    /// piling onto one machine. When no cluster is alive, fall back to raw
    /// balance so accounting still lands somewhere deterministic.
    fn pick_cluster(remaining: &[i64], alive: &[bool]) -> usize {
        let mut best: Option<usize> = None;
        for (i, &r) in remaining.iter().enumerate() {
            if alive[i] && best.is_none_or(|b| r > remaining[b]) {
                best = Some(i);
            }
        }
        if best.is_none() {
            for (i, &r) in remaining.iter().enumerate() {
                if best.is_none_or(|b| r > remaining[b]) {
                    best = Some(i);
                }
            }
        }
        best.unwrap_or(0)
    }

    /// Turns one cluster's runtime notifications into backend events,
    /// applying dead-pilot effects immediately (serial / spine contexts,
    /// where the notifications surface in the same poll).
    fn translate(
        &mut self,
        cluster: usize,
        notes: &mut Vec<RuntimeNotification>,
        now: SimTime,
        out: &mut Vec<BackendEvent>,
    ) {
        let n = self.clusters.len() as u64;
        let mut dead = Vec::new();
        translate_notes(cluster, n, notes, now, out, &mut dead);
        for p in dead {
            self.clusters[cluster].dead_pilots.insert(p);
        }
    }

    /// Handles one engine event of the lone cluster (the N = 1 drive),
    /// surfacing state changes.
    fn handle_ev(&mut self, ev: Ev, ctx: &mut Context<'_, Ev>, out: &mut Vec<BackendEvent>) {
        let mut notes = std::mem::take(&mut self.clusters[0].notes);
        match ev {
            Ev::Boot => {
                self.telemetry
                    .record(ctx.now(), "entk", "resource_ready", Subject::Session);
                self.clusters[0].boot(ctx, &mut notes);
            }
            Ev::Rt(re) => self.clusters[0].runtime.handle(re, ctx, &mut notes),
            Ev::Cl(ce) => self.clusters[0].runtime.handle_cluster(ce, ctx, &mut notes),
            Ev::TasksReady(batch, uids) => out.push(BackendEvent::BatchReady { batch, uids }),
            Ev::TaskTimeout(uid) => out.push(BackendEvent::TaskTimeout { uid }),
            Ev::Deliver(uid) => out.push(BackendEvent::DeferredFailure { uid }),
            Ev::Shutdown => self.clusters[0].shutdown(ctx, &mut notes),
            Ev::Nop => out.push(BackendEvent::ClockMark),
        }
        self.translate(0, &mut notes, ctx.now(), out);
        self.clusters[0].notes = notes;
    }

    /// The engine session-level events are scheduled on: the spine for
    /// multi-member federated backends, cluster 0's engine otherwise.
    fn session_engine(&mut self) -> &mut Engine<Ev> {
        match &mut self.fed {
            Some(f) => &mut f.spine,
            None => &mut self.clusters[0].engine,
        }
    }

    /// The windowed poll: dole the earliest pending chunk, process the
    /// spine when it is due, or run another member window — whichever is
    /// globally earliest, spine winning ties (it carries the session's
    /// reactions).
    fn poll_federated(&mut self) -> Poll {
        let mut fed = self.fed.take().expect("poll_federated needs fed state");
        let out = self.poll_fed_inner(&mut fed);
        self.fed = Some(fed);
        out
    }

    fn poll_fed_inner(&mut self, fed: &mut FedState) -> Poll {
        loop {
            let t_s = fed.spine.next_time();
            let t_c = fed.pending.front().map(|c| c.time);
            let t_m = self
                .clusters
                .iter_mut()
                .filter_map(|c| c.engine.next_time())
                .min();
            let spine_due = t_s
                .is_some_and(|ts| t_c.is_none_or(|tc| ts <= tc) && t_m.is_none_or(|tm| ts <= tm));
            if spine_due {
                return self.step_spine(fed);
            }
            // Raw member events due before (or tied with) every pending
            // chunk, and strictly before the spine: widen the chunk stream
            // with another window. `tm < ts` guarantees the window spans at
            // least one event, so this always makes progress.
            let window_due =
                t_m.is_some_and(|tm| t_s.is_none_or(|ts| tm < ts) && t_c.is_none_or(|tc| tm <= tc));
            if window_due {
                self.run_window(fed, t_m.expect("window_due"), t_s);
                continue;
            }
            let Some(chunk) = fed.pending.pop_front() else {
                return Poll::Drained;
            };
            self.global_now = self.global_now.max(chunk.time);
            let Chunk {
                member,
                ops,
                events,
                dead,
                eventful,
                ..
            } = chunk;
            let stack = &mut self.clusters[member];
            if let Some(buf) = &stack.buffer {
                buf.splice_into(&self.telemetry, ops);
                stack.ops_claimed -= ops;
            }
            for p in dead {
                self.clusters[member].dead_pilots.insert(p);
            }
            if eventful {
                return Poll::Events(events);
            }
        }
    }

    /// Processes exactly one spine event, mirroring the serial driver's
    /// one-event-per-poll granularity.
    fn step_spine(&mut self, fed: &mut FedState) -> Poll {
        let mut spine = std::mem::take(&mut fed.spine);
        let mut events = std::mem::take(&mut self.spare_events);
        spine.run_bounded(1, SimTime::MAX, &mut |ev, ctx| {
            let now = ctx.now();
            match ev {
                Ev::Boot => self.boot_all(fed, now, &mut events),
                Ev::Shutdown => self.shutdown_all(fed, now, &mut events),
                Ev::TasksReady(batch, uids) => {
                    events.push(BackendEvent::BatchReady { batch, uids });
                }
                Ev::TaskTimeout(uid) => events.push(BackendEvent::TaskTimeout { uid }),
                Ev::Deliver(uid) => events.push(BackendEvent::DeferredFailure { uid }),
                Ev::Nop => events.push(BackendEvent::ClockMark),
                Ev::Rt(_) | Ev::Cl(_) => {
                    unreachable!("runtime events live on member engines")
                }
            }
        });
        self.global_now = self.global_now.max(spine.now());
        fed.spine = spine;
        Poll::Events(events)
    }

    /// Boots every member through its own context at the spine's boot time.
    fn boot_all(&mut self, fed: &mut FedState, time: SimTime, out: &mut Vec<BackendEvent>) {
        self.telemetry
            .record(time, "entk", "resource_ready", Subject::Session);
        for i in 0..self.clusters.len() {
            let mut notes = Vec::new();
            let mut engine = std::mem::take(&mut self.clusters[i].engine);
            engine.advance_to(time);
            {
                let mut ctx = engine.context();
                self.clusters[i].boot(&mut ctx, &mut notes);
            }
            self.clusters[i].engine = engine;
            self.translate(i, &mut notes, time, out);
            fed.push_injection(&mut self.clusters[i], i);
        }
    }

    /// Gracefully shuts down every member through its own context.
    fn shutdown_all(&mut self, fed: &mut FedState, time: SimTime, out: &mut Vec<BackendEvent>) {
        for i in 0..self.clusters.len() {
            let mut notes = Vec::new();
            let mut engine = std::mem::take(&mut self.clusters[i].engine);
            engine.advance_to(time);
            {
                let mut ctx = engine.context();
                self.clusters[i].shutdown(&mut ctx, &mut notes);
            }
            self.clusters[i].engine = engine;
            self.translate(i, &mut notes, time, out);
            fed.push_injection(&mut self.clusters[i], i);
        }
    }

    /// Advances every member with events strictly before the window horizon
    /// `min(t_spine, tm + lookahead)`, one after the other on this thread.
    fn run_window(&mut self, fed: &mut FedState, tm: SimTime, ts: Option<SimTime>) {
        let lookahead = if fed.windows_on {
            fed.lookahead.as_micros().max(1)
        } else {
            // Outside the run phase a window covers exactly one timestamp,
            // making the merge reproduce the serial interleave event for
            // event.
            1
        };
        let mut horizon = SimTime::from_micros(tm.as_micros().saturating_add(lookahead));
        if let Some(ts) = ts {
            horizon = horizon.min(ts);
        }
        let n = self.clusters.len() as u64;
        let windows = self
            .clusters
            .iter_mut()
            .enumerate()
            .filter_map(|(member, stack)| {
                let due = stack.engine.next_time().is_some_and(|t| t < horizon);
                due.then(|| run_member_window(member, n, stack, horizon))
            });
        fed.merge_pending(windows);
    }
}

/// Construction parameters of one member cluster (resolved by
/// `ResourceHandle`'s event-handle builder).
pub(crate) struct ClusterInit {
    pub(crate) resource: String,
    pub(crate) cores: usize,
    pub(crate) walltime: SimDuration,
    pub(crate) platform: PlatformSpec,
    pub(crate) runtime_config: SimRuntimeConfig,
    pub(crate) pilot_count: usize,
    pub(crate) background_load: Option<entk_cluster::cluster::BackgroundLoad>,
    pub(crate) fault_profile: Option<FaultProfile>,
}

impl ExecutionBackend for EventBackend {
    fn now(&self) -> SimTime {
        self.global_now
    }

    fn virtual_time(&self) -> bool {
        true
    }

    fn begin_session(&mut self, boot_delay: SimDuration) {
        let t = self.global_now + boot_delay;
        self.session_engine().schedule_at(t, Ev::Boot);
    }

    fn allocation_ready(&self) -> bool {
        if !self.clusters.iter().any(|c| !c.pilots.is_empty()) {
            return false;
        }
        let active =
            |c: &ClusterStack, p: &PilotId| c.runtime.pilot_state(*p) == Some(PilotState::Active);
        match self.wait_all {
            false => self
                .clusters
                .iter()
                .any(|c| c.pilots.iter().any(|p| active(c, p))),
            true => self
                .clusters
                .iter()
                .all(|c| c.pilots.iter().all(|p| active(c, p))),
        }
    }

    fn capacity_lost(&self) -> bool {
        let total: usize = self.clusters.iter().map(|c| c.pilots.len()).sum();
        total > 0
            && self
                .clusters
                .iter()
                .all(|c| c.dead_pilots.len() == c.pilots.len())
    }

    fn pilots_terminal(&self) -> bool {
        self.clusters.iter().all(ClusterStack::pilots_terminal)
    }

    fn poll(&mut self) -> Poll {
        if self.fed.is_some() {
            return self.poll_federated();
        }
        // N = 1 drive: `fed` is `Some` iff there are >= 2 members, so the
        // lone cluster's engine holds every event of the session. One
        // `next_time` per event is affordable because it reads the heap's
        // top in O(1); it is half of all queue calls a session makes.
        debug_assert_eq!(self.clusters.len(), 1);
        if self.clusters[0].engine.next_time().is_none() {
            return Poll::Drained;
        }
        let mut engine = std::mem::take(&mut self.clusters[0].engine);
        let mut events = std::mem::take(&mut self.spare_events);
        engine.run_bounded(1, SimTime::MAX, &mut |ev, ctx| {
            self.handle_ev(ev, ctx, &mut events);
        });
        self.global_now = self.global_now.max(engine.now());
        self.clusters[0].engine = engine;
        Poll::Events(events)
    }

    fn prepare_batch(&mut self, specs: &[UnitSpec], rng: &mut SimRng) -> Vec<Option<String>> {
        let batch_size = specs.len();
        let BatchScratch {
            prepared,
            free,
            remaining,
            max_unit,
            alive,
            ..
        } = &mut self.scratch;
        recycle(prepared);
        // Sized once: a large batch grown by doubling leaves a trail of
        // freed blocks that raises the resident high-water mark.
        prepared.reserve(batch_size);
        // Free-capacity snapshots: `free` (what binding policies see) stays
        // fixed for the whole batch, exactly as the single-cluster driver
        // snapshotted it once per submission; `remaining` additionally
        // tracks in-batch commitments to spread a federated batch.
        free.clear();
        free.extend(self.clusters.iter().map(|c| c.runtime.free_cores()));
        remaining.clear();
        remaining.extend(free.iter().map(|&f| f as i64));
        max_unit.clear();
        max_unit.extend(self.clusters.iter().map(ClusterStack::max_unit_cores));
        alive.clear();
        alive.extend(
            self.clusters
                .iter()
                .map(|c| !c.pilots.is_empty() && c.dead_pilots.len() < c.pilots.len()),
        );
        let mut verdicts = Vec::with_capacity(batch_size);
        for spec in specs {
            let call: &KernelCall = &spec.kernel;
            let plugin = match self.registry.get(&call.plugin) {
                Ok(p) => p,
                Err(e) => {
                    verdicts.push(Some(e.to_string()));
                    continue;
                }
            };
            let c = Self::pick_cluster(remaining, alive);
            let bound_cores = self
                .binding
                .bind(&spec.stage, call.cores, free[c], batch_size)
                .clamp(1, max_unit[c]);
            let platform = self.clusters[c].runtime.platform();
            let plan = match plugin.plan(&call.args, bound_cores, platform, rng) {
                Ok(plan) => plan,
                Err(e) => {
                    verdicts.push(Some(e.to_string()));
                    continue;
                }
            };
            let mut ud = UnitDescription {
                name: String::new(),
                cores: bound_cores,
                mpi: call.mpi || bound_cores > 1,
                duration: plan.duration,
                input_bytes: plan.input_bytes,
                output_bytes: plan.output_bytes,
            };
            if ud.validate().is_err() {
                // Nothing but this rejection ever prints a simulated
                // unit's name, so only this path pays for formatting it.
                ud.name = format!("{}:{}", spec.stage, spec.uid);
                verdicts.push(ud.validate().err());
                continue;
            }
            remaining[c] -= bound_cores as i64;
            prepared.push(PreparedUnit {
                uid: spec.uid,
                cluster: c,
                description: ud,
                unit: None,
            });
            verdicts.push(None);
        }
        verdicts
    }

    fn commit_batch(&mut self) -> Vec<(u64, u64)> {
        let BatchScratch {
            prepared,
            descriptions,
            ..
        } = &mut self.scratch;
        descriptions.reserve(prepared.len());
        for c in 0..self.clusters.len() {
            descriptions.clear();
            descriptions.extend(
                prepared
                    .iter()
                    .filter(|p| p.cluster == c)
                    .map(|p| p.description.clone()),
            );
            if descriptions.is_empty() {
                continue;
            }
            // Everything in `descriptions` passed `UnitDescription::validate`
            // during prepare, so the runtime cannot reject the batch; the
            // submission notifications are only `UnitState::New` markers,
            // which the session never acted on.
            let stack = &mut self.clusters[c];
            stack.engine.advance_to(self.global_now);
            let mut ctx = stack.engine.context();
            match stack
                .runtime
                .submit_units(&*descriptions, &mut ctx, &mut stack.notes)
            {
                Ok(ids) => {
                    let staged = prepared.iter_mut().filter(|p| p.cluster == c);
                    for (p, id) in staged.zip(ids) {
                        p.unit = Some(id);
                    }
                }
                Err(e) => {
                    debug_assert!(false, "descriptions validated in prepare: {e}");
                }
            }
            stack.notes.clear();
            if let Some(f) = self.fed.as_mut() {
                f.push_injection(stack, c);
            }
        }
        let n = self.clusters.len() as u64;
        let keys = prepared
            .iter()
            .filter_map(|p| p.unit.map(|raw| (p.uid, raw * n + p.cluster as u64)))
            .collect();
        recycle(prepared);
        recycle(descriptions);
        keys
    }

    fn arm_timeout(&mut self, uid: u64, timeout: SimDuration) {
        let t = self.global_now + timeout;
        self.session_engine().schedule_at(t, Ev::TaskTimeout(uid));
    }

    fn cancel_running_unit(&mut self, key: u64) -> bool {
        let (c, unit) = self.split_key(key);
        let global_now = self.global_now;
        let stack = &mut self.clusters[c];
        let state = stack.runtime.unit_state(unit);
        if state.map(UnitState::is_terminal).unwrap_or(true) {
            return false;
        }
        stack.engine.advance_to(global_now);
        // The cancellation notifications are swallowed: the session already
        // removed this unit's mapping and applies its own fault policy.
        let mut notes = Vec::new();
        {
            let mut ctx = stack.engine.context();
            stack.runtime.cancel_unit(unit, &mut ctx, &mut notes);
        }
        if let Some(mut fed) = self.fed.take() {
            fed.push_injection(&mut self.clusters[c], c);
            self.fed = Some(fed);
        }
        true
    }

    fn complete_unit(&mut self, key: u64, kernel: &KernelCall, rng: &mut SimRng) -> UnitOutcome {
        let (c, unit) = self.split_key(key);
        // Model-execute the kernel for semantic output. The kernel resolved
        // at submission; a registry miss here is impossible in practice but
        // degrades to a task failure instead of a panic.
        let result = match self.registry.get(&kernel.plugin) {
            Ok(plugin) => plugin
                .execute_model(&kernel.args, rng)
                .map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        };
        UnitOutcome {
            // The session stamped it from this unit's `UnitStarted`.
            exec_start: None,
            exec_stop: self.clusters[c].runtime.unit_exec_stop(unit),
            result,
        }
    }

    fn schedule_batch(&mut self, delay: SimDuration, batch: u64, uids: Vec<u64>) {
        // First batch scheduled = the session entered its run phase: widen
        // federated windows to the conservative lookahead.
        if let Some(fed) = &mut self.fed {
            fed.windows_on = true;
        }
        let t = self.global_now + delay;
        self.session_engine()
            .schedule_at(t, Ev::TasksReady(batch, uids));
    }

    fn schedule_deferred_failure(&mut self, uid: u64) {
        let t = self.global_now;
        self.session_engine().schedule_at(t, Ev::Deliver(uid));
    }

    fn begin_shutdown(&mut self) {
        // Teardown goes back to serial-equivalent 1 µs windows so pilot
        // state is observed at the serial granularity.
        if let Some(fed) = &mut self.fed {
            fed.windows_on = false;
        }
        let t = self.global_now;
        self.session_engine().schedule_at(t, Ev::Shutdown);
    }

    fn schedule_clock_mark(&mut self, delay: SimDuration) {
        let t = self.global_now + delay;
        self.session_engine().schedule_at(t, Ev::Nop);
    }

    fn recycle_events(&mut self, mut events: Vec<BackendEvent>) {
        recycle(&mut events);
        self.spare_events = events;
    }

    fn stats(&self) -> BackendStats {
        // The session's pilot overheads are those of its first pilot.
        let (runtime_pilot, resource_wait) = self
            .clusters
            .first()
            .and_then(|c| c.runtime.pilot_startup(*c.pilots.first()?))
            .unwrap_or((SimDuration::ZERO, SimDuration::ZERO));
        BackendStats {
            resource: self.label.clone(),
            cores: self.total_cores,
            runtime_pilot,
            resource_wait,
            events: self.clusters.iter().map(|c| c.engine.steps()).sum::<u64>()
                + self.fed.as_ref().map(|f| f.spine.steps()).unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use crate::overheads::EntkOverheads;
    use crate::pattern::BagOfTasks;
    use crate::session::SessionEngine;
    use serde_json::json;

    /// A member's op log is a staging area, not a second copy of the trace:
    /// every op leaves it when its chunk is spliced into the session
    /// pipeline, so after a traced two-member session both logs are empty
    /// and the records are in the trace.
    #[test]
    fn member_logs_end_a_traced_federated_session_empty() {
        let telemetry = SharedTelemetry::new();
        let inits = ["xsede.comet", "xsede.stampede"]
            .map(|resource| ClusterInit {
                resource: resource.to_string(),
                cores: 4,
                walltime: SimDuration::from_secs(100_000),
                platform: PlatformSpec::by_name(resource).expect("preset platform"),
                runtime_config: SimRuntimeConfig::default(),
                pilot_count: 1,
                background_load: None,
                fault_profile: None,
            })
            .into();
        let mut backend = EventBackend::new(
            inits,
            KernelRegistry::with_builtins(),
            false,
            telemetry.clone(),
            "federated".to_string(),
            SimDuration::from_secs(1),
        );
        let mut session = SessionEngine::new(
            EntkOverheads::calibrated(),
            FaultConfig::default(),
            7,
            telemetry.clone(),
        );
        let mut pattern = BagOfTasks::new(24, |_| {
            KernelCall::new("misc.sleep", json!({ "secs": 10.0 }))
        });
        session.allocate(&mut backend).expect("pilots start");
        session.run(&mut backend, &mut pattern).expect("bag runs");
        session.deallocate(&mut backend).expect("pilots stop");

        let tracer = telemetry.snapshot().tracer;
        for (member, stack) in backend.clusters.iter().enumerate() {
            let log = stack.buffer.as_ref().expect("federation members buffer");
            assert!(log.is_empty(), "member {member} still holds {}", log.len());
            assert_eq!(stack.ops_claimed, 0);
            let pilot = Subject::Pilot(member as u64 * 1_000);
            assert!(tracer.time_of("pilot", "pilot_done", pilot).is_some());
        }
        assert_eq!(tracer.filter("pilot", "unit_done").count(), 24);
    }
}
