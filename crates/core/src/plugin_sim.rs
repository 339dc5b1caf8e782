//! The discrete-event execution backend (paper §III-B component 4).
//!
//! Implements [`ExecutionBackend`] over one or more independently simulated
//! clusters, each a full `Engine` + `SimRuntime` + batch-system stack. A
//! simulated session is a federation of one member, a federated one has
//! several, and units are late-bound at submission to whichever member has
//! the most free capacity. Only the *drive* depends on the member count.
//!
//! Session-level events (boot, batch releases, timeouts, deferred failures,
//! shutdown, clock marks) live on one *session engine*, and each `poll`
//! that reaches it handles exactly one of them. With one member it is the
//! member's own engine, so same-instant events fire in insertion order and
//! every layer records straight into the shared telemetry (buffering and
//! splicing would swap same-instant pairs and move every golden trace).
//! With two or more it is a clock *spine*, and members advance in
//! conservative-lookahead windows (1 µs outside the run phase) whose
//! events and records are doled out in `(time, member)` order, as a serial
//! interleave of the same windows would produce them (DESIGN.md §13).
//! Every window runs on the polling thread; the backend is `!Send` and
//! spawns nothing.
//!
//! All session semantics (retry, records, overheads, degradation) live in
//! [`crate::session::SessionEngine`]; this file only turns engine events and
//! runtime notifications into [`BackendEvent`]s and units into simulated
//! work.

use crate::backend::{BackendEvent, BackendStats, ExecutionBackend, Poll, UnitOutcome};
use crate::binding::{BindingPolicy, StaticBinding};
use entk_cluster::{ClusterEvent, FaultProfile, PlatformSpec};
use entk_kernels::{KernelCall, KernelRegistry};
use entk_pilot::{
    PilotDescription, PilotId, PilotState, RuntimeEvent, RuntimeNotification, SimRuntime,
    SimRuntimeConfig, UnitDescription, UnitId, UnitState,
};
use entk_sim::arena::recycle;
use entk_sim::{
    Context, Engine, SharedTelemetry, SimDuration, SimRng, SimTime, SubjectOffsets,
    TelemetryBuffer, TraceKind,
};
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::sync::Arc;

/// Top-level event type of the simulated toolkit stack. Session-level
/// events (everything but `Rt`/`Cl`) are scheduled on the session engine: a
/// federation's spine, or the lone member's own engine.
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
    /// How many of `pilots` the session has seen fail or be cancelled: a
    /// pilot enters a terminal state once, so each is counted once.
    dead: usize,
    /// Buffered trace record log (multi-member federated drives only):
    /// this member's layers record here instead of the shared trace, and
    /// the merge spine drains it chunk by chunk, so it holds only the
    /// records of chunks still pending.
    buffer: Option<TelemetryBuffer>,
    /// Records in `buffer` already claimed by a pending chunk.
    records_claimed: usize,
    /// Backend events of this member's pending chunks, oldest first
    /// (multi-member federated drives only).
    outbox: VecDeque<BackendEvent>,
    /// This member's completed chunks awaiting dole, in time order and, at
    /// one instant, in creation order. Always empty with one member.
    chunks: VecDeque<Chunk>,
    /// Scratch for the runtime's notifications of one event, reused so the
    /// drive allocates no vector per event.
    notes: Vec<RuntimeNotification>,
}

impl ClusterStack {
    /// Enables load/fault models and submits this cluster's pilots at `now`.
    fn boot(&mut self, now: SimTime) {
        self.engine.advance_to(now);
        let ctx = &mut self.engine.context();
        let notes = &mut self.notes;
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

    /// Gracefully finishes this cluster's pilots at `now`.
    fn shutdown(&mut self, now: SimTime) {
        self.engine.advance_to(now);
        let ctx = &mut self.engine.context();
        self.runtime.cluster_mut().disable_background_load();
        for p in self.pilots.clone() {
            self.runtime.finish_pilot(p, ctx, &mut self.notes);
        }
    }

    /// Largest unit this cluster can run: the per-pilot core share while
    /// any pilot may still serve, the full request otherwise (matching the
    /// clamp the single-cluster driver always applied).
    fn max_unit_cores(&self) -> usize {
        let failed = Some(PilotState::Failed);
        let serving = (self.pilots.iter()).any(|&p| self.runtime.pilot_state(p) != failed);
        (self.cores / if serving { self.pilot_count } else { 1 }).max(1)
    }

    fn pilots_terminal(&self) -> bool {
        let state = |&p: &PilotId| self.runtime.pilot_state(p);
        (self.pilots.iter()).all(|p| state(p).is_none_or(PilotState::is_terminal))
    }

    /// Claims the trace records logged since the last claim and returns
    /// how many they are. Zero for the unbuffered stack of a one-member
    /// session.
    fn take_records(&mut self) -> usize {
        let held = self.buffer.as_ref().map_or(0, TelemetryBuffer::len);
        held - std::mem::replace(&mut self.records_claimed, held)
    }

    /// Queues a completed chunk behind this member's earlier ones.
    fn push_chunk(&mut self, chunk: Chunk) {
        debug_assert!(
            self.chunks.back().is_none_or(|c| c.time <= chunk.time),
            "a member's chunks went back in time"
        );
        self.chunks.push_back(chunk);
    }

    /// Captures trace records a session-side call just logged into this
    /// member's buffer as an eventless chunk at the member's current clock
    /// (where the records were timestamped), so spliced records stay in
    /// member time order. A no-op without a buffer: one member, or
    /// telemetry off.
    fn push_injection(&mut self) {
        let records = self.take_records();
        if records == 0 {
            return;
        }
        self.push_chunk(Chunk {
            time: self.engine.now(),
            records,
            events: 0,
            dead: 0,
            eventful: false,
        });
    }

    /// Runs this member's conservative-lookahead window: processes every
    /// event at or before `bound`, one chunk per event. Member-local (no
    /// shared state beyond the member's own stack), so the order members
    /// are visited in cannot show in the chunks.
    fn run_window(&mut self, member: usize, n_clusters: u64, bound: SimTime) {
        while let Some((ev, mut ctx)) = self.engine.pop_until(bound) {
            let time = ctx.now();
            runtime_event(&mut self.runtime, ev, &mut ctx, &mut self.notes);
            let queued = self.outbox.len();
            let (runtime, notes) = (&mut self.runtime, &mut self.notes);
            let dead = translate_notes(member, n_clusters, runtime, notes, time, &mut self.outbox);
            let records = self.take_records();
            self.push_chunk(Chunk {
                time,
                records,
                events: self.outbox.len() - queued,
                dead,
                eventful: true,
            });
        }
    }
}

/// Hands one member engine event to that member's runtime.
fn runtime_event(
    runtime: &mut SimRuntime,
    ev: Ev,
    ctx: &mut Context<'_, Ev>,
    notes: &mut Vec<RuntimeNotification>,
) {
    match ev {
        Ev::Rt(re) => runtime.handle(re, ctx, notes),
        Ev::Cl(ce) => runtime.handle_cluster(ce, ctx, notes),
        _ => unreachable!("session events are scheduled on the session engine"),
    }
}

/// One unit of doled-out federated progress: a single member engine event
/// (or an eventless session-side injection), as counts into the member's
/// two logs — the oldest trace records of its buffer and the oldest backend
/// events of its outbox are this chunk's — plus the pilots it killed
/// (applied at dole time so `capacity_lost()` keeps serial granularity).
struct Chunk {
    time: SimTime,
    /// How many of the oldest records in the member's log are this chunk's.
    records: usize,
    /// How many of the oldest events in the member's outbox are this chunk's.
    events: usize,
    /// How many pilots this chunk's event failed or cancelled.
    dead: usize,
    /// Event chunks are returned by `poll` one at a time; injection chunks
    /// (session-side calls into member runtimes) splice silently.
    eventful: bool,
}

/// Conservative-lookahead merge state of a multi-member backend; `None`
/// with one member, whose engine is the session engine.
struct FedState {
    /// The session's clock spine: holds only session-level events (boot,
    /// batch releases, timeouts, shutdown, clock marks).
    spine: Engine<Ev>,
    /// Window width beyond the earliest member event during the run phase.
    lookahead: SimDuration,
    /// Latched while the session is in its run phase (first batch scheduled
    /// → shutdown): windows widen to the lookahead. Outside it they stay at
    /// 1 µs — one timestamp per window, exactly the serial interleave.
    windows_on: bool,
}

/// The one path from a member's runtime notifications to backend events:
/// drains `notes` into `out` and returns how many pilots died. Failure
/// events carry the *processing* time (`now`), matching how the serial
/// driver applies its fault policy at the step time. Dead pilots are
/// counted, not applied — windowed drives defer them to dole time so
/// `capacity_lost()` is observed with serial granularity. A failed or
/// cancelled unit is collected from `runtime` here, as nothing reads its
/// row again; a done one is collected when the session completes it.
fn translate_notes(
    member: usize,
    n_clusters: u64,
    runtime: &mut SimRuntime,
    notes: &mut Vec<RuntimeNotification>,
    now: SimTime,
    out: &mut impl Extend<BackendEvent>,
) -> usize {
    let mut dead = 0;
    out.extend(notes.drain(..).filter_map(|note| match note {
        RuntimeNotification::Pilot { state, .. } => {
            dead += usize::from(matches!(state, PilotState::Failed | PilotState::Canceled));
            None
        }
        RuntimeNotification::Unit {
            id,
            state,
            time,
            detail,
        } => {
            let key = id.0 * n_clusters + member as u64;
            match state {
                UnitState::Executing => Some(BackendEvent::UnitStarted { key, time }),
                UnitState::Done => Some(BackendEvent::UnitDone { key, time }),
                UnitState::Failed | UnitState::Canceled => {
                    runtime.collect_unit(id);
                    Some(BackendEvent::UnitFailed {
                        key,
                        time: now,
                        reason: detail.unwrap_or_else(|| format!("{state:?}")),
                    })
                }
                _ => None,
            }
        }
    }));
    dead
}

/// What one member's units of the open batch are bound against, fixed by
/// `open_batch`.
struct Slot {
    /// Free cores when the batch opened (what binding policies see).
    free: usize,
    /// `free` less the cores of the batch's units placed so far.
    remaining: i64,
    /// Largest unit.
    max_unit: usize,
    /// A pilot may still serve.
    alive: bool,
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
    /// The un-offset session-level telemetry pipeline.
    telemetry: SharedTelemetry,
    /// The session-wide virtual clock: the time of the last processed event
    /// across all clusters.
    global_now: SimTime,
    /// Units in the open batch (what binding policies read), and one slot
    /// per member, kept from one batch to the next.
    batch: (usize, Vec<Slot>),
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
    /// Members of a federation buffer their records only while telemetry
    /// is on: a disabled handle records nothing, so there is no log to
    /// keep.
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
                    dead: 0,
                    buffer,
                    records_claimed: 0,
                    outbox: VecDeque::new(),
                    chunks: VecDeque::new(),
                    notes: Vec::new(),
                }
            })
            .collect();
        let fed = multi.then(|| FedState {
            spine: Engine::new(),
            lookahead,
            windows_on: false,
        });
        EventBackend {
            clusters,
            registry,
            binding: Box::new(StaticBinding),
            wait_all,
            label,
            telemetry,
            global_now: SimTime::ZERO,
            batch: (0, Vec::new()),
            spare_events: Vec::new(),
            fed,
        }
    }

    /// Sets every member runtime's unit order (ablation hook).
    pub(crate) fn set_unit_order(&mut self, order: entk_pilot::UnitOrder) {
        for c in &mut self.clusters {
            c.runtime.set_unit_order(order);
        }
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
    fn pick_cluster(slots: &[Slot]) -> usize {
        let most_free = |alive_only: bool| {
            (slots.iter().enumerate())
                .filter(|(_, s)| s.alive || !alive_only)
                .min_by_key(|(_, s)| Reverse(s.remaining))
                .map(|(i, _)| i)
        };
        most_free(true).or_else(|| most_free(false)).unwrap_or(0)
    }

    /// The engine session-level events are scheduled on: the spine for
    /// multi-member federated backends, cluster 0's engine otherwise.
    fn session_engine(&mut self) -> &mut Engine<Ev> {
        match &mut self.fed {
            Some(f) => &mut f.spine,
            None => &mut self.clusters[0].engine,
        }
    }

    /// Pops and handles one event of the session engine. With one member
    /// that engine also holds the member's runtime and batch-system events,
    /// handled here in place; a spine never holds them.
    fn step_session(&mut self) -> Poll {
        let Some((ev, ctx)) = self.session_engine().pop_until(SimTime::MAX) else {
            return Poll::Drained;
        };
        let now = ctx.now();
        self.global_now = self.global_now.max(now);
        let mut events = std::mem::take(&mut self.spare_events);
        match ev {
            Ev::Boot => {
                self.telemetry.emit(now, TraceKind::ResourceReady, 0);
                self.each_member(now, &mut events, ClusterStack::boot);
            }
            Ev::Shutdown => self.each_member(now, &mut events, ClusterStack::shutdown),
            Ev::TasksReady(batch, uids) => events.push(BackendEvent::BatchReady { batch, uids }),
            Ev::TaskTimeout(uid) => events.push(BackendEvent::TaskTimeout { uid }),
            Ev::Deliver(uid) => events.push(BackendEvent::DeferredFailure { uid }),
            Ev::Nop => events.push(BackendEvent::ClockMark),
            Ev::Rt(_) | Ev::Cl(_) if self.fed.is_some() => {
                unreachable!("runtime events live on member engines")
            }
            ev => {
                let stack = &mut self.clusters[0];
                runtime_event(
                    &mut stack.runtime,
                    ev,
                    &mut stack.engine.context(),
                    &mut stack.notes,
                );
                let (runtime, notes) = (&mut stack.runtime, &mut stack.notes);
                stack.dead += translate_notes(0, 1, runtime, notes, now, &mut events);
            }
        }
        Poll::Events(events)
    }

    /// Calls `f` (boot or shutdown) on every member at `now` and surfaces
    /// what it did: its notifications join `out`, and the telemetry it
    /// recorded into a federation member's buffer becomes an injection
    /// chunk.
    fn each_member(
        &mut self,
        now: SimTime,
        out: &mut Vec<BackendEvent>,
        f: fn(&mut ClusterStack, SimTime),
    ) {
        let n = self.clusters.len() as u64;
        for (member, stack) in self.clusters.iter_mut().enumerate() {
            f(stack, now);
            let (runtime, notes) = (&mut stack.runtime, &mut stack.notes);
            stack.dead += translate_notes(member, n, runtime, notes, now, out);
            stack.push_injection();
        }
    }

    /// The windowed poll: dole the earliest pending chunk, step the spine
    /// when it is due, or run another member window — whichever is globally
    /// earliest, spine winning ties (it carries the session's reactions).
    fn poll_federated(&mut self) -> Poll {
        loop {
            let t_s = self.session_engine().next_time();
            let front = self
                .clusters
                .iter()
                .enumerate()
                .filter_map(|(member, c)| Some((c.chunks.front()?.time, member)))
                .min();
            let t_c = front.map(|(time, _)| time);
            let t_m = self
                .clusters
                .iter_mut()
                .filter_map(|c| c.engine.next_time())
                .min();
            let spine_due = t_s
                .is_some_and(|ts| t_c.is_none_or(|tc| ts <= tc) && t_m.is_none_or(|tm| ts <= tm));
            if spine_due {
                return self.step_session();
            }
            // Raw member events due before (or tied with) every pending
            // chunk, and strictly before the spine: widen the chunk stream
            // with another window. `tm < ts` guarantees the window spans at
            // least one event, so this always makes progress.
            let window_due =
                t_m.is_some_and(|tm| t_s.is_none_or(|ts| tm < ts) && t_c.is_none_or(|tc| tm <= tc));
            if window_due {
                self.run_window(t_m.expect("window_due"), t_s);
                continue;
            }
            let Some((time, member)) = front else {
                return Poll::Drained;
            };
            self.global_now = self.global_now.max(time);
            let stack = &mut self.clusters[member];
            let Chunk {
                records,
                events,
                dead,
                eventful,
                ..
            } = stack.chunks.pop_front().expect("the least front");
            if let Some(buf) = &stack.buffer {
                buf.splice_into(&self.telemetry, records);
                stack.records_claimed -= records;
            }
            stack.dead += dead;
            if eventful {
                let mut out = std::mem::take(&mut self.spare_events);
                out.extend(stack.outbox.drain(..events));
                return Poll::Events(out);
            }
        }
    }

    /// Advances every member with events strictly before the window horizon
    /// `min(t_spine, tm + lookahead)`, one after the other on this thread.
    fn run_window(&mut self, tm: SimTime, ts: Option<SimTime>) {
        let fed = self.fed.as_ref().expect("windows run only in a federation");
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
        // The clock has microsecond resolution, so "strictly before H" is
        // "at or before H − 1 µs"; H is past zero, as `tm < ts` and the
        // width is at least 1 µs.
        let bound = SimTime::from_micros(horizon.as_micros() - 1);
        let n = self.clusters.len() as u64;
        for (member, stack) in self.clusters.iter_mut().enumerate() {
            stack.run_window(member, n, bound);
        }
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
        total > 0 && self.clusters.iter().all(|c| c.dead == c.pilots.len())
    }

    fn pilots_terminal(&self) -> bool {
        self.clusters.iter().all(ClusterStack::pilots_terminal)
    }

    fn poll(&mut self) -> Poll {
        if self.fed.is_some() {
            return self.poll_federated();
        }
        // One member: its engine is the session engine and holds every
        // event of the session.
        self.step_session()
    }

    fn open_batch(&mut self, len: usize) {
        // Each accepted unit goes straight into its member's unit table,
        // sized once for the batch: a table grown by doubling copies itself
        // and leaves a trail of freed blocks that raises the resident
        // high-water mark. A member gets its even share, which late binding
        // gives it while capacity is balanced, not the whole batch each.
        let n = self.clusters.len();
        for stack in &mut self.clusters {
            stack.runtime.reserve_units(len.div_ceil(n));
        }
        // Free-capacity snapshots: `free` (what binding policies see) stays
        // fixed for the whole batch, exactly as the single-cluster driver
        // snapshotted it once per submission; `remaining` additionally
        // tracks in-batch commitments to spread a federated batch.
        let (batch_len, slots) = &mut self.batch;
        *batch_len = len;
        slots.clear();
        slots.extend(self.clusters.iter().map(|c| {
            let free = c.runtime.free_cores();
            Slot {
                free,
                remaining: free as i64,
                max_unit: c.max_unit_cores(),
                alive: !c.pilots.is_empty() && c.dead < c.pilots.len(),
            }
        }));
    }

    fn submit_unit(
        &mut self,
        _uid: u64,
        stage: &Arc<str>,
        kernel: &Arc<KernelCall>,
        rng: &mut SimRng,
    ) -> Option<u64> {
        let plugin = self.registry.find(&kernel.plugin)?;
        let (batch_len, slots) = &mut self.batch;
        let c = Self::pick_cluster(slots);
        let bound_cores = self
            .binding
            .bind(stage, kernel.cores, slots[c].free, *batch_len)
            .clamp(1, slots[c].max_unit);
        let runtime = &mut self.clusters[c].runtime;
        let plan = plugin.plan(&kernel.args, bound_cores, runtime.platform(), rng);
        let plan = plan.ok()?;
        let id = runtime
            .push_unit(&UnitDescription {
                name: String::new(),
                cores: bound_cores,
                mpi: kernel.mpi || bound_cores > 1,
                duration: plan.duration,
                input_bytes: plan.input_bytes,
                output_bytes: plan.output_bytes,
            })
            .ok()?;
        slots[c].remaining -= bound_cores as i64;
        Some(id * self.clusters.len() as u64 + c as u64)
    }

    fn seal_batch(&mut self) {
        // The batch's units are in their members' tables; each member with
        // any submits them as one call. The runtime sends no notification
        // for a submission.
        for stack in &mut self.clusters {
            if !stack.runtime.has_unsealed_units() {
                continue;
            }
            stack.engine.advance_to(self.global_now);
            stack.runtime.seal_units(&mut stack.engine.context());
            stack.push_injection();
        }
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
        // removed this unit's mapping and applies its own fault policy. So
        // the unit is collected here, where its end is seen.
        let mut ctx = stack.engine.context();
        stack.runtime.cancel_unit(unit, &mut ctx, &mut stack.notes);
        stack.notes.clear();
        stack.runtime.collect_unit(unit);
        stack.push_injection();
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
            // A done unit's last reading: its row can go.
            exec_stop: self.clusters[c].runtime.collect_unit(unit),
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
            cores: self.clusters.iter().map(|c| c.cores).sum(),
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

    /// A two-member backend (comet + stampede, 4 cores each) whose run-phase
    /// windows are `lookahead` wide.
    fn two_members(telemetry: &SharedTelemetry, lookahead: SimDuration) -> EventBackend {
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
        EventBackend::new(
            inits,
            KernelRegistry::with_builtins(),
            false,
            telemetry.clone(),
            "federated".to_string(),
            lookahead,
        )
    }

    /// One poll: `None` once drained, else whether it surfaced the spine's
    /// clock mark (a member chunk surfaces nothing here) and the session
    /// clock after it.
    fn poll_once(backend: &mut EventBackend) -> Option<(bool, SimTime)> {
        match backend.poll() {
            Poll::Drained => None,
            Poll::Events(events) => Some((
                matches!(events[..], [BackendEvent::ClockMark]),
                backend.now(),
            )),
        }
    }

    fn kick() -> Ev {
        Ev::Cl(ClusterEvent::Kick)
    }

    /// A window processes member events strictly before its horizon: an
    /// event exactly on it stays pending, and the next window processes
    /// it, after the spine event that set the horizon.
    #[test]
    fn a_member_event_on_the_window_horizon_waits_for_the_next_window() {
        let mut backend = two_members(&SharedTelemetry::new(), SimDuration::from_secs(10));
        backend.fed.as_mut().expect("two members").windows_on = true;
        let at = SimTime::from_secs;
        backend.clusters[0].engine.schedule_at(at(1), kick());
        backend.clusters[0].engine.schedule_at(at(5), kick());
        // The spine's clock mark at 5 s puts the first window's horizon at
        // min(1 s + 10 s, 5 s) = 5 s.
        backend.schedule_clock_mark(SimDuration::from_secs(5));
        assert_eq!(poll_once(&mut backend), Some((false, at(1))));
        assert_eq!(backend.clusters[0].engine.pending(), 1);
        assert_eq!(backend.clusters[0].engine.now(), at(1));
        assert_eq!(poll_once(&mut backend), Some((true, at(5))));
        assert_eq!(poll_once(&mut backend), Some((false, at(5))));
        assert_eq!(backend.clusters[0].engine.pending(), 0);
        assert_eq!(poll_once(&mut backend), None);
    }

    /// No window ends at zero: a member event tied with the spine's event at
    /// t = 0 waits for the spine, then runs in a window of its own.
    #[test]
    fn a_member_event_tied_with_the_spine_at_zero_waits_for_it() {
        let mut backend = two_members(&SharedTelemetry::new(), SimDuration::from_secs(10));
        backend.clusters[1]
            .engine
            .schedule_at(SimTime::ZERO, kick());
        backend.schedule_clock_mark(SimDuration::ZERO);
        assert_eq!(poll_once(&mut backend), Some((true, SimTime::ZERO)));
        assert_eq!(backend.clusters[1].engine.pending(), 1);
        assert_eq!(poll_once(&mut backend), Some((false, SimTime::ZERO)));
        assert_eq!(backend.clusters[1].engine.pending(), 0);
        assert_eq!(poll_once(&mut backend), None);
    }

    /// A member's op log is a staging area, not a second copy of the trace:
    /// every op leaves it when its chunk is spliced into the session
    /// pipeline, so after a traced two-member session both logs are empty
    /// and the records are in the trace.
    #[test]
    fn member_logs_end_a_traced_federated_session_empty() {
        let telemetry = SharedTelemetry::new();
        let mut backend = two_members(&telemetry, SimDuration::from_secs(1));
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
            assert_eq!(stack.records_claimed, 0);
            let pilot = member as u64 * 1_000;
            assert!(tracer.time_of(TraceKind::PilotDone, pilot).is_some());
        }
        assert_eq!(tracer.filter(TraceKind::UnitDone).count(), 24);
    }

    /// Every unit a session ends is collected from its member's runtime on
    /// every terminal path (done, failed, crashed, killed by the
    /// watchdog), so after a deallocated session no member's runtime knows
    /// any unit, at one member and at two: every row left its table.
    #[test]
    fn a_deallocated_session_leaves_no_unit_row_in_any_member() {
        for members in [1, 2] {
            let inits: Vec<ClusterInit> = ["xsede.comet", "xsede.stampede"][..members]
                .iter()
                .map(|&resource| ClusterInit {
                    resource: resource.to_string(),
                    cores: 48,
                    walltime: SimDuration::from_secs(100_000),
                    platform: PlatformSpec::by_name(resource).expect("preset platform"),
                    runtime_config: SimRuntimeConfig {
                        unit_failure_rate: 0.1,
                        ..SimRuntimeConfig::default()
                    },
                    pilot_count: 1,
                    background_load: None,
                    fault_profile: Some(FaultProfile {
                        crash_schedule: vec![(120.0, 0)],
                        straggler_rate: 0.2,
                        ..FaultProfile::seeded(31)
                    }),
                })
                .collect();
            let telemetry = SharedTelemetry::new();
            let mut backend = EventBackend::new(
                inits,
                KernelRegistry::with_builtins(),
                false,
                telemetry.clone(),
                "collect".to_string(),
                SimDuration::from_secs(1),
            );
            // Stragglers run 40 s, past the 25 s watchdog.
            let fault = FaultConfig::retries(3).with_timeout(SimDuration::from_secs(25));
            let mut session =
                SessionEngine::new(EntkOverheads::calibrated(), fault, 7, telemetry.clone());
            let mut pattern = BagOfTasks::new(480, |_| {
                KernelCall::new("misc.sleep", json!({ "secs": 10.0 }))
            });
            session.allocate(&mut backend).expect("pilots start");
            session.run(&mut backend, &mut pattern).expect("bag runs");
            session.deallocate(&mut backend).expect("pilots stop");

            let tracer = telemetry.snapshot().tracer;
            let count = |kind| tracer.filter(kind).count();
            // Every path ran: retry, watchdog kill, node crash.
            for kind in [TraceKind::TaskRetry, TraceKind::UnitCanceled] {
                assert!(count(kind) > 0, "{members}: no {kind:?}");
            }
            assert!(count(TraceKind::PilotShrunk) > 0, "{members}: no crash");
            let units = count(TraceKind::UnitSubmitted) as u64;
            for (member, stack) in backend.clusters.iter().enumerate() {
                let held = (0..units).find(|&u| stack.runtime.unit_state(UnitId(u)).is_some());
                assert_eq!(held, None, "{members}: member {member} holds a unit row");
            }
        }
    }
}
