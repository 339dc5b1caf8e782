//! The cluster simulation entity: batch queue + allocation + lifecycle events.
//!
//! `Cluster` is a state machine advanced by [`ClusterEvent`]s delivered from
//! the discrete-event engine. It is generic over the driver's top-level
//! event type `E: From<ClusterEvent>` so higher layers (SAGA adapter, pilot
//! runtime) can embed it without coupling.

use crate::allocation::{AllocationMap, NodeSlice};
use crate::fault::{FaultInjector, FaultProfile};
use crate::job::{BatchJob, BatchJobDescription, BatchJobId, BatchJobState};
use crate::platform::PlatformSpec;
use crate::scheduler::{BatchScheduler, FifoScheduler, PendingView, RunningView};
use entk_sim::{Context, Dist, EventId, SharedTelemetry, SimDuration, SimRng, SimTime, TraceKind};
use serde::{Deserialize, Serialize};

/// Events the cluster schedules for itself on the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterEvent {
    /// A job's modelled queue wait elapsed; it may now be scheduled.
    JobEligible(BatchJobId),
    /// A job's startup (prologue) finished; its payload is now running.
    JobLaunched(BatchJobId),
    /// A job hit its requested wall time.
    WalltimeExpired(BatchJobId),
    /// Re-run the scheduling pass.
    Kick,
    /// A synthetic competing job arrives (background-load model).
    BackgroundArrival,
    /// Fault injection: the given node crashes (scheduled crashes).
    NodeCrash(usize),
    /// Fault injection: a crashed node comes back up.
    NodeRecover(usize),
    /// Fault injection: the Poisson crash process fires (picks a victim).
    FaultTick,
}

/// Synthetic competing workload: other users' jobs arriving on a Poisson
/// process, creating genuine queue contention for pilot jobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackgroundLoad {
    /// Mean inter-arrival time in seconds (exponential).
    pub mean_interarrival_secs: f64,
    /// Core request distribution of competing jobs.
    pub cores: Dist,
    /// Runtime distribution of competing jobs (they run to completion).
    pub runtime: Dist,
    /// Competing jobs already in the queue when the load is enabled — the
    /// machine is rarely empty when a pilot arrives.
    pub initial_jobs: usize,
}

/// State changes reported to the cluster's owner (the SAGA adapter).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterNotification {
    /// Job changed state.
    JobState {
        /// The job.
        id: BatchJobId,
        /// New state.
        state: BatchJobState,
        /// When the change happened.
        time: SimTime,
    },
    /// A node crash took cores away from a still-running job.
    JobShrunk {
        /// The job.
        id: BatchJobId,
        /// Cores lost to the crash.
        lost_cores: usize,
        /// When the crash happened.
        time: SimTime,
    },
}

/// One row of the job table: the job's record and what only the cluster
/// tracks about it.
struct JobRow {
    job: BatchJob,
    /// The job's node slices while it occupies cores; taken when it ends.
    held: Option<Vec<NodeSlice>>,
    /// Cancel handle for the job's pending walltime event.
    walltime_event: Option<EventId>,
    /// Synthetic background-load job, invisible to the owner.
    background: bool,
}

/// A simulated HPC cluster.
pub struct Cluster {
    spec: PlatformSpec,
    alloc: AllocationMap,
    scheduler: Box<dyn BatchScheduler>,
    rng: SimRng,
    /// Job table: `BatchJobId`s count up from 0, so index == id.
    jobs: Vec<JobRow>,
    /// Eligible jobs in arrival order (indices into `jobs`).
    pending: Vec<BatchJobId>,
    /// Jobs currently holding an allocation, in the order they started.
    /// Replaces hash-map key iteration, whose order was nondeterministic.
    running_order: Vec<BatchJobId>,
    background: Option<BackgroundLoad>,
    fault: Option<FaultInjector>,
    /// A [`ClusterEvent::FaultTick`] is currently in flight. The Poisson
    /// crash process only runs while the cluster has live jobs, so the
    /// event queue drains once the workload finishes.
    fault_tick_armed: bool,
    /// Cross-layer observability sink; disabled by default.
    telemetry: SharedTelemetry,
}

impl Cluster {
    /// Creates a cluster with the default FIFO policy.
    pub fn new(spec: PlatformSpec, seed: u64) -> Self {
        Self::with_scheduler(spec, seed, Box::new(FifoScheduler))
    }

    /// Creates a cluster with an explicit scheduling policy.
    pub fn with_scheduler(
        spec: PlatformSpec,
        seed: u64,
        scheduler: Box<dyn BatchScheduler>,
    ) -> Self {
        let alloc = AllocationMap::new(spec.nodes, spec.cores_per_node);
        Cluster {
            spec,
            alloc,
            scheduler,
            rng: SimRng::seed_from_u64(seed),
            jobs: Vec::new(),
            pending: Vec::new(),
            running_order: Vec::new(),
            background: None,
            fault: None,
            fault_tick_armed: false,
            telemetry: SharedTelemetry::disabled(),
        }
    }

    /// Attaches a shared telemetry pipeline; the cluster then traces job
    /// and node lifecycle events on the `"cluster"` layer.
    pub fn set_telemetry(&mut self, telemetry: SharedTelemetry) {
        self.telemetry = telemetry;
    }

    /// Enables the background-load model and schedules the first arrival.
    /// Background jobs are invisible to the owner except through the queue
    /// contention they create.
    pub fn enable_background_load<E: From<ClusterEvent>>(
        &mut self,
        load: BackgroundLoad,
        ctx: &mut Context<'_, E>,
    ) {
        self.background = Some(load);
        for _ in 0..load.initial_jobs {
            self.submit_background(ctx);
        }
        let gap = self.rng.exponential(load.mean_interarrival_secs.max(1e-6));
        ctx.schedule_in(
            SimDuration::from_secs_f64(gap),
            ClusterEvent::BackgroundArrival,
        );
    }

    fn submit_background<E: From<ClusterEvent>>(&mut self, ctx: &mut Context<'_, E>) {
        let Some(load) = self.background else { return };
        let cores =
            (load.cores.sample(&mut self.rng).round() as usize).clamp(1, self.alloc.total_cores());
        let runtime = SimDuration::from_secs_f64(load.runtime.sample(&mut self.rng).max(1.0));
        let desc = BatchJobDescription {
            name: "background".into(),
            cores,
            walltime: runtime,
            queue: "normal".into(),
            project: "other-users".into(),
        };
        // Background jobs run to their walltime and die there; the owner
        // never sees their notifications (filtered by id).
        let mut sink = Vec::new();
        if let Ok(id) = self.submit(desc, ctx, &mut sink) {
            self.jobs[id.0 as usize].background = true;
        }
    }

    /// Stops generating new background arrivals (already-queued background
    /// jobs still run to completion).
    pub fn disable_background_load(&mut self) {
        self.background = None;
    }

    /// Enables deterministic fault injection: schedules the profile's
    /// scripted node crashes (relative to now) and, when an MTBF is set,
    /// arms the Poisson crash process. The process only ticks while the
    /// cluster has live jobs — it re-arms on submission and disarms when
    /// the workload finishes, so the event queue always drains. A profile
    /// with all rates zero and an empty schedule installs an injector that
    /// draws nothing and schedules nothing, leaving the run byte-identical
    /// to no injector at all.
    pub fn enable_fault_injector<E: From<ClusterEvent>>(
        &mut self,
        profile: FaultProfile,
        ctx: &mut Context<'_, E>,
    ) {
        for &(secs, node) in &profile.crash_schedule {
            ctx.schedule_in(
                SimDuration::from_secs_f64(secs.max(0.0)),
                ClusterEvent::NodeCrash(node),
            );
        }
        self.fault = Some(FaultInjector::new(profile));
        self.arm_fault_tick(ctx);
    }

    /// Schedules the next Poisson crash tick if one isn't in flight, the
    /// profile has an MTBF, there is a live job to disturb, and at least
    /// one node is still up. No-op (and no RNG draw) otherwise; without
    /// random crashes it returns before it scans the job table.
    fn arm_fault_tick<E: From<ClusterEvent>>(&mut self, ctx: &mut Context<'_, E>) {
        let crashes = self.fault.as_ref().is_some_and(|f| f.crashes_at_random());
        if !crashes || self.fault_tick_armed || !self.has_live_jobs() || !self.alloc.any_node_up() {
            return;
        }
        if let Some(gap) = self.fault.as_mut().and_then(|f| f.next_crash_gap()) {
            ctx.schedule_in(gap, ClusterEvent::FaultTick);
            self.fault_tick_armed = true;
        }
    }

    fn has_live_jobs(&self) -> bool {
        self.jobs.iter().any(|r| !r.job.state.is_terminal())
    }

    /// Draws whether the unit execution being started fails (consulted by
    /// the pilot runtime). `false` without a draw when no injector is
    /// active or its task-failure rate is zero.
    pub fn fault_unit_fails(&mut self) -> bool {
        self.fault.as_mut().is_some_and(|f| f.unit_fails())
    }

    /// Draws the straggler slowdown multiplier for the unit execution being
    /// started. Exactly `1.0` without a draw when no injector is active or
    /// its straggler rate is zero.
    pub fn fault_straggler_factor(&mut self) -> f64 {
        self.fault.as_mut().map_or(1.0, |f| f.straggler_factor())
    }

    /// True when `id` is a synthetic background job.
    pub fn is_background(&self, id: BatchJobId) -> bool {
        self.jobs.get(id.0 as usize).is_some_and(|r| r.background)
    }

    /// The machine description.
    pub fn spec(&self) -> &PlatformSpec {
        &self.spec
    }

    /// Currently free cores.
    pub fn free_cores(&self) -> usize {
        self.alloc.free_cores()
    }

    /// Samples the time to move `bytes` over the shared filesystem.
    pub fn transfer_duration(&mut self, bytes: u64) -> SimDuration {
        let latency = self.spec.fs_latency.sample(&mut self.rng);
        let xfer = bytes as f64 / self.spec.fs_bandwidth;
        SimDuration::from_secs_f64(latency + xfer)
    }

    /// Samples the per-task launch overhead paid by an agent on this machine.
    pub fn sample_task_launch(&mut self) -> SimDuration {
        self.spec.task_launch.sample_duration(&mut self.rng)
    }

    /// Submits a batch job. Returns an error (and records a `Failed` job)
    /// when the request can never fit the machine.
    pub fn submit<E: From<ClusterEvent>>(
        &mut self,
        description: BatchJobDescription,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<ClusterNotification>,
    ) -> Result<BatchJobId, String> {
        let id = BatchJobId(self.jobs.len() as u64);
        let cores = description.cores;
        self.jobs.push(JobRow {
            job: BatchJob::new(id, description, ctx.now()),
            held: None,
            walltime_event: None,
            background: false,
        });
        if cores == 0 || cores > self.alloc.total_cores() {
            let msg = format!(
                "job {} requests {} cores; machine {} has {}",
                id,
                cores,
                self.spec.name,
                self.alloc.total_cores()
            );
            self.set_state(id, BatchJobState::Failed, ctx.now(), out);
            return Err(msg);
        }
        let wait = self.spec.queue_wait.sample_duration(&mut self.rng)
            + SimDuration::from_secs_f64(self.spec.queue_wait_per_core * cores as f64);
        ctx.schedule_in(wait, ClusterEvent::JobEligible(id));
        self.set_state(id, BatchJobState::Queued, ctx.now(), out);
        self.arm_fault_tick(ctx);
        self.strip_background(out);
        Ok(id)
    }

    /// Owner-initiated completion of a running job (the pilot finished its
    /// work and releases the allocation early).
    pub fn complete<E: From<ClusterEvent>>(
        &mut self,
        id: BatchJobId,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<ClusterNotification>,
    ) {
        self.finish(id, BatchJobState::Completed, ctx, out);
        self.strip_background(out);
    }

    /// Owner-initiated cancellation from any non-terminal state.
    pub fn cancel<E: From<ClusterEvent>>(
        &mut self,
        id: BatchJobId,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<ClusterNotification>,
    ) {
        let Some(row) = self.jobs.get(id.0 as usize) else {
            return;
        };
        match row.job.state {
            BatchJobState::Queued => {
                self.pending.retain(|&p| p != id);
                self.set_state(id, BatchJobState::Cancelled, ctx.now(), out);
            }
            BatchJobState::Starting | BatchJobState::Running => {
                self.finish(id, BatchJobState::Cancelled, ctx, out);
            }
            _ => {}
        }
        self.strip_background(out);
    }

    /// Handles one of this cluster's own events.
    pub fn handle<E: From<ClusterEvent>>(
        &mut self,
        event: ClusterEvent,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<ClusterNotification>,
    ) {
        match event {
            ClusterEvent::JobEligible(id) => {
                if self
                    .jobs
                    .get(id.0 as usize)
                    .is_some_and(|r| r.job.state == BatchJobState::Queued)
                {
                    self.pending.push(id);
                    self.try_schedule(ctx, out);
                }
            }
            ClusterEvent::JobLaunched(id) => {
                if self
                    .jobs
                    .get(id.0 as usize)
                    .is_some_and(|r| r.job.state == BatchJobState::Starting)
                {
                    self.set_state(id, BatchJobState::Running, ctx.now(), out);
                }
            }
            ClusterEvent::WalltimeExpired(id) => {
                let live = self.jobs.get(id.0 as usize).is_some_and(|r| {
                    matches!(
                        r.job.state,
                        BatchJobState::Starting | BatchJobState::Running
                    )
                });
                if live {
                    self.finish(id, BatchJobState::TimedOut, ctx, out);
                }
            }
            ClusterEvent::Kick => {
                self.try_schedule(ctx, out);
            }
            ClusterEvent::BackgroundArrival => {
                let Some(load) = self.background else { return };
                self.submit_background(ctx);
                let gap = self.rng.exponential(load.mean_interarrival_secs.max(1e-6));
                ctx.schedule_in(
                    SimDuration::from_secs_f64(gap),
                    ClusterEvent::BackgroundArrival,
                );
            }
            ClusterEvent::NodeCrash(node) => {
                self.crash_node(node, ctx, out);
            }
            ClusterEvent::NodeRecover(node) => {
                self.recover_node(node, ctx, out);
            }
            ClusterEvent::FaultTick => {
                self.fault_tick_armed = false;
                let up: Vec<usize> = (0..self.alloc.nodes())
                    .filter(|&n| !self.alloc.is_down(n))
                    .collect();
                let victim = self.fault.as_mut().and_then(|f| f.pick_victim(&up));
                if let Some(node) = victim {
                    self.crash_node(node, ctx, out);
                }
                self.arm_fault_tick(ctx);
            }
        }
        self.strip_background(out);
    }

    /// Crashes a node: its cores leave the machine, every batch job holding
    /// cores there loses them — shrinking the job, or failing it outright
    /// when nothing remains — and recovery is scheduled when the fault
    /// profile's downtime distribution yields a positive sample.
    fn crash_node<E: From<ClusterEvent>>(
        &mut self,
        node: usize,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<ClusterNotification>,
    ) {
        if node >= self.alloc.nodes() || self.alloc.is_down(node) {
            return;
        }
        self.alloc.mark_down(node);
        self.telemetry
            .emit(ctx.now(), TraceKind::NodeCrash, node as u64);
        // Strip the crashed node's slices from every job holding cores
        // there, in id order so the notification sequence is deterministic.
        let mut affected: Vec<BatchJobId> = self
            .running_order
            .iter()
            .copied()
            .filter(|&id| {
                let held = self.jobs[id.0 as usize].held.as_ref();
                held.expect("running job holds an allocation")
                    .iter()
                    .any(|s| s.node == node)
            })
            .collect();
        affected.sort_unstable();
        for id in affected {
            let held = self.jobs[id.0 as usize].held.as_mut();
            let slices = held.expect("affected job is held");
            let lost: usize = slices
                .iter()
                .filter(|s| s.node == node)
                .map(|s| s.cores)
                .sum();
            slices.retain(|s| s.node != node);
            if slices.is_empty() {
                self.finish(id, BatchJobState::Failed, ctx, out);
            } else {
                self.telemetry.emit(ctx.now(), TraceKind::JobShrunk, id.0);
                out.push(ClusterNotification::JobShrunk {
                    id,
                    lost_cores: lost,
                    time: ctx.now(),
                });
            }
        }
        let downtime = self.fault.as_mut().and_then(|f| f.sample_downtime());
        if let Some(dt) = downtime {
            ctx.schedule_in(dt, ClusterEvent::NodeRecover(node));
        }
    }

    /// Brings a crashed node back: its full capacity rejoins the free pool
    /// and a scheduling pass runs for anything waiting on it.
    fn recover_node<E: From<ClusterEvent>>(
        &mut self,
        node: usize,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<ClusterNotification>,
    ) {
        if node >= self.alloc.nodes() || !self.alloc.is_down(node) {
            return;
        }
        self.alloc.mark_up(node);
        self.telemetry
            .emit(ctx.now(), TraceKind::NodeRecover, node as u64);
        self.try_schedule(ctx, out);
        self.arm_fault_tick(ctx);
    }

    /// Removes notifications about background jobs (owner never sees them).
    fn strip_background(&self, out: &mut Vec<ClusterNotification>) {
        out.retain(|n| {
            let (ClusterNotification::JobState { id, .. }
            | ClusterNotification::JobShrunk { id, .. }) = n;
            !self.is_background(*id)
        });
    }

    /// Ends a job in the terminal `state`, if the model lets it go there:
    /// cancels its walltime, returns its cores and reschedules.
    fn finish<E: From<ClusterEvent>>(
        &mut self,
        id: BatchJobId,
        state: BatchJobState,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<ClusterNotification>,
    ) {
        let Some(row) = self.jobs.get_mut(id.0 as usize) else {
            return;
        };
        if !row.job.state.can_transition_to(state) {
            return;
        }
        if let Some(ev) = row.walltime_event.take() {
            ctx.cancel(ev);
        }
        if let Some(slices) = row.held.take() {
            self.running_order.retain(|&r| r != id);
            self.alloc.release(&slices);
            // The job actually occupied cores: let stateful policies
            // reconcile their up-front charge with real consumption.
            let job = &row.job;
            let ran = ctx
                .now()
                .saturating_since(job.started_at.unwrap_or(ctx.now()));
            let request = &job.description;
            self.scheduler.job_ended(
                &request.project,
                request.cores,
                request.walltime,
                ran,
                ctx.now(),
            );
        }
        self.set_state(id, state, ctx.now(), out);
        self.try_schedule(ctx, out);
    }

    /// The one door through which a job's state changes: it checks the
    /// step against the model, writes the record
    /// [`BatchJobState::trace_event`] names and tells the owner. A row
    /// told the `Queued` it already holds was just submitted.
    fn set_state(
        &mut self,
        id: BatchJobId,
        next: BatchJobState,
        now: SimTime,
        out: &mut Vec<ClusterNotification>,
    ) {
        let job = &mut self.jobs[id.0 as usize].job;
        let from = (job.state != next).then_some(job.state);
        let event = BatchJobState::trace_event(from, next);
        job.state = next;
        if next == BatchJobState::Starting {
            job.started_at = Some(now);
        }
        self.telemetry.emit(now, event, id.0);
        out.push(ClusterNotification::JobState {
            id,
            state: next,
            time: now,
        });
    }

    fn try_schedule<E: From<ClusterEvent>>(
        &mut self,
        ctx: &mut Context<'_, E>,
        out: &mut Vec<ClusterNotification>,
    ) {
        if self.pending.is_empty() {
            return;
        }
        let queue: Vec<PendingView> = self
            .pending
            .iter()
            .map(|id| {
                let j = &self.jobs[id.0 as usize].job;
                PendingView {
                    cores: j.description.cores,
                    walltime: j.description.walltime,
                    project: j.description.project.clone(),
                    submitted: j.submitted_at,
                }
            })
            .collect();
        // Start order: deterministic, unlike the hash-map key iteration
        // this replaces.
        let running: Vec<RunningView> = self
            .running_order
            .iter()
            .map(|id| {
                let j = &self.jobs[id.0 as usize].job;
                RunningView {
                    cores: j.description.cores,
                    expected_end: j.started_at.unwrap_or(SimTime::ZERO) + j.description.walltime,
                }
            })
            .collect();
        let mut picked =
            self.scheduler
                .select(&queue, self.alloc.free_cores(), ctx.now(), &running);
        picked.sort_unstable();
        // Remove back-to-front so indices stay valid.
        for &qi in picked.iter().rev() {
            let id = self.pending.remove(qi);
            let row = &mut self.jobs[id.0 as usize];
            let slices = self
                .alloc
                .allocate(row.job.description.cores)
                .expect("scheduler selected a job that fits");
            row.held = Some(slices);
            self.running_order.push(id);
            self.set_state(id, BatchJobState::Starting, ctx.now(), out);
            let startup = self.spec.job_startup.sample_duration(&mut self.rng);
            ctx.schedule_in(startup, ClusterEvent::JobLaunched(id));
            let row = &mut self.jobs[id.0 as usize];
            let wt = ctx.schedule_in(
                startup + row.job.description.walltime,
                ClusterEvent::WalltimeExpired(id),
            );
            row.walltime_event = Some(wt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entk_sim::Engine;

    /// Drives a cluster to completion, recording into `telemetry` and
    /// collecting all notifications.
    fn drive(
        spec: PlatformSpec,
        jobs: Vec<BatchJobDescription>,
        complete_after: SimDuration,
        telemetry: SharedTelemetry,
    ) -> Vec<(BatchJobId, BatchJobState, SimTime)> {
        #[derive(Debug)]
        enum Ev {
            Cluster(ClusterEvent),
            CompletePilot(BatchJobId),
        }
        impl From<ClusterEvent> for Ev {
            fn from(e: ClusterEvent) -> Ev {
                Ev::Cluster(e)
            }
        }
        let mut cluster = Cluster::new(spec, 42);
        cluster.set_telemetry(telemetry);
        let mut engine: Engine<Ev> = Engine::new();
        let mut log = Vec::new();
        engine.schedule_in(SimDuration::ZERO, Ev::Cluster(ClusterEvent::Kick));
        // Submit everything at t=0 via a bootstrap pass.
        let mut submitted = false;
        engine.run(|ev, ctx| {
            let mut out = Vec::new();
            if !submitted {
                submitted = true;
                for d in jobs.clone() {
                    cluster.submit(d, ctx, &mut out).unwrap();
                }
            }
            match ev {
                Ev::Cluster(ce) => cluster.handle(ce, ctx, &mut out),
                Ev::CompletePilot(id) => cluster.complete(id, ctx, &mut out),
            }
            for n in out {
                let ClusterNotification::JobState {
                    id, state, time, ..
                } = n
                else {
                    continue;
                };
                if state == BatchJobState::Running {
                    ctx.schedule_in(complete_after, Ev::CompletePilot(id));
                }
                log.push((id, state, time));
            }
        });
        log
    }

    fn small_spec() -> PlatformSpec {
        let mut s = PlatformSpec::local(2, 4); // 8 cores
        s.job_startup = entk_sim::Dist::Constant(1.0);
        s
    }

    #[test]
    fn single_job_full_lifecycle() {
        let log = drive(
            small_spec(),
            vec![BatchJobDescription::new(
                "p",
                4,
                SimDuration::from_secs(100),
            )],
            SimDuration::from_secs(10),
            SharedTelemetry::disabled(),
        );
        let states: Vec<_> = log.iter().map(|(_, s, _)| *s).collect();
        assert_eq!(
            states,
            vec![
                BatchJobState::Queued,
                BatchJobState::Starting,
                BatchJobState::Running,
                BatchJobState::Completed
            ]
        );
        // startup 1 s, payload 10 s.
        assert_eq!(log[3].2, SimTime::from_secs(11));
    }

    #[test]
    fn jobs_queue_when_machine_is_full() {
        // Two 8-core jobs on an 8-core machine: strictly serialized.
        let log = drive(
            small_spec(),
            vec![
                BatchJobDescription::new("a", 8, SimDuration::from_secs(100)),
                BatchJobDescription::new("b", 8, SimDuration::from_secs(100)),
            ],
            SimDuration::from_secs(10),
            SharedTelemetry::disabled(),
        );
        let completed: Vec<_> = log
            .iter()
            .filter(|(_, s, _)| *s == BatchJobState::Completed)
            .collect();
        assert_eq!(completed.len(), 2);
        assert!(completed[1].2 > completed[0].2);
        assert_eq!(completed[1].2, SimTime::from_secs(22)); // 1+10 then 1+10 again
    }

    #[test]
    fn walltime_kills_overrunning_job() {
        let log = drive(
            small_spec(),
            vec![BatchJobDescription::new("p", 4, SimDuration::from_secs(5))],
            SimDuration::from_secs(60), // completes only after walltime
            SharedTelemetry::disabled(),
        );
        assert!(log.iter().any(|(_, s, _)| *s == BatchJobState::TimedOut));
        assert!(!log.iter().any(|(_, s, _)| *s == BatchJobState::Completed));
    }

    #[test]
    fn oversized_job_fails_at_submit() {
        #[derive(Debug)]
        struct Ev(ClusterEvent);
        impl From<ClusterEvent> for Ev {
            fn from(e: ClusterEvent) -> Ev {
                Ev(e)
            }
        }
        let mut cluster = Cluster::new(small_spec(), 1);
        let mut engine: Engine<Ev> = Engine::new();
        engine.schedule_in(SimDuration::ZERO, Ev(ClusterEvent::Kick));
        let mut failed = false;
        engine.run(|Ev(ce), ctx| {
            let mut out = Vec::new();
            if !failed {
                failed = true;
                let res = cluster.submit(
                    BatchJobDescription::new("huge", 1000, SimDuration::from_secs(1)),
                    ctx,
                    &mut out,
                );
                assert!(res.is_err());
                assert!(matches!(
                    out[0],
                    ClusterNotification::JobState {
                        state: BatchJobState::Failed,
                        ..
                    }
                ));
            }
            cluster.handle(ce, ctx, &mut Vec::new());
        });
        assert!(failed);
    }

    #[test]
    fn cancel_queued_job_never_runs() {
        #[derive(Debug)]
        enum Ev {
            Cluster(ClusterEvent),
            CancelB,
        }
        impl From<ClusterEvent> for Ev {
            fn from(e: ClusterEvent) -> Ev {
                Ev::Cluster(e)
            }
        }
        let mut cluster = Cluster::new(small_spec(), 7);
        let mut engine: Engine<Ev> = Engine::new();
        engine.schedule_in(SimDuration::ZERO, Ev::Cluster(ClusterEvent::Kick));
        let mut b_id = None;
        let mut boot = false;
        let mut log = Vec::new();
        engine.run(|ev, ctx| {
            let mut out = Vec::new();
            if !boot {
                boot = true;
                // a fills the machine; b waits in queue and is cancelled.
                cluster
                    .submit(
                        BatchJobDescription::new("a", 8, SimDuration::from_secs(100)),
                        ctx,
                        &mut out,
                    )
                    .unwrap();
                b_id = Some(
                    cluster
                        .submit(
                            BatchJobDescription::new("b", 8, SimDuration::from_secs(100)),
                            ctx,
                            &mut out,
                        )
                        .unwrap(),
                );
                ctx.schedule_in(SimDuration::from_secs(2), Ev::CancelB);
            }
            match ev {
                Ev::Cluster(ce) => cluster.handle(ce, ctx, &mut out),
                Ev::CancelB => cluster.cancel(b_id.unwrap(), ctx, &mut out),
            }
            log.extend(out);
        });
        let b = b_id.unwrap();
        let b_states: Vec<_> = log
            .iter()
            .filter_map(|n| match n {
                ClusterNotification::JobState { id, state, .. } => (*id == b).then_some(*state),
                _ => None,
            })
            .collect();
        assert_eq!(
            b_states,
            vec![BatchJobState::Queued, BatchJobState::Cancelled]
        );
    }

    #[test]
    fn a_job_holds_its_cores_from_start_to_completion() {
        #[derive(Debug)]
        enum Ev {
            Cluster(ClusterEvent),
            Complete(BatchJobId),
        }
        impl From<ClusterEvent> for Ev {
            fn from(e: ClusterEvent) -> Ev {
                Ev::Cluster(e)
            }
        }
        let mut spec = small_spec();
        spec.queue_wait = entk_sim::Dist::ZERO;
        let telemetry = SharedTelemetry::new();
        let mut cluster = Cluster::new(spec, 42);
        cluster.set_telemetry(telemetry.clone());
        let mut engine: Engine<Ev> = Engine::new();
        let mut out = Vec::new();
        let job = BatchJobDescription::new("p", 8, SimDuration::from_secs(100));
        let id = cluster
            .submit(job, &mut engine.context(), &mut out)
            .unwrap();
        // Cores the cluster holds after each event.
        let mut held = Vec::new();
        engine.run(|ev, ctx| {
            match ev {
                Ev::Cluster(ce) => cluster.handle(ce, ctx, &mut out),
                Ev::Complete(id) => cluster.complete(id, ctx, &mut out),
            }
            for n in out.drain(..) {
                if let ClusterNotification::JobState {
                    id,
                    state: BatchJobState::Running,
                    ..
                } = n
                {
                    ctx.schedule_in(SimDuration::from_secs(10), Ev::Complete(id));
                }
            }
            held.push((ctx.now(), 8 - cluster.free_cores()));
        });
        // All 8 cores from the start (no queue wait) until the job is
        // completed 1 s of startup + 10 s of payload later.
        assert_eq!(
            held,
            [
                (SimTime::ZERO, 8),
                (SimTime::from_secs(1), 8),
                (SimTime::from_secs(11), 0)
            ]
        );
        let snap = telemetry.snapshot();
        let at = |kind| snap.tracer.time_of(kind, id.0);
        assert_eq!(at(TraceKind::JobStarted), Some(SimTime::ZERO));
        assert_eq!(at(TraceKind::JobCompleted), Some(SimTime::from_secs(11)));
    }
}

#[cfg(test)]
mod background_tests {
    use super::*;
    use entk_sim::{Dist, Engine};

    #[derive(Debug)]
    enum Ev {
        Cluster(ClusterEvent),
        CompletePilot(BatchJobId),
    }
    impl From<ClusterEvent> for Ev {
        fn from(e: ClusterEvent) -> Ev {
            Ev::Cluster(e)
        }
    }

    /// Submits one owner job onto a (possibly contended) cluster; returns
    /// its queue wait and all owner-visible notifications.
    fn queue_wait_with_load(load: Option<BackgroundLoad>) -> (f64, usize) {
        let mut spec = PlatformSpec::local(4, 8); // 32 cores
        spec.job_startup = entk_sim::Dist::Constant(1.0);
        let mut cluster = Cluster::new(spec, 11);
        let mut engine: Engine<Ev> = Engine::new();
        // t = 0: enable the load; t = 600: submit the owner's pilot, after
        // contention has built up.
        engine.schedule_in(SimDuration::ZERO, Ev::Cluster(ClusterEvent::Kick));
        engine.schedule_in(SimDuration::from_secs(600), Ev::Cluster(ClusterEvent::Kick));
        let mut booted = false;
        let mut owner_id = None;
        let mut started_at = None;
        let mut notes_seen = 0usize;
        // The background generator never drains the queue: bound the run.
        let horizon = entk_sim::SimTime::from_secs(5_000);
        while engine.steps() < 200_000 {
            let Some((ev, mut ctx)) = engine.pop_until(horizon) else {
                break;
            };
            let ctx = &mut ctx;
            let mut out = Vec::new();
            if !booted {
                booted = true;
                if let Some(l) = load {
                    cluster.enable_background_load(l, ctx);
                }
                continue; // t = 0 bootstrap event consumed
            }
            match ev {
                Ev::Cluster(ClusterEvent::Kick)
                    if owner_id.is_none() && ctx.now() >= entk_sim::SimTime::from_secs(600) =>
                {
                    owner_id = Some(
                        cluster
                            .submit(
                                BatchJobDescription::new(
                                    "pilot",
                                    24,
                                    SimDuration::from_secs(10_000),
                                ),
                                ctx,
                                &mut out,
                            )
                            .unwrap(),
                    );
                    cluster.handle(ClusterEvent::Kick, ctx, &mut out);
                }
                Ev::Cluster(ce) => cluster.handle(ce, ctx, &mut out),
                Ev::CompletePilot(id) => cluster.complete(id, ctx, &mut out),
            }
            notes_seen += out.len();
            for n in out {
                let ClusterNotification::JobState {
                    id, state, time, ..
                } = n
                else {
                    continue;
                };
                assert!(
                    !cluster.is_background(id),
                    "background notification leaked to owner"
                );
                if Some(id) == owner_id && state == BatchJobState::Starting {
                    started_at = Some(time);
                    ctx.schedule_in(SimDuration::from_secs(30), Ev::CompletePilot(id));
                }
            }
        }
        let wait = started_at.expect("owner job started").as_secs_f64() - 600.0;
        (wait, notes_seen)
    }

    #[test]
    fn background_load_delays_owner_jobs() {
        let (clean, _) = queue_wait_with_load(None);
        // Saturating load: 24-core 60 s jobs every ~10 s on a 32-core
        // machine serialize in the queue, so the owner's 24-core pilot
        // reliably waits behind several of them.
        let (contended, _) = queue_wait_with_load(Some(BackgroundLoad {
            mean_interarrival_secs: 10.0,
            cores: Dist::Constant(24.0),
            runtime: Dist::Constant(60.0),
            initial_jobs: 0,
        }));
        assert!(
            contended > clean + 1.0,
            "contention should delay the pilot: clean {clean}, contended {contended}"
        );
    }

    #[test]
    fn background_jobs_are_invisible_to_owner() {
        // Assertion inside the driver loop: no background notification seen.
        let (_, notes) = queue_wait_with_load(Some(BackgroundLoad {
            mean_interarrival_secs: 10.0,
            cores: Dist::Constant(8.0),
            runtime: Dist::Constant(20.0),
            initial_jobs: 2,
        }));
        // Owner sees only its own job's few transitions.
        assert!(notes <= 6, "owner saw {notes} notifications");
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use entk_sim::{Dist, Engine};

    #[derive(Debug)]
    enum Ev {
        Cluster(ClusterEvent),
        CompletePilot(BatchJobId),
    }
    impl From<ClusterEvent> for Ev {
        fn from(e: ClusterEvent) -> Ev {
            Ev::Cluster(e)
        }
    }

    fn spec() -> PlatformSpec {
        let mut s = PlatformSpec::local(2, 4); // 2 nodes x 4 cores
        s.queue_wait = Dist::ZERO;
        s.job_startup = Dist::Constant(1.0);
        s
    }

    /// Runs one job under a fault profile; returns all owner notifications
    /// plus the cluster's final free-core count.
    fn drive_with_faults(
        cores: usize,
        profile: FaultProfile,
        complete_after: SimDuration,
    ) -> (Vec<ClusterNotification>, usize) {
        let mut cluster = Cluster::new(spec(), 42);
        let mut engine: Engine<Ev> = Engine::new();
        engine.schedule_in(SimDuration::ZERO, Ev::Cluster(ClusterEvent::Kick));
        let mut booted = false;
        let mut log = Vec::new();
        engine.run(|ev, ctx| {
            let mut out = Vec::new();
            if !booted {
                booted = true;
                cluster.enable_fault_injector(profile.clone(), ctx);
                cluster
                    .submit(
                        BatchJobDescription::new("pilot", cores, SimDuration::from_secs(1000)),
                        ctx,
                        &mut out,
                    )
                    .unwrap();
            }
            match ev {
                Ev::Cluster(ce) => cluster.handle(ce, ctx, &mut out),
                Ev::CompletePilot(id) => cluster.complete(id, ctx, &mut out),
            }
            for n in out {
                if let ClusterNotification::JobState {
                    id,
                    state: BatchJobState::Running,
                    ..
                } = n
                {
                    ctx.schedule_in(complete_after, Ev::CompletePilot(id));
                }
                log.push(n);
            }
        });
        (log, cluster.free_cores())
    }

    #[test]
    fn crash_shrinks_spanning_job() {
        // 8-core job spans both nodes; node 0 dies at t=5 and stays down
        // (zero downtime means permanent).
        let profile = FaultProfile::seeded(1)
            .with_crash_at(5.0, 0)
            .with_node_crashes(0.0, Dist::Constant(0.0));
        let (log, free) = drive_with_faults(8, profile, SimDuration::from_secs(30));
        let shrunk: Vec<_> = log
            .iter()
            .filter_map(|n| match *n {
                ClusterNotification::JobShrunk {
                    lost_cores, time, ..
                } => Some((lost_cores, time)),
                _ => None,
            })
            .collect();
        assert_eq!(shrunk, vec![(4, SimTime::from_secs(5))]);
        // The job still completes on its surviving cores.
        assert!(log.iter().any(|n| matches!(
            n,
            ClusterNotification::JobState {
                state: BatchJobState::Completed,
                ..
            }
        )));
        // Node 0 never recovered: only node 1's cores are free at the end.
        assert_eq!(free, 4);
    }

    #[test]
    fn crash_fails_job_confined_to_node() {
        // 4-core job fits on node 0 alone; the crash leaves it nothing.
        let profile = FaultProfile::seeded(1).with_crash_at(5.0, 0);
        let (log, _) = drive_with_faults(4, profile, SimDuration::from_secs(30));
        assert!(log.iter().any(|n| matches!(
            n,
            ClusterNotification::JobState {
                state: BatchJobState::Failed,
                ..
            }
        )));
        assert!(!log
            .iter()
            .any(|n| matches!(n, ClusterNotification::JobShrunk { .. })));
    }

    #[test]
    fn node_recovers_after_downtime() {
        let profile = FaultProfile::seeded(1)
            .with_crash_at(5.0, 0)
            .with_node_crashes(0.0, Dist::Constant(20.0));
        let (_, free) = drive_with_faults(8, profile, SimDuration::from_secs(60));
        // After recovery at t=25 the machine is whole again.
        assert_eq!(free, 8);
    }

    #[test]
    fn mtbf_process_crashes_nodes_deterministically() {
        let profile = FaultProfile::seeded(33).with_node_crashes(50.0, Dist::Constant(10.0));
        let run = || {
            let (log, _) = drive_with_faults(8, profile.clone(), SimDuration::from_secs(400));
            format!("{log:?}")
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must replay the same fault timeline");
    }

    #[test]
    fn zero_profile_matches_no_injector() {
        let with = drive_with_faults(8, FaultProfile::seeded(5), SimDuration::from_secs(30));
        // Same run without any injector.
        let mut cluster = Cluster::new(spec(), 42);
        let mut engine: Engine<Ev> = Engine::new();
        engine.schedule_in(SimDuration::ZERO, Ev::Cluster(ClusterEvent::Kick));
        let mut booted = false;
        let mut log = Vec::new();
        engine.run(|ev, ctx| {
            let mut out = Vec::new();
            if !booted {
                booted = true;
                cluster
                    .submit(
                        BatchJobDescription::new("pilot", 8, SimDuration::from_secs(1000)),
                        ctx,
                        &mut out,
                    )
                    .unwrap();
            }
            match ev {
                Ev::Cluster(ce) => cluster.handle(ce, ctx, &mut out),
                Ev::CompletePilot(id) => cluster.complete(id, ctx, &mut out),
            }
            for n in out {
                if let ClusterNotification::JobState {
                    id,
                    state: BatchJobState::Running,
                    ..
                } = n
                {
                    ctx.schedule_in(SimDuration::from_secs(30), Ev::CompletePilot(id));
                }
                log.push(n);
            }
        });
        assert_eq!(format!("{:?}", with.0), format!("{log:?}"));
        assert_eq!(with.1, cluster.free_cores());
    }
}
