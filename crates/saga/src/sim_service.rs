//! The simulated-batch SAGA adapter: translates SAGA jobs to batch jobs on a
//! discrete-event [`Cluster`] and maps cluster notifications back to SAGA
//! state changes.

use crate::description::JobDescription;
use crate::job::{JobState, JobUpdate, SagaJobId};
use entk_cluster::{
    BatchJobDescription, BatchJobId, BatchJobState, Cluster, ClusterEvent, ClusterNotification,
    PlatformSpec,
};
#[cfg(test)]
use entk_sim::SimDuration;
use entk_sim::{Context, DenseStore, SimTime};

/// One row of the job table: all a SAGA job is here once submitted.
struct JobRow {
    state: JobState,
    /// The cluster's job behind it, unless the cluster rejected the request.
    batch: Option<BatchJobId>,
}

/// A SAGA job service backed by a simulated cluster.
///
/// Generic methods take the driver's event type `E: From<ClusterEvent>` so
/// the service can schedule cluster events on the shared engine.
pub struct SimJobService {
    cluster: Cluster,
    /// `SagaJobId`s are dense from 0, so index == id.
    jobs: Vec<JobRow>,
    /// By `BatchJobId`, which the cluster also hands to background jobs.
    from_batch: DenseStore<SagaJobId>,
}

impl SimJobService {
    /// Creates a service for the given machine model.
    pub fn new(spec: PlatformSpec, seed: u64) -> Self {
        Self::from_cluster(Cluster::new(spec, seed))
    }

    /// Wraps an existing cluster (e.g. one with a custom batch scheduler).
    pub fn from_cluster(cluster: Cluster) -> Self {
        SimJobService {
            cluster,
            jobs: Vec::new(),
            from_batch: DenseStore::new(),
        }
    }

    /// The underlying cluster (e.g. for transfer-time sampling).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Read access to the underlying cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn batch_id(&self, id: SagaJobId) -> Option<BatchJobId> {
        self.jobs.get(id.0 as usize)?.batch
    }

    /// Submits a job. Validation failures surface as `Err`; resource-level
    /// rejections surface as a `Failed` update from [`Self::handle_cluster`]
    /// or immediately in the returned updates.
    pub fn submit<E: From<ClusterEvent>>(
        &mut self,
        description: JobDescription,
        ctx: &mut Context<'_, E>,
        updates: &mut Vec<JobUpdate>,
    ) -> Result<SagaJobId, String> {
        description.validate()?;
        let id = SagaJobId(self.jobs.len() as u64);
        let bd = BatchJobDescription {
            name: description.executable,
            cores: description.total_cpu_count,
            walltime: description.wall_time_limit,
            queue: description.queue,
            project: description.project,
        };
        let mut notes = Vec::new();
        let (batch, state, detail) = match self.cluster.submit(bd, ctx, &mut notes) {
            Ok(bid) => {
                self.from_batch.insert(bid.0, id);
                (Some(bid), JobState::Pending, None)
            }
            Err(reason) => (None, JobState::Failed, Some(reason)),
        };
        self.jobs.push(JobRow {
            state: JobState::New,
            batch,
        });
        self.set_state(id, state, ctx.now(), detail, updates);
        Ok(id)
    }

    /// Requests cancellation of a job.
    pub fn cancel<E: From<ClusterEvent>>(
        &mut self,
        id: SagaJobId,
        ctx: &mut Context<'_, E>,
        updates: &mut Vec<JobUpdate>,
    ) {
        if let Some(bid) = self.batch_id(id) {
            let mut notes = Vec::new();
            self.cluster.cancel(bid, ctx, &mut notes);
            self.route(notes, updates);
        }
    }

    /// Marks a running job as finished by its owner (pilot releases early).
    pub fn finish<E: From<ClusterEvent>>(
        &mut self,
        id: SagaJobId,
        ctx: &mut Context<'_, E>,
        updates: &mut Vec<JobUpdate>,
    ) {
        if let Some(bid) = self.batch_id(id) {
            let mut notes = Vec::new();
            self.cluster.complete(bid, ctx, &mut notes);
            self.route(notes, updates);
        }
    }

    /// Delivers a cluster event and translates resulting notifications into
    /// SAGA job updates.
    pub fn handle_cluster<E: From<ClusterEvent>>(
        &mut self,
        event: ClusterEvent,
        ctx: &mut Context<'_, E>,
        updates: &mut Vec<JobUpdate>,
    ) {
        let mut notes = Vec::new();
        self.cluster.handle(event, ctx, &mut notes);
        self.route(notes, updates);
    }

    fn route(&mut self, notes: Vec<ClusterNotification>, updates: &mut Vec<JobUpdate>) {
        for note in notes {
            let (bid, state, time) = match note {
                ClusterNotification::JobState { id, state, time } => (id, state, time),
                ClusterNotification::JobShrunk {
                    id: bid,
                    lost_cores,
                    remaining_cores,
                    time,
                } => {
                    // A crash shrank the job in place: no state transition,
                    // but the owner must shed load onto what remains.
                    let Some(&sid) = self.from_batch.get(bid.0) else {
                        continue;
                    };
                    updates.push(JobUpdate {
                        id: sid,
                        state: self.jobs[sid.0 as usize].state,
                        time,
                        detail: Some(format!(
                            "node crash: lost {lost_cores} cores, {remaining_cores} remain"
                        )),
                        shrunk_by: Some(lost_cores),
                    });
                    continue;
                }
            };
            let Some(&sid) = self.from_batch.get(bid.0) else {
                continue;
            };
            let (saga_state, detail) = match state {
                BatchJobState::Queued | BatchJobState::Starting => continue, // still Pending
                BatchJobState::Running => (JobState::Running, None),
                BatchJobState::Completed => (JobState::Done, None),
                BatchJobState::TimedOut => {
                    (JobState::Failed, Some("wall time exceeded".to_string()))
                }
                BatchJobState::Cancelled => (JobState::Canceled, None),
                BatchJobState::Failed => (JobState::Failed, Some("rejected".to_string())),
            };
            self.set_state(sid, saga_state, time, detail, updates);
        }
    }

    /// The one door through which a job's state changes: it checks the
    /// step against the SAGA model and reports it to the submitter.
    fn set_state(
        &mut self,
        id: SagaJobId,
        next: JobState,
        time: SimTime,
        detail: Option<String>,
        updates: &mut Vec<JobUpdate>,
    ) {
        let row = &mut self.jobs[id.0 as usize];
        row.state = row.state.step(next);
        updates.push(JobUpdate {
            id,
            state: next,
            time,
            detail,
            shrunk_by: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entk_sim::{Engine, SimTime};

    #[derive(Debug)]
    enum Ev {
        Cluster(ClusterEvent),
        FinishPilot(SagaJobId),
    }
    impl From<ClusterEvent> for Ev {
        fn from(e: ClusterEvent) -> Ev {
            Ev::Cluster(e)
        }
    }

    fn spec() -> PlatformSpec {
        let mut s = PlatformSpec::local(2, 8);
        s.job_startup = entk_sim::Dist::Constant(2.0);
        s
    }

    #[test]
    fn job_runs_and_finishes_on_owner_request() {
        let mut svc = SimJobService::new(spec(), 3);
        let mut engine: Engine<Ev> = Engine::new();
        engine.schedule_in(SimDuration::ZERO, Ev::Cluster(ClusterEvent::Kick));
        let mut log: Vec<(JobState, SimTime)> = Vec::new();
        let mut booted = false;
        engine.run(|ev, ctx| {
            let mut updates = Vec::new();
            if !booted {
                booted = true;
                let jd = JobDescription::new("pilot-agent", 8, SimDuration::from_secs(600));
                svc.submit(jd, ctx, &mut updates).unwrap();
            }
            match ev {
                Ev::Cluster(ce) => svc.handle_cluster(ce, ctx, &mut updates),
                Ev::FinishPilot(id) => svc.finish(id, ctx, &mut updates),
            }
            for u in updates {
                if u.state == JobState::Running {
                    ctx.schedule_in(SimDuration::from_secs(30), Ev::FinishPilot(u.id));
                }
                log.push((u.state, u.time));
            }
        });
        let states: Vec<_> = log.iter().map(|(s, _)| *s).collect();
        assert_eq!(
            states,
            vec![JobState::Pending, JobState::Running, JobState::Done]
        );
        assert_eq!(log[1].1, SimTime::from_secs(2)); // startup
        assert_eq!(log[2].1, SimTime::from_secs(32));
    }

    #[test]
    fn invalid_description_is_rejected_synchronously() {
        let mut svc = SimJobService::new(spec(), 3);
        let mut engine: Engine<Ev> = Engine::new();
        engine.schedule_in(SimDuration::ZERO, Ev::Cluster(ClusterEvent::Kick));
        engine.run(|ev, ctx| {
            if let Ev::Cluster(ce) = ev {
                let mut updates = Vec::new();
                let jd = JobDescription::new("", 8, SimDuration::from_secs(600));
                assert!(svc.submit(jd, ctx, &mut updates).is_err());
                svc.handle_cluster(ce, ctx, &mut updates);
            }
        });
    }

    #[test]
    fn oversized_job_fails_with_detail() {
        let mut svc = SimJobService::new(spec(), 3);
        let mut engine: Engine<Ev> = Engine::new();
        engine.schedule_in(SimDuration::ZERO, Ev::Cluster(ClusterEvent::Kick));
        let mut saw_failed = false;
        let mut booted = false;
        engine.run(|ev, ctx| {
            let mut updates = Vec::new();
            if !booted {
                booted = true;
                let jd = JobDescription::new("agent", 10_000, SimDuration::from_secs(600));
                svc.submit(jd, ctx, &mut updates).unwrap();
            }
            if let Ev::Cluster(ce) = ev {
                svc.handle_cluster(ce, ctx, &mut updates);
            }
            for u in &updates {
                if u.state == JobState::Failed {
                    assert!(u.detail.is_some());
                    saw_failed = true;
                }
            }
        });
        assert!(saw_failed);
    }

    #[test]
    fn walltime_expiry_maps_to_failed() {
        let mut svc = SimJobService::new(spec(), 3);
        let mut engine: Engine<Ev> = Engine::new();
        engine.schedule_in(SimDuration::ZERO, Ev::Cluster(ClusterEvent::Kick));
        let mut final_state = None;
        let mut booted = false;
        engine.run(|ev, ctx| {
            let mut updates = Vec::new();
            if !booted {
                booted = true;
                // Job whose owner never finishes it: dies at walltime.
                let jd = JobDescription::new("agent", 4, SimDuration::from_secs(5));
                svc.submit(jd, ctx, &mut updates).unwrap();
            }
            if let Ev::Cluster(ce) = ev {
                svc.handle_cluster(ce, ctx, &mut updates);
            }
            for u in updates {
                if u.state.is_terminal() {
                    final_state = Some((u.state, u.detail));
                }
            }
        });
        let (state, detail) = final_state.expect("job terminated");
        assert_eq!(state, JobState::Failed);
        assert_eq!(detail.as_deref(), Some("wall time exceeded"));
    }
}
