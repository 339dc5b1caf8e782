//! Session arrivals and the open-loop generators that produce them.
//!
//! An arrival is one tenant's request for a whole ensemble session — a
//! pattern shape, a size, a kernel, and a core count — stamped with the
//! virtual time at which it enters the stream. Generators are *open loop*:
//! arrival times never depend on how fast earlier sessions complete, which
//! is what makes a stream replayable from its seed alone.

use entk_core::prelude::*;
use entk_core::EntkError;
use entk_sim::{SimDuration, SimRng, SimTime};
use serde_json::json;

/// The pattern shapes a trace row may request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PatternKind {
    /// Ensemble of pipelines: `tasks` pipelines × `stages` stages.
    Eop,
    /// Simulation–analysis loop: `stages` iterations × `tasks` simulations
    /// (plus one analysis task per iteration).
    Sal,
    /// Ensemble exchange: `tasks` replicas × `stages` MD+exchange cycles.
    Ee,
    /// Pipeline–stage–task workflow: `tasks` pipelines × `stages`
    /// single-task stages.
    Pst,
}

impl PatternKind {
    /// All kinds, in trace-schema order.
    pub const ALL: [PatternKind; 4] = [
        PatternKind::Eop,
        PatternKind::Sal,
        PatternKind::Ee,
        PatternKind::Pst,
    ];

    /// The trace-schema name of this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            PatternKind::Eop => "eop",
            PatternKind::Sal => "sal",
            PatternKind::Ee => "ee",
            PatternKind::Pst => "pst",
        }
    }

    /// Parses a trace-schema pattern name.
    pub fn parse(s: &str) -> Result<Self, EntkError> {
        match s {
            "eop" => Ok(PatternKind::Eop),
            "sal" => Ok(PatternKind::Sal),
            "ee" => Ok(PatternKind::Ee),
            "pst" => Ok(PatternKind::Pst),
            other => Err(EntkError::Usage(format!(
                "unknown pattern {other:?} (expected one of eop, sal, ee, pst)"
            ))),
        }
    }
}

/// Kernel plugins a trace row may name. Restricting the set keeps every
/// generated session bindable against the built-in registry without
/// external inputs; `ana.coco` is bound implicitly as the SAL analysis
/// stage and is not a valid *row* kernel.
pub const SUPPORTED_KERNELS: &[&str] = &[
    "misc.sleep",
    "misc.stress",
    "misc.mkfile",
    "misc.ccount",
    "md.amber",
    "md.gromacs",
];

/// One session entering the stream: the unit both trace rows and arrival
/// processes produce, and the unit the stream runner admits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionArrival {
    /// Virtual instant at which the session enters the stream.
    pub arrival: SimTime,
    /// Owning tenant id.
    pub tenant: u64,
    /// Requested pattern shape.
    pub pattern: PatternKind,
    /// Primary size axis (pipelines / simulations / replicas).
    pub tasks: usize,
    /// Secondary size axis (stages / iterations / cycles).
    pub stages: usize,
    /// Kernel plugin driving the session's main tasks.
    pub kernel: String,
    /// Cores of the session's pilot (per member cluster when federated).
    pub cores: usize,
}

impl SessionArrival {
    /// Validates the row against the schema invariants shared by every
    /// generator: positive sizes and a supported kernel.
    pub fn validate(&self) -> Result<(), EntkError> {
        if self.tenant == u64::MAX {
            // u64::MAX marks the all-tenants aggregate row in latency
            // reports; a session submitted under it would silently merge
            // into that aggregate.
            return Err(EntkError::Usage(format!(
                "tenant {} is reserved for the all-tenants aggregate",
                u64::MAX
            )));
        }
        if self.tasks == 0 {
            return Err(EntkError::Usage("tasks must be >= 1".into()));
        }
        if self.stages == 0 {
            return Err(EntkError::Usage("stages must be >= 1".into()));
        }
        if self.cores == 0 {
            return Err(EntkError::Usage("cores must be >= 1".into()));
        }
        if !SUPPORTED_KERNELS.contains(&self.kernel.as_str()) {
            return Err(EntkError::Usage(format!(
                "unknown kernel {:?} (supported: {})",
                self.kernel,
                SUPPORTED_KERNELS.join(", ")
            )));
        }
        Ok(())
    }

    /// Compiles the arrival into an executable pattern. The binding is a
    /// pure function of the row, so replaying a trace rebuilds identical
    /// sessions.
    pub fn build_pattern(&self) -> Result<Box<dyn ExecutionPattern + Send>, EntkError> {
        self.validate()?;
        let kernel = self.kernel.clone();
        Ok(match self.pattern {
            PatternKind::Eop => {
                let stages = self.stages;
                Box::new(EnsembleOfPipelines::new(
                    self.tasks,
                    self.stages,
                    move |p, s| kernel_call(&kernel, p * stages + s, None),
                ))
            }
            PatternKind::Sal => {
                let tasks = self.tasks;
                Box::new(SimulationAnalysisLoop::new(
                    self.stages,
                    self.tasks,
                    move |iter, i| kernel_call(&kernel, iter * tasks + i, None),
                    |_, outs| vec![KernelCall::new("ana.coco", json!({ "n_sims": outs.len() }))],
                ))
            }
            PatternKind::Ee => Box::new(EnsembleExchange::new(
                self.tasks,
                self.stages,
                TemperatureLadder::geometric(self.tasks, 0.8, 2.4),
                move |r, c, t| kernel_call(&kernel, r * 31 + c, Some(t)),
            )),
            PatternKind::Pst => {
                let pipelines = (0..self.tasks)
                    .map(|p| {
                        let mut pipe = Pipeline::new(format!("p{p}"));
                        for s in 0..self.stages {
                            pipe = pipe.with_stage(Stage::new(format!("stage-{s}")).with_task(
                                PstTask::new(
                                    format!("t{p}.{s}"),
                                    kernel_call(&kernel, p * self.stages + s, None),
                                ),
                            ));
                        }
                        pipe
                    })
                    .collect();
                Box::new(PstWorkflow::new(pipelines))
            }
        })
    }
}

/// Binds a supported kernel with canonical arguments. `index`
/// differentiates per-task randomness (MD seeds); `temperature` is set for
/// replica-exchange MD segments only.
fn kernel_call(kernel: &str, index: usize, temperature: Option<f64>) -> KernelCall {
    let args = match kernel {
        "misc.sleep" => json!({ "secs": 10.0 }),
        "misc.mkfile" | "misc.ccount" => json!({ "bytes": 1024 }),
        "misc.stress" => json!({}),
        // md.amber / md.gromacs — validated upstream.
        _ => {
            let mut args = json!({ "steps": 300, "n_atoms": 2881, "seed": index as u64 });
            if let Some(t) = temperature {
                args["temperature"] = json!(t);
            }
            args
        }
    };
    KernelCall::new(kernel.to_string(), args)
}

/// A pull-based source of session arrivals.
///
/// Streams yield rows one at a time in non-decreasing arrival order, which
/// is what lets the service engine keep a bounded read-ahead window over a
/// disk-backed trace instead of materializing every arrival up front.
/// Implementations must be deterministic — pulling the same stream twice
/// (via two [`WorkloadGenerator::stream`] calls) yields identical rows —
/// and must keep returning `Ok(None)` once exhausted.
pub trait ArrivalStream: Send {
    /// Pulls the next arrival, `Ok(None)` at end of stream. Errors are
    /// sticky in practice: callers stop pulling after the first `Err`.
    fn next_arrival(&mut self) -> Result<Option<SessionArrival>, EntkError>;

    /// Exact number of arrivals left, when the source knows it (seeded
    /// generators and in-memory vectors do; disk-backed traces return
    /// `None`). Used only for capacity hints, never for control flow.
    fn remaining_hint(&self) -> Option<usize> {
        None
    }
}

/// An in-memory arrival stream over an owned, already-sorted vector.
#[derive(Debug)]
pub struct VecStream {
    rows: std::vec::IntoIter<SessionArrival>,
}

impl VecStream {
    /// Wraps an owned vector of arrivals. Rows are yielded as-is; the
    /// consumer (the service engine) still validates order and content.
    pub fn new(rows: Vec<SessionArrival>) -> Self {
        VecStream {
            rows: rows.into_iter(),
        }
    }
}

impl ArrivalStream for VecStream {
    fn next_arrival(&mut self) -> Result<Option<SessionArrival>, EntkError> {
        Ok(self.rows.next())
    }

    fn remaining_hint(&self) -> Option<usize> {
        Some(self.rows.len())
    }
}

/// Conversion into a boxed [`ArrivalStream`], so stream consumers accept
/// lazy streams, owned vectors, and borrowed slices interchangeably.
/// Slices are cloned (a convenience for tests and small call sites);
/// anything that can hand over ownership streams without double-buffering.
pub trait IntoArrivalStream {
    /// Converts `self` into a boxed arrival stream.
    fn into_arrival_stream(self) -> Result<Box<dyn ArrivalStream>, EntkError>;
}

impl<S: ArrivalStream + 'static> IntoArrivalStream for S {
    fn into_arrival_stream(self) -> Result<Box<dyn ArrivalStream>, EntkError> {
        Ok(Box::new(self))
    }
}

impl IntoArrivalStream for Box<dyn ArrivalStream> {
    fn into_arrival_stream(self) -> Result<Box<dyn ArrivalStream>, EntkError> {
        Ok(self)
    }
}

impl IntoArrivalStream for Vec<SessionArrival> {
    fn into_arrival_stream(self) -> Result<Box<dyn ArrivalStream>, EntkError> {
        Ok(Box::new(VecStream::new(self)))
    }
}

impl IntoArrivalStream for &[SessionArrival] {
    fn into_arrival_stream(self) -> Result<Box<dyn ArrivalStream>, EntkError> {
        Ok(Box::new(VecStream::new(self.to_vec())))
    }
}

impl IntoArrivalStream for &Vec<SessionArrival> {
    fn into_arrival_stream(self) -> Result<Box<dyn ArrivalStream>, EntkError> {
        self.as_slice().into_arrival_stream()
    }
}

/// A source of session arrivals. Implementations must be deterministic:
/// two streams from the same value yield identical rows.
pub trait WorkloadGenerator {
    /// Opens a lazy stream over the generator's arrivals, sorted by
    /// non-decreasing arrival time and individually valid. Configuration
    /// errors (degenerate parameters, unreadable trace files) surface
    /// here, before the first pull.
    fn stream(&self) -> Result<Box<dyn ArrivalStream>, EntkError>;

    /// Collects the whole stream into a vector. Convenience for small
    /// workloads and tests; out-of-core callers pull [`Self::stream`]
    /// directly.
    fn generate(&self) -> Result<Vec<SessionArrival>, EntkError> {
        let mut stream = self.stream()?;
        let mut rows = Vec::with_capacity(stream.remaining_hint().unwrap_or(0));
        while let Some(row) = stream.next_arrival()? {
            rows.push(row);
        }
        Ok(rows)
    }
}

/// Inter-arrival structure of an [`OpenLoopProcess`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential inter-arrival gaps.
    Poisson {
        /// Mean gap between consecutive sessions, in virtual seconds.
        mean_interarrival_secs: f64,
    },
    /// Bursty arrivals: groups of `burst_size` sessions land together
    /// (1 ms apart, preserving strict arrival order), with exponential
    /// gaps between groups.
    Burst {
        /// Sessions per burst.
        burst_size: usize,
        /// Mean gap between bursts, in virtual seconds.
        mean_gap_secs: f64,
    },
}

/// Seeded open-loop arrival process over a population of simulated
/// tenants. Each draw picks a tenant, a pattern shape, a size, and a
/// kernel from a fixed heterogeneous mix; the arrival clock advances
/// according to [`ArrivalProcess`]. Same seed ⇒ byte-identical rows.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopProcess {
    /// Master seed of the generator's RNG stream.
    pub seed: u64,
    /// Number of sessions to emit.
    pub sessions: usize,
    /// Tenant population size (tenant ids are drawn from `0..tenants`).
    pub tenants: u64,
    /// Inter-arrival structure.
    pub process: ArrivalProcess,
}

impl OpenLoopProcess {
    /// A Poisson process with the given mean inter-arrival gap.
    pub fn poisson(seed: u64, sessions: usize, tenants: u64, mean_interarrival_secs: f64) -> Self {
        OpenLoopProcess {
            seed,
            sessions,
            tenants,
            process: ArrivalProcess::Poisson {
                mean_interarrival_secs,
            },
        }
    }

    /// A bursty process: `burst_size` sessions per burst, exponential gaps
    /// of mean `mean_gap_secs` between bursts.
    pub fn burst(
        seed: u64,
        sessions: usize,
        tenants: u64,
        burst_size: usize,
        mean_gap_secs: f64,
    ) -> Self {
        OpenLoopProcess {
            seed,
            sessions,
            tenants,
            process: ArrivalProcess::Burst {
                burst_size,
                mean_gap_secs,
            },
        }
    }
}

impl WorkloadGenerator for OpenLoopProcess {
    fn stream(&self) -> Result<Box<dyn ArrivalStream>, EntkError> {
        if self.sessions == 0 {
            return Err(EntkError::Usage(
                "workload needs at least one session".into(),
            ));
        }
        if self.tenants == 0 {
            return Err(EntkError::Usage(
                "workload needs at least one tenant".into(),
            ));
        }
        match self.process {
            ArrivalProcess::Poisson {
                mean_interarrival_secs,
            } => check_mean_gap("mean_interarrival_secs", mean_interarrival_secs)?,
            ArrivalProcess::Burst {
                burst_size,
                mean_gap_secs,
            } => {
                if burst_size == 0 {
                    return Err(EntkError::Usage("burst_size must be >= 1".into()));
                }
                check_mean_gap("mean_gap_secs", mean_gap_secs)?;
            }
        }
        Ok(Box::new(OpenLoopStream {
            spec: self.clone(),
            rng: SimRng::seed_from_u64(self.seed),
            // The clock is accumulated in whole microseconds so that CSV
            // round-trips ({:.6} seconds ⇒ parse) are exact.
            clock: SimTime::ZERO,
            next: 0,
        }))
    }
}

/// Refuses a mean gap between arrivals that the arrival clock cannot
/// mean: not above zero, not finite, or not below [`SimDuration::MAX`]
/// (about 1.8e13 s, the bound kernel durations have too), where a draw
/// would clamp to the last instant the clock can name.
pub(crate) fn check_mean_gap(key: &str, secs: f64) -> Result<(), EntkError> {
    let max = SimDuration::MAX.as_secs_f64();
    if secs > 0.0 && secs < max {
        return Ok(());
    }
    Err(EntkError::Usage(format!(
        "{key} must be finite, > 0 and below {max:.1e} s, got {secs:?}"
    )))
}

/// Lazy pull state of a validated [`OpenLoopProcess`]. The draw order per
/// session is fixed (gap, tenant, pattern, tasks, stages, kernel, cores),
/// so the stream is byte-identical to collecting the process eagerly.
struct OpenLoopStream {
    spec: OpenLoopProcess,
    rng: SimRng,
    clock: SimTime,
    next: usize,
}

impl ArrivalStream for OpenLoopStream {
    fn next_arrival(&mut self) -> Result<Option<SessionArrival>, EntkError> {
        if self.next >= self.spec.sessions {
            return Ok(None);
        }
        let i = self.next;
        self.next += 1;
        let gap_secs = match self.spec.process {
            ArrivalProcess::Poisson {
                mean_interarrival_secs,
            } => self.rng.exponential(mean_interarrival_secs),
            ArrivalProcess::Burst {
                burst_size,
                mean_gap_secs,
            } => {
                if i > 0 && i.is_multiple_of(burst_size) {
                    self.rng.exponential(mean_gap_secs)
                } else if i == 0 {
                    0.0
                } else {
                    0.001 // within-burst spacing keeps arrivals ordered
                }
            }
        };
        // A gap the clock cannot add is an error, not a clamp: a clamped
        // clock would stamp every later session at the same last instant.
        let max = SimDuration::MAX.as_secs_f64();
        self.clock = (gap_secs < max)
            .then(|| SimDuration::from_secs_f64(gap_secs).as_micros())
            .and_then(|gap| self.clock.as_micros().checked_add(gap))
            .map(SimTime::from_micros)
            .ok_or_else(|| {
                EntkError::Usage(format!(
                    "arrival clock overflows at session {i}: a gap of {gap_secs:e} s \
                     passes the last instant the clock can name"
                ))
            })?;
        let tenant = self.rng.index(self.spec.tenants as usize) as u64;
        // Heterogeneous mix: EoP-heavy, with SAL, EE and PST minorities
        // — matching the "ensembles dominate" framing of the paper.
        let pattern = match self.rng.index(10) {
            0..=3 => PatternKind::Eop,
            4..=6 => PatternKind::Sal,
            7..=8 => PatternKind::Ee,
            _ => PatternKind::Pst,
        };
        let tasks = 4 << self.rng.index(3); // 4, 8, or 16
        let stages = 1 + self.rng.index(3); // 1..=3
        let kernel = SUPPORTED_KERNELS[self.rng.index(SUPPORTED_KERNELS.len())].to_string();
        let cores = 16 << self.rng.index(3); // 16, 32, or 64
        let arrival = SessionArrival {
            arrival: self.clock,
            tenant,
            pattern,
            tasks,
            stages,
            kernel,
            cores,
        };
        arrival.validate()?;
        Ok(Some(arrival))
    }

    fn remaining_hint(&self) -> Option<usize> {
        Some(self.spec.sessions - self.next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `SUPPORTED_KERNELS`' promise, with kernels refusing every key and
    /// value they do not declare: what a row binds, its kernel takes.
    #[test]
    fn every_supported_kernel_takes_its_canonical_arguments() {
        let registry = entk_kernels::KernelRegistry::with_builtins();
        for kernel in SUPPORTED_KERNELS {
            for temperature in [None, Some(1.0), Some(2.4)] {
                let call = kernel_call(kernel, 7, temperature);
                let plugin = registry.get(&call.plugin).unwrap();
                plugin.validate(&call.args).unwrap();
            }
        }
    }

    #[test]
    fn poisson_process_replays_identically() {
        let gen = OpenLoopProcess::poisson(7, 100, 16, 30.0);
        assert_eq!(gen.generate().unwrap(), gen.generate().unwrap());
    }

    #[test]
    fn arrivals_are_time_ordered_and_valid() {
        for gen in [
            OpenLoopProcess::poisson(1, 200, 1000, 5.0),
            OpenLoopProcess::burst(2, 200, 1000, 8, 120.0),
        ] {
            let rows = gen.generate().unwrap();
            assert_eq!(rows.len(), 200);
            for w in rows.windows(2) {
                assert!(w[1].arrival >= w[0].arrival, "arrivals out of order");
            }
            for r in &rows {
                r.validate().unwrap();
                assert!(r.tenant < 1000);
            }
        }
    }

    #[test]
    fn seeds_change_the_stream() {
        let a = OpenLoopProcess::poisson(1, 50, 16, 30.0)
            .generate()
            .unwrap();
        let b = OpenLoopProcess::poisson(2, 50, 16, 30.0)
            .generate()
            .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn mix_covers_every_pattern_kind() {
        let rows = OpenLoopProcess::poisson(3, 400, 64, 10.0)
            .generate()
            .unwrap();
        for kind in PatternKind::ALL {
            assert!(
                rows.iter().any(|r| r.pattern == kind),
                "mix never produced {kind:?}"
            );
        }
    }

    #[test]
    fn degenerate_processes_are_rejected() {
        assert!(OpenLoopProcess::poisson(1, 0, 16, 30.0).generate().is_err());
        assert!(OpenLoopProcess::poisson(1, 10, 0, 30.0).generate().is_err());
        assert!(OpenLoopProcess::poisson(1, 10, 16, 0.0).generate().is_err());
        assert!(OpenLoopProcess::burst(1, 10, 16, 0, 30.0)
            .generate()
            .is_err());
        for gap in [
            f64::NAN,
            f64::INFINITY,
            1e300,
            SimDuration::MAX.as_secs_f64(),
        ] {
            assert!(OpenLoopProcess::poisson(1, 10, 16, gap).stream().is_err());
            assert!(OpenLoopProcess::burst(1, 10, 16, 2, gap).stream().is_err());
        }
    }

    /// A mean gap below the bound can still carry the clock past its last
    /// instant; the pull that would is an error, not a clamped arrival.
    #[test]
    fn an_overflowing_arrival_clock_is_an_error() {
        let mut stream = OpenLoopProcess::poisson(1, 10, 16, 1e13).stream().unwrap();
        let mut last = SimTime::ZERO;
        let err = loop {
            match stream.next_arrival() {
                Ok(Some(row)) => {
                    assert!(row.arrival >= last && row.arrival < SimTime::MAX);
                    last = row.arrival;
                }
                Ok(None) => panic!("ten gaps of ~1e13 s overflow a 1.8e13 s clock"),
                Err(e) => break e.to_string(),
            }
        };
        assert!(err.contains("arrival clock overflows"), "{err}");
    }

    #[test]
    fn every_arrival_builds_a_runnable_pattern() {
        let rows = OpenLoopProcess::poisson(5, 40, 8, 10.0).generate().unwrap();
        for r in &rows {
            let p = r.build_pattern().unwrap();
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn lazy_stream_matches_eager_generation() {
        for gen in [
            OpenLoopProcess::poisson(9, 120, 32, 12.0),
            OpenLoopProcess::burst(9, 120, 32, 8, 90.0),
        ] {
            let eager = gen.generate().unwrap();
            let mut stream = gen.stream().unwrap();
            let mut pulled = Vec::new();
            while let Some(row) = stream.next_arrival().unwrap() {
                assert_eq!(
                    stream.remaining_hint(),
                    Some(120 - pulled.len() - 1),
                    "hint tracks the pull cursor"
                );
                pulled.push(row);
            }
            assert_eq!(pulled, eager);
            assert_eq!(stream.next_arrival().unwrap(), None, "fused at EOF");
        }
    }

    #[test]
    fn unknown_kernel_is_a_usage_error() {
        let row = SessionArrival {
            arrival: SimTime::ZERO,
            tenant: 0,
            pattern: PatternKind::Eop,
            tasks: 2,
            stages: 1,
            kernel: "md.lammps".into(),
            cores: 16,
        };
        assert!(matches!(row.validate(), Err(EntkError::Usage(_))));
    }
}
