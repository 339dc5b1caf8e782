//! Deterministic fault injection for the simulated cluster.
//!
//! A [`FaultInjector`] is owned by a [`Cluster`](crate::Cluster) and drives
//! three failure modes, all drawn from its own seeded [`SimRng`] stream so a
//! fault scenario replays bit-identically and enabling an all-zero profile
//! leaves every other stream untouched:
//!
//! - **node crashes**: scheduled deterministically (`crash_schedule`) or on a
//!   Poisson process (`node_mtbf_secs`), with an optional recovery after a
//!   sampled downtime. A crash kills the cores' batch-job slices: affected
//!   jobs shrink, or die when nothing remains.
//! - **per-task failures**: each unit execution fails with probability
//!   `task_failure_rate` (consulted by the pilot runtime).
//! - **stragglers**: each unit execution is slowed by a sampled multiplier
//!   with probability `straggler_rate` (paper §V motivates kill-replace of
//!   exactly these).

use entk_sim::{Dist, SimDuration, SimRng};

/// Configuration of a fault-injection scenario.
///
/// The default profile injects nothing; every rate is opt-in so that a
/// profile with all zeros behaves byte-identically to no profile at all
/// (no RNG draws, no scheduled events).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Seed of the injector's private RNG stream.
    pub seed: u64,
    /// Deterministic crash plan: `(seconds after enable, node index)`.
    pub crash_schedule: Vec<(f64, usize)>,
    /// Mean time between random node crashes in seconds; `0` disables the
    /// Poisson crash process.
    pub node_mtbf_secs: f64,
    /// Downtime before a crashed node rejoins the free pool. A sample of
    /// zero leaves the node down forever.
    pub node_downtime: Dist,
    /// Probability that any single unit execution fails.
    pub task_failure_rate: f64,
    /// Probability that a unit execution straggles.
    pub straggler_rate: f64,
    /// Execution-time multiplier applied to stragglers (clamped to >= 1).
    pub straggler_slowdown: Dist,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            seed: 0xFA_17,
            crash_schedule: Vec::new(),
            node_mtbf_secs: 0.0,
            node_downtime: Dist::Constant(300.0),
            task_failure_rate: 0.0,
            straggler_rate: 0.0,
            straggler_slowdown: Dist::Constant(4.0),
        }
    }
}

impl FaultProfile {
    /// Profile seeded for a specific replayable scenario.
    pub fn seeded(seed: u64) -> Self {
        FaultProfile {
            seed,
            ..Default::default()
        }
    }

    /// Sets the per-execution task failure probability (builder style).
    pub fn with_task_failures(mut self, rate: f64) -> Self {
        self.task_failure_rate = rate;
        self
    }

    /// Adds one deterministic node crash (builder style).
    pub fn with_crash_at(mut self, secs: f64, node: usize) -> Self {
        self.crash_schedule.push((secs, node));
        self
    }

    /// Enables Poisson node crashes with the given MTBF and downtime
    /// (builder style).
    pub fn with_node_crashes(mut self, mtbf_secs: f64, downtime: Dist) -> Self {
        self.node_mtbf_secs = mtbf_secs;
        self.node_downtime = downtime;
        self
    }

    /// Enables straggler injection (builder style).
    pub fn with_stragglers(mut self, rate: f64, slowdown: Dist) -> Self {
        self.straggler_rate = rate;
        self.straggler_slowdown = slowdown;
        self
    }
}

/// Runtime state of an enabled fault scenario: the profile and its RNG
/// stream. Which nodes are down is the cluster's allocation map's to know.
///
/// Every draw is guarded by its rate, so a zero-rate mode consumes nothing
/// from the stream — the determinism guarantee the property tests enforce.
pub struct FaultInjector {
    profile: FaultProfile,
    rng: SimRng,
}

impl FaultInjector {
    /// Creates an injector with its own RNG stream.
    pub fn new(profile: FaultProfile) -> Self {
        let rng = SimRng::seed_from_u64(profile.seed);
        FaultInjector { profile, rng }
    }

    /// Draws whether the current unit execution fails.
    pub fn unit_fails(&mut self) -> bool {
        self.profile.task_failure_rate > 0.0 && self.rng.chance(self.profile.task_failure_rate)
    }

    /// Draws the execution-time multiplier for the current unit: `1.0` for
    /// non-stragglers, the sampled slowdown (>= 1) otherwise.
    pub fn straggler_factor(&mut self) -> f64 {
        if self.profile.straggler_rate > 0.0 && self.rng.chance(self.profile.straggler_rate) {
            self.profile
                .straggler_slowdown
                .sample(&mut self.rng)
                .max(1.0)
        } else {
            1.0
        }
    }

    /// True when nodes crash at random (the profile has a node MTBF).
    pub fn crashes_at_random(&self) -> bool {
        self.profile.node_mtbf_secs > 0.0
    }

    /// Samples the gap to the next random crash; `None` when the Poisson
    /// process is disabled.
    pub fn next_crash_gap(&mut self) -> Option<SimDuration> {
        if self.crashes_at_random() {
            let gap = self.rng.exponential(self.profile.node_mtbf_secs);
            Some(SimDuration::from_secs_f64(gap.max(1e-3)))
        } else {
            None
        }
    }

    /// Samples how long a crashed node stays down; `None` means forever.
    pub fn sample_downtime(&mut self) -> Option<SimDuration> {
        let secs = self.profile.node_downtime.sample(&mut self.rng);
        (secs > 0.0).then(|| SimDuration::from_secs_f64(secs))
    }

    /// Picks one of the `up` nodes to crash; `None`, with no draw, when
    /// every node is down.
    pub fn pick_victim(&mut self, up: &[usize]) -> Option<usize> {
        (!up.is_empty()).then(|| up[self.rng.index(up.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_profile_makes_no_draws() {
        // Two injectors from the same seed: one consulted, one not. If the
        // consulted one drew anything on zero-rate paths, their subsequent
        // streams would diverge.
        let mut a = FaultInjector::new(FaultProfile::seeded(9));
        let mut b = FaultInjector::new(FaultProfile::seeded(9));
        for _ in 0..50 {
            assert!(!a.unit_fails());
            assert_eq!(a.straggler_factor(), 1.0);
            assert_eq!(a.next_crash_gap(), None);
        }
        let xa: Vec<bool> = (0..16).map(|_| a.rng.chance(0.5)).collect();
        let xb: Vec<bool> = (0..16).map(|_| b.rng.chance(0.5)).collect();
        assert_eq!(xa, xb);
    }

    #[test]
    fn same_seed_replays_identically() {
        let profile = FaultProfile::seeded(77)
            .with_task_failures(0.3)
            .with_stragglers(0.5, Dist::Uniform { lo: 2.0, hi: 8.0 })
            .with_node_crashes(100.0, Dist::Constant(60.0));
        let draw = |mut inj: FaultInjector| {
            let mut log = Vec::new();
            for _ in 0..40 {
                log.push((
                    inj.unit_fails(),
                    inj.straggler_factor().to_bits(),
                    inj.next_crash_gap(),
                ));
            }
            log
        };
        let a = draw(FaultInjector::new(profile.clone()));
        let b = draw(FaultInjector::new(profile));
        assert_eq!(a, b);
    }

    #[test]
    fn straggler_factor_is_at_least_one() {
        let mut inj =
            FaultInjector::new(FaultProfile::seeded(5).with_stragglers(1.0, Dist::Constant(0.25)));
        for _ in 0..20 {
            assert!(inj.straggler_factor() >= 1.0);
        }
    }

    #[test]
    fn victim_picks_only_up_nodes() {
        let mut inj = FaultInjector::new(
            FaultProfile::seeded(3).with_node_crashes(10.0, Dist::Constant(0.0)),
        );
        for _ in 0..30 {
            let v = inj.pick_victim(&[1, 3]).unwrap();
            assert!(v == 1 || v == 3, "picked down node {v}");
        }
        assert_eq!(inj.pick_victim(&[]), None);
        assert_eq!(inj.pick_victim(&[2]), Some(2));
    }

    #[test]
    fn zero_downtime_means_permanent() {
        let mut inj = FaultInjector::new(
            FaultProfile::seeded(1).with_node_crashes(10.0, Dist::Constant(0.0)),
        );
        assert_eq!(inj.sample_downtime(), None);
        let mut inj = FaultInjector::new(
            FaultProfile::seeded(1).with_node_crashes(10.0, Dist::Constant(120.0)),
        );
        assert_eq!(inj.sample_downtime(), Some(SimDuration::from_secs(120)));
    }

    #[test]
    fn profile_builders_compose() {
        let p = FaultProfile::seeded(42)
            .with_task_failures(0.1)
            .with_crash_at(30.0, 2)
            .with_crash_at(60.0, 3);
        assert_eq!(p.seed, 42);
        assert_eq!(p.task_failure_rate, 0.1);
        assert_eq!(p.crash_schedule, vec![(30.0, 2), (60.0, 3)]);
    }
}
