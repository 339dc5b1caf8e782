//! Per-entity timestamp profiles, the raw material of the paper's
//! overhead decomposition (Fig. 3).

use crate::states::{PilotId, UnitId};
use entk_sim::{SimDuration, SimTime, Summary};
use serde::{Deserialize, Serialize};

/// Timestamps collected for one compute unit.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct UnitProfile {
    /// Accepted by the unit manager.
    pub submitted: Option<SimTime>,
    /// Assigned to a pilot.
    pub scheduled: Option<SimTime>,
    /// Input staging finished.
    pub stagein_done: Option<SimTime>,
    /// Execution began on pilot cores.
    pub exec_start: Option<SimTime>,
    /// Execution finished.
    pub exec_stop: Option<SimTime>,
    /// Reached a terminal state.
    pub done: Option<SimTime>,
}

impl UnitProfile {
    /// Pure execution time, if the unit executed.
    pub fn exec_duration(&self) -> Option<SimDuration> {
        Some(self.exec_stop?.saturating_since(self.exec_start?))
    }

    /// Time from submission to execution start (runtime-side latency).
    pub fn dispatch_latency(&self) -> Option<SimDuration> {
        Some(self.exec_start?.saturating_since(self.submitted?))
    }
}

/// Timestamps collected for one pilot.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct PilotProfile {
    /// Described/accepted by the pilot manager.
    pub submitted: Option<SimTime>,
    /// Container job handed to SAGA.
    pub launched: Option<SimTime>,
    /// Agent became active.
    pub active: Option<SimTime>,
    /// Reached a terminal state.
    pub finished: Option<SimTime>,
}

/// Collects profiles for all pilots and units of a session.
///
/// Ids are dense (assigned sequentially by the runtime), so profiles live
/// in slab vectors indexed by the raw id — no hashing on the per-unit hot
/// path, and iteration is in id order, which keeps every aggregate below
/// deterministic.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Profiler {
    units: Vec<Option<UnitProfile>>,
    pilots: Vec<Option<PilotProfile>>,
}

impl Profiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes room for the profiles of `additional` more units (a submitted
    /// batch), so the table never doubles past the units it will hold.
    pub fn reserve_units(&mut self, additional: usize) {
        entk_sim::reserve_batch(&mut self.units, additional);
    }

    /// Mutable profile for a unit (created on first touch).
    pub fn unit_mut(&mut self, id: UnitId) -> &mut UnitProfile {
        let idx = id.0 as usize;
        if idx >= self.units.len() {
            self.units.resize(idx + 1, None);
        }
        self.units[idx].get_or_insert_with(UnitProfile::default)
    }

    /// Mutable profile for a pilot (created on first touch).
    pub fn pilot_mut(&mut self, id: PilotId) -> &mut PilotProfile {
        let idx = id.0 as usize;
        if idx >= self.pilots.len() {
            self.pilots.resize(idx + 1, None);
        }
        self.pilots[idx].get_or_insert_with(PilotProfile::default)
    }

    /// Read access to a unit profile.
    pub fn unit(&self, id: UnitId) -> Option<&UnitProfile> {
        self.units.get(id.0 as usize)?.as_ref()
    }

    /// Read access to a pilot profile.
    pub fn pilot(&self, id: PilotId) -> Option<&PilotProfile> {
        self.pilots.get(id.0 as usize)?.as_ref()
    }

    /// Number of profiled units.
    pub fn unit_count(&self) -> usize {
        self.units.iter().flatten().count()
    }

    /// Iterator over present unit profiles in id order.
    fn unit_profiles(&self) -> impl Iterator<Item = &UnitProfile> {
        self.units.iter().flatten()
    }

    /// Span from the first execution start to the last execution stop — the
    /// application-execution component of TTC.
    pub fn exec_span(&self) -> Option<SimDuration> {
        let start = self.unit_profiles().filter_map(|u| u.exec_start).min()?;
        let stop = self.unit_profiles().filter_map(|u| u.exec_stop).max()?;
        Some(stop.saturating_since(start))
    }

    /// Summary of per-unit execution durations in seconds.
    pub fn exec_durations(&self) -> Summary {
        let mut s = Summary::new();
        for u in self.unit_profiles() {
            if let Some(d) = u.exec_duration() {
                s.add_duration(d);
            }
        }
        s
    }

    /// Summary of per-unit dispatch latencies in seconds.
    pub fn dispatch_latencies(&self) -> Summary {
        let mut s = Summary::new();
        for u in self.unit_profiles() {
            if let Some(d) = u.dispatch_latency() {
                s.add_duration(d);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_profile_durations() {
        let mut p = Profiler::new();
        let u = UnitId(0);
        p.unit_mut(u).submitted = Some(SimTime::from_secs(1));
        p.unit_mut(u).exec_start = Some(SimTime::from_secs(4));
        p.unit_mut(u).exec_stop = Some(SimTime::from_secs(10));
        let prof = p.unit(u).unwrap();
        assert_eq!(prof.exec_duration(), Some(SimDuration::from_secs(6)));
        assert_eq!(prof.dispatch_latency(), Some(SimDuration::from_secs(3)));
    }

    #[test]
    fn exec_span_covers_all_units() {
        let mut p = Profiler::new();
        for (i, (start, stop)) in [(2u64, 5u64), (3, 9), (1, 4)].iter().enumerate() {
            let u = p.unit_mut(UnitId(i as u64));
            u.exec_start = Some(SimTime::from_secs(*start));
            u.exec_stop = Some(SimTime::from_secs(*stop));
        }
        assert_eq!(p.exec_span(), Some(SimDuration::from_secs(8)));
    }

    #[test]
    fn missing_timestamps_yield_none() {
        let mut p = Profiler::new();
        p.unit_mut(UnitId(0)).submitted = Some(SimTime::ZERO);
        assert!(p.unit(UnitId(0)).unwrap().exec_duration().is_none());
        assert!(p.exec_span().is_none());
        assert_eq!(p.exec_durations().count(), 0);
    }
}

#[cfg(test)]
mod summary_tests {
    use super::*;

    #[test]
    fn dispatch_and_exec_summaries_aggregate_all_units() {
        let mut p = Profiler::new();
        for i in 0..4u64 {
            let u = p.unit_mut(UnitId(i));
            u.submitted = Some(SimTime::from_secs(0));
            u.exec_start = Some(SimTime::from_secs(1 + i));
            u.exec_stop = Some(SimTime::from_secs(3 + i));
        }
        assert_eq!(p.unit_count(), 4);
        assert_eq!(p.exec_durations().count(), 4);
        assert_eq!(p.exec_durations().mean(), 2.0);
        assert_eq!(p.dispatch_latencies().mean(), 2.5); // (1+2+3+4)/4
    }

    #[test]
    fn pilot_profile_records_lifecycle() {
        let mut p = Profiler::new();
        let id = PilotId(0);
        p.pilot_mut(id).submitted = Some(SimTime::ZERO);
        p.pilot_mut(id).launched = Some(SimTime::from_secs(2));
        p.pilot_mut(id).active = Some(SimTime::from_secs(50));
        let prof = p.pilot(id).unwrap();
        assert_eq!(
            prof.active
                .unwrap()
                .saturating_since(prof.launched.unwrap()),
            entk_sim::SimDuration::from_secs(48)
        );
    }
}
