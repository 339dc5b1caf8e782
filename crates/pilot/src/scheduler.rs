//! Unit-manager scheduling policies: placing compute units onto pilots.
//!
//! This is application-level scheduling — the defining capability of
//! pilot-job systems (paper §III-C2). Policies here are ablation points:
//! the paper's experiments use a single pilot, where all policies coincide,
//! but multi-pilot execution strategies (paper §V, Ref.\[23\]) differ.

use crate::states::{PilotId, UnitId};

/// Scheduler-facing view of a waiting unit.
#[derive(Debug, Clone, Copy)]
pub struct UnitView {
    /// The unit.
    pub id: UnitId,
    /// Cores it needs.
    pub cores: usize,
}

impl UnitView {
    /// Core count marking a tombstoned (already placed, cancelled, or
    /// failed) entry in the runtime's persistent waiting list. No pilot
    /// can ever satisfy it, so a policy that ignores the marker still
    /// cannot place a tombstone — checking it explicitly just skips the
    /// wasted capacity probe.
    pub const TOMBSTONE_CORES: usize = usize::MAX;

    /// Whether this entry is a tombstone and must not be placed.
    pub fn is_tombstone(&self) -> bool {
        self.cores == Self::TOMBSTONE_CORES
    }
}

/// Scheduler-facing view of a pilot.
#[derive(Debug, Clone, Copy)]
pub struct PilotView {
    /// The pilot.
    pub id: PilotId,
    /// Whether its agent is active (can run units now).
    pub active: bool,
    /// Free cores on the pilot.
    pub free_cores: usize,
    /// Total cores on the pilot.
    pub total_cores: usize,
}

/// A unit-to-pilot placement decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The unit to place.
    pub unit: UnitId,
    /// The pilot it goes to.
    pub pilot: PilotId,
}

/// A unit-manager scheduling policy.
///
/// `assign` must not oversubscribe any pilot and must only use active
/// pilots' free cores; units it leaves unplaced wait for the next pass.
///
/// Contract details the incremental runtime relies on:
///
/// - `waiting` may contain [`UnitView::is_tombstone`] entries; they must
///   never be placed (their core demand is `usize::MAX`, so an oblivious
///   policy cannot place them anyway).
/// - Placement must be *work-conserving*: if `assign` is called again with
///   the same pilots minus the capacity it just consumed and the same
///   waiting units minus the ones it just placed, it must place nothing.
///   All greedy policies have this property; it lets the runtime skip
///   scheduling passes when neither capacity nor the waiting set changed.
pub trait UnitScheduler: Send {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Chooses placements for waiting units given current pilot capacity.
    fn assign(&mut self, waiting: &[UnitView], pilots: &[PilotView]) -> Vec<Placement>;
}

/// First-fit ("continuous") scheduling: each unit goes to the first active
/// pilot with enough free cores. RADICAL-Pilot's default.
#[derive(Debug, Default)]
pub struct FirstFitScheduler;

impl UnitScheduler for FirstFitScheduler {
    fn name(&self) -> &'static str {
        "first-fit"
    }

    fn assign(&mut self, waiting: &[UnitView], pilots: &[PilotView]) -> Vec<Placement> {
        let mut free: Vec<(PilotId, usize)> = pilots
            .iter()
            .filter(|p| p.active)
            .map(|p| (p.id, p.free_cores))
            .collect();
        // Total free cores across active pilots: once exhausted no further
        // unit (every unit needs >= 1 core) can place, so stop scanning.
        let mut avail: usize = free.iter().map(|(_, f)| *f).sum();
        let mut placements = Vec::new();
        if avail == 0 {
            return placements;
        }
        for unit in waiting {
            if unit.is_tombstone() {
                continue;
            }
            if let Some(slot) = free.iter_mut().find(|(_, f)| *f >= unit.cores) {
                slot.1 -= unit.cores;
                avail -= unit.cores;
                placements.push(Placement {
                    unit: unit.id,
                    pilot: slot.0,
                });
                if avail == 0 {
                    break;
                }
            }
        }
        placements
    }
}

/// Largest-first scheduling: sorts waiting units by core count descending
/// before first-fit, reducing fragmentation for mixed MPI workloads.
#[derive(Debug, Default)]
pub struct LargestFirstScheduler;

impl UnitScheduler for LargestFirstScheduler {
    fn name(&self) -> &'static str {
        "largest-first"
    }

    fn assign(&mut self, waiting: &[UnitView], pilots: &[PilotView]) -> Vec<Placement> {
        let mut sorted: Vec<UnitView> = waiting
            .iter()
            .filter(|u| !u.is_tombstone())
            .copied()
            .collect();
        sorted.sort_by(|a, b| b.cores.cmp(&a.cores).then(a.id.cmp(&b.id)));
        FirstFitScheduler.assign(&sorted, pilots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uv(id: u64, cores: usize) -> UnitView {
        UnitView {
            id: UnitId(id),
            cores,
        }
    }

    fn pv(id: u64, active: bool, free: usize) -> PilotView {
        PilotView {
            id: PilotId(id),
            active,
            free_cores: free,
            total_cores: free,
        }
    }

    /// Checks the no-oversubscription contract for any policy.
    fn check_contract(policy: &mut dyn UnitScheduler, waiting: &[UnitView], pilots: &[PilotView]) {
        let placements = policy.assign(waiting, pilots);
        for p in &pilots.to_vec() {
            let used: usize = placements
                .iter()
                .filter(|pl| pl.pilot == p.id)
                .map(|pl| waiting.iter().find(|u| u.id == pl.unit).unwrap().cores)
                .sum();
            assert!(used <= p.free_cores, "{} oversubscribed", policy.name());
            if !p.active {
                assert_eq!(used, 0, "{} used inactive pilot", policy.name());
            }
        }
        let mut ids: Vec<_> = placements.iter().map(|p| p.unit).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), placements.len(), "unit placed twice");
    }

    #[test]
    fn first_fit_packs_first_pilot() {
        let placements =
            FirstFitScheduler.assign(&[uv(0, 2), uv(1, 2)], &[pv(0, true, 4), pv(1, true, 4)]);
        assert!(placements.iter().all(|p| p.pilot == PilotId(0)));
    }

    #[test]
    fn inactive_pilots_receive_nothing() {
        for policy in [
            &mut FirstFitScheduler as &mut dyn UnitScheduler,
            &mut LargestFirstScheduler,
        ] {
            let placements = policy.assign(&[uv(0, 1)], &[pv(0, false, 8)]);
            assert!(placements.is_empty(), "{}", policy.name());
        }
    }

    #[test]
    fn big_unit_waits_small_unit_proceeds() {
        let placements = FirstFitScheduler.assign(&[uv(0, 8), uv(1, 1)], &[pv(0, true, 4)]);
        assert_eq!(
            placements,
            vec![Placement {
                unit: UnitId(1),
                pilot: PilotId(0)
            }]
        );
    }

    #[test]
    fn largest_first_reduces_fragmentation() {
        // 6 free cores; units of 4, 3, 2: largest-first places 4 then 2;
        // plain first-fit in id order (3, 4, 2) would place 3 and 2 only.
        let waiting = [uv(0, 3), uv(1, 4), uv(2, 2)];
        let placed = LargestFirstScheduler.assign(&waiting, &[pv(0, true, 6)]);
        let total: usize = placed
            .iter()
            .map(|p| waiting.iter().find(|u| u.id == p.unit).unwrap().cores)
            .sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn tombstones_are_never_placed() {
        let tomb = UnitView {
            id: UnitId(7),
            cores: UnitView::TOMBSTONE_CORES,
        };
        let waiting = [tomb, uv(1, 2), tomb, uv(3, 1)];
        for policy in [
            &mut FirstFitScheduler as &mut dyn UnitScheduler,
            &mut LargestFirstScheduler,
        ] {
            let placements = policy.assign(&waiting, &[pv(0, true, 8)]);
            assert_eq!(placements.len(), 2, "{}", policy.name());
            assert!(
                placements.iter().all(|p| p.unit != UnitId(7)),
                "{} placed a tombstone",
                policy.name()
            );
        }
    }

    #[test]
    fn early_out_stops_at_exhausted_capacity() {
        // 3 free cores, four 1-core units: exactly the first three place.
        let waiting: Vec<_> = (0..4).map(|i| uv(i, 1)).collect();
        for policy in [
            &mut FirstFitScheduler as &mut dyn UnitScheduler,
            &mut LargestFirstScheduler,
        ] {
            let placements = policy.assign(&waiting, &[pv(0, true, 3)]);
            let ids: Vec<_> = placements.iter().map(|p| p.unit.0).collect();
            assert_eq!(ids, vec![0, 1, 2], "{}", policy.name());
        }
    }

    #[test]
    fn all_policies_satisfy_contract() {
        let waiting: Vec<_> = (0..12).map(|i| uv(i, 1 + (i as usize % 5))).collect();
        let pilots = [pv(0, true, 7), pv(1, false, 100), pv(2, true, 3)];
        check_contract(&mut FirstFitScheduler, &waiting, &pilots);
        check_contract(&mut LargestFirstScheduler, &waiting, &pilots);
    }
}
