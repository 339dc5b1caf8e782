//! What only code built against an older API of this crate still calls.
//! Each item keeps its path; the module goes once no such caller is left.

use crate::sim_runtime::SimRuntime;

impl SimRuntime {
    /// Number of units not yet in a terminal state (O(1)).
    pub fn live_units(&self) -> usize {
        self.live
    }
}
