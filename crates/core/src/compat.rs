//! What only code built against an older API of this crate still reads:
//! the two-phase unit submission and the federated drive modes. Each item
//! keeps its path (`entk_core::UnitSpec`, `entk_core::DriveMode`, the
//! prelude); the module goes whole once no such code is left.

use crate::backend::ExecutionBackend;
use entk_kernels::KernelCall;
use entk_sim::SimRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One task's submission request in the two-phase protocol
/// ([`ExecutionBackend::prepare_batch`]).
#[derive(Debug, Clone)]
pub struct UnitSpec {
    /// Session-wide task uid.
    pub uid: u64,
    /// Stage label (binding policies key on it).
    pub stage: Arc<str>,
    /// The kernel binding to execute, shared with the session's task row.
    pub kernel: Arc<KernelCall>,
}

/// [`ExecutionBackend::submit_unit`] over a backend that implements only
/// the two-phase pair: one prepare of a one-unit batch, then its commit.
pub(crate) fn submit_legacy<B: ExecutionBackend + ?Sized>(
    backend: &mut B,
    uid: u64,
    stage: &Arc<str>,
    kernel: &Arc<KernelCall>,
    rng: &mut SimRng,
) -> Option<u64> {
    let spec = UnitSpec {
        uid,
        stage: Arc::clone(stage),
        kernel: Arc::clone(kernel),
    };
    let refused = backend.prepare_batch(&[spec], rng).pop().flatten();
    let key = backend.commit_batch().pop().map(|(_, key)| key);
    key.filter(|_| refused.is_none())
}

/// Accepted and ignored; kept so existing configurations compile. The
/// member windows of a federated session run one after the other on the
/// polling thread under either value (DESIGN.md §13).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DriveMode {
    /// Same drive as [`DriveMode::Parallel`].
    Serial,
    /// Same drive as [`DriveMode::Serial`] (the default).
    #[default]
    Parallel,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendStats, Poll, UnitOutcome};
    use entk_sim::{SimDuration, SimTime};
    use serde_json::json;

    /// A backend with only the two-phase pair: it refuses the kernel
    /// `"bad"`, and keys a committed unit by its uid plus 100.
    #[derive(Default)]
    struct Legacy {
        prepared: Vec<u64>,
        calls: Vec<&'static str>,
    }

    impl ExecutionBackend for Legacy {
        fn prepare_batch(&mut self, specs: &[UnitSpec], _: &mut SimRng) -> Vec<Option<String>> {
            self.calls.push("prepare");
            let refused = |s: &UnitSpec| (s.kernel.plugin == "bad").then(|| "bad".to_string());
            let accepted = specs.iter().filter(|s| refused(s).is_none());
            self.prepared = accepted.map(|s| s.uid).collect();
            specs.iter().map(refused).collect()
        }
        fn commit_batch(&mut self) -> Vec<(u64, u64)> {
            self.calls.push("commit");
            self.prepared
                .drain(..)
                .map(|uid| (uid, uid + 100))
                .collect()
        }
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn virtual_time(&self) -> bool {
            true
        }
        fn begin_session(&mut self, _: SimDuration) {}
        fn allocation_ready(&self) -> bool {
            true
        }
        fn capacity_lost(&self) -> bool {
            false
        }
        fn pilots_terminal(&self) -> bool {
            true
        }
        fn poll(&mut self) -> Poll {
            Poll::Drained
        }
        fn arm_timeout(&mut self, _: u64, _: SimDuration) {}
        fn cancel_running_unit(&mut self, _: u64) -> bool {
            false
        }
        fn complete_unit(&mut self, _: u64, _: &KernelCall, _: &mut SimRng) -> UnitOutcome {
            unreachable!("no unit runs")
        }
        fn schedule_batch(&mut self, _: SimDuration, _: u64, _: Vec<u64>) {}
        fn schedule_deferred_failure(&mut self, _: u64) {}
        fn begin_shutdown(&mut self) {}
        fn schedule_clock_mark(&mut self, _: SimDuration) {}
        fn stats(&self) -> BackendStats {
            unreachable!("no report")
        }
    }

    /// Each unit of a batch on a legacy backend is one prepare and its
    /// commit; a refused one gets no key, and the commit still follows.
    #[test]
    fn a_legacy_backend_submits_one_prepare_and_commit_per_unit() {
        let mut backend = Legacy::default();
        let mut rng = SimRng::seed_from_u64(1);
        let stage: Arc<str> = Arc::from("s");
        let kernel = |plugin| Arc::new(KernelCall::new(plugin, json!({})));
        backend.open_batch(2);
        let good = backend.submit_unit(7, &stage, &kernel("misc.sleep"), &mut rng);
        let bad = backend.submit_unit(8, &stage, &kernel("bad"), &mut rng);
        backend.seal_batch();
        assert_eq!((good, bad), (Some(107), None));
        assert_eq!(backend.calls, ["prepare", "commit", "prepare", "commit"]);
    }
}
