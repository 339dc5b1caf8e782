//! Priority event queue with deterministic FIFO tie-breaking and cancellation.
//!
//! [`EventQueue`] is a `BinaryHeap` keyed by `(time, id)`: push and pop are
//! O(log n) and reading the earliest timestamp is O(1). The session drive
//! asks [`crate::Engine::next_time`] before every pop, so half of all queue
//! calls are peeks; DESIGN.md §11 has the measurements behind the choice.
//!
//! Events scheduled for the same instant pop in insertion order (ids are
//! dense sequence numbers), which makes simulation runs bit-for-bit
//! reproducible. Cancellation is lazy: a cancelled entry stays in the heap
//! and is dropped when it reaches the top. Liveness is a bitset indexed by
//! the dense id, so the hot paths never hash.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Identifier of a scheduled event; used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    /// Raw sequence number, unique per queue.
    pub fn raw(self) -> u64 {
        self.0
    }
}

struct Entry<E> {
    time: SimTime,
    id: EventId,
    payload: E,
}

// BinaryHeap is a max-heap: invert ordering so the earliest time pops first,
// breaking ties by insertion order (lower id first) for determinism.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.id.cmp(&self.id))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.id == other.id
    }
}
impl<E> Eq for Entry<E> {}

/// Dense-id liveness bitset: bit `i` is set while event `i` is scheduled
/// and neither popped nor cancelled.
#[derive(Default)]
struct PendingBits(Vec<u64>);

impl PendingBits {
    fn set(&mut self, id: EventId) {
        let word = id.0 as usize / 64;
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        self.0[word] |= 1 << (id.0 % 64);
    }

    fn is_set(&self, id: EventId) -> bool {
        let (word, bit) = (id.0 as usize / 64, id.0 % 64);
        self.0.get(word).is_some_and(|w| w & (1 << bit) != 0)
    }

    /// Clears the bit; returns whether it was set.
    fn clear(&mut self, id: EventId) -> bool {
        let (word, bit) = (id.0 as usize / 64, id.0 % 64);
        match self.0.get_mut(word) {
            Some(w) if *w & (1 << bit) != 0 => {
                *w &= !(1 << bit);
                true
            }
            _ => false,
        }
    }
}

/// A time-ordered queue of events on a binary heap.
///
/// Events scheduled for the same instant pop in insertion order: the heap
/// key is `(time, id)` and ids are handed out in push order. Cancellation
/// is lazy: a cancelled entry stays in the heap and is dropped when it
/// reaches the top.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    pending: PendingBits,
    /// Number of live (scheduled, unpopped, uncancelled) events.
    live: usize,
    /// Cancelled entries still sitting in the heap awaiting lazy removal.
    lazy_cancelled: usize,
    next_id: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            pending: PendingBits::default(),
            live: 0,
            lazy_cancelled: 0,
            next_id: 0,
        }
    }

    /// Schedules `payload` at absolute time `time`, returning a cancellable id.
    pub fn push(&mut self, time: SimTime, payload: E) -> EventId {
        let id = EventId(self.next_id);
        self.next_id += 1;
        self.pending.set(id);
        self.live += 1;
        self.heap.push(Entry { time, id, payload });
        id
    }

    /// Cancels a previously scheduled event. Cancelling an already-popped,
    /// already-cancelled, or unknown id is a no-op. Returns whether the id
    /// was newly cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.0 >= self.next_id {
            return false;
        }
        if self.pending.clear(id) {
            self.live -= 1;
            self.lazy_cancelled += 1;
            true
        } else {
            false
        }
    }

    /// Pops the earliest non-cancelled event.
    pub fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        self.pop_at_or_before(SimTime::MAX)
    }

    /// Time of the earliest pending (non-cancelled) event without popping
    /// it: the heap's top, once cancelled entries are dropped off it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(entry) = self.heap.peek() {
            if self.lazy_cancelled == 0 || self.pending.is_set(entry.id) {
                return Some(entry.time);
            }
            self.heap.pop();
            self.lazy_cancelled -= 1;
        }
        None
    }

    /// Pops the earliest non-cancelled event only if it is scheduled at or
    /// before `horizon`.
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, EventId, E)> {
        if self.peek_time()? > horizon {
            return None;
        }
        let entry = self.heap.pop().expect("peek_time found a live top");
        self.pending.clear(entry.id);
        self.live -= 1;
        Some((entry.time, entry.id, entry.payload))
    }

    /// Number of live (scheduled, unpopped, uncancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3), "c");
        q.push(t(1), "a");
        q.push(t(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for name in ["first", "second", "third"] {
            q.push(t(7), name);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn cancelled_events_are_skipped() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 1);
        q.push(t(2), 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel is a no-op");
        assert_eq!(q.pop().map(|(_, _, p)| p), Some(2));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_unknown_id_is_noop() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(42)));
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(5), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(5)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..5).map(|i| q.push(t(i), i)).collect();
        q.cancel(ids[1]);
        q.cancel(ids[3]);
        assert_eq!(q.len(), 3);
    }

    /// Regression: cancelling an id that was already popped used to record
    /// a phantom cancellation, making `len()` underflow (debug panic) and
    /// report wrong counts in release builds.
    #[test]
    fn cancel_after_pop_keeps_len_consistent() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        let _b = q.push(t(2), "b");
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("a"));
        assert!(!q.cancel(a), "cancelling a popped id is a no-op");
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("b"));
        assert!(q.is_empty());
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn pop_at_or_before_respects_horizon() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(5), "b");
        q.push(t(3), "c");
        q.cancel(a);
        assert!(q.pop_at_or_before(SimTime::ZERO).is_none());
        assert_eq!(q.pop_at_or_before(t(3)).map(|(_, _, p)| p), Some("c"));
        assert!(q.pop_at_or_before(t(4)).is_none(), "b is past the horizon");
        assert_eq!(q.pop_at_or_before(t(5)).map(|(_, _, p)| p), Some("b"));
        assert!(q.is_empty());
    }

    /// A push earlier than a head that was already peeked pops first.
    #[test]
    fn push_before_a_peeked_head_pops_first() {
        let mut q = EventQueue::new();
        q.push(t(100), "late");
        assert_eq!(q.peek_time(), Some(t(100)));
        q.push(t(1), "early");
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("early"));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("late"));
    }

    /// Tie storm: 10^4 events at one instant, a third of them cancelled
    /// while the pushes are still coming, pop in insertion order.
    #[test]
    fn tie_storm_pops_in_insertion_order() {
        const N: usize = 10_000;
        let mut q = EventQueue::new();
        let mut ids = Vec::with_capacity(N);
        let mut live = vec![true; N];
        for i in 0..N {
            ids.push(q.push(t(7), i));
            if i % 3 == 0 {
                // Reaches back into the storm: event i/2 is still pending.
                assert!(q.cancel(ids[i / 2]));
                live[i / 2] = false;
            }
        }
        let expected: Vec<usize> = (0..N).filter(|&i| live[i]).collect();
        assert_eq!(q.len(), expected.len());
        let got: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(got, expected);
    }

    /// The batch-job walltime sentinel pattern of `cluster.rs`: a far-future
    /// event cancelled when the job ends early never surfaces and is never
    /// counted, even while it is the only entry left in the heap.
    #[test]
    fn cancelled_far_future_sentinel_never_surfaces() {
        let mut q = EventQueue::new();
        let sentinel = q.push(SimTime::from_micros(u64::MAX / 2), "walltime");
        q.push(t(10), "done");
        assert!(q.cancel(sentinel));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("done"));
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        assert!(q.pop_at_or_before(SimTime::MAX).is_none());
        q.push(t(20), "next");
        assert_eq!(q.peek_time(), Some(t(20)));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("next"));
        assert!(q.pop().is_none());
    }

    proptest! {
        /// Popped events are always in non-decreasing time order, and every
        /// non-cancelled event appears exactly once.
        #[test]
        fn prop_queue_ordering(times in proptest::collection::vec(0u64..1000, 1..100),
                               cancel_mask in proptest::collection::vec(any::<bool>(), 1..100)) {
            let mut q = EventQueue::new();
            let mut expected = Vec::new();
            for (i, &secs) in times.iter().enumerate() {
                let id = q.push(SimTime::from_micros(secs), i);
                let cancel = cancel_mask.get(i).copied().unwrap_or(false);
                if cancel {
                    q.cancel(id);
                } else {
                    expected.push(i);
                }
            }
            let mut last = SimTime::ZERO;
            let mut seen = Vec::new();
            while let Some((time, _, payload)) = q.pop() {
                prop_assert!(time >= last);
                last = time + SimDuration::ZERO;
                seen.push(payload);
            }
            seen.sort_unstable();
            expected.sort_unstable();
            prop_assert_eq!(seen, expected);
        }
    }
}
