//! The discrete-event engine: a virtual clock driving an event queue.
//!
//! The engine is generic over the event type `E`. Layered simulations (the
//! cluster, pilot-runtime, and toolkit stack) define one top-level event enum
//! with `From` conversions from each layer's private event type; handlers
//! receive a [`Context`] through which they schedule follow-up events.

use crate::event::{EventId, EventQueue};
use crate::time::{SimDuration, SimTime};

/// Handler-side view of the engine: current time plus scheduling operations.
pub struct Context<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Context<'a, E> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` after `delay` from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: impl Into<E>) -> EventId {
        self.queue.push(self.now + delay, event.into())
    }

    /// Schedules `event` at absolute `time`. Times in the past are clamped
    /// to *now* so causality is never violated.
    pub fn schedule_at(&mut self, time: SimTime, event: impl Into<E>) -> EventId {
        self.queue.push(time.max(self.now), event.into())
    }

    /// Cancels a scheduled event.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }
}

/// A deterministic discrete-event engine.
///
/// ```
/// use entk_sim::{Engine, SimDuration};
///
/// let mut engine: Engine<u32> = Engine::new();
/// engine.schedule_in(SimDuration::from_secs(3), 7u32);
/// let mut seen = Vec::new();
/// engine.run(|event, ctx| {
///     seen.push((event, ctx.now()));
/// });
/// assert_eq!(seen.len(), 1);
/// assert_eq!(engine.now(), entk_sim::SimTime::from_secs(3));
/// ```
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
    steps: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine at t = 0 with an empty queue.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            steps: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Number of live pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules an initial event before the run starts (or between runs).
    pub fn schedule_in(&mut self, delay: SimDuration, event: impl Into<E>) -> EventId {
        self.queue.push(self.now + delay, event.into())
    }

    /// Schedules an event at an absolute time (clamped to now).
    pub fn schedule_at(&mut self, time: SimTime, event: impl Into<E>) -> EventId {
        self.queue.push(time.max(self.now), event.into())
    }

    /// Advances the clock to `time` without processing events (no-op when
    /// `time` is in the past). Federated drivers use this to bring a
    /// lagging cluster's clock up to the global virtual time before
    /// injecting work into it; the caller must guarantee no pending event
    /// is earlier than `time`, or the next pop trips the monotonicity
    /// debug assertion.
    pub fn advance_to(&mut self, time: SimTime) {
        self.now = self.now.max(time);
    }

    /// Timestamp of the next live event, without popping it: the heap's
    /// top, O(1) unless cancelled entries have to be dropped off it first.
    /// `None` when no live event is pending. Session drives call this before
    /// every pop, and federated drivers use it to pick the globally earliest
    /// event across several engines.
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// A scheduling [`Context`] at the engine's current time, for callers
    /// that drive layer code (which takes `&mut Context`) from outside a
    /// popped event — e.g. cancelling a unit in one engine while stepping
    /// another.
    pub fn context(&mut self) -> Context<'_, E> {
        Context {
            now: self.now,
            queue: &mut self.queue,
        }
    }

    /// Runs until the queue drains. `handler` is called for every event and
    /// may schedule more through the [`Context`].
    pub fn run(&mut self, mut handler: impl FnMut(E, &mut Context<'_, E>)) {
        while let Some((event, mut ctx)) = self.pop_until(SimTime::MAX) {
            handler(event, &mut ctx);
        }
    }

    /// Pops the next live event due at or before `bound`, moves the clock to
    /// it and counts the step; the returned [`Context`] schedules its
    /// follow-ups. `None` leaves the clock where it was: the queue is empty
    /// or its next event is later than `bound` and stays pending. This is
    /// the one way to step an engine — `run` loops over it, a session drive
    /// pops one event per poll, and a federated window passes its own
    /// strictly-before bound.
    pub fn pop_until(&mut self, bound: SimTime) -> Option<(E, Context<'_, E>)> {
        // Single heap traversal: the head is read in place and sifted out
        // only if it is due.
        let (time, _, event) = self.queue.pop_at_or_before(bound)?;
        debug_assert!(time >= self.now, "event queue went back in time");
        self.now = time;
        self.steps += 1;
        Some((event, self.context()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Ping(u32),
        Stop,
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut engine: Engine<Ev> = Engine::new();
        engine.schedule_in(SimDuration::from_secs(2), Ev::Ping(0));
        engine.schedule_in(SimDuration::from_secs(1), Ev::Ping(1));
        let mut observed = Vec::new();
        engine.run(|ev, ctx| {
            observed.push((ctx.now(), format!("{ev:?}")));
        });
        assert_eq!(observed.len(), 2);
        assert!(observed[0].0 < observed[1].0);
        assert_eq!(engine.now(), SimTime::from_secs(2));
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut engine: Engine<Ev> = Engine::new();
        engine.schedule_in(SimDuration::ZERO, Ev::Ping(3));
        let mut count = 0;
        engine.run(|ev, ctx| {
            if let Ev::Ping(n) = ev {
                count += 1;
                if n > 0 {
                    ctx.schedule_in(SimDuration::from_secs(1), Ev::Ping(n - 1));
                } else {
                    ctx.schedule_in(SimDuration::ZERO, Ev::Stop);
                }
            }
        });
        assert_eq!(count, 4);
        assert_eq!(engine.now(), SimTime::from_secs(3));
        assert_eq!(engine.steps(), 5);
    }

    #[test]
    fn pop_until_takes_only_events_due_by_an_inclusive_bound() {
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule_in(SimDuration::from_secs(1), 1u32);
        engine.schedule_in(SimDuration::from_secs(5), 2u32); // exactly on the bound
        engine.schedule_in(SimDuration::from_secs(10), 3u32);
        let bound = SimTime::from_secs(5);
        let mut seen = Vec::new();
        while let Some((n, ctx)) = engine.pop_until(bound) {
            seen.push((n, ctx.now()));
        }
        assert_eq!(
            seen,
            vec![(1, SimTime::from_secs(1)), (2, SimTime::from_secs(5))]
        );
        // The later event stays pending; the clock stays at the last pop.
        assert_eq!(engine.pending(), 1);
        assert_eq!(engine.now(), SimTime::from_secs(5));
        assert_eq!(engine.steps(), 2);
    }

    #[test]
    fn pop_until_returning_none_moves_nothing() {
        let mut engine: Engine<u32> = Engine::new();
        assert!(engine.pop_until(SimTime::MAX).is_none());
        engine.schedule_in(SimDuration::from_secs(3), 1u32);
        assert!(engine.pop_until(SimTime::from_secs(2)).is_none());
        assert_eq!(engine.now(), SimTime::ZERO);
        assert_eq!(engine.steps(), 0);
        assert_eq!(engine.pending(), 1);
        // Every pop counts as one step, follow-ups included.
        let (n, mut ctx) = engine.pop_until(SimTime::MAX).expect("due");
        assert_eq!((n, ctx.now()), (1, SimTime::from_secs(3)));
        ctx.schedule_in(SimDuration::ZERO, 2u32);
        assert!(engine.pop_until(SimTime::from_secs(3)).is_some());
        assert_eq!(engine.steps(), 2);
        assert!(engine.pop_until(SimTime::MAX).is_none());
        assert_eq!(engine.now(), SimTime::from_secs(3));
    }

    #[test]
    fn schedule_at_clamps_past_times() {
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule_in(SimDuration::from_secs(5), 1u32);
        let mut fired_at = Vec::new();
        engine.run(|n, ctx| {
            fired_at.push((n, ctx.now()));
            if n == 1 {
                // attempt to schedule in the past
                ctx.schedule_at(SimTime::from_secs(1), 2u32);
            }
        });
        assert_eq!(fired_at[1], (2, SimTime::from_secs(5)));
    }

    #[test]
    fn identical_runs_are_deterministic() {
        fn run_once() -> Vec<(u64, u32)> {
            let mut engine: Engine<u32> = Engine::new();
            for i in 0..10 {
                engine.schedule_in(SimDuration::from_micros(i % 3), i as u32);
            }
            let mut log = Vec::new();
            engine.run(|n, ctx| log.push((ctx.now().as_micros(), n)));
            log
        }
        assert_eq!(run_once(), run_once());
    }
}

#[cfg(test)]
mod reuse_tests {
    use super::*;

    #[test]
    fn engine_resumes_after_drain() {
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule_in(SimDuration::from_secs(1), 1u32);
        let mut seen = Vec::new();
        engine.run(|n, _| seen.push(n));
        // New events after a drain keep the monotonic clock.
        engine.schedule_in(SimDuration::from_secs(1), 2u32);
        engine.run(|n, _| seen.push(n));
        assert_eq!(seen, vec![1, 2]);
        assert_eq!(engine.now(), SimTime::from_secs(2));
    }

    #[test]
    fn cancelled_initial_event_never_fires() {
        let mut engine: Engine<u32> = Engine::new();
        let id = engine.schedule_in(SimDuration::from_secs(1), 1u32);
        engine.schedule_in(SimDuration::from_secs(2), 2u32);
        assert!(engine.queue.cancel(id));
        let mut seen = Vec::new();
        engine.run(|n, _| seen.push(n));
        assert_eq!(seen, vec![2]);
    }
}
