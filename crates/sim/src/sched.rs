//! The scheduler: a clock plus an event queue.
//!
//! The runtime (in `dvelm-cluster`) drives the loop: `pop_next` advances the
//! clock to the event's due time and hands the event back for dispatch.
//! Generic over the event payload so every layer can be tested with its own
//! little event enum.

use crate::queue::{DispatchKey, EventQueue};
use crate::time::SimTime;

/// Aggregate scheduler counters in one struct, for callers (benchmarks,
/// tests) that read several at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStats {
    /// Events dispatched so far.
    pub dispatched: u64,
    /// Events ever scheduled.
    pub scheduled: u64,
    /// Events still pending.
    pub pending: u64,
    /// `schedule_at` calls whose instant lay in the past and was clamped to
    /// `now`. Zero in a fault-free run.
    pub clamped: u64,
}

/// A simulated clock with a pending-event queue.
#[derive(Debug)]
pub struct Scheduler<E> {
    now: SimTime,
    queue: EventQueue<E>,
    dispatched: u64,
    clamped: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// A scheduler at time zero with no pending events.
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            dispatched: 0,
            clamped: 0,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule an event at an absolute instant. Instants in the past are
    /// clamped to `now` (the event fires immediately, after already-pending
    /// events for `now`) and counted in [`SchedStats::clamped`].
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        if at < self.now {
            self.clamped += 1;
        }
        self.queue.push(at.max(self.now), event);
    }

    /// Schedule an event `delay_us` microseconds from now.
    pub fn schedule_after(&mut self, delay_us: u64, event: E) {
        self.queue.push(self.now + delay_us, event);
    }

    /// Pop the next event, advancing the clock to its due time.
    pub fn pop_next(&mut self) -> Option<(SimTime, E)> {
        let (at, event) = self.queue.pop()?;
        debug_assert!(at >= self.now, "event queue produced an event in the past");
        self.now = at;
        self.dispatched += 1;
        Some((at, event))
    }

    /// Due time of the next pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// The next pending event with its dispatch key, without removing it.
    pub fn peek(&self) -> Option<(DispatchKey, &E)> {
        self.queue.peek()
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Number of events dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Number of past-instant `schedule_at` calls clamped to `now`.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Aggregate counters in one struct.
    pub fn stats(&self) -> SchedStats {
        SchedStats {
            dispatched: self.dispatched,
            scheduled: self.queue.scheduled_total(),
            pending: self.queue.len() as u64,
            clamped: self.clamped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_pops() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_after(100, "b");
        s.schedule_after(50, "a");
        assert_eq!(s.now(), SimTime::ZERO);
        let (t, e) = s.pop_next().unwrap();
        assert_eq!((t, e), (SimTime::from_micros(50), "a"));
        assert_eq!(s.now(), SimTime::from_micros(50));
        let (t, e) = s.pop_next().unwrap();
        assert_eq!((t, e), (SimTime::from_micros(100), "b"));
        assert_eq!(s.now(), SimTime::from_micros(100));
        assert!(s.pop_next().is_none());
    }

    #[test]
    fn past_events_clamp_to_now_and_are_counted() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_after(100, 1);
        s.pop_next();
        assert_eq!(s.clamped(), 0);
        s.schedule_at(SimTime::from_micros(10), 2); // in the past
        let (t, e) = s.pop_next().unwrap();
        assert_eq!(e, 2);
        assert_eq!(t, SimTime::from_micros(100)); // clamped, clock monotone
        assert_eq!(s.clamped(), 1);
        // Scheduling exactly at `now` is not a clamp.
        s.schedule_at(s.now(), 3);
        assert_eq!(s.clamped(), 1);
    }

    #[test]
    fn relative_scheduling_is_from_current_time() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_after(10, 0);
        s.pop_next();
        s.schedule_after(10, 1);
        assert_eq!(s.pop_next().unwrap().0, SimTime::from_micros(20));
    }

    #[test]
    fn counters() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule_after(1, ());
        s.schedule_after(2, ());
        assert_eq!(s.pending(), 2);
        assert_eq!(s.dispatched(), 0);
        s.pop_next();
        assert_eq!(s.pending(), 1);
        assert_eq!(s.dispatched(), 1);
        assert_eq!(
            s.stats(),
            SchedStats {
                dispatched: 1,
                scheduled: 2,
                pending: 1,
                clamped: 0,
            }
        );
    }

    #[test]
    fn peek_exposes_key_without_dispatching() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_after(5, "x");
        let (key, e) = s.peek().unwrap();
        assert_eq!((key.at, key.seq, *e), (SimTime::from_micros(5), 0, "x"));
        assert_eq!(s.dispatched(), 0);
        assert_eq!(s.now(), SimTime::ZERO);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Events always come out in nondecreasing time order and the clock
        /// never runs backwards, for any scheduling pattern.
        #[test]
        fn pop_order_is_monotone(delays in proptest::collection::vec(0u64..10_000, 1..200)) {
            let mut s: Scheduler<usize> = Scheduler::new();
            for (i, d) in delays.iter().enumerate() {
                s.schedule_at(SimTime::from_micros(*d), i);
            }
            let mut last = SimTime::ZERO;
            let mut popped = 0;
            while let Some((t, _)) = s.pop_next() {
                prop_assert!(t >= last);
                last = t;
                popped += 1;
            }
            prop_assert_eq!(popped, delays.len());
        }

        /// FIFO among equal timestamps regardless of surrounding events.
        #[test]
        fn equal_times_fifo(n in 1usize..100) {
            let mut s: Scheduler<usize> = Scheduler::new();
            let t = SimTime::from_micros(500);
            for i in 0..n {
                s.schedule_at(t, i);
            }
            for i in 0..n {
                prop_assert_eq!(s.pop_next().unwrap().1, i);
            }
        }
    }
}
