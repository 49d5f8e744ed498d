//! The scheduler: a clock plus an event queue.
//!
//! The runtime (in `dvelm-cluster`) drives the loop: `pop_next` advances the
//! clock to the event's due time and hands the event back for dispatch.
//! Generic over the event payload so every layer can be tested with its own
//! little event enum. The pending set is a calendar queue
//! ([`EventQueue`]): a push, a pop and a peek each cost a small constant on
//! average, whatever the number of pending events.

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
        let key = self.reserve_at(at);
        self.queue.push_reserved(key, event);
    }

    /// Reserve the dispatch key a `schedule_at(at, ..)` made now would get,
    /// without scheduling anything: the instant is clamped and counted
    /// exactly as there, and the sequence number is used up. An event later
    /// handed to [`schedule_reserved`](Self::schedule_reserved) with this
    /// key dispatches in the very place that `schedule_at` would have put
    /// it, so a caller can defer or skip the push without moving any other
    /// event.
    pub fn reserve_at(&mut self, at: SimTime) -> DispatchKey {
        if at < self.now {
            self.clamped += 1;
        }
        self.queue.reserve(at.max(self.now))
    }

    /// Schedule `event` at a key from [`reserve_at`](Self::reserve_at). The
    /// push must happen before the clock passes the key, and each key
    /// carries at most one event.
    pub fn schedule_reserved(&mut self, key: DispatchKey, event: E) {
        debug_assert!(key.at >= self.now, "reserved key already passed");
        self.queue.push_reserved(key, event);
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
        assert_eq!(s.stats().clamped, 0);
        s.schedule_at(SimTime::from_micros(10), 2); // in the past
        let (t, e) = s.pop_next().unwrap();
        assert_eq!(e, 2);
        assert_eq!(t, SimTime::from_micros(100)); // clamped, clock monotone
        assert_eq!(s.stats().clamped, 1);
        // Scheduling exactly at `now` is not a clamp.
        s.schedule_at(s.now(), 3);
        assert_eq!(s.stats().clamped, 1);
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
    fn reserved_key_keeps_its_place_among_equal_instants() {
        let mut s: Scheduler<&str> = Scheduler::new();
        let t = SimTime::from_micros(10);
        let key = s.reserve_at(t);
        s.schedule_at(t, "later");
        s.schedule_at(SimTime::from_micros(5), "earlier");
        s.schedule_reserved(key, "reserved");
        let order: Vec<&str> = std::iter::from_fn(|| s.pop_next().map(|(_, e)| e)).collect();
        assert_eq!(order, ["earlier", "reserved", "later"]);
        assert_eq!(s.stats().scheduled, 3);
    }

    #[test]
    fn reserving_uses_up_a_sequence_even_if_nothing_is_pushed() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let skipped = s.reserve_at(SimTime::from_micros(1));
        s.schedule_at(SimTime::from_micros(1), 7);
        let (key, _) = s.peek().unwrap();
        assert_eq!(key.seq, skipped.seq + 1);
        assert_eq!(s.pending(), 1);
        assert_eq!(s.stats().scheduled, 2);
    }

    #[test]
    fn reserving_a_past_instant_clamps_and_counts_like_schedule_at() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_after(100, 0);
        s.pop_next();
        let key = s.reserve_at(SimTime::from_micros(10));
        assert_eq!(key.at, SimTime::from_micros(100));
        assert_eq!(s.stats().clamped, 1);
        // Exactly `now` is not a clamp.
        assert_eq!(s.reserve_at(s.now()).at, s.now());
        assert_eq!(s.stats().clamped, 1);
        s.schedule_reserved(key, 1);
        assert_eq!(s.pop_next(), Some((SimTime::from_micros(100), 1)));
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
    use crate::queue::prop_tests::delay;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// One step of [`reserved_push_matches_schedule_at`]'s workload.
    /// Instants are `now + ahead - back` µs, so some lie in the past.
    #[derive(Debug, Clone, Copy)]
    enum ReserveOp {
        Schedule(u64, u64),
        Reserve(u64, u64),
        /// Push one outstanding reservation, chosen by index.
        Fill(usize),
        Pop,
    }

    fn reserve_ops() -> impl Strategy<Value = Vec<ReserveOp>> {
        proptest::collection::vec(
            prop_oneof![
                (0u64..3, 0u64..6).prop_map(|(b, a)| ReserveOp::Schedule(b, a)),
                (0u64..3, 0u64..6).prop_map(|(b, a)| ReserveOp::Reserve(b, a)),
                (0usize..64).prop_map(ReserveOp::Fill),
                Just(ReserveOp::Pop),
                Just(ReserveOp::Pop),
            ],
            1..300,
        )
    }

    /// One step of [`scheduler_matches_ordered_model`]'s workload.
    #[derive(Debug, Clone, Copy)]
    enum ModelOp {
        /// `n` `schedule_at`s at `now + ahead - back` µs.
        Schedule(u64, u64, usize),
        /// A reservation at `now + ahead` µs, then `n` `schedule_at`s at
        /// the same instant.
        ReserveThenBurst(u64, usize),
        /// Push one outstanding reservation, chosen by index.
        Fill(usize),
        Pop,
        /// Fill every reservation, then pop until empty.
        Drain,
    }

    fn model_ops() -> impl Strategy<Value = Vec<ModelOp>> {
        proptest::collection::vec(
            prop_oneof![
                (0u64..3, delay(), 1usize..6).prop_map(|(b, a, n)| ModelOp::Schedule(b, a, n)),
                (0u64..200, 0u64..8).prop_map(|(b, a)| ModelOp::Schedule(b, a, 1)),
                (delay(), 0usize..6).prop_map(|(a, n)| ModelOp::ReserveThenBurst(a, n)),
                (0usize..64).prop_map(ModelOp::Fill),
                Just(ModelOp::Pop),
                Just(ModelOp::Pop),
                Just(ModelOp::Pop),
                (0u8..40).prop_map(|x| if x == 0 { ModelOp::Drain } else { ModelOp::Pop }),
            ],
            1..600,
        )
    }

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

        /// An event pushed at a reserved key dispatches exactly where a
        /// `schedule_at` made at reservation time would have, however the
        /// push is delayed, provided it lands before the clock passes the
        /// key. The reference scheduler makes every `schedule_at` at once;
        /// both must pop the same keys and payloads, clamp the same
        /// instants and count the same sequences.
        #[test]
        fn reserved_push_matches_schedule_at(ops in reserve_ops()) {
            let mut s: Scheduler<u64> = Scheduler::new();
            let mut reference: Scheduler<u64> = Scheduler::new();
            let mut outstanding: Vec<(DispatchKey, u64)> = Vec::new();
            let mut payload = 0u64;
            for op in ops {
                match op {
                    ReserveOp::Schedule(back, ahead) | ReserveOp::Reserve(back, ahead) => {
                        let at = SimTime::from_micros(
                            (s.now().as_micros() + ahead).saturating_sub(back),
                        );
                        reference.schedule_at(at, payload);
                        if matches!(op, ReserveOp::Schedule(..)) {
                            s.schedule_at(at, payload);
                        } else {
                            outstanding.push((s.reserve_at(at), payload));
                        }
                        payload += 1;
                    }
                    ReserveOp::Fill(pick) => {
                        if !outstanding.is_empty() {
                            let (key, e) = outstanding.swap_remove(pick % outstanding.len());
                            s.schedule_reserved(key, e);
                        }
                    }
                    ReserveOp::Pop => {
                        // A reservation must be pushed before the clock
                        // passes it: push the earliest one if it is due.
                        let earliest = (0..outstanding.len()).min_by_key(|&i| outstanding[i].0);
                        if let Some(i) = earliest {
                            if s.peek().is_none_or(|(head, _)| outstanding[i].0 < head) {
                                let (key, e) = outstanding.swap_remove(i);
                                s.schedule_reserved(key, e);
                            }
                        }
                        let key = s.peek().map(|(k, _)| k);
                        let popped = s.pop_next();
                        prop_assert_eq!(key, reference.peek().map(|(k, _)| k));
                        prop_assert_eq!(popped, reference.pop_next());
                    }
                }
                prop_assert_eq!(s.stats().clamped, reference.stats().clamped);
                prop_assert_eq!(s.stats().scheduled, reference.stats().scheduled);
                prop_assert_eq!(s.now(), reference.now());
            }
        }

        /// The scheduler against a `BTreeMap` keyed by `(at, seq)`, over
        /// the calendar's whole range: delays from zero to past the ring,
        /// past instants clamped to `now`, reservations whose older `seq`
        /// must land among same-instant pushes made after them, drains to
        /// empty followed by a restart, and enough simulated time to wrap
        /// the ring many times. A reservation enters the model when it is
        /// made and the queue when it is filled, at the latest just before
        /// the pop it heads.
        #[test]
        fn scheduler_matches_ordered_model(ops in model_ops()) {
            let mut s: Scheduler<u64> = Scheduler::new();
            let mut model: BTreeMap<DispatchKey, u64> = BTreeMap::new();
            let mut outstanding: BTreeMap<DispatchKey, u64> = BTreeMap::new();
            let mut clamped = 0u64;
            let mut payload = 0u64;
            for op in ops {
                match op {
                    ModelOp::Schedule(back, ahead, n) => {
                        let at = SimTime::from_micros(
                            (s.now().as_micros() + ahead).saturating_sub(back),
                        );
                        for _ in 0..n {
                            let key = DispatchKey { at: at.max(s.now()), seq: s.stats().scheduled };
                            clamped += u64::from(at < s.now());
                            s.schedule_at(at, payload);
                            model.insert(key, payload);
                            payload += 1;
                        }
                    }
                    ModelOp::ReserveThenBurst(ahead, n) => {
                        let at = s.now() + ahead;
                        let key = s.reserve_at(at);
                        prop_assert_eq!(key.at, at);
                        outstanding.insert(key, payload);
                        model.insert(key, payload);
                        payload += 1;
                        for _ in 0..n {
                            let key = DispatchKey { at, seq: s.stats().scheduled };
                            s.schedule_at(at, payload);
                            model.insert(key, payload);
                            payload += 1;
                        }
                    }
                    ModelOp::Fill(pick) => {
                        if let Some(&key) = outstanding.keys().nth(pick % outstanding.len().max(1)) {
                            let e = outstanding.remove(&key).unwrap_or_default();
                            s.schedule_reserved(key, e);
                        }
                    }
                    ModelOp::Pop => {
                        if let Some((&head, _)) = model.first_key_value() {
                            if let Some(e) = outstanding.remove(&head) {
                                s.schedule_reserved(head, e);
                            }
                        }
                        let expect = model.pop_first();
                        prop_assert_eq!(s.peek().map(|(k, e)| (k, *e)), expect);
                        prop_assert_eq!(s.pop_next(), expect.map(|(k, e)| (k.at, e)));
                    }
                    ModelOp::Drain => {
                        for (key, e) in std::mem::take(&mut outstanding) {
                            s.schedule_reserved(key, e);
                        }
                        while let Some((key, e)) = model.pop_first() {
                            prop_assert_eq!(s.pop_next(), Some((key.at, e)));
                        }
                        prop_assert_eq!(s.pop_next(), None);
                    }
                }
                prop_assert_eq!(s.pending(), model.len() - outstanding.len());
                prop_assert_eq!(s.stats().clamped, clamped);
            }
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
