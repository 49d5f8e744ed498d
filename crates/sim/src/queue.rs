//! The pending-event set: a binary heap ordered by (time, insertion sequence).
//!
//! The sequence number guarantees FIFO order among events scheduled for the
//! same instant, which makes the whole simulation deterministic regardless of
//! heap internals. The ordering pair is public as [`DispatchKey`] so
//! observers peeking at the queue see the exact dispatch order.
//!
//! The heap holds only 24-byte `(key, slot)` entries; the events themselves
//! sit in a slab whose vacated slots are recycled through a free list. A
//! sift therefore moves a key, never an event, however large the event type
//! is — and since keys are unique, the pop order is the key order whatever
//! slot an event happens to occupy.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The total order every event dispatches in: due time first, then the
/// monotone insertion sequence as the tie-break.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DispatchKey {
    /// Absolute due instant.
    pub at: SimTime,
    /// Insertion sequence; unique within one queue.
    pub seq: u64,
}

/// A heap entry: an event's dispatch key and the slab slot holding it.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    key: DispatchKey,
    slot: usize,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is popped
        // first, with insertion order breaking ties.
        other.key.cmp(&self.key)
    }
}

/// A time-ordered queue of pending events.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled>,
    /// Event storage; `None` marks a slot on the free list.
    slab: Vec<Option<E>>,
    /// Vacated slab slots, reused before the slab grows.
    free: Vec<usize>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at absolute instant `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let key = self.reserve(at);
        self.push_reserved(key, event);
    }

    /// Take the next insertion sequence for instant `at` without pushing
    /// anything. An event later pushed at the returned key with
    /// [`push_reserved`](Self::push_reserved) pops exactly where a `push`
    /// made now would have.
    pub(crate) fn reserve(&mut self, at: SimTime) -> DispatchKey {
        let key = DispatchKey {
            at,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        key
    }

    /// Push `event` at a key taken from [`reserve`](Self::reserve). Each
    /// reserved key carries at most one event.
    pub(crate) fn push_reserved(&mut self, key: DispatchKey, event: E) {
        debug_assert!(key.seq < self.next_seq, "key was never reserved");
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                self.slab.len() - 1
            }
        };
        self.heap.push(Scheduled { key, slot });
    }

    /// Remove and return the earliest pending event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(key, event)| (key.at, event))
    }

    /// Remove and return the earliest pending event with its full key.
    pub fn pop_keyed(&mut self) -> Option<(DispatchKey, E)> {
        let Scheduled { key, slot } = self.heap.pop()?;
        let event = self.slab[slot].take().expect("heap entry owns its slot");
        self.free.push(slot);
        Some((key, event))
    }

    /// The earliest pending event and its key, without removing it.
    pub fn peek(&self) -> Option<(DispatchKey, &E)> {
        self.heap.peek().map(|s| {
            let event = self.slab[s.slot]
                .as_ref()
                .expect("heap entry owns its slot");
            (s.key, event)
        })
    }

    /// Due time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.key.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled (the next tie-break sequence).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), "c");
        q.push(SimTime::from_micros(10), "a");
        q.push(SimTime::from_micros(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_micros(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_micros(7), ());
        q.push(SimTime::from_micros(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(3)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(7)));
    }

    #[test]
    fn counters_track_len_and_total() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), 1);
        q.push(SimTime::from_micros(5), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(SimTime::from_micros(7), 2);
        // 7µs fires before the still-pending 10µs event.
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 1);
    }

    #[test]
    fn dispatch_key_orders_time_then_seq() {
        let a = DispatchKey {
            at: SimTime::from_micros(10),
            seq: 9,
        };
        let b = DispatchKey {
            at: SimTime::from_micros(10),
            seq: 10,
        };
        let c = DispatchKey {
            at: SimTime::from_micros(11),
            seq: 0,
        };
        assert!(a < b && b < c);
    }

    #[test]
    fn vacated_slots_are_reused() {
        let mut q = EventQueue::new();
        for i in 0..8 {
            q.push(SimTime::from_micros(i), i);
        }
        for _ in 0..8 {
            q.pop();
        }
        for i in 0..8 {
            q.push(SimTime::from_micros(100 - i), i);
        }
        assert_eq!(q.slab.len(), 8, "the slab grows only to the peak pending");
        assert_eq!(q.pop(), Some((SimTime::from_micros(93), 7)));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// One step of the random workload.
    #[derive(Debug, Clone)]
    enum Op {
        /// `n` events at one instant `delay` µs after the last pop.
        Burst(u64, usize),
        Pop,
        Peek,
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![
                (0u64..4, 1usize..12).prop_map(|(d, n)| Op::Burst(d, n)),
                Just(Op::Pop),
                Just(Op::Pop),
                Just(Op::Pop),
                Just(Op::Peek),
            ],
            1..400,
        )
    }

    proptest! {
        /// Against a `BTreeMap` reference model keyed by `(at, seq)`: every
        /// pop yields exactly the model's minimum, `peek` always equals the
        /// next `pop_keyed`, and the counters track the model — through
        /// same-instant bursts and constant slot recycling.
        #[test]
        fn slab_queue_matches_ordered_model(ops in ops()) {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut model: BTreeMap<DispatchKey, u64> = BTreeMap::new();
            let mut next_seq = 0u64;
            let mut now = SimTime::ZERO;
            let mut payload = 0u64;
            for op in ops {
                match op {
                    Op::Burst(delay, n) => {
                        for _ in 0..n {
                            let key = DispatchKey { at: now + delay, seq: next_seq };
                            next_seq += 1;
                            q.push(key.at, payload);
                            model.insert(key, payload);
                            payload += 1;
                        }
                    }
                    Op::Pop => {
                        let peeked = q.peek().map(|(k, e)| (k, *e));
                        let popped = q.pop_keyed();
                        prop_assert_eq!(peeked, popped);
                        let expect = model.pop_first();
                        prop_assert_eq!(popped, expect);
                        if let Some((key, _)) = popped {
                            now = key.at;
                        }
                    }
                    Op::Peek => {
                        let expect = model.first_key_value().map(|(k, e)| (*k, *e));
                        prop_assert_eq!(q.peek().map(|(k, e)| (k, *e)), expect);
                        prop_assert_eq!(q.peek_time(), expect.map(|(k, _)| k.at));
                    }
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.is_empty(), model.is_empty());
                prop_assert_eq!(q.scheduled_total(), next_seq);
            }
            while let Some(expect) = model.pop_first() {
                prop_assert_eq!(q.pop_keyed(), Some(expect));
            }
            prop_assert_eq!(q.pop_keyed(), None);
        }
    }
}
