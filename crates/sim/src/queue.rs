//! The pending-event set: a calendar queue ordered by (time, insertion
//! sequence).
//!
//! The sequence number guarantees FIFO order among events scheduled for the
//! same instant, which makes the whole simulation deterministic. The
//! ordering pair is public as [`DispatchKey`] so observers peeking at the
//! queue see the exact dispatch order.
//!
//! The queue is a calendar queue (R. Brown, "Calendar Queues", CACM 31(10),
//! 1988), shaped like the kernel's timer wheel: a ring of 4096 buckets of
//! 64 µs each, 262 ms in all. Every event sits in one slab of nodes whose
//! vacated slots are chained into a free list, and a bucket is an
//! intrusive list threaded through those nodes' `next` links. A two-level
//! occupancy bitmap finds the next non-empty bucket in a few word scans.
//! Three places hold a pending key:
//!
//! - the *run*: the cursor's bucket, and anything pushed at or before it,
//!   sorted by `(at, seq)` when the cursor reaches the bucket; a later push
//!   into it is inserted in order, and every pop takes its front;
//! - the ring, for the 4,095 buckets after the cursor, each list unordered;
//! - a small min-heap for keys beyond the ring, drained into the ring as
//!   the cursor advances.
//!
//! Every run key is smaller than every ring key, and every ring key than
//! every far key, so the run's front is the minimum. Order within a bucket
//! is by key, never by push order: [`Scheduler::reserve_at`] hands out a
//! key whose `seq` is older than pushes made before it is used.
//!
//! [`Scheduler::reserve_at`]: crate::Scheduler::reserve_at

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A calendar bucket spans `1 << BUCKET_SHIFT` = 64 µs.
const BUCKET_SHIFT: u32 = 6;
/// Number of buckets in the ring.
const BUCKETS: usize = 4096;
/// The ring slot of an absolute bucket number.
const SLOT_MASK: u64 = BUCKETS as u64 - 1;
/// The end of a list.
const NIL: u32 = u32::MAX;

/// The total order every event dispatches in: due time first, then the
/// monotone insertion sequence as the tie-break.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DispatchKey {
    /// Absolute due instant.
    pub at: SimTime,
    /// Insertion sequence; unique within one queue.
    pub seq: u64,
}

impl DispatchKey {
    /// The absolute calendar bucket this key falls in.
    #[inline]
    fn bucket(self) -> u64 {
        self.at.as_micros() >> BUCKET_SHIFT
    }
}

/// One slab slot: a pending event with its key, or a vacated slot.
#[derive(Debug)]
struct Node<E> {
    key: DispatchKey,
    /// The next node of this node's ring bucket, or of the free list.
    next: u32,
    /// `None` marks a slot on the free list.
    event: Option<E>,
}

/// Which ring slots hold a non-empty bucket: one bit per slot, and one
/// summary bit per word of slots.
#[derive(Debug)]
struct Occupancy {
    words: [u64; BUCKETS / 64],
    summary: u64,
}

impl Occupancy {
    fn set(&mut self, slot: usize) {
        self.words[slot >> 6] |= 1 << (slot & 63);
        self.summary |= 1 << (slot >> 6);
    }

    fn clear(&mut self, slot: usize) {
        let w = slot >> 6;
        self.words[w] &= !(1 << (slot & 63));
        if self.words[w] == 0 {
            self.summary &= !(1 << w);
        }
    }

    /// The first occupied slot at or after `slot`, wrapping round the ring.
    fn next_from(&self, slot: usize) -> Option<usize> {
        let w = slot >> 6;
        let here = self.words[w] & (!0u64 << (slot & 63));
        if here != 0 {
            return Some((w << 6) | here.trailing_zeros() as usize);
        }
        let later = self.summary & (!0u64 << w << 1);
        let w = if later != 0 {
            later.trailing_zeros()
        } else if self.summary != 0 {
            self.summary.trailing_zeros()
        } else {
            return None;
        } as usize;
        Some((w << 6) | self.words[w].trailing_zeros() as usize)
    }
}

/// A time-ordered queue of pending events.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Event storage; vacated slots are chained from `free`.
    slab: Vec<Node<E>>,
    free: u32,
    /// Every key in bucket `cur` or earlier, sorted ascending. Empty only
    /// when the whole queue is.
    run: VecDeque<(DispatchKey, u32)>,
    /// The cursor: the absolute bucket the run was loaded from.
    cur: u64,
    /// The first node of each ring slot's bucket; the ring holds the
    /// buckets `cur + 1 ..= cur + BUCKETS - 1`.
    heads: Box<[u32]>,
    occupied: Occupancy,
    /// Keys from bucket `cur + BUCKETS` on, smallest first.
    far: BinaryHeap<Reverse<(DispatchKey, u32)>>,
    /// The last key popped: no push may come before it.
    last_popped: Option<DispatchKey>,
    len: usize,
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
            slab: Vec::new(),
            free: NIL,
            run: VecDeque::new(),
            cur: 0,
            heads: vec![NIL; BUCKETS].into_boxed_slice(),
            occupied: Occupancy {
                words: [0; BUCKETS / 64],
                summary: 0,
            },
            far: BinaryHeap::new(),
            last_popped: None,
            len: 0,
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
    /// reserved key carries at most one event, and it must come after the
    /// last key popped.
    pub(crate) fn push_reserved(&mut self, key: DispatchKey, event: E) {
        debug_assert!(key.seq < self.next_seq, "key was never reserved");
        debug_assert!(
            self.last_popped.is_none_or(|last| key > last),
            "pushed behind the last pop"
        );
        let slot = self.store(key, event);
        self.len += 1;
        let bucket = key.bucket();
        if self.run.is_empty() {
            self.cur = bucket;
            self.run.push_back((key, slot));
        } else if bucket <= self.cur {
            match self.run.back() {
                Some(&(back, _)) if back < key => self.run.push_back((key, slot)),
                _ => {
                    let i = self.run.partition_point(|&(k, _)| k < key);
                    self.run.insert(i, (key, slot));
                }
            }
        } else if bucket - self.cur < BUCKETS as u64 {
            self.link(bucket, slot);
        } else {
            self.far.push(Reverse((key, slot)));
        }
    }

    /// Put `event` in a slab slot, reusing a vacated one first.
    fn store(&mut self, key: DispatchKey, event: E) -> u32 {
        if self.free == NIL {
            let slot = u32::try_from(self.slab.len()).expect("fewer than 2^32 pending events");
            self.slab.push(Node {
                key,
                next: NIL,
                event: Some(event),
            });
            return slot;
        }
        let slot = self.free;
        let node = &mut self.slab[slot as usize];
        self.free = node.next;
        node.key = key;
        node.event = Some(event);
        slot
    }

    /// Prepend slab slot `slot` to the list of ring bucket `bucket`.
    fn link(&mut self, bucket: u64, slot: u32) {
        let ring = (bucket & SLOT_MASK) as usize;
        self.slab[slot as usize].next = self.heads[ring];
        self.heads[ring] = slot;
        self.occupied.set(ring);
    }

    /// Remove and return the earliest pending event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(key, event)| (key.at, event))
    }

    /// Remove and return the earliest pending event with its full key.
    pub fn pop_keyed(&mut self) -> Option<(DispatchKey, E)> {
        let (key, slot) = self.run.pop_front()?;
        let node = &mut self.slab[slot as usize];
        let event = node.event.take().expect("a queued slot holds its event");
        node.next = self.free;
        self.free = slot;
        self.len -= 1;
        self.last_popped = Some(key);
        if self.run.is_empty() {
            self.advance();
        }
        Some((key, event))
    }

    /// Move the cursor to the next non-empty bucket, if any, draining far
    /// keys that now fall inside the ring, and load that bucket into the
    /// run in key order.
    fn advance(&mut self) {
        let from = self.cur + 1;
        let next = match self.occupied.next_from((from & SLOT_MASK) as usize) {
            Some(ring) => from + ((ring as u64).wrapping_sub(from) & SLOT_MASK),
            None => match self.far.peek() {
                Some(Reverse((key, _))) => key.bucket(),
                None => return,
            },
        };
        self.cur = next;
        while let Some(&Reverse((key, slot))) = self.far.peek() {
            let bucket = key.bucket();
            if bucket - next >= BUCKETS as u64 {
                break;
            }
            self.far.pop();
            if bucket == next {
                self.run.push_back((key, slot));
            } else {
                self.link(bucket, slot);
            }
        }
        let ring = (next & SLOT_MASK) as usize;
        let mut slot = std::mem::replace(&mut self.heads[ring], NIL);
        if slot != NIL {
            self.occupied.clear(ring);
        }
        while slot != NIL {
            let node = &self.slab[slot as usize];
            self.run.push_back((node.key, slot));
            slot = node.next;
        }
        self.run
            .make_contiguous()
            .sort_unstable_by_key(|&(key, _)| key);
    }

    /// The earliest pending event and its key, without removing it.
    pub fn peek(&self) -> Option<(DispatchKey, &E)> {
        self.run.front().map(|&(key, slot)| {
            let event = self.slab[slot as usize]
                .event
                .as_ref()
                .expect("a queued slot holds its event");
            (key, event)
        })
    }

    /// Due time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.run.front().map(|&(key, _)| key.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
pub(crate) mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// A bucket's and the whole ring's span, in µs.
    const BUCKET_US: u64 = 1 << BUCKET_SHIFT;
    const RING_US: u64 = BUCKETS as u64 * BUCKET_US;

    /// A delay in µs: within the cursor's bucket, a few buckets on, at the
    /// ticks' and WAN arrivals' range, across the ring's far edge, and
    /// well past the ring.
    pub(crate) fn delay() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..4,
            0u64..4 * BUCKET_US,
            0u64..70_000,
            RING_US - 2 * BUCKET_US..RING_US + 2 * BUCKET_US,
            0u64..4 * RING_US,
        ]
    }

    /// One step of the random workload.
    #[derive(Debug, Clone)]
    enum Op {
        /// `n` events at one instant `delay` µs after the last pop.
        Burst(u64, usize),
        Pop,
        Peek,
        /// Pop everything; later bursts restart the emptied queue.
        Drain,
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![
                (delay(), 1usize..12).prop_map(|(d, n)| Op::Burst(d, n)),
                Just(Op::Pop),
                Just(Op::Pop),
                Just(Op::Pop),
                Just(Op::Peek),
                (0u8..40).prop_map(|x| if x == 0 { Op::Drain } else { Op::Pop }),
            ],
            1..600,
        )
    }

    proptest! {
        /// Against a `BTreeMap` reference model keyed by `(at, seq)`: every
        /// pop yields exactly the model's minimum, `peek` always equals the
        /// next `pop_keyed`, and the counters track the model — through
        /// same-instant bursts, delays from zero to past the ring, the
        /// cursor wrapping round the ring, drains to empty and constant
        /// slot recycling.
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
                    Op::Drain => {
                        while let Some(expect) = model.pop_first() {
                            prop_assert_eq!(q.pop_keyed(), Some(expect));
                            now = expect.0.at;
                        }
                        prop_assert_eq!(q.pop_keyed(), None);
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
